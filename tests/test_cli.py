import argparse
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nygaard import cli, complexes, errors, linalg, pdalg, qtorus, rings, syntomic, torus, witt

from oracles import src_env

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check must be a raise
    found = ["%s:%d" % (path.relative_to(ROOT), node.lineno)
             for path in sorted((ROOT / "src" / "nygaard").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# Definitions in src/nygaard that no command reaches, by the reason each is kept.
UNREACHED = {
    "the Witt ring API": (
        "witt.witt_zero", "witt.witt_one", "witt.witt_add"),
    "the PD element API the tests build elements with": (
        "pdalg.PDAlgebra.monomial", "pdalg.PDAlgebra.to_vector", "pdalg.PDAlgebra.from_vector"),
}


def _definitions():
    """key -> (name, key of the enclosing class or None, names it refers to,
    the subset of those it names as attributes) for every top-level function
    and class of the package and every method. A class refers to the names
    in its bases, decorators and class body outside its methods."""
    def names(nodes):
        nodes = [n for node in nodes for n in ast.walk(node)]
        attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        return {n.id for n in nodes if isinstance(n, ast.Name)} | attrs, attrs

    out = {}
    for path in sorted((ROOT / "src" / "nygaard").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            key = "%s.%s" % (path.stem, node.name) if hasattr(node, "name") else None
            if isinstance(node, ast.FunctionDef):
                out[key] = (node.name, None, *names([node]))
            elif isinstance(node, ast.ClassDef):
                body = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
                out[key] = (node.name, None, *names(body + node.bases + node.decorator_list))
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        out["%s.%s" % (key, m.name)] = (m.name, key, *names([m]))
    return out


def test_every_definition_is_reached_from_a_command_or_kept_for_a_reason():
    # reached by name from the commands and main: a function or class when a
    # reached definition names it, a method when its class is reached and a
    # reached definition names it as an attribute (dunder methods always); a
    # local variable of the same name does not reach a method
    defs = _definitions()
    named = {fn.__name__ for fn in cli.COMMANDS.values()} | {"main"}
    attributes = set()
    reached = set()
    grown = True
    while grown:
        grown = False
        for key, (name, cls, refs, attrs) in defs.items():
            dunder = name.startswith("__") and name.endswith("__")
            if key not in reached and (cls is None or cls in reached) and (
                    name in named if cls is None else dunder or name in attributes):
                reached.add(key)
                named |= refs
                attributes |= attrs
                grown = True
    # a method of an unreached class is covered by its class
    unreached = {key for key, (_, cls, _, _) in defs.items()
                 if key not in reached and (cls is None or cls in reached)}
    allowed = {key for keys in UNREACHED.values() for key in keys}
    # (unreached and not allowed, allowed but reached or gone)
    assert (sorted(unreached - allowed), sorted(allowed - unreached)) == ([], [])


def test_fixture_regress_all_pass():
    report = cli.fixture_regress(str(FIXTURES))
    assert len(report["passed"]) == 34
    assert report["failed"] == [] and report["errors"] == []


def test_regress_records_a_failing_fixture_and_goes_on(tmp_path, capsys):
    # a fixture whose config is bad (UsageError) or whose computation cannot
    # certify (NotCertified) is an error of the report, not the end of the run
    (tmp_path / "a_good.json").write_text((FIXTURES / "eta" / "zero_f_p.json").read_text())
    bad = {"b_bad_p.json": {"command": "witt", "config": {"p": 4}},
           "c_too_tight.json": {"command": "acrys",
                                "config": {"p": 2, "n": 3, "e": 1, "i": 2, "W": 1}},
           "d_bad_key.json": {"command": "witt", "config": {"threads": 2}}}
    for name, blob in bad.items():
        (tmp_path / name).write_text(json.dumps(dict(blob, expected={})))
    assert cli.main(["regress", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] == [str(tmp_path / "a_good.json")]
    assert report["failed"] == []
    assert [e["file"] for e in report["errors"]] == [str(tmp_path / name) for name in bad]
    assert report["errors"][0]["error"] == "p = 4 is not prime"
    assert report["errors"][1]["error"].startswith("phi image")
    assert report["errors"][2]["error"] == "unknown config key 'threads'"


def test_every_name_the_tracer_wraps_resolves():
    # bench/tracer.py wraps the modules of LAYERS and the methods of METHODS
    # by name; a name that no longer resolves would break its install, which
    # only the benchmark's own tests run.  The file is parsed, not imported
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("LAYERS", "METHODS")}
    modules = {name: importlib.import_module("nygaard." + name) for name in tables["LAYERS"]}
    missing = []
    for (module, cls), methods in tables["METHODS"].items():
        found = getattr(modules[module], cls, None)
        if not isinstance(found, type):
            missing.append("%s.%s" % (module, cls))
            continue
        missing += ["%s.%s.%s" % (module, cls, m) for m in methods or ()
                    if not callable(vars(found).get(m))]
    assert sorted(tables) == ["LAYERS", "METHODS"] and missing == []


def test_import_loads_no_dataclasses_or_inspect():
    # a cold CLI run pays for every module the import loads
    code = """
import sys
before = set(sys.modules)
import nygaard.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""
    out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "nygaard.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_equal_pgroups_hash_equal():
    G, H = linalg.PGroup(3, (2, 1), 1), linalg.PGroup(3, (2, 1), 1)
    assert G is not H and G == H and len({G, H}) == 1
    assert G != linalg.PGroup(3, (2, 1)) and G != linalg.PGroup(5, (2, 1), 1)


@pytest.mark.parametrize("argv", [["eta", "--fixture", "random3", "-p3"], ["regress", "fixtures"]])
def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly(argv):
    # the reader closes its end before anything is written, as `| head -c 10`
    # may: no BrokenPipeError traceback, and the exit code of the docstring
    proc = subprocess.Popen([sys.executable, "-m", "nygaard", *argv], cwd=ROOT, env=src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_PIPE_CLOSED == 141
    assert err == b""


def test_main_witt_exit_0(capsys):
    assert cli.main(["witt", "-p", "2", "-n", "2"]) == 0
    assert '"all_ok": true' in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["witt", "-p", "4"],
    ["syntomic", "-V", "-1"],
    ["acrys", "-W", "-1"],
    ["syntomic", "--threads", "2"],
    ["syntomic", "--model", "fp"],
    ["eta", "--fixture", "randomx"],
])
def test_main_usage_exit_1(argv):
    assert cli.main(argv) == 1


def test_main_eta_f_zero_exit_1(capsys):
    # eta itself refuses f = 0, with a NotNonzerodivisor, which is a UsageError
    assert cli.main(["eta", "--f", "0"]) == 1
    assert capsys.readouterr().err == "usage error: f must be nonzero\n"


@pytest.mark.parametrize("token", ["abc", "p^x", "p^-1"])
def test_main_malformed_f_exit_1(capsys, token):
    # --f takes an integer, p or p^k with k >= 0
    assert cli.main(["eta", "--f", token]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(token) in err


def test_main_orbit_not_stabilised_exit_2(capsys):
    # the degree-2 image chain of this q orbit still moves after four
    # window extensions
    argv = ["syntomic", "--model", "q", "-p", "2", "-d", "1", "-i", "1", "-r", "2",
            "-N", "5", "-M", "2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "not certified: image chain did not stabilize in degrees [2]\n")


@pytest.mark.parametrize("line, key", [("threads=2", "threads"), ("n=two", "n")])
def test_main_bad_config_file_exit_1(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=2\n%s\n" % line)
    assert cli.main(["witt", "--config", str(cfg)]) == 1
    assert repr(key) in capsys.readouterr().err


def test_error_classes_are_shared():
    assert syntomic.NotStabilized is errors.NotStabilized
    assert pdalg.TruncationTooTight is errors.TruncationTooTight
    assert torus.PrecisionExhausted is errors.PrecisionExhausted
    assert syntomic.BoundViolated is errors.BoundViolated
    assert linalg.CompositeNonzero is errors.CompositeNonzero
    assert issubclass(errors.CompositeNonzero, errors.NotCertified)


@pytest.mark.parametrize("exc", [errors.NotStabilized, errors.PrecisionExhausted,
                                 errors.BoundViolated, errors.CompositeNonzero])
def test_main_not_certified_exit_2(monkeypatch, exc):
    def fail(cfg):
        raise exc("forced")

    monkeypatch.setitem(cli.COMMANDS, "witt", fail)
    assert cli.main(["witt"]) == 2


MOVED_ERRORS = [
    (complexes, "NotNonzerodivisor", errors.UsageError),
    (witt, "LengthMismatch", errors.UsageError),
    (rings, "RingError", errors.NotCertified),
]


@pytest.mark.parametrize("module, name, base", MOVED_ERRORS)
def test_moved_error_classes_keep_their_import_paths(monkeypatch, capsys, module, name, base):
    exc = getattr(errors, name)
    assert getattr(module, name) is exc and issubclass(exc, base)

    def fail(cfg):
        raise exc("forced")

    monkeypatch.setitem(cli.COMMANDS, "witt", fail)
    assert cli.main(["witt"]) == (1 if base is errors.UsageError else 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, argv, loops", [
    ("derham", ["-p", "2", "-d", "1", "-i", "1", "-M", "3"], 2),
    ("qderham", ["-p", "2", "-d", "1", "-i", "1", "-N", "3", "-M", "3"], 5),
])
def test_M_is_honoured(monkeypatch, capsys, command, argv, loops):
    # every weight loop runs over the classes of the box of radius 3: the
    # Koszul differentials built are those of the classes 0..3, the largest
    # 3 e_1 among them, and of their Frobenius images at p = 2
    radii = []
    classes = torus.weight_classes

    def spy(M):
        radii.append(M)
        return classes(M)

    for module in (cli, torus, qtorus):
        monkeypatch.setattr(module, "weight_classes", spy)
    seen = set()
    for model in (torus.TorusDeRham, qtorus.QTorusComplex):
        def diff_matrix(X, m, orig=model.diff_matrix):
            seen.add(m)
            return orig(X, m)

        monkeypatch.setattr(model, "diff_matrix", diff_matrix)
    assert cli.main([command, *argv]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["all_ok"]
    assert radii == [3] * loops
    assert seen == set(range(4)) | {2 * c for c in range(4)}


@pytest.mark.parametrize("command", ["derham", "qderham"])
def test_negative_twist_is_a_usage_error(capsys, command):
    # for i < 0 the truncation tau^{<=i} is zero and p^i is not an integer,
    # so the checks would certify nothing and report all_ok
    assert cli.main([command, "-i", "-1"]) == 1
    assert capsys.readouterr().err == (
        "usage error: the de Rham checks need i >= 0, got i = -1\n")


def test_regress_fixtures_under_python_O():
    # every certificate is a typed check, so stripping asserts changes nothing
    out = subprocess.run([sys.executable, "-O", "-m", "nygaard.cli", "regress", str(FIXTURES)],
                         env=src_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert len(report["passed"]) == 34
    assert report["failed"] == [] and report["errors"] == []


@pytest.mark.parametrize("argv", [
    ["acrys", "-p", "2", "-n", "3", "-e", "1", "-i", "2", "-W", "1"],
    ["syntomic", "--model", "acrys", "-p", "2", "-e", "1", "-i", "1", "-r", "1", "-W", "1"],
])
def test_truncation_too_tight_exit_2(capsys, argv):
    # the weight window W = 1 cannot hold phi(x^{[1]}) = p! x^{[p]}
    assert issubclass(pdalg.TruncationTooTight, errors.NotCertified)
    assert pdalg.TruncationTooTight is errors.TruncationTooTight
    assert cli.main(argv) == 2
    assert "not certified: phi image" in capsys.readouterr().err


def test_python_O_m_nygaard_exit_2():
    argv = ["acrys", "-p", "2", "-n", "3", "-e", "1", "-i", "2", "-W", "1"]
    out = subprocess.run([sys.executable, "-O", "-m", "nygaard", *argv],
                         env=src_env(), capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("not certified:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_charp_tail_test_raises_under_python_O(flags):
    # V + 1 = 2 < r = 3 with primitive weights in the box: charp builds no
    # window, yet the tail test is a typed raise, not an assert
    argv = ["syntomic", "--model", "charp", "-p", "2", "-d", "2", "-i", "1", "-r", "3",
            "-M", "1", "-V", "1"]
    out = subprocess.run([sys.executable, *flags, "-m", "nygaard", *argv],
                         env=src_env(), capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "not certified: orbit windows did not certify at V = 1\n")


def _cli_result(argv, *flags):
    out = subprocess.run([sys.executable, *flags, "-m", "nygaard.cli", *argv],
                         env=src_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)["result"]


@pytest.mark.parametrize("argv", [
    ["syntomic", "--model", "q", "-p", "2", "-d", "1", "-i", "1", "-r", "2", "-N", "3", "-M", "1"],
    ["syntomic", "--model", "charp", "-p", "3", "-d", "2", "-i", "1", "-r", "2", "-M", "1"],
    ["syntomic", "--model", "acrys", "-p", "3", "-e", "1", "-i", "1", "-r", "1"],
    ["syntomic", "--model", "acrys", "-p", "5", "-e", "1", "-i", "3", "-r", "3"],
])
def test_syntomic_result_same_under_python_O(argv):
    # every check is a typed raise, so stripping asserts changes nothing
    assert _cli_result(argv, "-O") == _cli_result(argv)


@pytest.mark.parametrize("argv, err", [
    # W < n + i
    (["syntomic", "--model", "acrys", "-p", "2", "-e", "1", "-i", "1", "-r", "2", "-W", "2"],
     "phi images need W >= n + i = 3, got W = 2"),
    # the chain of [x^{1/2}] ends at x^{[2]}, and 2 < n + i = 3
    pytest.param(["syntomic", "--model", "acrys", "-p", "2", "-e", "1", "-i", "1", "-r", "2",
                  "-W", "3"], "phi image of level 2 leaves W = 3", id="argv1-chain ends at level 2"),
])
@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_fibre_group_raises_under_python_O(argv, err, flags):
    # the window tests of the fibre group are typed raises, not asserts
    out = subprocess.run([sys.executable, *flags, "-m", "nygaard", *argv],
                         env=src_env(), capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (2, "not certified: %s\n" % err)


@pytest.mark.parametrize("how", ["flag", "config"])
def test_syntomic_charp_rejects_an_explicit_N(tmp_path, capsys, how):
    # charp runs at N = 1 and reads no N, so an explicit N is a foreign field
    argv = ["syntomic", "--model", "charp", "-p", "2", "-d", "1", "-i", "1", "-r", "1", "-M", "1"]
    if how == "flag":
        argv += ["-N", "3"]
    else:
        (tmp_path / "run.cfg").write_text("N=3\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "usage error: syntomic --model charp does not read N\n"
    # the default model is charp too
    assert cli.main(["syntomic", "-N", "3"]) == 1
    assert capsys.readouterr().err == "usage error: syntomic --model charp does not read N\n"


def test_syntomic_charp_envelope_echoes_the_N_it_runs_at(capsys):
    # charp reads no N, and its envelope config has none, under the default
    # model too; the q model keeps the default N = 4
    argv = ["syntomic", "-p", "2", "-d", "1", "-i", "1", "-r", "1", "-M", "1"]
    for extra, N in ((["--model", "charp"], None), ([], None), (["--model", "q"], 4)):
        assert cli.main(argv + extra) == 0
        assert json.loads(capsys.readouterr().out)["config"].get("N") == N


def test_syntomic_charp_N_1_is_the_run_without_N(capsys):
    # charp is the q-model at N = 1 and reads no N: even -N 1 is refused
    argv = ["syntomic", "--model", "charp", "-p", "3", "-d", "2", "-i", "1", "-r", "2", "-M", "1"]
    assert cli.main(argv + ["-N", "1"]) == 1
    assert capsys.readouterr().err == "usage error: syntomic --model charp does not read N\n"


def _runs():
    """(command, model) for every command, and syntomic once per model."""
    return [(command, model) for command, fields in cli.READS.items()
            for model in (fields if isinstance(fields, dict) else [None])]


def _flag(field):
    return ("-" if isinstance(cli._FIELDS[field][0], int) else "--") + field


def test_each_command_takes_the_flags_of_its_fields():
    # syntomic takes the fields of all its models; 31 (command, field) pairs
    ap = cli.make_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    pairs = 0
    for command in cli.COMMANDS:
        fields = {k for model in (cli.READS["syntomic"] if command == "syntomic" else [None])
                  for k in cli.reads(command, model)}
        flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert flags - {"-h", "--help", "--out", "--config", "--write-fixture"} == \
            {_flag(k) for k in fields}, command
        pairs += len(fields)
    assert pairs == 31


@pytest.mark.parametrize("argv, flag", [
    (["witt", "-d", "1"], "-d 1"),
    (["syntomic", "--model", "charp", "-n", "2"], "-n 2"),
    (["regress", "fixtures", "extra"], "extra"),
])
def test_a_flag_the_subcommand_does_not_take_is_reported_by_its_parser(capsys, argv, flag):
    # the subcommand's own usage line and name, not the top-level ones
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: nygaard %s [-h]" % argv[0]), err
    assert err.endswith("nygaard %s: error: unrecognized arguments: %s\n" % (argv[0], flag))


def test_each_fixture_pins_exactly_the_fields_its_run_reads():
    for path in sorted(FIXTURES.rglob("*.json")):
        blob = json.loads(path.read_text())
        assert set(blob["config"]) == set(cli.reads(blob["command"], blob["config"].get("model"))), \
            path


@pytest.mark.parametrize("command, model, field", [
    (command, model, k) for command, model in _runs()
    for k in cli._FIELDS if k not in cli.reads(command, model)])
def test_a_foreign_field_is_refused_at_every_entry(tmp_path, capsys, command, model, field):
    # as a flag, as a --config key and as a RunConfig keyword; each refusal
    # names the field
    value = cli._FIELDS[field][0]
    argv = [command] + (["--model", model] if model else [])
    refusal = "%s does not read %s" % (" ".join(argv), field)
    assert cli.main(argv + [_flag(field), str(value)]) == 1
    err = capsys.readouterr().err
    if command == "syntomic" and any(field in read for read in cli.READS["syntomic"].values()):
        assert err == "usage error: %s\n" % refusal
    else:
        assert "unrecognized arguments: %s %s" % (_flag(field), value) in err
    (tmp_path / "run.cfg").write_text("%s=%s\n" % (field, value))
    assert cli.main(argv + ["--config", str(tmp_path / "run.cfg")]) == 1
    assert capsys.readouterr().err == "usage error: %s\n" % refusal
    values = {field: value, **({"model": model} if model else {})}
    with pytest.raises(errors.UsageError, match="^%s$" % refusal):
        cli.run_command(command, cli.RunConfig(**values))


@pytest.mark.parametrize("command, model", _runs())
def test_the_envelope_config_holds_the_fields_read_at_the_values_used(
        tmp_path, capsys, command, model):
    # a run with the defaults: W reads the window 3p^2 and V the window
    # r + 1 that the run used, and the fixture it writes regresses
    argv = [command] + (["--model", model] if model else [])
    fixture = tmp_path / "run.json"
    assert cli.main(argv + ["--write-fixture", str(fixture)]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert set(config) == set(cli.reads(command, model))
    p, r = cli.RunConfig.p, cli.RunConfig.r
    assert (config.get("W", 3 * p * p), config.get("V", r + 1)) == (3 * p * p, r + 1)
    assert json.loads(fixture.read_text())["config"] == config
    assert cli.main(["regress", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] == [str(fixture)]


@pytest.mark.parametrize("argv, field, value", [
    (["acrys", "-p", "3", "-n", "1", "-e", "1"], "W", 27),
    (["acrys", "-p", "3", "-n", "1", "-e", "1", "-W", "13"], "W", 13),
    (["syntomic", "--model", "acrys", "-p", "3", "-e", "1", "-r", "2"], "W", 27),
    (["syntomic", "--model", "charp", "-r", "2", "-M", "1"], "V", 3),
    (["syntomic", "--model", "q", "-r", "2", "-N", "2", "-M", "1"], "V", 3),
])
def test_the_envelope_resolves_the_window_defaults(capsys, argv, field, value):
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"][field] == value


@pytest.mark.parametrize("model", ["charp", "q"])
@pytest.mark.parametrize("window", [[], ["-V", "5"]], ids=["default V", "explicit V"])
def test_the_envelope_V_is_the_window_the_result_used(capsys, model, window):
    # config V = V_used - 1 when the tail test ran, and 0 with V_used = 0
    # when no window ran: at i < 0, and in a box with no primitive weight
    argv = ["syntomic", "--model", model, "-r", "2"] + (["-N", "2"] if model == "q" else [])
    V = int(window[1]) if window else 3
    for flags, want in ((["-i", "-1", "-M", "1"], (0, 0)), (["-i", "1", "-M", "0"], (0, 0)),
                        (["-i", "1", "-M", "1"], (V, V + 1))):
        assert cli.main(argv + window + flags) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert (envelope["config"]["V"], envelope["result"]["V_used"]) == want


@pytest.mark.parametrize("option", ["--config", "--out", "--write-fixture"])
def test_a_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, option):
    path = tmp_path / "missing" / "run.json"
    assert cli.main(["witt", "-p", "2", "-n", "1", option, str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: [Errno 2] No such file or directory: %r\n" % str(path)


def test_a_config_key_given_twice_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=2\nn=1\np=3\n")
    assert cli.main(["witt", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "usage error: config key 'p' is given twice\n"
    # a flag overrides the file's key
    cfg.write_text("p=3\nn=1\n")
    assert cli.main(["witt", "-p", "2", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {"p": 2, "n": 1, "N": 4}


def test_syntomic_q_p2_i1_r2_N4_M2(capsys):
    # the config that took 87 s while the orbit windows were computed over Z
    argv = ["syntomic", "--model", "q", "-p", "2", "-d", "1", "-i", "1", "-r", "2",
            "-N", "4", "-M", "2"]
    assert cli.main(argv) == 0
    groups = json.loads(capsys.readouterr().out)["result"]["groups"]
    assert groups == {
        "0": {"exponents": [2] * 10, "free_rank": 0},
        "1": {"exponents": [2] * 15, "free_rank": 0},
        "2": {"exponents": [2], "free_rank": 0},
    }


def test_syntomic_charp_p2_d3_i1_r2_M3(capsys):
    # 316 primitive weights in one orbit class: one window instead of 316
    argv = ["syntomic", "--model", "charp", "-p", "2", "-d", "3", "-i", "1", "-r", "2",
            "-M", "3"]
    assert cli.main(argv) == 0
    zero = {"exponents": [], "free_rank": 0}
    assert json.loads(capsys.readouterr().out)["result"] == {
        "model": "charp", "p": 2, "i": 1, "r": 2, "weight_box": 3, "V_used": 4,
        "groups": {"0": zero, "1": {"exponents": [2] * 3, "free_rank": 0},
                   "2": {"exponents": [2] * 635, "free_rank": 0}, "3": zero, "4": zero},
        "dlog": {"degree": 1, "present": True, "cocycle": True, "nonzero_in_H": True,
                 "phi_fixed": True},
        "certificates": {"degree_bound_series": {"2": 2, "3": 1}},
        "global_model": True,
        "evidence": {},
    }


@pytest.mark.parametrize("p, d, i, r, M", [(2, 1, 1, 2, 2), (3, 2, 1, 1, 1), (2, 2, 0, 2, 2)])
def test_syntomic_q_at_N_1_answers_as_charp(capsys, p, d, i, r, M):
    # the q-model at N = 1 is the crystalline (charp) model: the same result,
    # byte for byte
    flags = ["-p", str(p), "-d", str(d), "-i", str(i), "-r", str(r), "-M", str(M)]
    out = []
    for model in (["--model", "q", "-N", "1"], ["--model", "charp"]):
        assert cli.main(["syntomic", *model, *flags]) == 0
        out.append(cli.canonical_payload(json.loads(capsys.readouterr().out)["result"]))
    assert out[0] == out[1]
    assert json.loads(out[0])["model"] == "charp"


@pytest.mark.parametrize("command", ["qderham", "witt"])
def test_N_1_is_a_valid_model(capsys, command):
    assert cli.main([command, "-p", "2", "-N", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["all_ok"]


def test_qderham_reports_the_chain_map_from_N_2_on(monkeypatch, capsys):
    # at N = 1 both sides of the chain-map check are p^{j+1} times the
    # weight-m differential: the check is neither run nor reported there; at
    # N = 2 it is, and a false one makes all_ok false
    ran = []
    check = cli.frobenius_chain_map_check

    def spy(X, weights):
        ran.append(X.N)
        return check(X, weights)

    monkeypatch.setattr(cli, "frobenius_chain_map_check", spy)
    for N, keyed in ((1, False), (2, True)):
        assert cli.main(["qderham", "-p", "2", "-N", str(N)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert ("chain_map" in result) == keyed and result["all_ok"]
    assert ran == [2]
    monkeypatch.setattr(cli, "frobenius_chain_map_check", lambda X, weights: False)
    assert cli.main(["qderham", "-p", "2", "-N", "2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["chain_map"] is False and result["all_ok"] is False


def test_acrys_runs_every_level_up_to_i(monkeypatch):
    # -i is honoured, not narrowed to 2
    levels = {"conjugate": [], "nygaard": []}

    def conjugate(A, nmax):
        levels["conjugate"].append(nmax)
        return {"ok": True}

    def nygaard(A, j):
        levels["nygaard"].append(j)
        return {"ok": True}

    monkeypatch.setattr(cli, "conjugate_filtration_equality_check", conjugate)
    monkeypatch.setattr(cli, "nygaard_graded_image_check", nygaard)
    payload = cli.cmd_acrys(cli.RunConfig(p=2, n=1, e=1, i=4))
    assert levels == {"conjugate": [5], "nygaard": [0, 1, 2, 3, 4]}
    assert payload["all_ok"]


def test_acrys_builds_one_basis_and_one_algebra_mod_p(monkeypatch):
    # an algebra keeps no basis: one run lists the monomials once, for the
    # draws of `phi_pth_power_check`, and every other check reads levels
    # off the weights; the checks mod p share one algebra at n = 1
    built, inits = [], []
    monomials, init = pdalg.PDAlgebra.monomials, pdalg.PDAlgebra.__init__

    def counted_monomials(self):
        built.append(self.n)
        return monomials(self)

    def counted_init(self, p, n=1, e=1, W=None):
        inits.append(n)
        init(self, p, n, e, W)

    monkeypatch.setattr(pdalg.PDAlgebra, "monomials", counted_monomials)
    monkeypatch.setattr(pdalg.PDAlgebra, "__init__", counted_init)
    assert cli.cmd_acrys(cli.RunConfig(p=3, n=2, e=1, i=2, W=13))["all_ok"]
    assert built == [2]
    # no algebra per Nygaard level: each reads the chain levels of A mod p
    assert inits == [2, 1]


def test_the_benchmark_tracer_installs_and_counts_the_acrys_algebras():
    # `bench/tracer.py` wraps each method its METHODS names (install() fails
    # with a KeyError when one is gone), and reads pdalg.algebras and
    # pdalg.basis_builds off `PDAlgebra.__init__` and `monomials`; one acrys
    # run builds two algebras and lists the monomials once, for the draws of
    # `phi_pth_power_check`.  A fresh interpreter keeps the wrapping away
    # from the other tests
    code = """
import json
import sys
sys.path.insert(0, %r)
from tracer import METHODS, Tracer
from nygaard import cli, pdalg
before = dict(vars(pdalg.PDAlgebra))
tracer = Tracer().install()
try:
    cli.run_command("acrys", cli.RunConfig(p=3, n=2, e=1, i=2, W=13))
finally:
    tracer.uninstall()
for name in METHODS[("pdalg", "PDAlgebra")]:
    if vars(pdalg.PDAlgebra)[name] is not before[name]:
        raise SystemExit("uninstall() left PDAlgebra.%%s wrapped" %% name)
print(json.dumps(tracer.layer_metrics()))
""" % str(ROOT / "bench")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])
    assert metrics["pdalg.algebras"] == 2
    assert metrics["pdalg.basis_builds"] == 1
    assert metrics["pdalg.mul.calls"] and metrics["pdalg.frobenius.calls"]


def test_acrys_runs_the_level_checks_at_level_0_for_a_negative_twist(monkeypatch):
    # at i < 0 the fixed points are still computed, and the three level
    # checks run at level 0 instead of over an empty range
    cfg = cli.RunConfig(p=2, n=1, e=1, i=-2)
    assert cli.cmd_acrys(cfg) == {
        "conjugate_filtration_eq": True, "graded_map": True, "phi_pth_power": True,
        "nygaard_image": True, "span_identity": True,
        "fixed_points": {"free_rank": 0, "exponents": []}, "all_ok": True,
    }
    levels = {}

    def recorded(name, level):
        check = getattr(cli, name)

        def run(*args, **kwargs):
            out = check(*args, **kwargs)
            levels.setdefault(name, []).extend(level(args, out))
            return out
        return run

    for name, level in (
            ("conjugate_filtration_equality_check", lambda args, out: sorted(out["levels"])),
            ("conj_graded_map_check", lambda args, out: [args[1]]),
            ("nygaard_graded_image_check", lambda args, out: [args[1]])):
        monkeypatch.setattr(cli, name, recorded(name, level))
    assert cli.cmd_acrys(cfg)["all_ok"]
    assert levels == {"conjugate_filtration_equality_check": [0, 1],
                      "conj_graded_map_check": [0], "nygaard_graded_image_check": [0]}


def test_every_import_of_the_package_is_used():
    # no linter is installed: a name a module of the package or of the tests
    # imports must be used in it, unless its import statement carries a noqa
    # saying why it stays
    found = []
    for path in sorted((ROOT / "src" / "nygaard").glob("*.py")) + sorted(
            (ROOT / "tests").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not any(
                        "noqa" in lines[k - 1] for k in (node.lineno, alias.lineno)):
                    found.append("%s:%d %s" % (path.name, alias.lineno, name))
    assert found == []


def test_every_oracle_is_used_by_a_test():
    # a definition of tests/oracles.py is used when a test module imports it,
    # or when a used definition there names it (the helpers of an oracle)
    tests = ROOT / "tests"
    defs = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            for node in ast.parse((tests / "oracles.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = {alias.name for path in sorted(tests.glob("test_*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.module == "oracles"
            for alias in node.names}
    grown = used
    while grown:
        grown = {name for key in grown for name in defs.get(key, ())} & set(defs) - used
        used |= grown
    assert sorted(set(defs) - used) == []
