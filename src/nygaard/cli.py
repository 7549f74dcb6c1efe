"""Command-line surface: subcommands, config handling, JSON envelopes,
and the fixture regression runner.

Each command owns its parameters: `READS` maps each command, and each
`syntomic` model, to the fields it reads.  A command takes those flags
only; `run_command` refuses any other field set on its config, and the
envelope's `config` holds exactly the fields read, W and V at the values
the run used.  V is read off the result: `syntomic` reports the window its
tail test certified as V_used = V + 1, and V_used = 0 when it tests none
(at i < 0, or in a box with no primitive weight), so the config's V is
V_used - 1, or 0 when V_used is 0, whatever V was asked for.  A flag
overrides a `--config` file's key, and the file may give a key only once.

Output is canonical JSON (sorted keys); identical configs produce
byte-identical payloads (the fixture regression in the tests compares them).
Exit codes: 0 success; 1 on usage errors: an argument the subcommand does
not take, reported with that subcommand's usage line, and any UsageError
(among them unknown, foreign, repeated or malformed config keys, a
`--config` that cannot be read and an `--out` or `--write-fixture` that
cannot be written); 2 when a computation cannot certify its answer (any
NotCertified); and 141 when the reader of standard output closes it before
the envelope or the `regress` report is written, as in
`nygaard eta --fixture random3 | head -c 10`: the run ends quietly, with the
status a shell gives a writer killed by SIGPIPE (128 + 13).
"""

import argparse
import json
import os
from math import isqrt
import random
import sys
import time

from . import __version__
from .complexes import Complex, eta_cohomology_law_check
from .errors import NotCertified, UsageError
from .linalg import PGroup, identity, mat_mul, restrict_lattice
from .pdalg import (
    PDAlgebra,
    conj_graded_map_check,
    conjugate_filtration_equality_check,
    fiber_group,
    frobenius_table,
    nygaard_graded_image_check,
    phi_pth_power_check,
    span_identity_check,
    window,
)
from .qtorus import (
    QTorusComplex,
    frobenius_chain_map_check,
    lnu_identification_check,
    q_divided_frobenius_checks,
    q_nygaard_stability_check,
    specialization_check,
)
from .syntomic import syntomic_acrys, syntomic_q
from .torus import (
    TorusDeRham,
    conjugate_check,
    frobenius_eta_check,
    summand_levels,
    weight_classes,
)
from .witt import (
    FpSquareModel,
    QSquareModel,
    build_perfectoid_square,
    frobenius_W,
    teichmuller,
    verschiebung,
    witt,
    witt_mul,
    witt_scalar,
)
from .rings import PolyTrunc


# every field: its default, which gives its type, its least value (None for
# none) and its flag help; its flag is -x for an integer field, --x otherwise
_FIELDS = {
    "p": (2, None, "prime"),
    "n": (2, 1, "coefficient precision"),
    "r": (1, 1, "syntomic precision"),
    "N": (4, 1, "(q-1)-adic truncation"),
    "e": (2, 1, "perfection depth"),
    "W": (0, 0, "divided-power weight cap (0: the model default 3p^2)"),
    "M": (4, 0, "weight box radius"),
    "V": (0, 0, "orbit window (0: r + 1)"),
    "d": (1, 1, "torus dimension"),
    "i": (1, None, "twist / filtration level"),
    "model": ("charp", None, "syntomic model"),
    "f": ("p", None, "decalage element (integer or p, p^2, ...)"),
    "fixture": ("koszul_p", None, "named fixture complex"),
}

# the fields each command reads, and for syntomic each model
READS = {
    "witt": ("p", "n", "N"),
    "eta": ("p", "f", "fixture"),
    "derham": ("p", "d", "i", "M"),
    "qderham": ("p", "d", "N", "M", "i", "n"),
    "acrys": ("p", "n", "e", "W", "i"),
    "syntomic": {
        "charp": ("model", "p", "d", "i", "r", "M", "V"),
        "q": ("model", "p", "d", "i", "r", "M", "V", "N"),
        "acrys": ("model", "p", "i", "r", "e", "W"),
    },
}


def reads(command, model):
    """The fields `command` reads; for syntomic, those of `model`."""
    fields = READS[command]
    if isinstance(fields, dict) and model not in fields:
        raise UsageError("unknown model %r" % model)
    return fields[model] if isinstance(fields, dict) else fields


class RunConfig:
    """A run's config, built from keywords; a key not given keeps its
    default, which is also a class attribute (RunConfig.model)."""

    def __init__(self, **values):
        for k in values:
            if k not in _FIELDS:
                raise UsageError("unknown config key %r" % k)
        vars(self).update(values)
        for k, (_, least, _) in _FIELDS.items():
            if least is not None and getattr(self, k) < least:
                raise UsageError("%s must be >= %d" % (k, least))
        if not _is_prime(self.p):
            raise UsageError("p = %d is not prime" % self.p)


for _k, (_v, _, _) in _FIELDS.items():
    setattr(RunConfig, _k, _v)


def _is_prime(p):
    return p >= 2 and all(p % t for t in range(2, isqrt(p) + 1))


def _resolve_f(cfg):
    """--f accepts an integer or the tokens p, p^k with k >= 0; UsageError
    for anything else."""
    tok = str(cfg.f).strip()
    if tok == "p":
        return cfg.p
    try:
        if not tok.startswith("p^"):
            return int(tok)
        if int(tok[2:]) >= 0:
            return cfg.p ** int(tok[2:])
    except ValueError:
        pass
    raise UsageError("--f needs an integer, p or p^k with k >= 0, got %r" % cfg.f)


# ---------------------------------------------------------------------------
# subcommands


def cmd_witt(cfg):
    rng = random.Random(0)
    R = PolyTrunc(3, modulus=cfg.p)
    laws = {"FV_is_p": True, "teichmuller_F": True, "projection_formula": True}
    for _ in range(25):
        w = witt(R, cfg.p, tuple(R.random(rng) for _ in range(cfg.n + 1)))
        vw = verschiebung(w)
        if frobenius_W(vw) != witt_scalar(cfg.p, w):
            laws["FV_is_p"] = False
        a = R.random(rng)
        if frobenius_W(teichmuller(R, cfg.p, a, cfg.n + 1)) != teichmuller(
            R, cfg.p, R.pow(a, cfg.p), cfg.n
        ):
            laws["teichmuller_F"] = False
        y = witt(R, cfg.p, tuple(R.random(rng) for _ in range(cfg.n + 2)))
        if witt_mul(vw, y) != verschiebung(witt_mul(w, frobenius_W(y))):
            laws["projection_formula"] = False
    sq_fp = build_perfectoid_square(FpSquareModel(cfg.p, cfg.n)).check_all()
    sq_q = build_perfectoid_square(QSquareModel(cfg.p, cfg.n, cfg.N)).check_all()
    return {
        "laws": laws,
        "square_fp": sq_fp,
        "square_q": sq_q,
        "all_ok": all(laws.values()) and all(sq_fp.values()) and all(sq_q.values()),
    }


def _fixture_complex(name, p):
    if name == "koszul_p":
        return Complex({0: 1, 1: 2, 2: 1}, {0: [[p, p]], 1: [[-p], [p]]})
    if name == "mult_p":
        return Complex({0: 1, 1: 1}, {0: [[p]]})
    if name == "zero":
        return Complex({0: 1, 1: 1}, {0: [[0]]})
    if name.startswith("random"):
        try:
            rng = random.Random(int(name[6:] or 0))
        except ValueError:
            raise UsageError("unknown fixture complex %r" % name) from None
        degs = [0, 1, 2, 3]
        ranks = {j: rng.randint(1, 3) for j in degs}
        diffs = {}
        nxt = None
        for j in reversed(degs[:-1]):
            if nxt is None:
                D = [[rng.randint(-3, 3) for _ in range(ranks[j + 1])] for _ in range(ranks[j])]
            else:
                K = restrict_lattice(identity(len(nxt)), nxt, [])
                if not K:
                    D = [[0] * ranks[j + 1] for _ in range(ranks[j])]
                else:
                    R = [[rng.randint(-3, 3) for _ in range(len(K))] for _ in range(ranks[j])]
                    D = mat_mul(R, K)
            diffs[j] = D
            nxt = D
        return Complex(ranks, diffs)
    raise UsageError("unknown fixture complex %r" % name)


def cmd_eta(cfg):
    f = _resolve_f(cfg)
    C = _fixture_complex(cfg.fixture, cfg.p)
    rep = eta_cohomology_law_check(f, C, cfg.p)
    return {
        "f": f,
        "fixture": cfg.fixture,
        "degrees": {
            str(j): {
                "eta": r["pgroup"],
                "match": r["match"],
            }
            for j, r in rep.items()
        },
        "all_ok": all(r["match"] for r in rep.values()),
    }


def _require_nonnegative_twist(cfg):
    """derham checks phi_i and the Nygaard-Frobenius identity at level i,
    qderham its Nygaard, divided-Frobenius and graded certificates at the
    levels 0..i.  For i < 0 the truncation tau^{<=i} is zero and p^i is not
    an integer, so the checks would certify nothing."""
    if cfg.i < 0:
        raise UsageError("the de Rham checks need i >= 0, got i = %d" % cfg.i)


def cmd_derham(cfg):
    """The checks at level i on the d-torus are the 1-torus checks at the
    levels of `summand_levels` (the lemma in the `torus` docstring)."""
    _require_nonnegative_twist(cfg)
    X = TorusDeRham(cfg.p)
    levels = summand_levels(cfg.d, cfg.i)
    # the levels start at i, so a level above the cap raises naming i
    payload = {
        "conjugate_all_ok": all(conjugate_check(X, i, cfg.M)["all_ok"] for i in levels),
        "frobenius_eta_all_ok": all(frobenius_eta_check(X, i, cfg.M)["all_ok"] for i in levels),
    }
    payload["all_ok"] = payload["conjugate_all_ok"] and payload["frobenius_eta_all_ok"]
    return payload


def cmd_qderham(cfg):
    """Every check runs at the levels 0..i or at none, so the verdict on the
    d-torus is that of the 1-torus (the lemma in the `torus` docstring):
    d is read for the config only."""
    _require_nonnegative_twist(cfg)
    Xq = QTorusComplex(cfg.p, cfg.N)
    payload = {"specialization": specialization_check(Xq, M=cfg.M)}
    # at N = 1 both sides of the chain-map check are p times the weight-m
    # differential, so it could not read false there
    if cfg.N >= 2:
        payload["chain_map"] = frobenius_chain_map_check(Xq, weight_classes(cfg.M))
    payload["nygaard_stable"] = all(
        q_nygaard_stability_check(Xq, i, M=cfg.M) for i in range(cfg.i + 1))
    payload["divided_frobenius"] = all(
        q_divided_frobenius_checks(Xq, i) for i in range(cfg.i + 1))
    lnu = lnu_identification_check(Xq, i_max=cfg.i, M=cfg.M, n_prec=cfg.n)
    payload["lnu_containment"] = lnu["containment"]
    payload["lnu_graded"] = lnu["graded"]
    payload["all_ok"] = all(payload.values())
    return payload


def cmd_acrys(cfg):
    A = PDAlgebra(cfg.p, cfg.n, cfg.e, cfg.W or None)
    # the checks mod p, on the same basis as A
    A1 = PDAlgebra(cfg.p, 1, cfg.e, A.W)
    rng = random.Random(0)
    # the fixed points mean something at i < 0 too; the level checks run
    # over 0..max(i, 0), since an empty range of levels would certify nothing
    top = max(cfg.i, 0)
    # one exact Frobenius list per chain, read by the Nygaard check of every
    # level j at its precision j + 2
    table = frobenius_table(A1, top + 2)
    payload = {
        "conjugate_filtration_eq": conjugate_filtration_equality_check(A1, nmax=top + 1)["ok"],
        "graded_map": all(conj_graded_map_check(A1, nn)["ok"] for nn in range(top + 1)),
        "phi_pth_power": phi_pth_power_check(A, rng),
        "nygaard_image": all(nygaard_graded_image_check(A1, j, table)["ok"]
                             for j in range(top + 1)),
        "span_identity": span_identity_check(A, max(cfg.i, 1)),
    }
    # at i < 0, phi_i - can is invertible (the series of `syntomic_acrys`)
    fixed = fiber_group(cfg.p, cfg.n, cfg.e, A.W, cfg.i) if cfg.i >= 0 else PGroup.zero(cfg.p)
    payload["fixed_points"] = fixed.to_json()
    payload["all_ok"] = all(
        payload[k]
        for k in ("conjugate_filtration_eq", "graded_map", "phi_pth_power",
                  "nygaard_image", "span_identity")
    )
    return payload


def cmd_syntomic(cfg):
    if cfg.model == "acrys":
        res = syntomic_acrys(cfg.p, cfg.i, cfg.r, e=cfg.e, W=cfg.W or None)
    else:
        N = 1 if cfg.model == "charp" else cfg.N
        res = syntomic_q(cfg.p, cfg.d, cfg.i, cfg.r, N=N, M=cfg.M, V=cfg.V or None)
    return res.to_json()


COMMANDS = {
    "witt": cmd_witt,
    "eta": cmd_eta,
    "derham": cmd_derham,
    "qderham": cmd_qderham,
    "acrys": cmd_acrys,
    "syntomic": cmd_syntomic,
}


# ---------------------------------------------------------------------------
# envelopes and fixtures


def canonical_payload(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_command(command, cfg):
    """The envelope of `command` run on cfg.  UsageError when cfg sets a
    field that the command, or its syntomic model, does not read."""
    fields = reads(command, cfg.model)
    foreign = [k for k in vars(cfg) if k not in fields]
    if foreign:
        name = command if command != "syntomic" else "syntomic --model %s" % cfg.model
        raise UsageError("%s does not read %s" % (name, ", ".join(foreign)))
    t0 = time.perf_counter()
    payload = COMMANDS[command](cfg)
    config = {k: getattr(cfg, k) for k in fields}
    if "W" in config:
        config["W"] = window(cfg.p, cfg.n if command == "acrys" else cfg.r, cfg.e, cfg.W or None)
    if "V" in config:
        config["V"] = max(payload["V_used"] - 1, 0)
    return {
        "tool": "nygaard %s" % __version__,
        "command": command,
        "config": config,
        "result": payload,
        "timing_s": round(time.perf_counter() - t0, 6),
    }


def fixture_regress(directory):
    """Recompute every fixture and byte-compare canonical payloads.

    A fixture whose file, config or computation fails (bad JSON or keys, a
    UsageError, a NotCertified) is recorded under errors, and the run goes
    on to the next one."""
    report = {"passed": [], "failed": [], "errors": []}
    if not os.path.isdir(directory):
        raise UsageError("no such fixture directory: %s" % directory)
    files = sorted(os.path.join(root, name) for root, _, names in os.walk(directory)
                   for name in names if name.endswith(".json"))
    if not files:
        report["warning"] = "no fixtures found (vacuous pass)"
        return report
    for path in files:
        try:
            with open(path) as fh:
                blob = json.load(fh)
            payload = run_command(blob["command"], RunConfig(**blob["config"]))["result"]
            if canonical_payload(payload) == canonical_payload(blob["expected"]):
                report["passed"].append(path)
            else:
                report["failed"].append(path)
        except (json.JSONDecodeError, KeyError, TypeError, UsageError, NotCertified) as ex:
            report["errors"].append({"file": path, "error": str(ex)})
    return report


# ---------------------------------------------------------------------------
# argument parsing


def _open(path, mode="r"):
    """open(path, mode), with a UsageError when that fails."""
    try:
        return open(path, mode)
    except OSError as ex:
        raise UsageError(str(ex)) from None


def build_config(args):
    """The --config file's keys, each overridden by its flag when given."""
    values = {}
    if args.config:
        with _open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError("bad config line: %r" % line)
                k, v = (t.strip() for t in line.split("=", 1))
                if k in values:
                    raise UsageError("config key %r is given twice" % k)
                try:
                    values[k] = type(_FIELDS[k][0])(v) if k in _FIELDS else v
                except ValueError:
                    raise UsageError("config key %r needs an integer, got %r" % (k, v)) from None
    values.update((k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None)
    return RunConfig(**values)


def make_parser():
    ap = argparse.ArgumentParser(prog="nygaard", description="Exact workbench for Witt vectors, "
                                 "decalage, Nygaard filtrations and syntomic complexes of tori.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        fields = READS[name]
        if isinstance(fields, dict):  # syntomic: the fields of every model
            fields = dict.fromkeys(k for model in fields.values() for k in model)
        for k in fields:
            default, _, text = _FIELDS[k]
            flag = ("-" if isinstance(default, int) else "--") + k
            cmd.add_argument(flag, type=type(default), default=None, help=text,
                             choices=list(READS["syntomic"]) if k == "model" else None)
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--config", default=None, help="flat key=value config file")
        cmd.add_argument("--write-fixture", default=None, help=argparse.SUPPRESS)
    sub.add_parser("regress").add_argument("directory")
    # each subcommand's parser, to report the arguments it does not take
    for cmd in sub.choices.values():
        cmd.set_defaults(parser=cmd)
    return ap


EXIT_PIPE_CLOSED = 141


def _emit(text):
    """Print text to standard output; False when the reader has closed the
    pipe.  Standard output then points at os.devnull, so that the flush at
    exit cannot raise BrokenPipeError again."""
    try:
        print(text, flush=True)
        return True
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False


def main(argv=None):
    ap = make_parser()
    try:
        args, extras = ap.parse_known_args(argv)
        if extras:
            # argparse hands them back from the subcommand's parser, whose
            # usage line names the flags it takes
            args.parser.error("unrecognized arguments: %s" % " ".join(extras))
    except SystemExit as ex:
        # argparse uses exit code 2 for usage errors; the contract is 1
        return 1 if ex.code else 0
    try:
        if args.command == "regress":
            report = fixture_regress(args.directory)
            if not _emit(json.dumps(report, sort_keys=True, indent=1)):
                return EXIT_PIPE_CLOSED
            return 0 if not report["failed"] and not report["errors"] else 1
        cfg = build_config(args)
        envelope = run_command(args.command, cfg)
        blob = json.dumps(envelope, sort_keys=True, indent=1)
        written = True
        if args.out:
            with _open(args.out, "w") as fh:
                fh.write(blob + "\n")
        else:
            written = _emit(blob)
        if args.write_fixture:
            fixture = {"command": args.command, "config": envelope["config"],
                       "expected": envelope["result"]}
            with _open(args.write_fixture, "w") as fh:
                fh.write(json.dumps(fixture, sort_keys=True, indent=1) + "\n")
        return 0 if written else EXIT_PIPE_CLOSED
    except UsageError as ex:
        print("usage error: %s" % ex, file=sys.stderr)
        return 1
    except NotCertified as ex:
        print("not certified: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
