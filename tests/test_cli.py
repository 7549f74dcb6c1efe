from pathlib import Path

import pytest

from nygaard import cli, errors, pdalg, syntomic, torus

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_fixture_regress_all_pass():
    report = cli.fixture_regress(str(FIXTURES))
    assert len(report["passed"]) == 34
    assert report["failed"] == [] and report["errors"] == []


def test_main_witt_exit_0(capsys):
    assert cli.main(["witt", "-p", "2", "-n", "2"]) == 0
    assert '"all_ok": true' in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["witt", "-p", "4"],
    ["syntomic", "-V", "-1"],
    ["acrys", "-W", "-1"],
    ["syntomic", "--threads", "2"],
    ["syntomic", "--model", "fp"],
])
def test_main_usage_exit_1(argv):
    assert cli.main(argv) == 1


@pytest.mark.parametrize("line, key", [("threads=2", "threads"), ("n=two", "n")])
def test_main_bad_config_file_exit_1(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=2\n%s\n" % line)
    assert cli.main(["witt", "--config", str(cfg)]) == 1
    assert repr(key) in capsys.readouterr().err


def test_error_classes_are_shared():
    assert syntomic.NotStabilized is pdalg.NotStabilized is errors.NotStabilized
    assert pdalg.PrecisionExhausted is torus.PrecisionExhausted is errors.PrecisionExhausted
    assert syntomic.BoundViolated is errors.BoundViolated


@pytest.mark.parametrize("exc", [errors.NotStabilized, errors.PrecisionExhausted,
                                 errors.BoundViolated])
def test_main_not_certified_exit_2(monkeypatch, exc):
    def fail(cfg):
        raise exc("forced")

    monkeypatch.setitem(cli.COMMANDS, "witt", fail)
    assert cli.main(["witt"]) == 2
