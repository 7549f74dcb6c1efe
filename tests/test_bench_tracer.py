"""The benchmark's tracer reads the orbit engine from outside: its observers
unpack the return values of `syntomic._orbit_contribution` and
`syntomic._assemble_window`.  This keeps their shapes in tier-1."""

import importlib.util
from pathlib import Path

from nygaard import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_gauges_read_the_orbit_engine():
    # one q config under the installed tracer: the observers see a window
    # rank and a stabilisation depth, and the answer is the untraced one
    config = cli.RunConfig(model="q", p=2, d=1, i=1, r=1, N=2, M=1)
    untraced = cli.run_command("syntomic", config)["result"]
    tracer = _load_tracer().Tracer().install()
    try:
        tracer.begin_answer(0)
        traced = cli.run_command("syntomic", config)["result"]
        tracer.end_answer()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["syntomic.stabilisation_depth.max"] > 0
    assert metrics["syntomic.window_rank.max"] > 0
    assert metrics["syntomic.orbit_contribution.calls"] == 1
    assert traced == untraced
