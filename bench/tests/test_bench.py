"""Self-tests of the benchmark: neither the tracer nor the host-speed clock
may change any answer, and every per-layer counter must be fed on the
workload it is meant to move.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402
from nygaard.cli import RunConfig, run_command  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fixture(path):
    with open(ROOT / "fixtures" / path) as fh:
        blob = json.load(fh)
    return blob["command"], blob["config"]


# one small config per workload (golden: a fixture per layer only it runs)
SMALL = {
    "charp-orbits": [("syntomic", {"model": "charp", "p": 2, "d": 2, "i": 0, "r": 1, "M": 2})],
    "q-windows": [("syntomic", {"model": "q", "p": 2, "d": 1, "i": 1, "r": 1, "N": 2, "M": 1})],
    "acrys-pd": [("acrys", {"p": 2, "n": 1, "e": 1, "i": 1}),
                 ("syntomic", {"model": "acrys", "p": 2, "e": 1, "i": 0, "r": 1})],
    "golden": [_fixture("witt/p2_n2.json"), _fixture("eta/koszul_p_f_p.json"),
               _fixture("qderham/p2_d1_i1.json")],
}

# the per-layer metrics each workload is meant to move
MOVES = {
    "charp-orbits": [
        "syntomic.orbit_contribution.calls", "syntomic.orbit_contribution.s",
        "syntomic.distinct_orbit_share", "syntomic.window_cohomology.calls",
        "syntomic.window_cohomology.s", "syntomic.assemble_window.s",
        "syntomic.stabilisation_depth.max", "linalg.solve_left.calls", "linalg.solve_left.s",
        "linalg.solve_left.distinct_share", "linalg.solve_left.total_s",
        "linalg.quotient_invariants.calls", "linalg.quotient_invariants.s",
        "linalg.smith_form.calls", "linalg.smith_form.s",
        "torus.matrices.calls", "torus.matrices.s",
    ],
    "q-windows": [
        "syntomic.window_cohomology.calls", "syntomic.window_cohomology.s",
        "syntomic.window_rank.max", "syntomic.stabilisation_depth.max",
        "syntomic.distinct_orbit_share", "linalg.hermite_form.calls", "linalg.hermite_form.s",
        "linalg.max_coeff_bits", "linalg.preimage_lattice.calls", "linalg.preimage_lattice.s",
        "qtorus.matrices.calls", "qtorus.matrices.s",
    ],
    "acrys-pd": [
        "linalg.howell_form.calls", "linalg.howell_form.s", "pdalg.mul.calls", "pdalg.mul.s",
        "pdalg.frobenius.calls", "pdalg.frobenius.s", "pdalg.conjugate_filtration.s",
        "pdalg.conjugate_filtration.total_s", "pdalg.algebras", "pdalg.basis_builds",
    ],
    "golden": ["qtorus.checks.s", "complexes.eta.s", "witt.s"],
}


def _answer(command, config):
    return workloads.canonical(run_command(command, RunConfig(**config))["result"])


@pytest.mark.parametrize("workload", list(SMALL))
def test_trace_keeps_payloads_and_feeds_every_layer(workload):
    untraced = [_answer(c, cfg) for c, cfg in SMALL[workload]]
    tracer = Tracer().install()
    try:
        traced = []
        for k, (c, cfg) in enumerate(SMALL[workload]):
            tracer.begin_answer(k)
            traced.append(_answer(c, cfg))
            tracer.end_answer()
    finally:
        tracer.uninstall()
    assert traced == untraced
    layers = tracer.layer_metrics()
    assert [m for m in MOVES[workload] if not layers[m] > 0] == []


def test_uninstall_restores_every_binding():
    import nygaard.linalg
    import nygaard.syntomic

    original = nygaard.linalg.hermite_form
    tracer = Tracer().install()
    assert nygaard.syntomic.hermite_form is nygaard.linalg.hermite_form
    assert nygaard.syntomic.hermite_form.__wrapped__ is original
    tracer.uninstall()
    assert nygaard.syntomic.hermite_form is original
    assert nygaard.linalg.hermite_form is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_draw_is_seeded(workload):
    entries = workloads.load_references(workload)
    ids = [e["id"] for e in workloads.draw(workload, 1, entries)]
    assert ids == [e["id"] for e in workloads.draw(workload, 1, entries)]
    assert ids != [e["id"] for e in workloads.draw(workload, 2, entries)]
    if workload == "golden":
        assert len(ids) == 34
    if workload == "q-windows":
        blowups = [i for i in ids if '"N":3' in i and '"i":1' in i and '"p":2' in i
                   and '"r":2' in i]
        assert len(blowups) == 2


def test_host_clock_keeps_payloads():
    command, config = SMALL["q-windows"][0]
    untimed = _answer(command, config)
    clock = speed.HostClock()
    timed = []
    clock.time(lambda: timed.append(_answer(command, config)))
    assert timed == [untimed]
    assert len(clock.probes) == 2


def test_host_clock_leaves_its_ticks_out():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    clock = speed.HostClock()
    raw_s, scaled_s = clock.time(busy)
    assert len(clock._ticks) >= 3
    assert raw_s == pytest.approx(0.3 - sum(clock._ticks), abs=0.02)
    assert scaled_s > 0
