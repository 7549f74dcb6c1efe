"""Benchmark of the `nygaard` workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads (`charp-orbits`, `q-windows`,
`acrys-pd`, `golden`) are defined in `bench/workloads.py`. One client answers
the seeded table one config at a time (closed loop, `threads=1`); every pass
over the table runs in a fresh interpreter (`bench/worker.py`). Passes repeat
while another one still fits in S seconds; the first always runs to the end.

Every time below is scaled to a reference host speed: the worker times
fixed work of the benchmark's own around and during each answer
(`bench/speed.py`) and scales the answer by how much slower than its
reference time that work ran. The shared host this runs on drifts in speed
by tens of percent, and the scaling takes that drift out; the measured
times are printed on the line before the result.

`--trace 0` prints the end-to-end metrics:

- setup_s: fresh interpreter to the first timed call (import `nygaard`,
  draw the table, load the references); the median of several set-ups.
- wall_s: one pass over the whole table; the median over passes.
- answer_s.p50: median time of one `run_command` call, over every answer.
- answer_s.tail: the highest percentile of answer time that keeps at least
  ten answers of one pass beyond it, but at least the median; the
  percentile and the sample count are printed on the line before the result.
- peak_rss_mb: peak resident memory of a pass; the median over passes.

A failed answer (it raises, is not certified, or differs from its reference)
is counted in `failed` out of `attempted`, so `failed / attempted` is the
failure share; the result is `correct` only when nothing failed.

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of `bench/tracer.py` (the median over traced passes) together with
`trace.overhead_share`, the traced over the untraced median pass time, minus
one. The per-layer times are measured, not scaled, and the speed ticks that
land inside a span (about 4% of the time) count as that span's time. The
traced spans are written to `.bench_out/`.

The last line of standard output is the JSON result. A pass that cannot run
(no program to import, say) ends the benchmark with exit code 1 and no result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent

SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170


class PassFailed(Exception):
    pass


def spawn(workload, seed, *flags):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags, "--spawned-at", repr(time.monotonic())]
    # a fixed hash seed, so that every pass iterates its sets and dicts alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as ex:
        raise PassFailed("pass did not end within %d s" % PASS_TIMEOUT_S) from ex
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip() or "worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples, per_pass):
    """(percentile, value): the highest percentile that keeps at least ten of
    one pass's answers beyond it, never below the median."""
    pct = max(50.0, 100.0 * (1 - 10 / per_pass))
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(workload, seed, seconds, trace):
    passes, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, "--trace"))
        cycle = time.monotonic() - began
        if time.monotonic() - start + cycle > seconds:
            break
    return passes, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setups = [] if args.trace else [
            spawn(args.workload, args.seed, "--setup-only") for _ in range(SETUP_SAMPLES)
        ]
        passes, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as ex:
        print("benchmark failed: %s" % ex, file=sys.stderr)
        return 1

    answers = [a for p in passes + traced for a in p["answers"]]
    failed = [a for a in answers if not a["ok"]]
    for a in failed[:10]:
        print("FAILED %s: %s" % (a["id"], a["error"]), file=sys.stderr)
    per_pass = len(passes[0]["answers"])
    times = [a["s"] for p in passes for a in p["answers"]]
    pct, tail_s = tail(times, per_pass)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    print("%s seed %d: %d configs, %d passes; answer_s.tail is p%.1f of %d answers; "
          "failed %d of %d; measured wall_s %.3f, probe %.4f s (reference %.4f s)"
          % (args.workload, args.seed, per_pass, len(passes), pct, len(times), len(failed),
             len(answers), statistics.median(p["raw_wall_s"] for p in passes),
             statistics.median(t for p in passes for t in p["probe_s"]), speed.PROBE_REF_S))
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": _unit(name)}
        overhead = statistics.median(p["wall_s"] for p in traced) / wall_s - 1
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
    else:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in setups + passes), "s"),
            "wall_s": (wall_s, "s"),
            "answer_s.p50": (statistics.median(times), "s"),
            "answer_s.tail": (tail_s, "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": not failed, "attempted": len(answers),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "share"
    if name.endswith("bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
