"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --spawned-at T [--setup-only] [--trace]

Each pass starts cold, as a CLI user's run does: `ru_maxrss` is a lifetime
maximum, and the `witt.universal_witt_polynomials` and
`PDAlgebra._basis_cache` caches would otherwise carry over from one pass to
the next. The pass imports `nygaard` from `src/`, draws its table from the
seed and loads the references; that is its set-up time, counted from `T`
(the parent's `time.monotonic()` just before the spawn). It then answers the
table one config at a time through `nygaard.cli.run_command`, checks every
answer against its reference and prints one JSON line.

Around and during every answer it measures the host's speed
(`bench/speed.py`). Every time it reports (`setup_s`, `wall_s`, each answer's
`s`) is scaled to the reference speed; the measured times are kept as `raw_*`.
"""

import time  # noqa: I001  (first, so the set-up clock covers every import)
import argparse
import json
import resource
import sys
from pathlib import Path

import speed
from workloads import ROOT, WORKLOADS, canonical, draw, load_references, project

SPANS = ROOT / ".bench_out"


def _import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import nygaard
    from nygaard.cli import RunConfig, run_command

    if src not in Path(nygaard.__file__).resolve().parents:
        raise SystemExit("nygaard was imported from %s, not from %s" % (nygaard.__file__, src))
    return RunConfig, run_command


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    RunConfig, run_command = _import_program()
    table = draw(args.workload, args.seed, load_references(args.workload))
    configs = [RunConfig(**e["config"]) for e in table]
    raw_setup_s = time.monotonic() - args.spawned_at
    clock = speed.HostClock()
    setup_s = clock.scale_setup(raw_setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    answers = []
    for entry, cfg in zip(table, configs):
        outcome = {}

        def answer():
            try:
                outcome["result"] = run_command(entry["command"], cfg)["result"]
            except Exception as ex:  # a config that raises is a failed answer, not a failed pass
                outcome["error"] = "%s: %s" % (type(ex).__name__, ex)

        if tracer:
            tracer.begin_answer(entry["id"])
        raw_s, s = clock.time(answer)
        if tracer:
            tracer.end_answer()
        answers.append((entry, raw_s, s, outcome.get("result"), outcome.get("error")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = []
    for entry, raw_s, s, result, error in answers:
        ok = error is None
        if ok:
            got = result if args.workload == "golden" else project(result)
            ok = canonical(got) == canonical(entry["expected"])
            if not ok:
                error = "answer differs from the reference"
        report.append({"id": entry["id"], "s": s, "raw_s": raw_s, "ok": ok, "error": error})
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
           "wall_s": sum(a["s"] for a in report), "raw_wall_s": sum(a["raw_s"] for a in report),
           "probe_s": clock.probes, "peak_rss_mb": peak_rss_mb, "answers": report}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        SPANS.mkdir(exist_ok=True)
        tracer.write(SPANS / ("%s-seed%d.spans.json" % (args.workload, args.seed)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
