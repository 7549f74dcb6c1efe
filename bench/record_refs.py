"""Record the reference answers of the generated workloads.

Run from the repository root:

    python3 bench/record_refs.py [workload ...]

Each grid config is answered three times in this process; its answer
projection (see `workloads.project`) and its median answer time are written
to `bench/refs/<workload>.json` together with the commit they came from. The
answer times only group configs of similar cost for the seeded draw.
"""

import json
import statistics
import subprocess
import sys
import time

from workloads import GRIDS, REFS, ROOT, grid, project

sys.path.insert(0, str(ROOT / "src"))

from nygaard.cli import RunConfig, run_command  # noqa: E402

REPEATS = 3


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(workload):
    entries = []
    for command, config in grid(workload):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            envelope = run_command(command, RunConfig(**config))
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        entries.append({
            "command": command,
            "config": config,
            "expected": project(envelope["result"]),
            "seconds": round(seconds, 4),
        })
        print("%s %s %.3fs" % (workload, json.dumps(config, sort_keys=True), seconds),
              file=sys.stderr)
    REFS.mkdir(exist_ok=True)
    with open(REFS / ("%s.json" % workload), "w") as fh:
        json.dump({"commit": _commit(), "configs": entries}, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(GRIDS):
        record(name)
