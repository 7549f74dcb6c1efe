"""Workload definitions: config grids, seeded draws and reference answers.

Every workload is a table of `nygaard` CLI configs answered one at a time by
`nygaard.cli.run_command`. The three generated workloads draw their table
from a grid whose answers were recorded once (`bench/refs/<name>.json`,
written by `bench/record_refs.py`); `golden` answers the committed fixtures.

Why these four: the measured cost of the program sits in three places, and a
mix that misses one hides it.

- charp-orbits: 12-40 primitive orbits per config with small windows whose
  coefficients stay small, so the orbit loop and the lattice refactoring in
  `solve_left`/`lattice_contains` dominate; no Hermite blow-up.
- q-windows: 2-4 orbits per config, so orbit symmetry has little to save;
  the few large windows spend their time in integer `hermite_form` growth.
  The p=2, i=1, r=2, N=3 configs are the blow-up and are always drawn.
- acrys-pd: PD-algebra multiplication, the conjugate-filtration closure and
  many small mod-p Howell forms; never enters the orbit loop.
- golden: the committed fixtures; the only workload that runs `witt`,
  eta over Z, the de Rham / q-de Rham checks and the over-Z uses of `linalg`.
"""

import itertools
import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"
OUT_OF_BUDGET = BENCH / "out_of_budget.json"

# answer fields compared against the reference; `certificates` and
# `evidence` are left out on purpose because they are expected to be
# rewritten without the answer changing
ANSWER_FIELDS = ("groups", "fixed_points", "dlog", "V_used")


def _charp_grid():
    for p, i, r, M in itertools.product((2, 3), (0, 1, 2), (1, 2), (2, 3)):
        yield "syntomic", {"model": "charp", "p": p, "d": 2, "i": i, "r": r, "M": M}


def _acrys_grid():
    for p, n, e, i in itertools.product((2, 3, 5), (1, 2), (1, 2), (0, 1, 2)):
        yield "acrys", {"p": p, "n": n, "e": e, "i": i}
    for p, e, i, r in itertools.product((2, 3, 5), (1, 2), (0, 1, 2), (1, 2)):
        yield "syntomic", {"model": "acrys", "p": p, "e": e, "i": i, "r": r}


def _q_grid():
    for p, i, r, N, M in itertools.product((2, 3), (0, 1, 2), (1, 2), (2, 3), (1, 2)):
        yield "syntomic", {"model": "q", "p": p, "d": 1, "i": i, "r": r, "N": N, "M": M}


GRIDS = {
    "charp-orbits": _charp_grid,
    "q-windows": _q_grid,
    "acrys-pd": _acrys_grid,
}
WORKLOADS = tuple(GRIDS) + ("golden",)


def _always_drawn(workload, command, config):
    """Configs that are in every draw: the q-model Hermite blow-up."""
    return workload == "q-windows" and all(
        config[k] == v for k, v in (("p", 2), ("i", 1), ("r", 2), ("N", 3))
    )


def out_of_budget():
    """Known-slow configs, kept out of the grids and named with their timing."""
    with open(OUT_OF_BUDGET) as fh:
        return json.load(fh)["configs"]


def _matches(entry, command, config):
    if entry["command"] != command:
        return False
    for k, v in entry["config"].items():
        allowed = v if isinstance(v, list) else [v]
        if config.get(k) not in allowed:
            return False
    return True


def grid(workload):
    """The in-budget grid of a generated workload, in a fixed order."""
    slow = out_of_budget()
    return [
        (command, config)
        for command, config in GRIDS[workload]()
        if not any(_matches(e, command, config) for e in slow)
    ]


def project(result):
    """The answer part of a result payload: the answer fields plus every
    top-level check verdict (a boolean field)."""
    return {
        k: v for k, v in result.items() if k in ANSWER_FIELDS or isinstance(v, bool)
    }


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_references(workload):
    """Table entries {command, config, expected, seconds} for a workload.

    For golden the expected value is the whole fixture payload; for the
    generated workloads it is the recorded answer projection."""
    if workload == "golden":
        files = sorted((ROOT / "fixtures").rglob("*.json"))
        if not files:
            raise FileNotFoundError("no fixtures under %s" % (ROOT / "fixtures"))
        out = []
        for path in files:
            with open(path) as fh:
                blob = json.load(fh)
            out.append({
                "id": str(path.relative_to(ROOT)),
                "command": blob["command"],
                "config": blob["config"],
                "expected": blob["expected"],
            })
        return out
    with open(REFS / ("%s.json" % workload)) as fh:
        entries = json.load(fh)["configs"]
    for e in entries:
        e["id"] = "%s %s" % (e["command"], canonical(e["config"]))
    return entries


def draw(workload, seed, entries):
    """The seeded table of one workload, in answer order.

    golden answers every fixture. A generated workload sorts its grid (minus
    the always-drawn configs) by recorded answer time and answers every
    other config, starting from the slowest, so the table spans the grid's
    whole cost range in half its time. The table is answered in grid (or
    fixture path) order, and the seed swaps each pair of neighbours or not.

    The set and the rough order of configs do not depend on the seed: both
    move the timings (later configs run on a larger heap, since
    `PDAlgebra._basis_cache` keeps every algebra alive), and a seeded choice
    of configs or a shuffled order moved the spread of the timings across
    seeds beyond the bounds in BENCHMARK.json."""
    if workload == "golden":
        table = list(entries)
    else:
        forced = [e for e in entries if _always_drawn(workload, e["command"], e["config"])]
        rest = sorted((e for e in entries if e not in forced),
                      key=lambda e: (-e["seconds"], e["id"]))
        chosen = {id(e) for e in forced + rest[::2]}
        table = [e for e in entries if id(e) in chosen]
    rng = random.Random("%s/%d" % (workload, seed))
    for k in range(0, len(table) - 1, 2):
        if rng.random() < 0.5:
            table[k], table[k + 1] = table[k + 1], table[k]
    return table
