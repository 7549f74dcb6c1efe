"""Host-speed correction: times fixed work of the benchmark's own around and
during every answer, and scales the answer's time to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes, for every program alike (a fixed loop
measured back to back varied 0.036-0.048 s between 5 s windows on a 2-core
x86-64 host). `HostClock` measures the host's speed two ways:

- a probe of `PROBE_REF_S` before the first answer and after every answer;
- while an answer runs, a tick of `TICK_REF_S` every `TICK_EVERY_S` seconds,
  run from a `SIGALRM` handler.

An answer's own time is its elapsed time minus the ticks inside it. It is
scaled by the host's slowness: the mean of the two probes around the answer
over `PROBE_REF_S`, averaged with the mean tick over `TICK_REF_S` when a tick
fell inside the answer. The probes catch the drift between answers, the ticks
the drift within a long one. The reference times were taken on a 2-core
x86-64 host, CPython 3.11.7, at that host's usual speed; only the scale of
the reported times depends on them.

The probe and the tick are the benchmark's work, never the program's, so a
change to `nygaard` cannot move them. The probe is fraction-free elimination
of a fixed integer matrix, then the same matrix reduced mod small primes, on
lists of rows as `nygaard.linalg` does, with the cyclic garbage collector
off. The tick does integer arithmetic only, which allocates no object the
garbage collector tracks, so ticks landing at different points of an answer
leave its collections where they were. Probing after every answer, and not
after a measured amount of time, keeps the program's allocations, and so its
collections, the same from pass to pass.
"""

import gc
import random
import signal
import statistics
import time

PROBE_KERNELS = 40
PROBE_REF_S = 0.050
TICK_REF_S = 0.0027
TICK_EVERY_S = 0.05

_rng = random.Random(1802)
_MATRIX = [[_rng.randrange(-99, 100) for _ in range(12)] for _ in range(12)]
_TICK_MOD = 3 ** 500


def _kernel():
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    for p in (5, 7, 11, 13):
        b = [[x % p for x in row] for row in _MATRIX]
        for k in range(n):
            piv = next((i for i in range(k, n) if b[i][k]), None)
            if piv is None:
                continue
            b[k], b[piv] = b[piv], b[k]
            inv = pow(b[k][k], -1, p)
            b[k] = [x * inv % p for x in b[k]]
            for i in range(n):
                if i != k and b[i][k]:
                    f = b[i][k]
                    b[i] = [(x - f * y) % p for x, y in zip(b[i], b[k])]
    return a[-1][-1]


def probe():
    """Seconds taken by PROBE_KERNELS runs of the fixed kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_KERNELS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _tick():
    x = 0
    for i in range(20000):
        x = (x * 31 + i * i) % 1000003
    y = 7 ** 300
    for _ in range(250):
        y = (y * 1234567891) % _TICK_MOD
    return x + y


class HostClock:
    """Times answers one after another and scales them to reference speed."""

    def __init__(self):
        self.probes = [probe()]
        self._ticks = []

    def scale_setup(self, seconds):
        """`seconds` measured just before this clock was made, scaled."""
        return seconds * PROBE_REF_S / self.probes[0]

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _tick()
        self._ticks.append(time.perf_counter() - t0)

    def time(self, call):
        """Run `call()`; return its own seconds, measured and scaled."""
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        t0 = time.perf_counter()
        try:
            call()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        ticks = self._ticks
        self.probes.append(probe())
        slowness = [(self.probes[-2] + self.probes[-1]) / 2 / PROBE_REF_S]
        if ticks:
            slowness.append(statistics.mean(ticks) / TICK_REF_S)
        seconds = elapsed - sum(ticks)
        return seconds, seconds / statistics.mean(slowness)
