"""Host-speed probe: a fixed slice of pure-Python work that shares no code
with the engine.

On a shared machine the speed of a core drifts by a third or more over
minutes, in phases longer than a run, so the best of several sweeps still
depends on the phase a run happens to fall in.  Each worker times slices
of this probe while it does the work it measures; `run.py` scales the
work's times by REFERENCE_S / (mean slice time), which reads them in
seconds at the speed the probe had when REFERENCE_S was measured.  The
probe is benchmark code, so a change to the engine moves the scaled times
exactly as it moves the raw ones.

The host's speed also changes within a second, so the slices are spread
over the work: `Sampler` takes one every PROBE_EVERY_S of CPU time while
set-up and the cases run, and the worker adds SLICES more after set-up and
before and after the cases.  A slice mixes the two kinds of work the
engine does: GF(p) row reduction over lists of ints and lookups of tuple
keys in a dict.  Its data is small (under 1 MB), so that it adds little to
`peak_rss_mb`.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Mean slice time on a 2-core x86-64 machine (Xeon, Python 3.11) in a
# quiet phase.
REFERENCE_S = 0.0025
SLICES = 4              # slices before and after the work they calibrate
PROBE_EVERY_S = 0.05    # and one per this much CPU time during them
PRIMES = (5, 7, 5, 7, 5, 7)


def _rref_rank(rows: list, p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Probe:
    """The probe's data is built once, untimed; each slice does the same
    work."""

    def __init__(self):
        rng = random.Random(20210330)
        self.matrices = [[[rng.randrange(p) for _ in range(12)]
                          for _ in range(10)] for p in PRIMES]
        self.table = {(i, i * 7919 % 104729, i % 13): i for i in range(4096)}
        keys = list(self.table) * 6
        rng.shuffle(keys)
        self.keys = keys

    def slice_s(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for m, p in zip(self.matrices, PRIMES):
            total += _rref_rank(m, p)
        table = self.table
        for k in self.keys:
            total += table[k]
        return time.perf_counter() - t0

    def slices(self, n: int = SLICES) -> list:
        return [self.slice_s() for _ in range(n)]


class Sampler:
    """Takes a probe slice every PROBE_EVERY_S of the process's CPU time
    (SIGPROF), wherever the interpreter is; `busy_s` is the wall time spent
    in the slices, which the worker takes out of the times it reports."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.slices = []
        self.busy_s = 0.0
        self._inside = False

    def _tick(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        t0 = time.perf_counter()
        try:
            self.slices.append(self.probe.slice_s())
        finally:
            self.busy_s += time.perf_counter() - t0
            self._inside = False

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def scale(slice_times: list) -> float:
    """Factor that turns raw seconds into seconds at reference speed."""
    return REFERENCE_S / statistics.fmean(slice_times)
