"""CPU-speed calibration for a shared virtual machine.

On the 2-vCPU VM this benchmark was written on, each vCPU's speed flips
between a fast and a ~1.8x slower state, in phases of a fraction of a second
to half a minute, independently of the other vCPU; raw medians of the same
run spread 20-50% from run to run.  The program and a fixed probe slow down
together: interleaved every ~60 ms, their time ratio spread 0.6% over 20-s
windows where the raw times spread 32% (interquartile range over median).

So while a unit of work runs, a SIGALRM timer runs PROBE every
PROBE_INTERVAL_S of wall time, in the main thread between bytecodes, without
touching the program.  A unit's calibrated time is its wall time (probes
excluded) times the mean of REFERENCE_PROBE_S / probe time over the probes
taken before, during and after it: seconds at the speed of the machine's
fast state.  The probe runs no bwmarket code, so a change to the program
cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.00125   # PROBE's time in the fast state of a 2-vCPU Xeon VM


def probe() -> float:
    """Time of a fixed ~1 ms interpreter-plus-small-array workload."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(60):
        p, q, s = rng.uniform(1.0, 5.0, 8), rng.uniform(1.0, 9.0, 8), rng.uniform(0.1, 1.0, 8)
        order = np.argsort(p / (q * s))
        c = np.cumsum(s[order]) / (1.0 + np.cumsum(p[order] / q[order]))
        acc += float(np.max(c)) + sum(float(x) for x in p[:4])
        acc += len({k: k * acc for k in range(8)})
    return time.perf_counter() - start


class Calibrator:
    """Context manager that probes the CPU speed on a timer; see the module
    docstring.  `timed(fn, *args)` runs one unit."""

    def __init__(self, on_probe=None):
        self.probes: list[float] = []
        self._on_probe = on_probe     # called with each probe's seconds
        self._busy = False
        self._previous = None

    def _probe(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            seconds = probe()
            self.probes.append(seconds)
            if self._on_probe is not None:
                self._on_probe(seconds)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Run fn(*args); return (result, wall seconds without the probes,
        calibration factor for this stretch of time)."""
        self._probe()
        first = len(self.probes) - 1
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        during = sum(self.probes[first + 1:])
        self._probe()
        factor = statistics.fmean(REFERENCE_PROBE_S / p for p in self.probes[first:])
        del self.probes[:]
        return result, wall - during, factor
