"""Host speed factor from a fixed reference kernel.

The benchmark's host is shared: over a minute, the same operation was seen
to take anywhere from 0.7x to 1.4x its median time, in phases lasting
seconds to minutes, so run-to-run spreads of raw times reached 20-35%.  A
worker therefore runs this short kernel before every operation and between
steps (at least every PROBE_INTERVAL_S), and divides each step and
operation time by the local slowdown estimate; set-up samples are divided
by the estimate of probes taken right after them.  Times then read as
seconds on a host where the kernel takes its reference duration; `run.py`
prints the raw times next to them.

The kernel is benchmark code only, a Python-interpreter part and a numpy
array part (the program's two kinds of work), combined by geometric mean.
A change to the program does not change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

perf = time.perf_counter

# reference durations of the two kernel parts (median on an Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6)
PY_REF_S = 0.8e-3
NP_REF_S = 0.93e-3
PROBE_INTERVAL_S = 0.2
LOCAL_PROBES = 5
# The program slows down about half as much as the kernel does: over ten
# runs of each workload, log(raw time) against log(kernel slowdown) had
# slopes of 0.4-0.6 for operation times and 0.3-0.7 for median step times.
SENSITIVITY = 0.5

_SMALL = np.arange(6.0)
# below the allocator's mmap threshold, so the kernel does not time page faults
_MEDIUM = np.linspace(0.0, 1.0, 2_000)


def _py_kernel() -> float:
    s = 0.0
    for i in range(1500):
        x = math.sin(i * 1e-3) * math.cos(i * 2e-3)
        t = (x, i, s)
        s += t[0] + math.hypot(x, 1.0)
        if i % 10 == 0:
            s += float(_SMALL @ _SMALL) + float(np.sqrt(_SMALL).sum())
    return s


def _np_kernel() -> float:
    return sum(float(np.hypot(np.sin(_MEDIUM), np.cos(_MEDIUM + k)).sum()) for k in range(20))


class Speedometer:
    """Collects slowdown samples of the reference kernel."""

    def __init__(self):
        self.factors: list[float] = []
        self.local: list[float] = []  # local slowdown after each probe
        self.now = 1.0  # current local slowdown
        self.probe_s = 0.0  # time spent probing, to leave out of timings
        self._next = 0.0
        _py_kernel()  # first calls pay one-time costs; keep them out
        _np_kernel()

    def probe(self) -> None:
        t0 = perf()
        _py_kernel()
        t1 = perf()
        _np_kernel()
        t2 = perf()
        kernel = math.sqrt((t1 - t0) / PY_REF_S * (t2 - t1) / NP_REF_S)
        self.factors.append(kernel**SENSITIVITY)
        self.now = statistics.median(self.factors[-LOCAL_PROBES:])
        self.local.append(self.now)
        self.probe_s += t2 - t0
        self._next = t2 + PROBE_INTERVAL_S

    def maybe_probe(self) -> None:
        if perf() >= self._next:
            self.probe()

    def factor(self) -> float:
        """Median estimated slowdown of the program over all probes."""
        return statistics.median(self.factors)
