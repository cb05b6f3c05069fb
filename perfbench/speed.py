"""Times at reference speed.

The speed of the shared machine the benchmark was written on moves between
levels up to three times apart within seconds, for all code alike: a fixed
loop of ``jordan_mul`` calls took from 0.04 s to 0.15 s within 200 s, with
CPU time equal to wall time and no steal time. A fixed calibration loop run
right before and right after a measured call moves with it, so the wall
time of the call times the mean of ``REFERENCE_S / loop time`` at both ends
is the time the call would take at the speed at which the loop takes
``REFERENCE_S``. A call that runs long is also interrupted every
``SAMPLE_S`` by a timer signal whose handler runs one pass of the loop, so
that a speed change inside the call is seen too; the time of those passes
is taken out of the call's time. The loops call nothing of the program, so
no change to the program can move them.

Two loops, one for each kind of work in the program:

* ``small``: Python arithmetic and products of 9-vectors, the work of the
  program at dimension 9 or less, where the interpreter's overhead
  dominates;
* ``stream``: a contraction ``ij,ijk->k`` over a 16 MB complex tensor,
  the work of the structure-tensor product at dimension 64 to 144, where
  the speed is that of the shared cache and memory.

The scale at each end of a call is the median of three passes, so that
one interrupted pass does not count.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# the time of one pass of each loop at reference speed, near its time on
# the machine above when it runs fast
REFERENCE_S = {"small": 2.0e-4, "stream": 3.0e-3}
_SMALL_STEPS = 100
_STREAM_DIM = 100
# the interval of the passes inside a call: 0.2 % of its time for the small
# loop, 3 % for the stream loop
SAMPLE_S = 0.1


class Speed:
    def __init__(self, kind: str = "small"):
        rng = np.random.default_rng(0)
        self.reference = REFERENCE_S[kind]
        if kind == "small":
            self._a = rng.standard_normal((9, 9))
            self._pass = self._small
        else:
            d = _STREAM_DIM
            self._a = rng.standard_normal((d, d)) + 0j
            self._t = (rng.standard_normal((d, d, d))
                       + 1j * rng.standard_normal((d, d, d)))
            self._pass = self._stream

    def _small(self):
        a, total = self._a, 0.0
        for i in range(_SMALL_STEPS):
            total += float(a[i % 9] @ a[(i + 1) % 9]) + sum(range(50))

    def _stream(self):
        np.einsum("ij,ijk->k", self._a, self._t)

    def scale(self) -> float:
        """``REFERENCE_S`` over the time a pass of the loop takes now."""
        times = []
        for _ in range(3):
            start = perf_counter()
            self._pass()
            times.append(perf_counter() - start)
        return self.reference / statistics.median(times)

    def _sample(self, signum, frame):
        start = perf_counter()
        self._pass()
        self._inside.append(perf_counter() - start)

    def timed(self, fn):
        """``fn()``, its wall time and its time at reference speed, both
        without the passes run inside it. Call from the main thread."""
        before = self.scale()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self._inside)
        scales = [before, self.scale()]
        scales += [self.reference / t for t in self._inside]
        return result, wall, wall * statistics.fmean(scales)
