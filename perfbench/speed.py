"""The machine's speed, sampled while the solver runs.

On a shared machine the same work can take twice as long from one second
to the next: on a shared 2-vCPU x86 VM with Python 3.11, a fixed kernel
timed every 0.05 s for 150 s took anywhere from 28 to 68 ms, in stretches
lasting from a fraction of a second to about 20 s, and one solve repeated
in one process varied by up to 1.8x.

``SpeedProbe`` times a short fixed kernel (big-integer and rational
arithmetic plus small NumPy solves, like the solver's own work) every
``INTERVAL`` seconds, and converts a solve's wall time to seconds at a
nominal speed: the wall time less the time spent in the kernel, times
``NOMINAL_KERNEL_S`` over the mean kernel time while the solve ran (for a
short solve, over the last ``MIN_SAMPLES`` samples).  On that VM this cut
the spread of repeated solves of one input by a factor of two to three.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.1
# kernel time at the nominal speed: about its fastest on the VM above
NOMINAL_KERNEL_S = 0.002
# a solve with fewer samples than this uses the most recent ones
MIN_SAMPLES = 5

_POLY = [(-1) ** i * 3 ** (7 * i + 5) for i in range(41)]
_MATRICES = np.random.default_rng(0).standard_normal((8, 16, 16)) + 4.0 * np.eye(16)
_RHS = np.ones((8, 16, 1))


def kernel() -> int:
    """A fixed piece of work; its duration tracks the machine's speed."""
    bits = 0
    for k in range(1, 9):
        x = Fraction(k, 7)
        value = Fraction(0)
        for c in reversed(_POLY):
            value = value * x + c
        bits += value.numerator.bit_length()
    for _ in range(3):
        np.linalg.solve(_MATRICES, _RHS)
    return bits


def mean_kernel_seconds() -> float:
    kernel()  # the first run in a process pays one-time costs
    samples = []
    for _ in range(MIN_SAMPLES):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.fmean(samples)


class SpeedProbe:
    """Samples ``kernel`` while active; ``clock`` times one solve with it.

    A sample is taken before a solve when the last one is ``INTERVAL`` old,
    and on a SIGALRM timer every ``INTERVAL`` seconds during the solve, so
    a solve shorter than that is never interrupted.  Main thread only.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # kernel seconds, in order taken
        self.spent = 0.0  # seconds spent sampling inside timed solves
        self._last = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        kernel()  # the first run in a process pays one-time costs
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def clock(self):
        """Time the block; ``.seconds`` is at the nominal speed, ``.wall_s`` raw."""
        if time.perf_counter() - self._last >= INTERVAL:
            self._sample()
        timing = Timing()
        first, spent = len(self.samples), self.spent
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall_s = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        spent = self.spent - spent
        last = len(self.samples)
        during = self.samples[min(first, last - MIN_SAMPLES):last]
        timing.seconds = (timing.wall_s - spent) * NOMINAL_KERNEL_S / statistics.fmean(during)


class Timing:
    seconds = 0.0
    wall_s = 0.0


@contextlib.contextmanager
def wall_clock():
    """Time the block in plain wall seconds."""
    timing = Timing()
    start = time.perf_counter()
    yield timing
    timing.seconds = timing.wall_s = time.perf_counter() - start
