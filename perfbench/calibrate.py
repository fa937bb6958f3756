"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of a core swings by up to about 2x
over a few seconds, in CPU time as well as wall time. The benchmark runs
a fixed pure-Python kernel (tuple hashing and dict lookups, like the
program's searches) every ``TICK_S`` seconds, from a timer signal, also
in the middle of an op, and scales each stretch of op time between two
kernel runs by ``REFERENCE_S / kernel time``. A scaled time reads as
seconds on a core that runs the kernel in ``REFERENCE_S``. The time the
kernel itself takes is left out of the op. The kernel is part of the
benchmark, so a change to the program cannot move it; it allocates
nothing and runs with the garbage collector off.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Kernel time on a fast, unloaded core of the 2-vCPU development VM
# (Python 3.11); scaled times are expressed at that speed.
REFERENCE_S = 0.0015
REPEATS = 3
TICK_S = 0.2

# Built once, and every value is a cached small int, so the kernel
# allocates nothing: its time depends on the core's speed, not on the
# program's heap, and running it inside an op leaves the heap as it was.
_TABLE = {("m", i % 97, i): i % 256 for i in range(4096)}
_KEYS = tuple(_TABLE)


def _kernel() -> int:
    acc = 0
    for _ in range(6):
        for key in _KEYS:
            acc ^= _TABLE[key] ^ key[1]
    return acc


def kernel_seconds() -> float:
    """Median wall time of the kernel over ``REPEATS`` runs."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two kernel runs into
    seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


class SpeedSampler:
    """Runs the kernel every ``TICK_S`` from ``SIGALRM`` while active.

    Each sample is (start, end, kernel seconds). The handler only appends
    to a list, so ops are attributed afterwards by ``measure``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._busy = False
        self._old = None

    def _sample(self) -> None:
        start = time.perf_counter()
        k = kernel_seconds()
        self.samples.append((start, time.perf_counter(), k))

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that arrives during a tick is dropped
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self._starts = [s for s, _, _ in self.samples]

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, scaled) seconds of the interval [t0, t1], kernel runs left out.

        Each stretch between kernel runs is scaled by the kernel runs on
        either side of it. Call it after the sampler has stopped.
        """
        starts = self._starts
        j = bisect.bisect_right(starts, t0)
        wall = scaled = 0.0
        a = t0
        while True:
            b = starts[j] if j < len(starts) and starts[j] < t1 else t1
            before = self.samples[j - 1][2]
            after = self.samples[j][2] if j < len(starts) else before
            wall += b - a
            scaled += (b - a) * scale(before, after)
            if b == t1:
                return wall, scaled
            a = self.samples[j][1]
            j += 1
