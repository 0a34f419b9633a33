"""Reference-speed normalisation of measured times.

On a small shared machine the speed of the CPU swings by tens of percent over
seconds to minutes, because other tenants share the cores.  The benchmark
therefore times a fixed reference kernel right before and right after every
measured operation, and every 0.2 s during it, and reports each time at the
reference speed:

    normalised = measured * REFERENCE_S / reference

where ``reference`` is the mean of the kernel times taken around and inside
the operation.  The kernel does the same kind of work as safefilter's hot
path (Python calls on small numpy arrays), so a slowdown of the machine moves
both alike, while a change to safefilter moves only the operation.  The raw
times are kept in the report line next to the normalised ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Nominal kernel time [s]: normalised times are seconds on a machine on which
# the reference kernel takes exactly this long.
REFERENCE_S = 0.8e-3

_G = np.array([[0.0], [1.0]])
_SAMPLES = np.linspace(0.0, 1.0, 32768)


def reference_kernel():
    """Fixed work in the proportions of a simulate pass: scalar steps on small
    numpy arrays, float-to-text formatting, and one sweep over a 256 KiB array."""
    x = np.array([0.1, 0.2])
    for _ in range(120):
        dx = np.array([x[1], 10.0 * math.sin(x[0])]) + _G @ np.atleast_1d(-0.5 * x[0])
        x = x + 0.001 * dx
    text = ",".join(f"{v:.9g}" for v in _SAMPLES[:1200:8])
    return x, text, float(np.sin(_SAMPLES).sum())


def reference_seconds() -> float:
    """Median of three timed kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalise(measured: float, before: float, after: float) -> float:
    return measured * REFERENCE_S / (0.5 * (before + after))


class SpeedSampler:
    """Reference times taken from a SIGALRM handler while operations run.

    Operations of a second or more see the machine's speed change inside
    them; samples every ``INTERVAL_S`` let the normalisation follow it.  The
    handler's own time is subtracted from the operation it interrupted.
    Outside the ``with`` block no samples are taken and :meth:`timed` only
    brackets the call.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self._samples = []   # (start, duration, reference seconds)
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        start = time.perf_counter()
        reference = self.reference()
        self._samples.append((start, time.perf_counter() - start, reference))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference(self) -> float:
        """A bracketing reference time, never interrupted by the handler."""
        self._busy = True
        try:
            return reference_seconds()
        finally:
            self._busy = False

    def timed(self, call, before: float):
        """Run call(); return its value, raw time, normalised time, and the
        reference time taken right after it."""
        first = len(self._samples)
        start = time.perf_counter()
        value = call()
        end = time.perf_counter()
        after = self.reference()
        inside = [(s, d, r) for s, d, r in self._samples[first:] if start <= s < end]
        latency = end - start - sum(d for _, d, _ in inside)
        references = [before, *(r for _, _, r in inside), after]
        return value, latency, latency * REFERENCE_S / statistics.mean(references), after
