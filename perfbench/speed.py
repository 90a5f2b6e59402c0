"""How fast the host runs the benchmark's own reference code, sampled while a
unit runs, so that a unit's time can be scaled to one steady host speed.

Other tenants of a shared host slow a core down by up to about 2x, in
stretches of seconds to minutes that can outlast a whole run. A fixed slice
of reference code (scalar Python arithmetic and the small NumPy products of
a 64-unit MLP, the two kinds of work fishcoop does) runs from a ``SIGALRM``
handler every ``PERIOD_S`` seconds. Its time, against ``REF_SLICE_S``, is
the host's slowdown at that moment. Each stretch of work between two slices
is divided by the slowdown the next slice measured, and the slices' own time
is left out. The handler runs between bytecodes of the main thread and
touches no fishcoop state or random stream, so outputs do not change.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
# the slice's time on an unloaded core of the 2-vCPU Xeon VM of the baseline
REF_SLICE_S = 0.42e-3

_rng = np.random.default_rng(0)
_W1 = _rng.standard_normal((64, 10))
_W2 = _rng.standard_normal((64, 64))
_X = _rng.standard_normal((128, 10))


def reference_slice() -> None:
    s = 0.5
    for _ in range(2000):
        s = s * math.exp(1.0 - s) * 0.99 + 0.01
    for i in range(40):
        h1 = np.tanh(_X[i] @ _W1.T)
        float(np.tanh(h1 @ _W2.T).sum())


def slowdown_now(slices: int = 10) -> float:
    """The host's slowdown right now: the median time of ``slices``
    reference slices run back to back, against ``REF_SLICE_S``."""
    times = []
    for _ in range(slices):
        start = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - start)
    return sorted(times)[slices // 2] / REF_SLICE_S


class SpeedMeter:
    """Runs ``reference_slice`` every ``PERIOD_S`` while installed."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, end)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_slice()
        self.slices.append((start, time.perf_counter()))

    def __enter__(self):
        reference_slice()  # warm: first calls pay for NumPy's dispatch caches
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scaled(self, start: float, end: float) -> tuple[float, float, float]:
        """(seconds of work, those seconds at reference speed, mean slowdown)
        between ``start`` and ``end``, leaving the slices out."""
        inside = [(a, b) for a, b in self.slices if start <= a and b <= end]
        work = scaled = 0.0
        prev = start
        for a, b in inside:
            work += a - prev
            scaled += (a - prev) * REF_SLICE_S / (b - a)
            prev = b
        if inside:  # the tail after the last slice, at that slice's speed
            a, b = inside[-1]
            scaled += (end - prev) * REF_SLICE_S / (b - a)
        else:
            scaled += end - prev
        work += end - prev
        slowdown = work / scaled if scaled else 1.0
        return work, scaled, slowdown
