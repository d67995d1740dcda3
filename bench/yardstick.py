"""A fixed piece of work, timed after each timed interval to gauge the
host's speed.

The shared host switches, for minutes at a time, between speeds about 1.7x
apart (see "Host noise" in bench/BASELINE.md); a run's raw times follow
those switches.  After each interval the yardstick runs for a share of
that interval's time.  The interval's time scaled by ``REFERENCE_S`` over
the median yardstick around it is what it would have taken on the host at
its reference speed.

The yardstick is 2-D FFTs on a 1 MiB array: numpy code, none of the
package, so no change to the package can move it.  Of the fixed pieces of
work tried, FFTs and scipy quadrature followed the package's speed across
the host's switches; interpreted Python arithmetic did not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The yardstick's time on the baseline machine (2-vCPU Intel Xeon, Python
# 3.11, numpy 2.4) in its faster state; see bench/BASELINE.md.
REFERENCE_S = 0.016

FFT_PAIRS = 8
_FIELD = np.exp(2j * np.pi * np.arange(256 * 256).reshape(256, 256) / 7.0)


def measure() -> float:
    """Wall time of one yardstick, in seconds."""
    t0 = time.perf_counter()
    b = _FIELD
    for _ in range(FFT_PAIRS):
        b = np.fft.ifft2(np.fft.fft2(b) * 0.5)
    return time.perf_counter() - t0


class Gauge:
    """Times intervals and scales each to the reference speed.

    ``time(fn)`` runs ``fn`` and then the yardstick, until the yardstick
    has taken ``share`` of ``fn``'s wall time (at least ``least`` times).
    It returns ``fn``'s result, its wall time and that time times
    ``REFERENCE_S`` over the median of the yardsticks just before and just
    after it.  With ``share=0`` no yardstick runs and the scaled time is the
    wall time.
    """

    def __init__(self, share: float = 0.1, least: int = 5):
        self.share, self.least = share, least
        self._before = [measure() for _ in range(least)] if share else []

    def time(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        if not self.share:
            return out, wall, wall
        after: list[float] = []
        while len(after) < self.least or sum(after) < self.share * wall:
            after.append(measure())
        around = self._before + after
        self._before = after
        return out, wall, wall * REFERENCE_S / statistics.median(around)
