"""A fixed numpy kernel that tracks how fast the machine runs right now.

On a shared host the same op can take 0.8 s in one minute and 1.4 s in the
next (measured on the 2-core VM this benchmark was built on: CPU time tracks
wall time and steal stays near 0, so the machine itself slows down). Timing
the probe between ops and scaling each op's wall time by REFERENCE_S over
the probe times around it reports the op in seconds at the reference speed.
The probe never calls splatlab, so a change to the package moves op times
and leaves the probe alone.

The probe mixes, in about equal parts, what the ops spend their time on:
Python loops over tiny arrays, element-wise maths on 128x128 arrays, a
stream over an array larger than the L2 cache, and a BLAS matmul.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median probe time on the reference machine (2-core x86-64 VM, numpy 2.4.6)
REFERENCE_S = 0.075


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = rng.random((9, 9))
        self.mid = rng.random((128, 128))
        self.big = rng.random(1 << 18)
        self.buf = np.empty_like(self.big)
        self.mat = rng.random((192, 192))

    def __call__(self) -> float:
        """Seconds one pass of the probe takes now."""
        t0 = perf_counter()
        for i in range(6000):
            np.exp(-self.tiny * (i % 7)).sum()
        for i in range(600):
            np.exp(-self.mid * (i % 5 + 1)).sum()
        for _ in range(48):
            np.sqrt(self.big, out=self.buf).sum()
        for _ in range(60):
            (self.mat @ self.mat).sum()
        return perf_counter() - t0


def rescale(walls: list[float], probes: list[float]) -> list[float]:
    """Wall times in seconds at the reference speed.

    ``probes[i]`` was taken just before ``walls[i]`` and ``probes[i + 1]`` just
    after it. Each time is scaled by the median of the four probes around it,
    which damps the probe's own jitter while following the machine's changes
    of speed, which last tens of seconds.
    """
    return [w * REFERENCE_S / statistics.median(probes[max(0, i - 1):i + 3]) for i, w in enumerate(walls)]
