"""Scaling of measured times to a reference machine speed.

On a shared host the speed available to one process drifts by tens of
percent over seconds, as other tenants come and go. A short fixed kernel
with the mix of the measured work is timed every PROBE_INTERVAL_S during a
run. Each measured time is divided by the local slowdown: the median of
the nearest probes over the kernel's time on a quiet host. On a quiet host
the scaled and raw figures agree.

Work of different kinds slows by different shares under the same
contention, so there are two kernels. "interp" is interpreter work and
small dense linear algebra, the mix of the geometry calls and of start-up.
"stream" draws normal variates into a block of 48 columns and projects it,
the mix of the Monte Carlo power cells. Against power cells measured beside
it, the stream kernel's ratio spread was 0.06-0.08, the interp one's 0.2.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel times on a quiet 2-core x86_64 host (Python 3.11, numpy 2.4).
INTERP_REF_MS = 0.85
STREAM_REF_MS = 4.7
PROBE_INTERVAL_S = 0.1
# Probes on each side of a measurement that set its local speed.
PROBE_SPAN = 2
_ITERS = 40


def kernel() -> float:
    a = np.linspace(-1.0, 1.0, 24)
    eye = np.eye(12)
    s = 0.0
    for _ in range(_ITERS):
        v = np.vander(a, 12)
        s += float(np.linalg.solve(v.T @ v + eye, v.T @ a)[0])
        s += sum(j * 0.5 for j in range(40))
    return s


_STREAM_BASIS = np.linalg.qr(np.random.default_rng(1).standard_normal((48, 4)))[0]


def stream_kernel() -> float:
    rng = np.random.Generator(np.random.PCG64(5))
    y = rng.standard_normal((6400, 48))
    proj = y @ _STREAM_BASIS
    return float(np.sum(np.einsum("ij,ij->i", y, y) - np.einsum("ij,ij->i", proj, proj)))


KERNELS = {"interp": (kernel, INTERP_REF_MS), "stream": (stream_kernel, STREAM_REF_MS)}


class SpeedProbe:
    """Times a kernel at most every PROBE_INTERVAL_S and scales times by it."""

    def __init__(self, kind: str = "interp"):
        self.kernel, self.ref_ms = KERNELS[kind]
        self.times: list[float] = []
        self.ms: list[float] = []

    def sample(self) -> None:
        # a first pass refills the caches that the last measured call evicted
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.ms.append((t1 - t0) * 1e3)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def slowdown(self, t: float) -> float:
        """Local probe time around perf_counter() instant t, over the quiet-host time."""
        i = bisect.bisect(self.times, t)
        near = self.ms[max(i - PROBE_SPAN, 0): i + PROBE_SPAN]
        return statistics.median(near) / self.ref_ms

    def overall(self) -> float:
        return statistics.median(self.ms) / self.ref_ms
