"""Explicit optimal discrimination designs in the small-ratio regime.

For |b| up to the critical ratio critical_b(n) the optimal design is known
explicitly: the support is carried by the extremal points of a shifted,
rescaled Chebyshev polynomial and the weights are fixed trigonometric
expressions independent of b. At b = 0 the optimal design is not unique;
the solutions form a one-parameter family of mixtures between a left-heavy
member and its mirror image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design
from .errors import RegimeError

# Multiplicative slack when testing |b| against the critical ratio, so that
# a boundary value computed elsewhere in floating point is not rejected.
REGIME_SLACK = 1e-12
# Distinct mixture points closer than this merge into one support point.
MERGE_TOL = 1e-12


def critical_b(n: int) -> float:
    """Largest |b| for which the explicit design below is optimal: n tan^2(pi/2n)."""
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    t = np.tan(np.pi / (2 * n))
    return float(n * t * t)


def _check_regime(n: int, b: float) -> float:
    """critical_b(n), after checking that |b| stays within it.

    NaN b raises ValueError, since it lies on no side of the critical ratio;
    a larger |b|, infinite included, raises RegimeError.
    """
    bc = critical_b(n)
    if np.isnan(b):
        raise ValueError(f"b must be a number, got {b!r}")
    if abs(b) > bc * (1.0 + REGIME_SLACK):
        raise RegimeError(
            f"|b| = {abs(b)!r} exceeds the critical ratio {bc!r} for n = {n}; "
            "the explicit design is only optimal up to that ratio"
        )
    return bc


def support_points(n: int, b: float) -> np.ndarray:
    """Support of the explicit design: -(1 + |b|/n) cos(i pi / n) - |b|/n, i = 1..n.

    Increasing, with the last point exactly 1; at |b| = critical_b(n) the
    first point reaches -1. Values are clipped to [-1, 1] to absorb the last
    bit of roundoff, which the regime check has already bounded.
    """
    _check_regime(n, b)
    beta = abs(b) / n
    i = np.arange(1, n + 1)
    pts = -(1.0 + beta) * np.cos(i * np.pi / n) - beta
    pts = np.clip(pts, -1.0, 1.0)
    pts[-1] = 1.0
    return pts


def canonical_weights(n: int) -> np.ndarray:
    """The b-independent weights attached to support_points, summing to one.

    w_i = (2/n) sin^2(i pi / 2n) for the lower half, mirrored as
    w_(n-i) = (2/n) cos^2(i pi / 2n), and w_n = 1/n.
    """
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    w = np.empty(n)
    for i in range(1, n // 2 + 1):
        s = np.sin(i * np.pi / (2 * n))
        c = np.cos(i * np.pi / (2 * n))
        w[i - 1] = 2.0 / n * s * s
        w[n - i - 1] = 2.0 / n * c * c
    w[n - 1] = 1.0 / n
    return w


@dataclass
class ClosedFormDesign:
    """A design produced by the explicit construction, plus how it was built.

    regime is one of "positive_b", "negative_b", "zero_b_family"; alpha is the
    mixture parameter and is only set in the zero_b_family case.
    """

    design: Design
    regime: str
    n: int
    b: float
    alpha: float | None = None


def t_optimal_design(n: int, b: float) -> ClosedFormDesign:
    """The optimal design for 0 < |b| <= critical_b(n).

    For positive b the support is support_points(n, b) with canonical_weights;
    for negative b the mirror image. b = 0 is rejected because the optimum is
    a whole family there; use zero_b_family to pick a member.
    """
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    b = float(b)
    if b == 0.0:
        raise ValueError(
            "at b = 0 the optimal design is not unique; "
            "use zero_b_family(n, alpha) to select a member"
        )
    pts = support_points(n, b)
    wts = canonical_weights(n)
    if b > 0:
        return ClosedFormDesign(Design(pts, wts), "positive_b", n, b)
    return ClosedFormDesign(Design(pts, wts).reflected(), "negative_b", n, b)


def zero_b_family(n: int, alpha: float) -> ClosedFormDesign:
    """Member alpha of the optimal family at b = 0.

    alpha = 0 gives the explicit design (which omits -1), alpha = 1 its mirror
    (which omits +1), and interior alpha the convex mixture carried by the n+1
    points -cos(i pi / n), i = 0..n.
    """
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    pts = support_points(n, 0.0)
    wts = canonical_weights(n)
    mirror = Design(pts, wts).reflected()
    merged_pts, merged_wts = _mix(
        pts, (1.0 - alpha) * wts, mirror.points, alpha * mirror.weights
    )
    return ClosedFormDesign(
        Design(merged_pts, merged_wts), "zero_b_family", n, 0.0, alpha
    )


def _mix(p1, w1, p2, w2):
    """Merge two weighted point sets, coalescing points within MERGE_TOL."""
    pts = np.concatenate([p1, p2])
    wts = np.concatenate([w1, w2])
    order = np.argsort(pts)
    pts, wts = pts[order], wts[order]
    out_p: list[float] = []
    out_w: list[float] = []
    for x, w in zip(pts, wts):
        if out_p and x - out_p[-1] <= MERGE_TOL:
            out_w[-1] += w
        else:
            out_p.append(float(x))
            out_w.append(float(w))
    keep = np.array(out_w) > 0.0
    return np.array(out_p)[keep], np.array(out_w)[keep]
