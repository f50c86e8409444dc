"""Explicit optimal discrimination designs in the small-ratio regime.

For |b| up to the critical ratio critical_b(n) the optimal design is known
explicitly: the support is carried by the extremal points of a shifted,
rescaled Chebyshev polynomial and the weights are fixed trigonometric
expressions independent of b. At b = 0 the optimal design is not unique;
the solutions form a one-parameter family of mixtures between a left-heavy
member and its mirror image, all carried by the extrema of T_n.

Every support here is read from polynomials._extrema, the one cached,
read-only table of those extrema, symmetric to the bit; the canonical
weights are cached beside it. The public functions validate n on every
call and return fresh arrays. Every design returned, mirrored ones
included, is validated once, by its one Design construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .designs import Design
from .errors import RegimeError, check_degree, check_ratio
from .polynomials import _extrema

# Multiplicative slack when testing |b| against the critical ratio, so that
# a boundary value computed elsewhere in floating point is not rejected.
REGIME_SLACK = 1e-12


def critical_b(n: int) -> float:
    """Largest |b| for which the explicit design below is optimal: n tan^2(pi/2n)."""
    n = check_degree(n, 2)
    t = math.tan(math.pi / (2 * n))
    return n * t * t


def in_explicit_regime(n: int, b: float) -> bool:
    """Whether |b| <= critical_b(n), so that the explicit design is optimal at b.

    Every choice of construction by b asks this; it is False for NaN b.
    """
    return abs(b) <= critical_b(n) * (1.0 + REGIME_SLACK)


def _check_regime(n: int, b: float) -> float:
    """float(b), after checking that the explicit design applies there.

    NaN b raises ValueError, since it lies on no side of the critical ratio;
    a larger |b|, infinite included, raises RegimeError.
    """
    b = check_ratio(b, "b")
    if not in_explicit_regime(n, b):
        raise RegimeError(
            f"|b| = {abs(b)!r} exceeds the critical ratio {critical_b(n)!r} "
            f"for n = {n}; the explicit design is only optimal up to that ratio"
        )
    return b


def support_points(n: int, b: float) -> np.ndarray:
    """Support of the explicit design: (1 + |b|/n) e_i - |b|/n, i = 1..n.

    e_i = -cos(i pi / n) are the extrema of T_n, read from the one cached
    table, so that at b = 0 the support is those extrema bit for bit, an
    exact 0 at even n included. Increasing, with the last point exactly 1;
    at |b| = critical_b(n) the first point reaches -1. Values are clipped
    to [-1, 1] to absorb the last bit of roundoff, which the regime check
    has already bounded.
    """
    beta = abs(_check_regime(n, b)) / n
    pts = (1.0 + beta) * _extrema(check_degree(n, 2))[1:] - beta
    np.clip(pts, -1.0, 1.0, out=pts)
    pts[-1] = 1.0
    return pts


def canonical_weights(n: int) -> np.ndarray:
    """The b-independent weights attached to support_points, summing to one.

    w_i = (2/n) sin^2(i pi / 2n) for the lower half, mirrored as
    w_(n-i) = (2/n) cos^2(i pi / 2n), and w_n = 1/n. A fresh copy of the
    degree's cached weights.
    """
    return _weights(check_degree(n, 2)).copy()


@functools.cache
def _weights(n: int) -> np.ndarray:
    """canonical_weights of a checked degree, built once per degree and shared, so read-only."""
    w = np.empty(n)
    for i in range(1, n // 2 + 1):
        s = np.sin(i * np.pi / (2 * n))
        c = np.cos(i * np.pi / (2 * n))
        w[i - 1] = 2.0 / n * s * s
        w[n - i - 1] = 2.0 / n * c * c
    w[n - 1] = 1.0 / n
    w.flags.writeable = False
    return w


@dataclass
class OptimalDesign:
    """An optimal design at ratio b, plus the construction that built it.

    regime is "positive_b", "negative_b", "zero_b_family" or, beyond the
    critical ratio, "alternance" (maximin.optimal_design); alpha is the
    mixture parameter and is only set in the zero_b_family case.
    """

    design: Design
    regime: str
    n: int
    b: float
    alpha: float | None = None


def t_optimal_design(n: int, b: float) -> OptimalDesign:
    """The optimal design for 0 < |b| <= critical_b(n).

    For positive b the support is support_points(n, b) with canonical_weights;
    for negative b the mirror image. b = 0 is rejected because the optimum is
    a whole family there; use zero_b_family to pick a member.
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b")
    if b == 0.0:
        raise ValueError(
            "at b = 0 the optimal design is not unique; "
            "use zero_b_family(n, alpha) to select a member"
        )
    pts = support_points(n, b)
    w = _weights(n)
    if b > 0:
        return OptimalDesign(Design(pts, w.copy()), "positive_b", n, b)
    return OptimalDesign(Design(0.0 - pts[::-1], w[::-1].copy()), "negative_b", n, b)


def zero_b_family(n: int, alpha: float) -> OptimalDesign:
    """Member alpha of the optimal family at b = 0.

    alpha = 0 gives the explicit design (which omits -1), alpha = 1 its mirror
    (which omits +1), and interior alpha the convex mixture carried by the n+1
    extrema x_i = -cos(i pi / n), i = 0..n, of T_n. Both ends sit on those
    points exactly, since the extrema are symmetric to the bit: x_i, for
    i = 1..n-1, has weight (1 - alpha) w_i + alpha w_(n-i), -1 has weight
    alpha w_n and 1 has (1 - alpha) w_n, and a point whose weight is zero is
    dropped. alpha follows check_ratio's rule, finite, before the [0, 1]
    check.
    """
    n = check_degree(n, 2)
    alpha = check_ratio(alpha, "alpha", finite=True)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    w = _weights(n)
    lo, hi = (1.0 - alpha) * w, alpha * w[::-1]
    wts = np.concatenate((hi[:1], lo[:-1] + hi[1:], lo[-1:]))
    keep = wts > 0.0
    return OptimalDesign(
        Design(_extrema(n)[keep], wts[keep]), "zero_b_family", n, 0.0, alpha
    )
