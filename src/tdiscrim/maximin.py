"""The optimal design at every finite ratio, and worst-case designs over ratio intervals.

optimal_design(n, b) is the one switch from b to its construction. A
maximin design maximises min over b in the interval of T(xi, b), the
criterion itself, not a ratio to the optimum. Over the whole line that
minimum is the weighted fit of x^n off degree n - 1, at most 4^(1-n) for
every design by Chebyshev's minimax; the Chebyshev-extrema design of
degree n attains it at b = 0, where x^n's residual is 2^(1-n) T_n, of
modulus 2^(1-n) on the whole support (Kiefer & Wolfowitz, Ann. Math.
Statist. 30, 1959; Studden, Ann. Math. Statist. 39, 1968). Over a ray it
is the optimal design at the ray's endpoint b0: no design beats
r_value(n, b0) at b0, and that design's T(xi, b) only rises further out
along the ray.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import (OptimalDesign, in_explicit_regime, t_optimal_design,
                          zero_b_family)
from .continuation import solve_at
from .designs import Design, DiscriminationProblem, t_criterion
from .errors import check_degree, check_ratio
from .polynomials import chebyshev_extrema

_KINDS = ("whole_line", "ray_up", "ray_down")


@dataclass(frozen=True)
class RatioInterval:
    """The ratio sets the maximin problem is solved over.

    whole_line is all of R; ray_up(b0) is [b0, inf); ray_down(b0) is
    (-inf, -b0]. b0 must be nonnegative in all cases.
    """

    kind: str
    b0: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        b0 = check_ratio(self.b0, "b0", finite=True)
        if b0 < 0.0:
            raise ValueError("b0 must be a nonnegative real")
        if self.kind == "whole_line" and b0 != 0.0:
            raise ValueError("whole_line takes no endpoint")
        object.__setattr__(self, "b0", b0)

    @classmethod
    def whole_line(cls) -> "RatioInterval":
        return cls("whole_line")

    @classmethod
    def ray_up(cls, b0: float) -> "RatioInterval":
        return cls("ray_up", b0)

    @classmethod
    def ray_down(cls, b0: float) -> "RatioInterval":
        return cls("ray_down", b0)


def optimal_design(n: int, b: float) -> OptimalDesign:
    """The optimal design at any finite ratio b, by the construction that applies there.

    b = 0: the alpha = 0.5 member of zero_b_family; 0 < |b| <= critical_b(n):
    t_optimal_design; beyond, regime "alternance": solve_at(n, 1/b), or at
    n = 2, {-1, 1} with weights 1/2 (psi = x^2 + b x - 1 is then monotone).
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b", finite=True)
    if b == 0.0:
        return zero_b_family(n, 0.5)
    if in_explicit_regime(n, b):
        return t_optimal_design(n, b)
    if n == 2:
        design = Design(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    else:
        design = solve_at(n, 1.0 / b).design()
    return OptimalDesign(design, "alternance", n, b)


def maximin_design(n: int, interval: RatioInterval) -> Design:
    """The design that maximises min over b in the interval of T(xi, b).

    whole_line: weight 1/2n on each endpoint of [-1, 1] and 1/n on each
    interior extremum of T_n; its worst case is 4^(1-n), at b = 0.
    ray_up/ray_down: the optimal design at the finite endpoint, where its
    T(xi, b) is lowest along the ray. For the downward ray that is
    optimal_design(n, -b0), the mirror of the upward ray's design bit for
    bit; at b0 = 0 both rays give the alpha = 0.5 member, its own mirror.
    """
    n = check_degree(n, 2)
    if interval.kind == "whole_line":
        pts = chebyshev_extrema(n)
        wts = np.full(n + 1, 1.0 / n)
        wts[0] = wts[-1] = 1.0 / (2.0 * n)
        return Design(pts, wts)
    if interval.kind == "ray_up":
        return optimal_design(n, interval.b0).design
    return optimal_design(n, -interval.b0).design


def r_value(n: int, b: float) -> float:
    """Best attainable criterion value at ratio b >= 0.

    Inside the explicit regime this is the squared sup deviation
    (1 + b/n)^(2n) / 2^(2n-2); outside it the criterion of
    optimal_design(n, b). Strictly increasing in b, which is what makes ray
    endpoints the worst case.
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b", finite=True)
    if b < 0.0:
        raise ValueError("b must be a nonnegative real")
    if in_explicit_regime(n, b):
        return float((1.0 + b / n) ** (2 * n) / 2.0 ** (2 * n - 2))
    return float(t_criterion(optimal_design(n, b).design, DiscriminationProblem(n, b=b)))
