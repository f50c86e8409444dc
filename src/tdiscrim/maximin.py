"""Worst-case optimal designs over intervals of the unknown ratio.

When the ratio b is only known to lie in some interval, the design
maximizing the worst-case efficiency has a clean answer: over the whole
line it is the Chebyshev-extrema design of degree n, and over a ray it is
the optimal design at the ray's endpoint, because efficiency degrades
monotonically away from the endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import in_explicit_regime, t_optimal_design, zero_b_family
from .continuation import solve_at
from .designs import Design, DiscriminationProblem, t_criterion
from .errors import check_degree, check_ratio

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


def _design_at(n: int, b0: float) -> Design:
    """Optimal design at ratio b0 >= 0, whichever regime that lands in."""
    if b0 == 0.0:
        return zero_b_family(n, 0.5).design
    if in_explicit_regime(n, b0):
        return t_optimal_design(n, b0).design
    if n == 2:
        # psi = x^2 + b0 x - 1 is monotone on [-1, 1] for every b0 >= b_c = 2,
        # so the design at b_c, {-1, 1} with weights 1/2, stays optimal
        return Design(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    return solve_at(n, 1.0 / b0).design()


def maximin_design(n: int, interval: RatioInterval) -> Design:
    """The design with the best worst-case efficiency over the interval.

    whole_line: weight 1/2n on each endpoint of [-1, 1] and 1/n on each
    interior extremum of T_n. ray_up/ray_down: the optimal design at the
    finite endpoint (efficiency is monotone along the ray), mirrored for
    the downward ray.
    """
    n = check_degree(n, 2)
    if interval.kind == "whole_line":
        pts = np.cos((n - np.arange(n + 1)) * np.pi / n)
        wts = np.full(n + 1, 1.0 / n)
        wts[0] = wts[-1] = 1.0 / (2.0 * n)
        return Design(pts, wts)
    if interval.kind == "ray_up":
        return _design_at(n, interval.b0)
    return _design_at(n, interval.b0).reflected()


def r_value(n: int, b: float) -> float:
    """Best attainable criterion value at ratio b >= 0.

    Inside the explicit regime this is the squared sup deviation
    (1 + b/n)^(2n) / 2^(2n-2); outside it the criterion of the
    continuation design, or b^2 at n = 2. Strictly increasing in b, which is what makes
    ray endpoints the worst case.
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b", finite=True)
    if b < 0.0:
        raise ValueError("b must be a nonnegative real")
    if in_explicit_regime(n, b):
        return float((1.0 + b / n) ** (2 * n) / 2.0 ** (2 * n - 2))
    return float(t_criterion(_design_at(n, b), DiscriminationProblem(n, b=b)))
