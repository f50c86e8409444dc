"""Optimality checks from the design alone: moment residuals, alternation, identities.

The equivalence theorem (Atkinson & Fedorov, 1975) certifies a design by
its own error polynomial psi_xi, the residual of its weighted fit, so no
check rebuilds the optimal psi by the closed form or the Remez exchange
that construct designs. verification_report takes T(xi), psi_xi and the
weighted residuals w_i psi_xi(x_i) at the support from designs._residual,
which alone picks the route: the divided-difference dual on n points (the
optima past b = 0) and on n + 1 points (the interior members of the b = 0
family), where it is a weighted straight-line fit in x with exact
divided differences for right-hand sides, and the least-squares fit on any
other support. The moment residuals are one product of the weighted
residuals against running products of the support, and alternation reads
the same residuals. The sup of |psi_xi| is taken over its critical points
only, which polynomials._critical gives with psi_xi there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import canonical_weights
from .designs import Design, DiscriminationProblem, _residual
from .errors import check_degree, check_integer, check_ratio
from .polynomials import ChebyshevSeries, _critical

EQUIVALENCE_TOL = 1e-10
ALTERNATION_TOL = 1e-8
INEQUALITY_TOL = 1e-8


def equivalence_system(design: Design, psi: ChebyshevSeries, n: int) -> np.ndarray:
    """Residuals sum_i w_i psi(x_i) x_i^k for k = 0..n-2.

    All must vanish at an optimal design whose error polynomial is psi: the
    weighted error is orthogonal to every fittable monomial. For the design's
    own psi_xi these are the normal equations of its fit. Each residual is
    one compensated sum of w_i psi(x_i) x_i^k over the points.
    """
    n = check_degree(n, 2)
    x = design.points
    wpsi = design.weights * psi(x)
    return np.array([math.fsum((wpsi * x**k).tolist()) for k in range(n - 1)])


def appendix_identity(n: int, k: int) -> float:
    """Compensated value of sum_i (-1)^i cos(k i pi / n) w_i for the canonical weights.

    Vanishes for k = 0..n-2, the integers it accepts; that fact is what makes
    the explicit weights solve the equivalence system for every b in the regime at once.
    """
    n = check_degree(n, 2)
    if check_integer(k, "k", 0) > n - 2:
        raise ValueError(f"k must be at most n - 2 = {n - 2}")
    w = canonical_weights(n)
    i = np.arange(1, n + 1)
    terms = (-1.0) ** i * np.cos(k * i * np.pi / n) * w
    return math.fsum(terms.tolist())


@dataclass
class AlternationReport:
    """Outcome of an equioscillation test on a design's support."""

    passed: bool
    signs: np.ndarray
    magnitudes: np.ndarray
    spread: float
    tol: float

    def __bool__(self) -> bool:
        return self.passed


def alternation_check(design: Design, psi: ChebyshevSeries,
                      tol: float = ALTERNATION_TOL) -> AlternationReport:
    """Check that psi alternates in sign over the support with equal magnitude.

    spread is the largest magnitude difference across support points; the
    check passes when signs strictly alternate and spread <= tol. tol
    follows check_ratio's rule.
    """
    tol = check_ratio(tol, "tol")
    return _alternation(np.asarray(psi(design.points), dtype=float), tol)


def _alternation(vals: np.ndarray, tol: float) -> AlternationReport:
    """alternation_check's report, psi being vals at the support."""
    # the verdict and spread over Python floats: at these sizes numpy's
    # reductions cost more; a NaN makes the spread NaN, as numpy's max would
    v = vals.tolist()
    m = [abs(x) for x in v]
    alternates = all(a * b < 0.0 for a, b in zip(v, v[1:]))
    total = sum(m)
    spread = max(m) - min(m) if total == total else math.nan
    return AlternationReport(
        passed=alternates and bool(spread <= tol),
        signs=np.sign(vals).astype(int),
        magnitudes=np.abs(vals),
        spread=spread,
        tol=tol,
    )


def global_inequality(psi: ChebyshevSeries, psi_norm_sq: float) -> float:
    """Margin max over [-1,1] of psi^2 minus psi_norm_sq, its design-weighted mean square.

    Every local maximum of psi^2 on [-1, 1] is an endpoint or a real root
    of psi', so the maximum is taken over the critical points of psi alone,
    with psi there, from polynomials._critical. At a true optimum
    the margin is zero to solver precision: no point of the interval beats
    the support. A positive margin quantifies the violation. psi_norm_sq
    follows check_ratio's rule.
    """
    psi_norm_sq = check_ratio(psi_norm_sq, "psi_norm_sq")
    vals = _critical(psi)[1]
    return float(np.max(vals * vals) - psi_norm_sq)


def verification_report(design: Design, n: int, b: float) -> dict:
    """Run every optimality check against a design and return a JSON-able report.

    By the equivalence theorem (Atkinson & Fedorov, 1975) the design alone
    decides: xi is T-optimal if and only if max psi_xi^2 over [-1, 1] is at
    most T(xi), where psi_xi is the residual of the design's own weighted
    fit and T(xi) its design-weighted mean square. No optimal psi is built,
    so the report shares no route with the constructions it checks.
    equivalence_system checks the fit's normal equations and alternation the
    equal-magnitude sign changes over the support;
    criterion_matches_deviation and global_inequality are one certificate,
    (dev^2 - T) / dev^2 and dev^2 - T, with dev the sup of |psi_xi| over its
    critical points. T(xi), psi_xi and the weighted residuals at the support
    come from designs._residual; the normal equations are one product of
    those against the powers of the support. The alternation verdict, signs
    and spread, is taken first, and psi_xi's critical points and its values
    there come from polynomials._critical, handed the support when it
    alternates. Its two routes agree to rounding, so the route never decides
    a verdict. The tolerances scale with the problem: the residuals are
    compared to their constant times dev, the spread of |psi_xi| over the
    support to its constant times the largest |psi_xi(x_i)|, and the
    absolute margin to its constant times dev^2. alternation also needs that
    largest |psi_xi(x_i)| above the residuals' own tolerance,
    EQUIVALENCE_TOL times dev: on fewer than n points the fit interpolates,
    and support residuals below that level are rounding noise, not values.
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b", finite=True)
    criterion, psi, wpsi = _residual(design, DiscriminationProblem(n, b=b))
    pv = wpsi / design.weights
    level = float(np.abs(pv).max())
    alt = _alternation(pv, ALTERNATION_TOL * level)
    cv = _critical(psi, design.points if alt.passed else None)[1]
    # sum_i w_i psi_i x_i^k for k = 0..n-2: x^k as running products
    powers = np.empty((n - 1, design.support_size))
    powers[:] = design.points
    powers[0] = 1.0
    resid = np.multiply.accumulate(powers, axis=0) @ wpsi
    deviation = float(np.abs(cv).max())

    checks = []
    worst = float(np.abs(resid).max())
    tol = EQUIVALENCE_TOL * deviation
    checks.append({
        "name": "equivalence_system",
        "value": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    })
    checks.append({
        "name": "alternation",
        "value": alt.spread,
        "tolerance": alt.tol,
        "passed": alt.passed and level > EQUIVALENCE_TOL * deviation,
    })
    margin = float(np.max(cv * cv) - criterion)
    dev2 = deviation * deviation
    gap = margin / dev2
    checks.append({
        "name": "criterion_matches_deviation",
        "value": gap,
        "tolerance": INEQUALITY_TOL,
        "passed": gap <= INEQUALITY_TOL,
    })
    tol = INEQUALITY_TOL * dev2
    checks.append({
        "name": "global_inequality",
        "value": margin,
        "tolerance": tol,
        "passed": margin <= tol,
    })
    return {
        "n": n,
        "b": b,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
