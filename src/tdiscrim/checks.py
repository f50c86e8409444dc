"""Optimality checks from the design alone: moment residuals, alternation, identities.

The equivalence theorem (Atkinson & Fedorov, 1975) certifies a design by
its own error polynomial psi_xi, the residual of its weighted fit, so no
check rebuilds the optimal psi by the closed form or the Remez exchange
that construct designs. The moment residuals are accumulated with
compensated summation from raw products, so an inaccurate fit cannot
cancel against itself here; they form one matrix of terms, one row per
moment. verification_report evaluates psi_xi in one Clenshaw pass over
its critical points and the support together, and runs every check on
those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import canonical_weights
from .designs import Design, DiscriminationProblem, error_polynomial
from .errors import check_degree, check_ratio
from .polynomials import ChebyshevSeries

EQUIVALENCE_TOL = 1e-10
ALTERNATION_TOL = 1e-8
INEQUALITY_TOL = 1e-8


def equivalence_system(design: Design, psi: ChebyshevSeries, n: int) -> np.ndarray:
    """Residuals sum_i w_i psi(x_i) x_i^k for k = 0..n-2.

    All must vanish at an optimal design whose error polynomial is psi: the
    weighted error is orthogonal to every fittable monomial. For the design's
    own psi_xi these are the normal equations of its fit. Each residual is a
    compensated sum of the raw per-point products.
    """
    n = check_degree(n, 2)
    return _moment_residuals(design, psi(design.points), n)


def _moment_residuals(design: Design, pv: np.ndarray, n: int) -> np.ndarray:
    """equivalence_system's residuals, psi being pv at the support."""
    # x**k row by row: a broadcast power or repeated products round differently
    x = design.points
    terms = np.array([x**k for k in range(n - 1)]) * (design.weights * pv)
    return np.array([math.fsum(row) for row in terms.tolist()])


def appendix_identity(n: int, k: int) -> float:
    """Compensated value of sum_i (-1)^i cos(k i pi / n) w_i for the canonical weights.

    Vanishes for k = 0..n-2; that fact is what makes the explicit weights
    solve the equivalence system for every b in the regime at once.
    """
    n = check_degree(n, 2)
    if k != int(k) or not 0 <= k <= n - 2:
        raise ValueError("k must be an integer in [0, n-2]")
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
    check passes when signs strictly alternate and spread <= tol.
    """
    return _alternation(np.asarray(psi(design.points), dtype=float), tol)


def _alternation(vals: np.ndarray, tol: float) -> AlternationReport:
    """alternation_check's report, psi being vals at the support."""
    signs = np.sign(vals).astype(int)
    mags = np.abs(vals)
    alternates = bool(np.all(vals[:-1] * vals[1:] < 0.0)) if vals.size > 1 else True
    spread = float(mags.max() - mags.min())
    return AlternationReport(
        passed=alternates and bool(spread <= tol),
        signs=signs,
        magnitudes=mags,
        spread=spread,
        tol=tol,
    )


def global_inequality(psi: ChebyshevSeries, psi_norm_sq: float) -> float:
    """Margin max over [-1,1] of psi^2 minus psi_norm_sq, its design-weighted mean square.

    Every local maximum of psi^2 on [-1, 1] is an endpoint or a real root
    of psi', so the maximum is taken over the critical points of psi alone.
    At a true optimum the margin is zero to solver precision: no point of
    the interval beats the support. A positive margin quantifies the
    violation.
    """
    vals = psi(psi.critical_points())
    return float(np.max(vals * vals) - psi_norm_sq)


def verification_report(design: Design, n: int, b: float) -> dict:
    """Run every optimality check against a design and return a JSON-able report.

    By the equivalence theorem (Atkinson & Fedorov, 1975) the design alone
    decides: xi is T-optimal if and only if max psi_xi^2 over [-1, 1] is at
    most T(xi), where psi_xi is the residual of the design's own weighted
    fit and T(xi) its design-weighted mean square. No optimal psi is built,
    so the report shares no route with the constructions it checks.
    equivalence_system checks the fit's normal equations and alternation
    the equal-magnitude sign changes over the support;
    criterion_matches_deviation and global_inequality are one certificate,
    (dev^2 - T) / dev^2 and dev^2 - T, with dev the sup of |psi_xi| over
    its critical points. psi_xi is evaluated in one pass over its critical
    points and the support together, and every check reads those values. The
    tolerances scale with the problem: the residuals and the spread are
    compared to their constant times dev, the absolute margin to its
    constant times dev^2.
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b", finite=True)
    psi = error_polynomial(design, DiscriminationProblem(n, b=b))
    cp = psi.critical_points()
    vals = psi(np.concatenate([cp, design.points]))
    cv, pv = vals[: cp.size], vals[cp.size :]
    deviation = float(np.abs(cv).max())
    criterion = float(np.sum(design.weights * pv * pv))

    checks = []
    resid = _moment_residuals(design, pv, n)
    worst = float(np.abs(resid).max())
    tol = EQUIVALENCE_TOL * deviation
    checks.append({
        "name": "equivalence_system",
        "value": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    })
    alt = _alternation(pv, ALTERNATION_TOL * deviation)
    checks.append({
        "name": "alternation",
        "value": alt.spread,
        "tolerance": alt.tol,
        "passed": alt.passed,
    })
    margin = float(np.max(cv * cv) - criterion)
    gap = margin / deviation**2
    checks.append({
        "name": "criterion_matches_deviation",
        "value": gap,
        "tolerance": INEQUALITY_TOL,
        "passed": gap <= INEQUALITY_TOL,
    })
    tol = INEQUALITY_TOL * deviation**2
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
