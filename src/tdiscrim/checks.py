"""Independent optimality checks: moment residuals, alternation, identities.

These certify designs without reusing the formulas that built them. The
moment residuals are accumulated with compensated summation from raw
products, so a systematic error in a design construction cannot cancel
against the same error here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import canonical_weights, critical_b, REGIME_SLACK
from .designs import Design, DiscriminationProblem, t_criterion
from .minimax import (
    _critical_points,
    closed_form_psi,
    remez,
    target_polynomial,
)
from .polynomials import Polynomial

EQUIVALENCE_TOL = 1e-10
ALTERNATION_TOL = 1e-8
CRITERION_REL_TOL = 1e-8
INEQUALITY_TOL = 1e-8
# Scan resolution for the global inequality; local maxima are then polished
# through the derivative roots, so this only needs to bracket them.
SCAN_POINTS = 2000
_SCAN_GRID = -np.cos(np.linspace(0.0, np.pi, SCAN_POINTS))
_SCAN_GRID.flags.writeable = False


def equivalence_system(design: Design, psi: Polynomial, n: int) -> np.ndarray:
    """Residuals sum_i w_i psi(x_i) x_i^k for k = 0..n-2.

    All must vanish at an optimal design whose error polynomial is psi: the
    weighted error is orthogonal to every fittable monomial. Each residual is
    a compensated sum of the raw per-point products.
    """
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    pv = psi(design.points)
    out = np.empty(n - 1)
    for k in range(n - 1):
        terms = design.weights * pv * design.points**k
        out[k] = math.fsum(terms.tolist())
    return out


def appendix_identity(n: int, k: int) -> float:
    """Compensated value of sum_i (-1)^i cos(k i pi / n) w_i for the canonical weights.

    Vanishes for k = 0..n-2; that fact is what makes the explicit weights
    solve the equivalence system for every b in the regime at once.
    """
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
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


def alternation_check(design: Design, psi: Polynomial,
                      tol: float = ALTERNATION_TOL) -> AlternationReport:
    """Check that psi alternates in sign over the support with equal magnitude.

    spread is the largest magnitude difference across support points; the
    check passes when signs strictly alternate and spread <= tol.
    """
    vals = np.asarray(psi(design.points), dtype=float)
    signs = np.sign(vals).astype(int)
    mags = np.abs(vals)
    alternates = bool(np.all(vals[:-1] * vals[1:] < 0.0)) if vals.size > 1 else True
    spread = float(mags.max() - mags.min())
    return AlternationReport(
        passed=alternates and spread <= tol,
        signs=signs,
        magnitudes=mags,
        spread=spread,
        tol=tol,
    )


def global_inequality(subject, psi_norm_sq: float | None = None, *,
                      critical_points: np.ndarray | None = None) -> float:
    """Margin max over [-1,1] of psi^2 minus its design-weighted mean square.

    subject is either the error polynomial itself (then psi_norm_sq is
    required) or any object with psi() and design() methods. The maximum is
    taken over a SCAN_POINTS grid plus the critical points of psi, which a
    caller already holding _critical_points(psi) passes as critical_points.
    At a true optimum the margin is zero to solver precision: no point of
    the interval beats the support. A positive margin quantifies the
    violation.
    """
    if hasattr(subject, "psi"):
        psi = subject.psi()
        if psi_norm_sq is None:
            d = subject.design()
            pv = psi(d.points)
            psi_norm_sq = float(np.sum(d.weights * pv * pv))
    else:
        psi = subject
        if psi_norm_sq is None:
            raise ValueError("psi_norm_sq is required when passing a bare polynomial")
    if critical_points is None:
        critical_points = _critical_points(psi)
    cand = np.concatenate([_SCAN_GRID, critical_points])
    vals = psi(cand)
    return float(np.max(vals * vals) - psi_norm_sq)


def criterion_matches_deviation(design: Design, n: int, b: float,
                                deviation: float) -> tuple[bool, float]:
    """Relative gap between the criterion value and the squared sup deviation."""
    val = t_criterion(design, DiscriminationProblem(n, b=b))
    gap = abs(val - deviation**2) / deviation**2
    return gap <= CRITERION_REL_TOL, float(gap)


def verification_report(design: Design, n: int, b: float) -> dict:
    """Run every optimality check against a design and return a JSON-able report.

    The error polynomial is rebuilt independently: closed form inside the
    explicit regime, Remez exchange outside it. Its critical points are
    found once and serve both the deviation and the global inequality.
    """
    if n != int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")
    n = int(n)
    b = float(b)
    if abs(b) <= critical_b(n) * (1.0 + REGIME_SLACK):
        psi = closed_form_psi(n, b)
        route = "closed_form"
        crit = _critical_points(psi)
        # sup |psi| over its critical points, which its extremal set attains
        deviation = float(np.abs(psi(crit)).max())
    else:
        res = remez(n, b)
        psi = target_polynomial(n, b) - res.approximant
        route = "remez"
        deviation = res.deviation
        crit = _critical_points(psi)

    checks = []
    resid = equivalence_system(design, psi, n)
    worst = float(np.abs(resid).max())
    checks.append({
        "name": "equivalence_system",
        "value": worst,
        "tolerance": EQUIVALENCE_TOL,
        "passed": worst <= EQUIVALENCE_TOL,
    })
    alt = alternation_check(design, psi)
    checks.append({
        "name": "alternation",
        "value": alt.spread,
        "tolerance": alt.tol,
        "passed": alt.passed,
    })
    ok, gap = criterion_matches_deviation(design, n, b, deviation)
    checks.append({
        "name": "criterion_matches_deviation",
        "value": gap,
        "tolerance": CRITERION_REL_TOL,
        "passed": ok,
    })
    pv = psi(design.points)
    margin = global_inequality(psi, float(np.sum(design.weights * pv * pv)),
                               critical_points=crit)
    checks.append({
        "name": "global_inequality",
        "value": margin,
        "tolerance": INEQUALITY_TOL,
        "passed": margin <= INEQUALITY_TOL,
    })
    return {
        "n": n,
        "b": b,
        "psi_route": route,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
