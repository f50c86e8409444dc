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

from .closed_form import canonical_weights, in_explicit_regime
from .designs import Design, DiscriminationProblem, t_criterion
from .errors import check_degree, check_ratio
from .minimax import closed_form_psi, remez
from .polynomials import ChebyshevSeries

EQUIVALENCE_TOL = 1e-10
ALTERNATION_TOL = 1e-8
CRITERION_REL_TOL = 1e-8
INEQUALITY_TOL = 1e-8


def equivalence_system(design: Design, psi: ChebyshevSeries, n: int) -> np.ndarray:
    """Residuals sum_i w_i psi(x_i) x_i^k for k = 0..n-2.

    All must vanish at an optimal design whose error polynomial is psi: the
    weighted error is orthogonal to every fittable monomial. Each residual is
    a compensated sum of the raw per-point products.
    """
    n = check_degree(n, 2)
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
    vals = np.asarray(psi(design.points), dtype=float)
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


def global_inequality(psi: ChebyshevSeries, psi_norm_sq: float, *,
                      critical_points: np.ndarray | None = None) -> float:
    """Margin max over [-1,1] of psi^2 minus psi_norm_sq, its design-weighted mean square.

    Every local maximum of psi^2 on [-1, 1] is an endpoint or a real root
    of psi', so the maximum is taken over the critical points of psi alone;
    a caller already holding psi.critical_points() passes them as
    critical_points. At a true optimum the margin is zero to solver
    precision: no point of the interval beats the support. A positive
    margin quantifies the violation.
    """
    if critical_points is None:
        critical_points = psi.critical_points()
    vals = psi(critical_points)
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
    The tolerances scale with the problem: the equivalence residuals and
    the alternation spread are compared to their constant times the sup
    deviation, the inequality margin to its constant times its square.
    """
    n = check_degree(n, 2)
    b = check_ratio(b, "b", finite=True)
    if in_explicit_regime(n, b):
        psi, route = closed_form_psi(n, b), "closed_form"
    else:
        psi, route = remez(n, b).psi, "remez"
    crit = psi.critical_points()
    # sup |psi| over its critical points, which its extremal set attains;
    # for the Remez route this is its deviation
    deviation = float(np.abs(psi(crit)).max())

    checks = []
    resid = equivalence_system(design, psi, n)
    worst = float(np.abs(resid).max())
    tol = EQUIVALENCE_TOL * deviation
    checks.append({
        "name": "equivalence_system",
        "value": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    })
    alt = alternation_check(design, psi, ALTERNATION_TOL * deviation)
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
        "psi_route": route,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
