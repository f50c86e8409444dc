"""Optimal designs for discriminating between polynomial regression models.

Given the model pair of degrees n - 2 and n on [-1, 1], this package
computes the designs that separate the two models fastest at any finite
leading-coefficient ratio b (optimal_design): explicitly for small |b|,
from the Remez alternance of the dual approximation problem beyond that.
It adds worst-case versions over ratio intervals, independent optimality
checks for all of them, and the F-test power the optimal design buys.
"""

from .checks import verification_report
from .closed_form import (
    OptimalDesign,
    canonical_weights,
    critical_b,
    t_optimal_design,
    zero_b_family,
)
from .continuation import (
    ContinuationState,
    bbar_limit,
    solve_at,
    taylor_coefficients,
    trajectory,
)
from .designs import Design, DiscriminationProblem, t_criterion
from .errors import ConvergenceError, OptimalityError, RegimeError, SolverError
from .maximin import RatioInterval, maximin_design, optimal_design, r_value
from .minimax import (
    BestApproxResult,
    closed_form_psi,
    extremal_set,
    remez,
    target_polynomial,
)
from .polynomials import ChebyshevSeries
from .power import (
    EQUIDISTANT_48,
    T_OPTIMAL_48,
    ExactDesign,
    PowerResult,
    f_test_power_analytic,
    f_test_power_mc,
    noncentrality,
    table1,
    table1_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BestApproxResult",
    "ChebyshevSeries",
    "ContinuationState",
    "ConvergenceError",
    "Design",
    "DiscriminationProblem",
    "EQUIDISTANT_48",
    "ExactDesign",
    "OptimalDesign",
    "OptimalityError",
    "PowerResult",
    "RatioInterval",
    "RegimeError",
    "SolverError",
    "T_OPTIMAL_48",
    "bbar_limit",
    "canonical_weights",
    "closed_form_psi",
    "critical_b",
    "extremal_set",
    "f_test_power_analytic",
    "f_test_power_mc",
    "maximin_design",
    "noncentrality",
    "optimal_design",
    "r_value",
    "remez",
    "solve_at",
    "t_criterion",
    "t_optimal_design",
    "table1",
    "table1_csv",
    "target_polynomial",
    "taylor_coefficients",
    "trajectory",
    "verification_report",
    "zero_b_family",
]
