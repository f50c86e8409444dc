"""The public surface: every callable in tdiscrim.__all__ refuses a bad input by name.

Each callable has one valid baseline call. inspect.signature binds it, and
each of its numeric arguments in turn becomes a value that is no number,
while each list argument takes one string and one bool element. Every such
call must raise a ValueError whose message names the parameter or, where a
test elsewhere already pins another message for it, matches that message.
README's Public API section must list exactly the names of __all__.
"""

import importlib
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import tdiscrim
from tdiscrim import (
    ChebyshevSeries,
    ContinuationState,
    Design,
    DiscriminationProblem,
    ExactDesign,
    PowerResult,
    RatioInterval,
    T_OPTIMAL_48,
    bbar_limit,
    canonical_weights,
    closed_form_psi,
    critical_b,
    extremal_set,
    f_test_power_analytic,
    f_test_power_mc,
    maximin_design,
    noncentrality,
    optimal_design,
    r_value,
    remez,
    solve_at,
    t_criterion,
    t_optimal_design,
    table1,
    table1_csv,
    target_polynomial,
    taylor_coefficients,
    trajectory,
    verification_report,
    zero_b_family,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# names of __all__ that need no baseline row, each with its reason
EXEMPT = {
    "BestApproxResult": "result record that remez returns",
    "OptimalDesign": "result record that the design constructions return",
    "PowerResult": "result record that f_test_power_mc returns",
    "ConvergenceError": "exception type",
    "OptimalityError": "exception type",
    "RegimeError": "exception type",
    "SolverError": "exception type",
}

_STATE = solve_at(5, 0.3)
_RESULTS = {"T-optimal": [PowerResult(1.0, 0.3, 0.01, 0.3)]}

# (row label, callable, valid keyword arguments); the callable's qualified
# name starts with its name in __all__
BASELINES = [
    ("ChebyshevSeries", ChebyshevSeries, {"coeffs": [0.0, 0.0, 0.5]}),
    ("ContinuationState", ContinuationState, {
        "coeffs": _STATE.coeffs.tolist(), "points": _STATE.points.tolist(),
        "weights": _STATE.weights.tolist(), "bbar": _STATE.bbar}),
    ("Design", Design, {"points": [-1.0, 0.0, 1.0], "weights": [0.25, 0.5, 0.25]}),
    ("DiscriminationProblem-b", DiscriminationProblem, {"n": 5, "b": 0.3}),
    ("DiscriminationProblem-bbar", DiscriminationProblem, {"n": 5, "bbar": 0.3}),
    ("ExactDesign", ExactDesign,
     {"points": [-1.0, -0.5, 0.5, 1.0], "counts": [8, 16, 16, 8]}),
    ("RatioInterval", RatioInterval, {"kind": "ray_up", "b0": 0.3}),
    ("RatioInterval.ray_up", RatioInterval.ray_up, {"b0": 0.3}),
    ("RatioInterval.ray_down", RatioInterval.ray_down, {"b0": 0.3}),
    ("bbar_limit", bbar_limit, {"n": 5}),
    ("canonical_weights", canonical_weights, {"n": 5}),
    ("closed_form_psi", closed_form_psi, {"n": 5, "b": 0.3}),
    ("critical_b", critical_b, {"n": 5}),
    ("extremal_set", extremal_set, {"psi": closed_form_psi(5, 0.3)}),
    ("f_test_power_analytic", f_test_power_analytic,
     {"design": T_OPTIMAL_48, "theta3": 1.0, "level": 0.05}),
    ("f_test_power_mc", f_test_power_mc,
     {"design": T_OPTIMAL_48, "theta3": 1.0, "reps": 1000, "seed": 1, "level": 0.05}),
    ("maximin_design", maximin_design, {"n": 5, "interval": RatioInterval.whole_line()}),
    ("noncentrality", noncentrality, {"design": T_OPTIMAL_48, "theta3": 1.0}),
    ("optimal_design", optimal_design, {"n": 5, "b": 0.3}),
    ("r_value", r_value, {"n": 5, "b": 0.3}),
    ("remez", remez, {"n": 5, "b": 2.0, "tol": 1e-12, "max_iter": 100}),
    ("solve_at", solve_at, {"n": 5, "bbar": 0.3}),
    ("t_criterion", t_criterion,
     {"design": t_optimal_design(5, 0.3).design, "problem": DiscriminationProblem(5, b=0.3)}),
    ("t_optimal_design", t_optimal_design, {"n": 5, "b": 0.3}),
    ("table1", table1, {"reps": 10_000, "seed": 1, "level": 0.05}),
    ("table1_csv", table1_csv, {"results": _RESULTS, "reps": 10_000, "seed": 1}),
    ("target_polynomial", target_polynomial, {"n": 5, "b": 0.3}),
    ("taylor_coefficients", taylor_coefficients, {"n": 5, "bbar0": 0.1, "order": 3}),
    ("trajectory", trajectory, {"n": 5, "grid": [0.0, 0.1]}),
    ("verification_report", verification_report,
     {"design": t_optimal_design(5, 0.3).design, "n": 5, "b": 0.3}),
    ("zero_b_family", zero_b_family, {"n": 5, "alpha": 0.5}),
]

# (row label, parameter): a message another test pins, where it names no parameter
PINNED = {
    ("ContinuationState", "coeffs"): r"^psi needs n \+ 1 finite Chebyshev coefficients$",
    ("trajectory", "grid"): r"^bbar must be a number, got ",
}

NOT_NUMBERS = ["0.3", True, np.array("0.5"), float("nan"), [0.3], None]


def _entry(call) -> str:
    """The name in __all__ that a row's callable belongs to: a class for its methods."""
    return call.__qualname__.split(".")[0]


def uncovered(namespace) -> list[str]:
    """The callables of namespace.__all__ with neither a baseline row nor an exemption."""
    rows = {_entry(call) for _, call, _ in BASELINES}
    return [name for name in namespace.__all__
            if callable(getattr(namespace, name)) and name not in rows | EXEMPT.keys()]


def _cases():
    for label, call, kwargs in BASELINES:
        for param in inspect.signature(call).parameters:
            value = kwargs.get(param)
            if type(value) in (int, float):
                for bad in NOT_NUMBERS:
                    yield pytest.param(label, call, {**kwargs, param: bad}, param,
                                       id=f"{label}-{param}-{bad!r}")
            elif type(value) is list:
                for bad in ("0.5", True):
                    yield pytest.param(label, call, {**kwargs, param: [bad] + value[1:]}, param,
                                       id=f"{label}-{param}-[{bad!r}, ...]")


def test_every_callable_in_the_namespace_has_a_baseline_row():
    assert uncovered(tdiscrim) == []
    assert EXEMPT.keys() <= set(tdiscrim.__all__)
    assert all(_entry(call) in tdiscrim.__all__ for _, call, _ in BASELINES)


def test_the_coverage_check_finds_a_callable_without_a_row():
    namespace = types.SimpleNamespace(
        __all__=["critical_b", "PowerResult", "T_OPTIMAL_48", "new_entry_point"],
        critical_b=critical_b, PowerResult=PowerResult, T_OPTIMAL_48=T_OPTIMAL_48,
        new_entry_point=lambda n: n)
    assert uncovered(namespace) == ["new_entry_point"]


@pytest.mark.parametrize("label,call,kwargs", BASELINES, ids=[row[0] for row in BASELINES])
def test_every_baseline_call_is_valid(label, call, kwargs):
    inspect.signature(call).bind(**kwargs)
    call(**kwargs)


@pytest.mark.parametrize("label,call,kwargs,param", list(_cases()))
def test_a_bad_argument_is_refused_by_name(label, call, kwargs, param):
    with pytest.raises(ValueError) as err:
        call(**kwargs)
    message = str(err.value)
    pinned = PINNED.get((label, param))
    assert re.search(rf"\b{param}\b", message) or (pinned and re.search(pinned, message)), message


def _public_api_section() -> tuple[str, str]:
    """README's Public API section, split at its paragraph on module-level tools."""
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names, tools = section.split("Module-level tools", 1)
    return names, tools


def test_readme_lists_the_public_api():
    names, tools = _public_api_section()
    listed = []
    for module, line in re.findall(r"^- `(tdiscrim\.\w+)`: (.+)$", names, re.MULTILINE):
        mod = importlib.import_module(module)
        for name in re.findall(r"`(\w+)`", line):
            assert getattr(mod, name) is getattr(tdiscrim, name), (module, name)
            listed.append(name)
    assert sorted(listed) == tdiscrim.__all__
    for module, line in re.findall(r"^- `(tdiscrim\.\w+)`: (.+)$", tools, re.MULTILINE):
        mod = importlib.import_module(module)
        for name in re.findall(r"`(\w+)`", line):
            assert hasattr(mod, name) and name not in tdiscrim.__all__, (module, name)
