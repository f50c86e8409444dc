"""Input checks shared by every module: degrees, ratios and the regime predicate."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from tdiscrim import (
    ContinuationState,
    Design,
    ChebyshevSeries,
    DiscriminationProblem,
    RatioInterval,
    RegimeError,
    bbar_limit,
    canonical_weights,
    closed_form_psi,
    critical_b,
    maximin_design,
    optimal_design,
    r_value,
    remez,
    solve_at,
    t_criterion,
    t_optimal_design,
    target_polynomial,
    taylor_coefficients,
    trajectory,
    verification_report,
    zero_b_family,
)
import tdiscrim
from tdiscrim import checks, closed_form, continuation, minimax, polynomials, power
from tdiscrim.checks import (
    alternation_check,
    appendix_identity,
    equivalence_system,
    global_inequality,
)
from tdiscrim.cli import main
from tdiscrim.closed_form import in_explicit_regime, support_points
from tdiscrim.continuation import _table, d1_optimal_start
from tdiscrim.errors import MAX_DEGREE, check_degree, check_ratio
from tdiscrim.polynomials import chebyshev_extrema
from tdiscrim.power import (
    T_OPTIMAL_48,
    ExactDesign,
    f_test_power_analytic,
    f_test_power_mc,
    noncentrality,
    table1,
)

NAN = float("nan")
INF = float("inf")

_DESIGN = Design([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
_PSI = ChebyshevSeries([0.0, 0.0, 0.5])

# (entry point, call with degree n and otherwise valid arguments, smallest n)
DEGREE_ENTRY_POINTS = [
    ("equivalence_system", lambda n: equivalence_system(_DESIGN, _PSI, n), 2),
    ("appendix_identity", lambda n: appendix_identity(n, 0), 2),
    ("verification_report", lambda n: verification_report(_DESIGN, n, 0.1), 2),
    ("critical_b", critical_b, 2),
    ("canonical_weights", canonical_weights, 2),
    ("t_optimal_design", lambda n: t_optimal_design(n, 0.1), 2),
    ("zero_b_family", lambda n: zero_b_family(n, 0.5), 2),
    ("_table", _table, 3),
    ("DiscriminationProblem", lambda n: DiscriminationProblem(n, b=0.1), 2),
    ("maximin_design", lambda n: maximin_design(n, RatioInterval.whole_line()), 2),
    ("r_value", lambda n: r_value(n, 0.1), 2),
    ("target_polynomial", lambda n: target_polynomial(n, 0.1), 2),
    ("closed_form_psi", lambda n: closed_form_psi(n, 0.1), 2),
    ("chebyshev_extrema", chebyshev_extrema, 1),
    ("bbar_limit", bbar_limit, 2),
    ("solve_at", lambda n: solve_at(n, 0.1), 3),
    ("trajectory", lambda n: trajectory(n, [0.0, 0.1]), 3),
    ("d1_optimal_start", d1_optimal_start, 3),
    ("support_points", lambda n: support_points(n, 0.1), 2),
    ("remez", lambda n: remez(n, 0.1), 2),
    ("optimal_design", lambda n: optimal_design(n, 0.1), 2),
]


@pytest.mark.parametrize("name,call,minimum", DEGREE_ENTRY_POINTS,
                         ids=[e[0] for e in DEGREE_ENTRY_POINTS])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "2.5", "below"])
def test_every_degree_entry_point_rejects_a_bad_n(name, call, minimum, bad):
    n = minimum - 1 if bad == "below" else float(bad)
    with pytest.raises(ValueError, match=rf"n must be an integer >= {minimum}") as err:
        call(n)
    assert err.type is ValueError


@pytest.mark.parametrize("name,call,minimum", DEGREE_ENTRY_POINTS,
                         ids=[e[0] for e in DEGREE_ENTRY_POINTS])
def test_every_degree_entry_point_accepts_its_minimum(name, call, minimum):
    call(minimum)
    call(float(minimum))


@pytest.mark.parametrize("name,call,minimum", DEGREE_ENTRY_POINTS,
                         ids=[e[0] for e in DEGREE_ENTRY_POINTS])
@pytest.mark.parametrize("n", [MAX_DEGREE + 1, float(MAX_DEGREE + 1), 1000])
def test_every_degree_entry_point_rejects_n_beyond_the_maximum(name, call, minimum, n):
    with pytest.raises(ValueError, match=rf"^n = {int(n)} exceeds the maximum "
                                         rf"degree {MAX_DEGREE}$") as err:
        call(n)
    assert err.type is ValueError


def test_maximum_degree_is_inclusive():
    assert MAX_DEGREE == 40
    assert check_degree(MAX_DEGREE, 2) == check_degree(float(MAX_DEGREE), 0) == 40
    assert closed_form_psi(MAX_DEGREE, 0.0).coeffs.size == MAX_DEGREE + 1
    assert bbar_limit(MAX_DEGREE) > 0.0


def test_check_degree_returns_a_python_int():
    for n in (5, 5.0, np.int64(5), np.float64(5.0)):
        k = check_degree(n, 2)
        assert k == 5 and type(k) is int


class TestIntegerArguments:
    """order, max_iter, reps and seed follow n's integer rule.

    An integral float counts; a bool, a fraction or a string does not.
    """

    def test_an_integral_float_order_counts(self):
        assert np.array_equal(taylor_coefficients(5, 0.1, order=2.0),
                              taylor_coefficients(5, 0.1, order=2))

    @pytest.mark.parametrize("order", [True, False, np.True_, 2.5, NAN, INF, 0, 4])
    def test_order_rejects_a_bool_or_a_fraction(self, order):
        with pytest.raises(ValueError, match="order must be"):
            taylor_coefficients(5, 0.1, order=order)

    @pytest.mark.parametrize("max_iter", [True, np.True_, 2.5, NAN, 0])
    def test_max_iter_rejects_a_bool_or_a_fraction(self, max_iter):
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1$"):
            remez(5, 1.0, max_iter=max_iter)

    def test_an_integral_float_budget_counts(self):
        assert remez(5, 1.0, max_iter=100.0).iterations == remez(5, 1.0).iterations

    @pytest.mark.parametrize("reps", [1000.7, INF, NAN, "2000", True, 999])
    def test_reps_rejects_a_fraction_a_string_or_too_few(self, reps):
        with pytest.raises(ValueError, match="^reps must be an integer >= 1000$"):
            f_test_power_mc(T_OPTIMAL_48, 1.0, reps, 1)

    @pytest.mark.parametrize("seed", [1.5, -1, INF, "7", np.True_])
    def test_seed_rejects_a_fraction_a_string_or_a_negative(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            f_test_power_mc(T_OPTIMAL_48, 1.0, 1000, seed)

    def test_table_reps_rejects_a_fraction(self):
        with pytest.raises(ValueError, match="^reps must be an integer >= 10000$"):
            table1(reps=10000.5)

    def test_a_bool_is_no_degree(self):
        with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
            chebyshev_extrema(True)


# (case, parameter, call): power.py, appendix_identity and global_inequality
# check through errors.py and Design; every call raises a ValueError that
# names its parameter
_POINTS4 = [-1.0, -0.5, 0.5, 1.0]
REFUSED_BY_NAME = [
    ("inf-count", "counts", lambda: ExactDesign(_POINTS4, [8, INF, 16, 8])),
    ("huge-count", "counts", lambda: ExactDesign(_POINTS4, [8, 1e30, 16, 8])),
    ("string-count", "counts", lambda: ExactDesign(_POINTS4, [8, "a", 16, 8])),
    ("bool-count", "counts", lambda: ExactDesign(_POINTS4, [8, True, 16, 8])),
    ("wrapping-sum", "counts", lambda: ExactDesign([-1.0, 1.0], [2**62, 2**62])),
    ("inf-k", "k", lambda: appendix_identity(5, INF)),
    ("bool-k", "k", lambda: appendix_identity(5, True)),
    ("nan-level", "level", lambda: f_test_power_analytic(T_OPTIMAL_48, 1.0, NAN)),
    ("nan-psi_norm_sq", "psi_norm_sq", lambda: global_inequality(_PSI, NAN)),
    ("nan-theta3", "theta3", lambda: noncentrality(T_OPTIMAL_48, NAN)),
    ("inf-theta3", "theta3", lambda: noncentrality(T_OPTIMAL_48, INF)),
    ("minus-inf-theta3", "theta3", lambda: noncentrality(T_OPTIMAL_48, -INF)),
    # refused before these checks were shared, and still refused
    ("fractional-count", "counts", lambda: ExactDesign(_POINTS4, [8, 1.5, 16, 8])),
    ("2d-counts", "counts", lambda: ExactDesign(_POINTS4, [[8, 16, 16, 8]])),
    ("fractional-k", "k", lambda: appendix_identity(5, 2.5)),
]


@pytest.mark.parametrize("name,call", [e[1:] for e in REFUSED_BY_NAME],
                         ids=[e[0] for e in REFUSED_BY_NAME])
def test_power_and_appendix_inputs_are_refused_by_name(name, call):
    with pytest.raises(ValueError, match=rf"\b{name}\b") as err:
        call()
    assert err.type is ValueError


def test_counts_may_sum_to_the_largest_64_bit_integer():
    assert ExactDesign([-1.0, 1.0], [2**62, 2**62 - 1]).size == 2**63 - 1


def test_check_ratio_names_the_parameter_and_passes_infinities():
    with pytest.raises(ValueError, match=r"^bbar must be a number, got nan$"):
        check_ratio(np.float64(NAN), "bbar")
    for x in (INF, -INF, np.float64(0.25), 3):
        y = check_ratio(x, "b")
        assert type(y) is float and y == x


NOT_NUMBERS = ["0.3", b"0.3", True, np.True_]
RATIO_ENTRY_POINTS = [
    ("optimal_design", "b", lambda v: optimal_design(5, v)),
    ("t_optimal_design", "b", lambda v: t_optimal_design(5, v)),
    ("r_value", "b", lambda v: r_value(5, v)),
    ("verification_report", "b",
     lambda v: verification_report(t_optimal_design(5, 0.3).design, 5, v)),
    ("solve_at", "bbar", lambda v: solve_at(5, v)),
    ("taylor_coefficients", "bbar0", lambda v: taylor_coefficients(5, v)),
    ("trajectory", "bbar", lambda v: trajectory(5, [0.1, v])),
    ("problem", "bbar", lambda v: DiscriminationProblem(5, bbar=v)),
    ("zero_b_family", "alpha", lambda v: zero_b_family(5, v)),
    ("f_test_power_mc", "theta3", lambda v: f_test_power_mc(T_OPTIMAL_48, v, 1000, 1)),
    # every other float parameter, read by check_ratio before its range test
    ("f_test_power_analytic-level", "level",
     lambda v: f_test_power_analytic(T_OPTIMAL_48, 1.0, v)),
    ("remez-tol", "tol", lambda v: remez(5, 0.3, tol=v)),
    ("table1-level", "level", lambda v: table1(level=v)),
    ("alternation_check-tol", "tol", lambda v: alternation_check(_DESIGN, _PSI, v)),
    ("global_inequality-psi_norm_sq", "psi_norm_sq", lambda v: global_inequality(_PSI, v)),
]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("name,call", [e[1:] for e in RATIO_ENTRY_POINTS],
                         ids=[e[0] for e in RATIO_ENTRY_POINTS])
def test_a_ratio_takes_numbers_only(name, call, value):
    # as check_integer refuses strings and bools, so does check_ratio, where
    # float() would have read "0.3" as 0.3 and True as 1.0
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be a number, got {value!r}"


# numpy arrays and scalars of a kind other than integer or float; float() would
# read a 0-d string array as its text, an object array as its element and a
# complex scalar as its real part
NUMPY_NOT_NUMBERS = [np.array("0.3"), np.array(b"0.3"), np.array(0.3, dtype=object),
                     np.array(True), np.complex128(0.3), np.array(0.3 + 0j)]


@pytest.mark.parametrize("value", NUMPY_NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("name,call", [e[1:] for e in RATIO_ENTRY_POINTS],
                         ids=[e[0] for e in RATIO_ENTRY_POINTS])
def test_a_ratio_takes_numpy_numbers_only(name, call, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be a number, got {value!r}"


@pytest.mark.parametrize("value", [np.array(0.25), np.float32(0.25), np.int64(3),
                                   np.array(3, dtype=np.uint8), np.float16(0.25)],
                         ids=repr)
def test_check_ratio_takes_numpy_integers_and_floats(value):
    y = check_ratio(value, "b")
    assert type(y) is float and y == float(value)


@pytest.mark.parametrize("alpha, message", [
    (NAN, "^alpha must be a number, got nan$"),
    (INF, "^alpha must be finite, got inf$"),
    (-0.5, r"^alpha must lie in \[0, 1\]$"),
    (1.5, r"^alpha must lie in \[0, 1\]$"),
])
def test_zero_b_family_checks_alpha_through_check_ratio(alpha, message):
    with pytest.raises(ValueError, match=message):
        zero_b_family(5, alpha)


def test_zero_b_family_takes_numpy_alphas():
    ref = zero_b_family(5, 0.25).design
    for alpha in (np.float64(0.25), np.array(0.25), np.float32(0.25)):
        d = zero_b_family(5, alpha).design
        assert np.array_equal(d.points, ref.points)
        assert np.array_equal(d.weights, ref.weights)


@pytest.mark.parametrize("call, message", [
    (lambda: f_test_power_analytic(T_OPTIMAL_48, 1.0, 0.0), r"^level must be in \(0, 1\)$"),
    (lambda: f_test_power_analytic(T_OPTIMAL_48, 1e200),
     "^noncentrality must be finite and nonnegative$"),
    (lambda: remez(5, 0.3, tol=1.0), "^tol must lie strictly between 0 and 1, got 1.0$"),
], ids=["level", "noncentrality", "tol"])
def test_a_number_out_of_range_keeps_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("coeffs", [
    lambda c: [repr(v) for v in c.tolist()],
    lambda c: [True] + c.tolist()[1:],
], ids=["strings", "bool"])
def test_a_state_takes_numbers_only(coeffs):
    # Design's numbers rule, with the state's own message: numpy would read
    # "0.1" as 0.1 and True as 1.0
    state = solve_at(5, 0.3)
    with pytest.raises(ValueError) as err:
        ContinuationState(coeffs(state.coeffs), state.points, state.weights, state.bbar)
    assert str(err.value) == "psi needs n + 1 finite Chebyshev coefficients"


def test_a_grid_of_strings_is_refused_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(continuation, "_exchanges",
                        lambda *args: calls.append(args) or minimax._exchanges(*args))
    with pytest.raises(ValueError) as err:
        trajectory(5, ["0.1", "0.2"])
    assert str(err.value) == "bbar must be a number, got '0.1'"
    assert calls == []


def test_an_empty_grid_is_refused():
    with pytest.raises(ValueError) as err:
        trajectory(5, [])
    assert str(err.value) == "grid must be a non-empty one-dimensional sequence"


class TestRegimePredicate:
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
    def test_boundary_and_slack(self, n):
        bc = critical_b(n)
        for b in (0.0, 0.5 * bc, bc, -bc, bc * (1.0 + 1e-13)):
            assert in_explicit_regime(n, b)
        for b in (bc * (1.0 + 1e-9), -bc * (1.0 + 1e-9), INF, -INF, NAN):
            assert not in_explicit_regime(n, b)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_every_switch_agrees_with_it(self, n):
        bc = critical_b(n)
        for b in (0.5 * bc, bc, 1.5 * bc):
            if in_explicit_regime(n, b):
                assert r_value(n, b) == (1.0 + b / n) ** (2 * n) / 2.0 ** (2 * n - 2)
            else:
                design = solve_at(n, 1.0 / b).design()
                assert r_value(n, b) == pytest.approx(
                    t_criterion(design, DiscriminationProblem(n, b=b)), rel=1e-10)


class TestNanInverseRatio:
    """A NaN bbar is a bad argument, not a value outside the path interval."""

    @pytest.mark.parametrize("call", [
        lambda: solve_at(5, NAN),
        lambda: trajectory(5, [NAN]),
        lambda: trajectory(5, [0.0, NAN, 0.5]),
        lambda: taylor_coefficients(5, NAN),
        lambda: DiscriminationProblem(5, bbar=NAN),
    ])
    def test_nan_is_an_argument_error(self, call):
        # taylor_coefficients names its parameter bbar0; RATIO_ENTRY_POINTS
        # pins each entry point's exact name
        with pytest.raises(ValueError, match=r"^bbar0? must be a number") as err:
            call()
        assert not isinstance(err.value, RegimeError)

    def test_a_nan_inside_a_grid_is_caught_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(continuation, "_exchanges",
                            lambda *args: calls.append(args) or minimax._exchanges(*args))
        with pytest.raises(ValueError, match="^bbar must be a number, got nan$"):
            trajectory(5, [0.1, NAN, 0.3])
        assert calls == []

    @pytest.mark.parametrize("bbar", [INF, -INF])
    def test_infinite_is_outside_the_path(self, bbar):
        with pytest.raises(RegimeError):
            solve_at(5, bbar)
        with pytest.raises(RegimeError):
            trajectory(5, [bbar])

    def test_outside_message_prints_plain_floats(self):
        with pytest.raises(RegimeError) as err:
            trajectory(3, np.linspace(0.0, 2.0, 4))
        assert "|bbar| = 2.0 " in str(err.value)
        assert "np.float64" not in str(err.value)


class TestNanRatio:
    """A NaN b fails by name wherever it enters, not inside the arithmetic."""

    @pytest.mark.parametrize("call", [
        lambda: remez(5, NAN),
        lambda: verification_report(t_optimal_design(5, 0.3).design, 5, NAN),
        lambda: DiscriminationProblem(5, b=NAN),
        lambda: t_criterion(_DESIGN, DiscriminationProblem(3, b=NAN)),
        lambda: target_polynomial(5, NAN),
        lambda: optimal_design(5, NAN),
    ])
    def test_nan_is_an_argument_error(self, call):
        with pytest.raises(ValueError, match="^b must be a number") as err:
            call()
        assert not isinstance(err.value, RegimeError)

    def test_regime_error_prints_plain_floats(self):
        with pytest.raises(RegimeError) as err:
            support_points(3, np.float64(2.0))
        assert "|b| = 2.0 " in str(err.value)
        assert "np.float64" not in str(err.value)


class TestMaximinRatios:
    """r_value and RatioInterval check b and b0 with the shared helper, then their sign."""

    @pytest.mark.parametrize("name,call", [
        ("b", lambda x: r_value(5, x)),
        ("b0", lambda x: RatioInterval.ray_up(x)),
        ("b0", lambda x: RatioInterval.ray_down(x)),
        ("b0", lambda x: RatioInterval("whole_line", x)),
    ])
    def test_nan_and_infinities_are_argument_errors(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan$"):
            call(NAN)
        for x in (INF, -INF):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got -?inf$") as err:
                call(x)
            assert not isinstance(err.value, RegimeError)

    def test_a_negative_ratio_is_refused_by_sign(self):
        with pytest.raises(ValueError, match="^b must be a nonnegative real$"):
            r_value(5, -0.1)
        with pytest.raises(ValueError, match="^b0 must be a nonnegative real$"):
            RatioInterval.ray_up(-0.1)

    @pytest.mark.parametrize("interval", ["geq:nan", "geq:inf", "leq:nan", "leq:-inf"])
    def test_cli_exit_code_stays_two(self, interval, capsys):
        assert main(["maximin", "--n", "3", "--interval", interval]) == 2
        assert "b0 must be" in capsys.readouterr().err


class TestInfiniteRatio:
    """An infinite b or bbar is a bad argument where no regime applies."""

    @pytest.mark.parametrize("x", [INF, -INF])
    @pytest.mark.parametrize("name,call", [
        ("b", lambda x: remez(5, x)),
        ("b", lambda x: verification_report(t_optimal_design(3, 0.3).design, 3, x)),
        ("b", lambda x: DiscriminationProblem(3, b=x)),
        ("b", lambda x: t_criterion(_DESIGN, DiscriminationProblem(3, b=x))),
        ("b", lambda x: target_polynomial(5, x)),
        ("bbar", lambda x: DiscriminationProblem(3, bbar=x).fixed_part()),
        ("b", lambda x: optimal_design(5, x)),
    ])
    def test_infinite_is_an_argument_error(self, name, call, x):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got -?inf$") as err:
            call(x)
        assert not isinstance(err.value, RegimeError)

    @pytest.mark.parametrize("x", [INF, -INF])
    def test_regime_entry_points_keep_regime_error(self, x):
        for call in (lambda: closed_form_psi(5, x), lambda: support_points(5, x),
                     lambda: t_optimal_design(5, x)):
            with pytest.raises(RegimeError):
                call()

    def test_check_ratio_rejects_infinities_when_asked(self):
        for x in (INF, -INF):
            with pytest.raises(ValueError, match="^b must be finite"):
                check_ratio(x, "b", finite=True)
        assert check_ratio(0.25, "b", finite=True) == 0.25


class TestHugeRatio:
    """A ratio whose square overflows is a bad argument: criterion values grow like it."""

    @pytest.mark.parametrize("x", [1e200, -1e200])
    @pytest.mark.parametrize("name,call", [
        ("b", lambda x: DiscriminationProblem(5, b=x)),
        ("bbar", lambda x: DiscriminationProblem(5, bbar=x)),
        ("b", lambda x: remez(5, x)),
        ("b", lambda x: target_polynomial(5, x)),
        ("b", lambda x: verification_report(maximin_design(5, RatioInterval.whole_line()), 5, x)),
        ("b", lambda x: t_criterion(optimal_design(5, x).design, DiscriminationProblem(5, b=x))),
    ])
    def test_is_an_argument_error(self, name, call, x):
        with pytest.raises(ValueError, match=rf"^{name} = -?1e\+200 is too large") as err:
            call(x)
        assert not isinstance(err.value, RegimeError)

    def test_r_value_overflows_no_more(self):
        with pytest.raises(ValueError, match=r"^b = 1e\+160 is too large"):
            r_value(5, 1e160)

    @pytest.mark.parametrize("b", [1.3e154, -1.3e154])
    def test_largest_ratios_stay_finite_and_verified(self, b):
        # 1.3e154 squared is still finite; RuntimeWarnings are errors in this suite
        for n in range(2, MAX_DEGREE + 1):
            design = optimal_design(n, b).design
            assert verification_report(design, n, b)["passed"]
            value = t_criterion(design, DiscriminationProblem(n, b=b))
            assert np.isfinite(value) and 0.0 < value <= (1.0 + 1e-12) * b * b
            assert np.isfinite(remez(n, b).deviation)


def test_one_global_inequality_tolerance():
    # the path screens by one relative margin, and no caller can set its tolerance
    assert continuation.INEQUALITY_TOL is checks.INEQUALITY_TOL == 1e-8

    def bare(f):
        sig = inspect.signature(f)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=sig.empty))

    assert bare(solve_at) == "(n, bbar)"
    assert bare(ContinuationState) == "(coeffs, points, weights, bbar)"
    assert bare(trajectory) == "(n, grid)"
    assert bare(taylor_coefficients) == "(n, bbar0, order=3)"


def test_one_exchange_budget_and_no_path_object():
    # remez and the path stop their exchanges by one budget, defined in minimax
    assert continuation.EXCHANGE_TOL is minimax.EXCHANGE_TOL == 1e-12
    assert continuation.MAX_EXCHANGES is minimax.MAX_EXCHANGES == 100
    defaults = inspect.signature(remez).parameters
    assert defaults["tol"].default is minimax.EXCHANGE_TOL
    assert defaults["max_iter"].default is minimax.MAX_EXCHANGES
    # the path keeps one cached start table per degree: no engine class, no
    # module-level container and no accessor
    classes = [k for k, v in vars(continuation).items()
               if isinstance(v, type) and v.__module__ == continuation.__name__]
    assert classes == ["ContinuationState"]
    assert not [k for k, v in vars(continuation).items()
                if isinstance(v, (dict, list, set)) and not k.startswith("__")]
    assert not hasattr(continuation, "_path")
    table = _table(5)[0]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_one_route_from_a_design_to_its_residual():
    # designs alone chooses between the n-point dual and the fit; the
    # report neither reaches past _residual nor keeps a moment helper
    for name in ("_dual", "_dual_series", "error_polynomial", "_moment_residuals"):
        assert not hasattr(checks, name)
    # one Chebyshev-Lobatto node function: polynomials.chebyshev_extrema
    assert not hasattr(continuation, "_lobatto")


def test_no_module_squares_by_a_power():
    # libm's pow(x, 2) can round a square one ulp off, where x * x is
    # correctly rounded, so every square in the package is a product
    found = []
    for path in sorted(Path(tdiscrim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant) and node.right.value == 2):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_a_state_exposes_only_what_it_holds():
    # psi stays in Chebyshev form: no monomial view q, nor theta built on it
    state = solve_at(5, 0.3)
    assert not hasattr(state, "q") and not hasattr(state, "theta")


def test_package_namespace_is_the_workflow():
    import tdiscrim

    names = tdiscrim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names) == 37
    for name in names:
        getattr(tdiscrim, name)
    assert {"optimal_design", "OptimalDesign"} <= set(names)
    tools = {"h_form", "inequality_margin", "appendix_identity", "equivalence_system",
             "d1_optimal_start", "alternation_check", "AlternationReport",
             "global_inequality", "chebyshev_extrema", "support_points"}
    assert not ({"ClosedFormDesign"} | tools) & set(names)
    gone = {"ClosedFormDesign", "f_critical", "noncentral_f_sf"}
    assert not any(hasattr(tdiscrim, n) for n in tools | gone)
    # the validation tools stay importable from their modules
    modules = (checks, continuation, closed_form, polynomials)
    assert all(any(hasattr(m, n) for m in modules) for n in tools)
    # the F-test reads scipy directly: no second validating layer over it
    assert not any(hasattr(power, n) for n in ("f_critical", "noncentral_f_sf", "_check_df"))
