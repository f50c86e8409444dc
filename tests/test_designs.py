import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as ncheb

from tdiscrim import designs, verification_report, zero_b_family
from tdiscrim.closed_form import critical_b
from tdiscrim.designs import (
    Design,
    DiscriminationProblem,
    _cosines,
    _fit,
    _monomial,
    _residual,
    error_polynomial,
    t_criterion,
)
from tdiscrim.polynomials import chebyshev_extrema
from tdiscrim.power import ExactDesign


def lstsq_criterion(design, problem):
    """Independent criterion route: root-weighted rows through numpy lstsq."""
    g = problem.fixed_part()
    sw = np.sqrt(design.weights)
    a = sw[:, None] * design.points[:, None] ** np.arange(problem.n - 1)
    rhs = sw * g(design.points)
    coef = np.linalg.lstsq(a, rhs, rcond=None)[0]
    return float(np.sum((rhs - a @ coef) ** 2))


def _support_fault(points, weights):
    """True when the weights make a design on as many points as points holds."""
    try:
        Design(np.linspace(-1.0, 1.0, np.size(points)), weights)
    except ValueError:
        return False
    return True


class TestDesignValidation:
    def test_rejects_out_of_interval(self):
        with pytest.raises(ValueError):
            Design([-1.5, 1.0], [0.5, 0.5])

    def test_rejects_unsorted_and_duplicates(self):
        with pytest.raises(ValueError):
            Design([0.5, -0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            Design([0.5, 0.5], [0.5, 0.5])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Design([-1.0, 1.0], [0.5, -0.5])
        with pytest.raises(ValueError):
            Design([-1.0, 1.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            Design([-1.0, 1.0], [0.5, 0.0])

    def test_accepts_single_point(self):
        d = Design([0.25], [1.0])
        assert d.support_size == 1

    # (points, weights, message): the first failing check names the fault
    NAN, INF = float("nan"), float("inf")
    INVALID = [
        ([NAN, 1.0], [0.5, 0.5], "finite"),
        ([-1.0, INF], [0.5, 0.5], "finite"),
        ([-INF, 1.0], [0.5, 0.5], "finite"),
        ([-1.0, 1.0], [NAN, 0.5], "finite"),
        ([-1.0, 1.0], [0.5, INF], "finite"),
        ([-1.0, 1.0], [-INF, 0.5], "finite"),
        ([[-1.0, 1.0]], [0.5, 0.5], "one-dimensional"),
        ([-1.0, 1.0], [[0.5, 0.5]], "one-dimensional"),
        ([], [], "non-empty"),
        ([-1.0, 1.0], [1.0], "equally long"),
        ([-1.0, 1.0 + 2e-12], [0.5, 0.5], r"lie in \[-1, 1\]"),
        ([-1.0 - 2e-12, 1.0], [0.5, 0.5], r"lie in \[-1, 1\]"),
        ([0.5, 0.5], [0.5, 0.5], "strictly increasing"),
        ([0.5, -0.5], [0.5, 0.5], "strictly increasing"),
        ([-1.0, 0.0, -0.5], [0.3, 0.3, 0.4], "strictly increasing"),
        ([-1.0, 1.0], [1.0, 0.0], "positive"),
        ([-1.0, 1.0], [1.5, -0.5], "positive"),
        ([-1.0, 1.0], [0.5, 0.5 + 2e-12], "sum to one"),
        ([-1.0, 1.0], [0.5, 0.5 - 2e-12], "sum to one"),
        # precedence
        ([NAN, 1.0], [1.5, -0.5], "finite"),
        ([-1.0, 1.0], [NAN, -0.5], "finite"),
        ([1.5, 0.5], [0.5, 0.5], r"lie in \[-1, 1\]"),
        ([0.5, -0.5], [1.5, -0.5], "strictly increasing"),
        ([-1.0, 1.0], [0.0, 0.5], "positive"),
        ({}, [1.0], "lists of numbers"),
        ([0.0], {"w": 1.0}, "lists of numbers"),
        ([{}, 1.0], [0.5, 0.5], "lists of numbers"),
    ]

    @pytest.mark.parametrize("points, weights, message", INVALID)
    def test_rejects_with_the_first_failing_check(self, points, weights, message):
        with pytest.raises(ValueError, match=message):
            Design(points, weights)

    @pytest.mark.parametrize("points, weights, message",
                             [c for c in INVALID if _support_fault(c[0], c[1])])
    def test_an_exact_design_rejects_a_bad_support_alike(self, points, weights, message):
        # ExactDesign checks its points through Design: one support rule, one table
        with pytest.raises(ValueError, match=message):
            ExactDesign(points, [1] * len(points))

    def test_both_accept_roundoff_beyond_one(self):
        for design in (Design([0.0, 1.0 + 1e-13], [0.5, 0.5]),
                       ExactDesign([0.0, 1.0 + 1e-13], [1, 1])):
            assert design.points[-1] == 1.0 + 1e-13

    @pytest.mark.parametrize("points, weights", [
        ([-1.0 - 1e-12, 1.0 + 1e-12], [0.5, 0.5]),
        ([-1.0, 1.0], [0.5, 0.5 + 5e-13]),
        ([-1.0, 1.0], [0.5, 0.5 - 5e-13]),
        (np.float64(0.25), np.float64(1.0)),
    ])
    def test_accepts_the_tolerance_edges(self, points, weights):
        d = Design(points, weights)
        assert d.points.dtype == d.weights.dtype == np.float64
        assert d.points.ndim == d.weights.ndim == 1

    # every message, whole; the sum check prints the sum it found
    MESSAGES = {
        "numbers": "design points and weights must be lists of numbers",
        "shape": "points and weights must be one-dimensional",
        "sizes": "points and weights must be non-empty and equally long",
        "finite": "points and weights must be finite",
        "interval": "support points must lie in [-1, 1]",
        "increasing": "support points must be strictly increasing",
        "positive": "weights must be positive",
        "sum": "weights must sum to one (got 1.25)",
    }
    # (points, weights, fault) on two points, cast to each sequence kind
    SEQUENCE_FAULTS = [
        ([], [], "sizes"),
        ([-1.0, 1.0], [1.0], "sizes"),
        ([-1.0, 1.0], [0.5, NAN], "finite"),
        ([-1.5, 1.0], [0.5, 0.5], "interval"),
        ([0.5, -0.5], [0.5, 0.5], "increasing"),
        ([-1.0, 1.0], [1.5, -0.5], "positive"),
        ([-1.0, 1.0], [0.5, 0.75], "sum"),
    ]
    KINDS = {"list": list, "tuple": tuple,
             "float32": lambda v: np.asarray(v, dtype=np.float32)}
    # a scalar or 0-d input is a one-point support
    SCALAR_FAULTS = [
        (NAN, 1.0, "finite"),
        (2.0, 1.0, "interval"),
        (0.25, -1.0, "positive"),
        (0.25, 1.25, "sum"),
        (0.25, [0.5, 0.5], "sizes"),
    ]
    SCALARS = {"scalar": float, "float64": np.float64, "0-d": np.array}
    OTHER_FAULTS = [
        (np.ones((1, 2)), [0.5, 0.5], "shape"),
        ([-1.0, 1.0], np.full((2, 1), 0.5), "shape"),
        (np.zeros((0, 2)), [], "shape"),
        ({}, [1.0], "numbers"),
        ([0.0], {"w": 1.0}, "numbers"),
    ]

    @staticmethod
    def assert_message(points, weights, fault):
        message = TestDesignValidation.MESSAGES[fault]
        with pytest.raises(ValueError) as err:
            Design(points, weights)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("points, weights, fault", SEQUENCE_FAULTS)
    def test_message_for_each_sequence_kind(self, kind, points, weights, fault):
        cast = self.KINDS[kind]
        self.assert_message(cast(points), cast(weights), fault)

    @pytest.mark.parametrize("kind", SCALARS)
    @pytest.mark.parametrize("point, weight, fault", SCALAR_FAULTS)
    def test_message_for_each_scalar_kind(self, kind, point, weight, fault):
        cast = self.SCALARS[kind]
        weight = cast(weight) if np.ndim(weight) == 0 else weight
        self.assert_message(cast(point), weight, fault)

    @pytest.mark.parametrize("points, weights, fault", OTHER_FAULTS)
    def test_message_for_two_dimensional_and_other_inputs(self, points, weights, fault):
        self.assert_message(points, weights, fault)

    @pytest.mark.parametrize("kind", SCALARS)
    def test_a_scalar_is_a_one_point_support(self, kind):
        cast = self.SCALARS[kind]
        d = Design(cast(0.25), cast(1.0))
        assert d.points.shape == d.weights.shape == (1,)
        assert d.points[0] == 0.25 and d.weights[0] == 1.0

    def test_reflection(self):
        d = Design([-1.0, 0.25, 1.0], [0.2, 0.3, 0.5])
        r = d.reflected()
        assert np.allclose(r.points, [-1.0, -0.25, 1.0])
        assert np.allclose(r.weights, [0.5, 0.3, 0.2])


class TestSerialization:
    def test_json_bit_roundtrip(self):
        d = Design([-1.0, -1.0 / 3.0, 0.123456789012345678, 1.0],
                   [0.1, 0.2, 0.3, 0.4])
        d2 = Design.from_json(d.to_json())
        assert np.array_equal(d.points, d2.points)
        assert np.array_equal(d.weights, d2.weights)

    def test_csv_bit_roundtrip(self):
        d = Design([-0.9999999999999999, 1.0 / 7.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
        d2 = Design.from_csv(d.to_csv())
        assert np.array_equal(d.points, d2.points)
        assert np.array_equal(d.weights, d2.weights)

    def test_json_ignores_extra_keys(self):
        text = json.dumps({"points": [-1.0, 1.0], "weights": [0.5, 0.5],
                           "criterion": 0.25, "n": 3})
        d = Design.from_json(text)
        assert d.support_size == 2

    def test_json_requires_keys(self):
        with pytest.raises(ValueError):
            Design.from_json(json.dumps({"points": [0.0]}))

    @pytest.mark.parametrize("text", ["point,weight\n0.5\n",
                                      "point,weight\n-1.0,0.5\n1.0\n"])
    def test_csv_row_without_a_weight_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="point and a weight"):
            Design.from_csv(text)

    @pytest.mark.parametrize("obj", [{"points": {}, "weights": [1.0]},
                                     {"points": [0.0], "weights": {"w": 1.0}},
                                     {"points": [{}, 1.0], "weights": [0.5, 0.5]}])
    def test_json_object_for_a_list_is_a_value_error(self, obj):
        with pytest.raises(ValueError, match="lists of numbers"):
            Design.from_json(json.dumps(obj))


class TestProblem:
    def test_requires_exactly_one_ratio(self):
        with pytest.raises(ValueError):
            DiscriminationProblem(3)
        with pytest.raises(ValueError):
            DiscriminationProblem(3, b=1.0, bbar=1.0)
        # b = 0.0 counts as given
        DiscriminationProblem(3, b=0.0)

    def test_fixed_part_b(self):
        g = DiscriminationProblem(3, b=2.0).fixed_part()
        assert ncheb.cheb2poly(g.coeffs).tolist() == [0.0, 0.0, 2.0, 1.0]

    def test_fixed_part_bbar_scaled(self):
        g = DiscriminationProblem(4, bbar=0.5).fixed_part()
        assert ncheb.cheb2poly(g.coeffs).tolist() == [0.0, 0.0, 0.0, 1.0, 0.5]

    @pytest.mark.parametrize("n", range(2, 41))
    def test_fixed_part_is_poly2cheb_of_the_monomial_target(self, n):
        # at the dyadic ratios both routes are exact, so they agree to the
        # bit; at the others each entry is one rounded product r * C(m, k) 2^(1-m),
        # which poly2cheb reaches through rounded sums, up to 4.4 eps apart
        eps = np.finfo(float).eps
        exact, rounded = (-3.0, -1.0, -0.75, 0.0, 0.5, 1.0, 2.5e4), (-3.7, -1e-3, 0.29)
        for r in exact + rounded:
            for problem, mono in ((DiscriminationProblem(n, b=r), [r, 1.0]),
                                  (DiscriminationProblem(n, bbar=r), [1.0, r])):
                got = problem.fixed_part().coeffs
                want = np.zeros(n + 1)
                cheb = ncheb.poly2cheb(np.concatenate([np.zeros(n - 1), mono]))
                want[: cheb.size] = cheb
                if r in exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.all(np.abs(got - want) <= 8 * eps * np.abs(want))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            DiscriminationProblem(1, b=1.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_cached_cosines_are_read_only_and_take_values_to_coefficients(self, n):
        # discrete orthogonality at the n + 1 points of the first kind: exact to degree n
        theta, m = _cosines(n)
        assert not theta.flags.writeable and not m.flags.writeable
        c = np.random.Generator(np.random.PCG64(n)).normal(size=n + 1)
        assert np.abs(m @ ncheb.chebval(np.cos(theta), c) - c).max() <= 1e-15 * np.abs(c).sum()

    def test_cached_monomials_are_read_only_and_fixed_parts_fresh(self):
        assert not _monomial(5, 6).flags.writeable
        for problem in (DiscriminationProblem(5, b=0.3), DiscriminationProblem(5, bbar=0.3)):
            before = problem.fixed_part().coeffs.copy()
            got = problem.fixed_part().coeffs
            got[:] = np.nan
            assert np.array_equal(problem.fixed_part().coeffs, before)


class TestBestL2:
    """error_polynomial is the fixed part less its best weighted-L2 fit."""

    def test_symmetric_four_point(self):
        # target x^3 against span{1, x}: slope mu_4 / mu_2 = (3/8) / (1/2)
        d = Design([-1.0, -0.5, 0.5, 1.0], [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        psi = ncheb.cheb2poly(error_polynomial(d, DiscriminationProblem(3, b=0.0)).coeffs)
        assert psi[0] == pytest.approx(0.0, abs=1e-14)
        assert psi[1] == pytest.approx(-0.75, rel=1e-12)
        assert psi[3] == pytest.approx(1.0, rel=1e-12)

    def test_single_point_interpolates(self):
        d = Design([0.5], [1.0])
        prob = DiscriminationProblem(2, b=0.0)
        fit = prob.fixed_part() - error_polynomial(d, prob)
        assert fit(0.5) == pytest.approx(0.25, rel=1e-12)

    def test_rank_deficient_two_points(self):
        d = Design([-1.0, 1.0], [0.5, 0.5])
        prob = DiscriminationProblem(4, b=0.0)
        psi = error_polynomial(d, prob)
        # interpolation is achievable, so the criterion must vanish
        assert np.abs(psi(d.points)).max() <= 1e-12


class TestCriterion:
    def test_single_point_zero(self):
        assert t_criterion(Design([0.3], [1.0]),
                           DiscriminationProblem(5, b=0.2)) <= 1e-30

    @pytest.mark.parametrize("n", [3, 5, 12, 40])
    def test_exactly_zero_on_fewer_than_n_points(self, n):
        # the fit interpolates there: T is 0.0, not the rounding noise of
        # the residuals' sum of squares (up to 1.8e-33 at n = 5), and the
        # report fails on the certificate with the whole of dev^2 as margin
        for k in range(1, n):
            points = [0.3] if k == 1 else chebyshev_extrema(k - 1)
            d = Design(points, np.full(k, 1.0 / k))
            for b in (0.0, 0.5 * critical_b(n), -0.9 * critical_b(n)):
                problem = DiscriminationProblem(n, b=b)
                assert t_criterion(d, problem) == 0.0
                assert _residual(d, problem)[0] == 0.0
                report = verification_report(d, n, b)
                checks = {c["name"]: c for c in report["checks"]}
                assert not report["passed"]
                assert checks["criterion_matches_deviation"]["value"] == 1.0
                assert not checks["criterion_matches_deviation"]["passed"]
                assert not checks["global_inequality"]["passed"]

    def test_three_point_quarter(self):
        d = Design([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        val = t_criterion(d, DiscriminationProblem(2, b=0.0))
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_family_member_value(self):
        d = Design([-1.0, -0.5, 0.5, 1.0], [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        val = t_criterion(d, DiscriminationProblem(3, b=0.0))
        assert val == pytest.approx(1.0 / 16.0, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_independent_lstsq(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = np.sort(rng.uniform(-1.0, 1.0, 6))
        w = rng.uniform(0.1, 1.0, 6)
        d = Design(pts, w / w.sum())
        # n = 6 puts the criterion on its divided-difference route
        for n, b in [(3, 0.4), (4, -0.2), (5, 0.0), (6, 0.1)]:
            prob = DiscriminationProblem(n, b=b)
            assert t_criterion(d, prob) == pytest.approx(
                lstsq_criterion(d, prob), rel=1e-9, abs=1e-14
            )

    def test_sign_flip_invariance_at_zero_b(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(5):
            pts = np.sort(rng.uniform(-1.0, 1.0, 5))
            w = rng.uniform(0.1, 1.0, 5)
            d = Design(pts, w / w.sum())
            prob = DiscriminationProblem(4, b=0.0)
            assert t_criterion(d, prob) == pytest.approx(
                t_criterion(d.reflected(), prob), rel=1e-10
            )

    def test_residual_orthogonality(self):
        d = Design([-1.0, -0.4, 0.1, 0.8, 1.0], [0.2] * 5)
        prob = DiscriminationProblem(5, b=0.3)
        res = error_polynomial(d, prob)(d.points)
        for k in range(prob.n - 1):
            assert abs(np.sum(d.weights * res * d.points**k)) <= 1e-10


class TestLineDual:
    """On n + 1 points the certificate is a weighted straight-line fit in x, not least squares."""

    def test_the_b_zero_family_takes_no_least_squares(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("an n + 1-point design reached np.linalg.lstsq")

        monkeypatch.setattr(designs.np.linalg, "lstsq", unavailable)
        for n in range(2, 41):
            problem = DiscriminationProblem(n, b=0.0)
            for alpha in (0.1, 0.5, 0.9):
                design = zero_b_family(n, alpha).design
                assert design.support_size == n + 1
                assert t_criterion(design, problem) > 0.0
                assert error_polynomial(design, problem).coeffs.size == n + 1
                assert verification_report(design, n, 0.0)["passed"]

    def test_a_pair_closer_than_the_shares_resolve_is_left_to_the_fit(self):
        # at a gap of 1e-200 the far points' shares u_i / U underflow, and with
        # them V; the fit, whose rows at the pair coincide, still resolves T
        n = 6
        rng = np.random.Generator(np.random.PCG64(n))
        pts = np.sort(np.concatenate([rng.uniform(-1.0, 1.0, n - 1), [0.0, 1e-200]]))
        w = rng.uniform(0.1, 1.0, n + 1)
        design = Design(pts, w / w.sum())
        problem = DiscriminationProblem(n, b=0.3)
        assert designs._dual(design, problem) is None
        res = _fit(design, problem)[2]
        assert t_criterion(design, problem) == float(res @ res)
        assert _residual(design, problem)[0] == float(res @ res)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 10), data=st.data(), ratio=st.sampled_from(["b", "bbar"]),
           value=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3))
    def test_the_dual_agrees_with_the_fit_where_it_is_well_conditioned(self, n, data,
                                                                      ratio, value):
        # gaps within a factor 5 of each other keep the fit's Vandermonde tame
        gaps = np.array(data.draw(st.lists(st.floats(0.2, 1.0), min_size=n + 2,
                                           max_size=n + 2)))
        points = -1.0 + 2.0 * np.cumsum(gaps)[:-1] / gaps.sum()
        w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n + 1,
                                        max_size=n + 1)))
        design = Design(points, w / w.sum())
        problem = DiscriminationProblem(n, **{ratio: value})
        criterion, psi, wpsi = _residual(design, problem)
        res = _fit(design, problem)[2]
        assert criterion == pytest.approx(float(res @ res), rel=1e-11)
        assert criterion == t_criterion(design, problem)
        tol = 1e-12 * np.abs(psi.coeffs).sum()
        assert np.abs(psi(design.points) * design.weights - wpsi).max() <= tol
        assert np.abs(np.sqrt(design.weights) * res - wpsi).max() <= tol
