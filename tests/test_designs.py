import json

import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb

from tdiscrim.designs import (
    Design,
    DiscriminationProblem,
    _monomial,
    error_polynomial,
    t_criterion,
)
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
