import numpy as np
import pytest

from tdiscrim.closed_form import (
    _weights,
    canonical_weights,
    critical_b,
    support_points,
    t_optimal_design,
    zero_b_family,
)
from tdiscrim.designs import Design, DiscriminationProblem, t_criterion
from tdiscrim.errors import RegimeError
from tdiscrim.maximin import RatioInterval, maximin_design
from tdiscrim.minimax import closed_form_psi, extremal_set
from tdiscrim.polynomials import _extrema


class TestCriticalB:
    def test_known_values(self):
        # n tan^2(pi / 2n), frozen at 12 digits
        assert critical_b(3) == pytest.approx(1.0, rel=1e-15)
        assert critical_b(4) == pytest.approx(0.686291501015, abs=5e-13)
        assert critical_b(5) == pytest.approx(0.527864045000, abs=5e-13)
        assert critical_b(10) == pytest.approx(0.250856309369, abs=5e-13)

    def test_degree_four_is_algebraic(self):
        # tan^2(pi/8) = 3 - 2 sqrt(2), so the critical ratio is 12 - 8 sqrt(2)
        assert critical_b(4) == pytest.approx(12.0 - 8.0 * np.sqrt(2.0), rel=1e-14)

    def test_monotone_decreasing(self):
        vals = [critical_b(n) for n in range(3, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            critical_b(1)


class TestSupportPoints:
    def test_unit_ratio_cubic(self):
        pts = support_points(3, 1.0)
        assert np.allclose(pts, [-1.0, 1.0 / 3.0, 1.0], atol=1e-14)

    def test_centered_matches_chebyshev(self):
        i = np.arange(1, 6)
        assert np.allclose(support_points(5, 0.0),
                           -np.cos(i * np.pi / 5), atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_last_point_is_one(self, n):
        for b in np.linspace(-critical_b(n), critical_b(n), 7):
            pts = support_points(n, float(b))
            assert pts[-1] == 1.0
            assert np.all(np.diff(pts) > 0)
            assert pts[0] >= -1.0

    def test_first_point_reaches_minus_one_at_critical(self):
        for n in (3, 4, 7):
            pts = support_points(n, critical_b(n))
            assert pts[0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_centred_support_is_symmetric_to_the_bit(self, n):
        # at b = 0 the support is the extrema of T_n, so each point's mirror
        # is a point, and an even degree's centre is +0.0
        pts = support_points(n, 0.0)
        assert (0.0 - pts[-2::-1]).tobytes() == pts[:-1].tobytes()
        if n % 2 == 0:
            centre = pts[n // 2 - 1]
            assert centre == 0.0 and not np.signbit(centre)

    def test_sign_of_b_is_immaterial(self):
        assert np.array_equal(support_points(4, 0.5), support_points(4, -0.5))

    def test_outside_regime(self):
        with pytest.raises(RegimeError):
            support_points(3, 1.01)


class TestCanonicalWeights:
    def test_cubic_values(self):
        w = canonical_weights(3)
        assert np.allclose(w, [1.0 / 6.0, 1.0 / 2.0, 1.0 / 3.0], atol=1e-15)

    def test_quintic_values(self):
        # (2/5) sin^2(i pi/10) and mirrors, last weight exactly 1/5
        w = canonical_weights(5)
        assert np.allclose(
            w,
            [0.0381966011, 0.1381966011, 0.2618033989, 0.3618033989, 0.2],
            atol=5e-11,
        )
        assert w[-1] == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_positive_and_normalized(self, n):
        w = canonical_weights(n)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_midpoint_weight(self, n):
        # the sin^2 and cos^2 expressions meet at 1/n in the middle
        assert canonical_weights(n)[n // 2 - 1] == pytest.approx(1.0 / n, rel=1e-14)


class TestTOptimalDesign:
    def test_cubic_unit_ratio(self):
        res = t_optimal_design(3, 1.0)
        assert res.regime == "positive_b"
        assert np.allclose(res.design.points, [-1.0, 1.0 / 3.0, 1.0], atol=1e-14)
        assert np.allclose(res.design.weights,
                           [1.0 / 6.0, 1.0 / 2.0, 1.0 / 3.0], atol=1e-15)

    def test_negative_ratio_mirrors(self):
        pos = t_optimal_design(4, 0.5).design
        neg = t_optimal_design(4, -0.5)
        assert neg.regime == "negative_b"
        assert np.allclose(neg.design.points, -pos.points[::-1], atol=1e-15)
        assert np.allclose(neg.design.weights, pos.weights[::-1], atol=1e-15)
        assert neg.design.points[0] == -1.0

    @pytest.mark.parametrize("n", range(2, 41))
    def test_negative_ratio_is_the_reflection_to_the_bit(self, n):
        bc = critical_b(n)
        for b in (1e-300, 0.1 * bc, 0.5 * bc, 0.9 * bc, bc):
            neg = t_optimal_design(n, -b).design
            ref = t_optimal_design(n, b).design.reflected()
            assert neg.points.tobytes() == ref.points.tobytes()
            assert neg.weights.tobytes() == ref.weights.tobytes()

    def test_zero_ratio_refused(self):
        with pytest.raises(ValueError, match="zero_b_family"):
            t_optimal_design(3, 0.0)

    def test_outside_regime(self):
        with pytest.raises(RegimeError):
            t_optimal_design(3, 2.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_support_is_extremal_set(self, n):
        for b in np.linspace(-critical_b(n), critical_b(n), 9):
            if b == 0.0:
                continue
            d = t_optimal_design(n, float(b)).design
            pts = extremal_set(closed_form_psi(n, float(b)))
            assert np.abs(d.points - pts).max() <= 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_criterion_equals_squared_deviation(self, n):
        for b in (0.1, 0.5 * critical_b(n), critical_b(n)):
            d = t_optimal_design(n, float(b)).design
            val = t_criterion(d, DiscriminationProblem(n, b=float(b)))
            dev = (1.0 + b / n) ** n / 2.0 ** (n - 1)
            assert val == pytest.approx(dev * dev, rel=1e-10)

    def test_continuity_toward_zero(self):
        # b -> 0+ recovers the alpha = 0 family member
        d_small = t_optimal_design(4, 1e-9).design
        d_zero = zero_b_family(4, 0.0).design
        assert np.abs(d_small.points - d_zero.points).max() <= 1e-8
        assert np.abs(d_small.weights - d_zero.weights).max() <= 1e-12


class TestZeroBFamily:
    def test_ends_of_family(self):
        left = zero_b_family(3, 0.0).design
        right = zero_b_family(3, 1.0).design
        assert left.support_size == 3
        assert right.support_size == 3
        assert left.points[0] == pytest.approx(-0.5, abs=1e-15)
        assert right.points[-1] == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(right.points, -left.points[::-1], atol=1e-15)

    def test_symmetric_member(self):
        res = zero_b_family(3, 0.5)
        assert res.regime == "zero_b_family"
        assert res.alpha == 0.5
        assert np.allclose(res.design.points, [-1.0, -0.5, 0.5, 1.0], atol=1e-14)
        assert np.allclose(res.design.weights,
                           [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
                           atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_interior_support_size(self, alpha):
        assert zero_b_family(4, alpha).design.support_size == 5

    def test_mixture_weights(self):
        # weight at interior point j is (1-alpha) w_j + alpha w_(n-j)
        w = canonical_weights(3)
        d = zero_b_family(3, 0.25).design
        assert d.weights[0] == pytest.approx(0.25 * w[2], rel=1e-14)
        assert d.weights[1] == pytest.approx(0.75 * w[0] + 0.25 * w[1], rel=1e-14)
        assert d.weights[2] == pytest.approx(0.75 * w[1] + 0.25 * w[0], rel=1e-14)
        assert d.weights[3] == pytest.approx(0.75 * w[2], rel=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_criterion_constant_across_family(self, n):
        target = 2.0 ** (-(2 * n - 2))
        prob = DiscriminationProblem(n, b=0.0)
        for alpha in np.linspace(0.0, 1.0, 11):
            val = t_criterion(zero_b_family(n, float(alpha)).design, prob)
            assert val == pytest.approx(target, rel=1e-10)

    def test_alpha_gate(self):
        with pytest.raises(ValueError):
            zero_b_family(3, -0.01)
        with pytest.raises(ValueError):
            zero_b_family(3, 1.01)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_symmetric_member_is_its_own_mirror_to_the_bit(self, n):
        d = zero_b_family(n, 0.5).design
        r = d.reflected()
        assert d.points.tobytes() == r.points.tobytes()
        assert d.weights.tobytes() == r.weights.tobytes()

    @pytest.mark.parametrize("n", range(2, 41))
    def test_mirror_of_a_member_is_the_member_at_one_minus_alpha(self, n):
        for alpha in (0.0, 0.25, 1.0):
            r = zero_b_family(n, alpha).design.reflected()
            d = zero_b_family(n, 1.0 - alpha).design
            assert r.points.tobytes() == d.points.tobytes()
            assert r.weights.tobytes() == d.weights.tobytes()

    @pytest.mark.parametrize("n", range(2, 41))
    def test_interior_members_sit_on_the_whole_line_design(self, n):
        # every interior member is carried by the n + 1 extrema of T_n, the
        # support of the whole-line maximin design
        wl = maximin_design(n, RatioInterval.whole_line()).points
        for alpha in (1e-300, 0.25, 0.5, 0.9):
            assert zero_b_family(n, alpha).design.points.tobytes() == wl.tobytes()

    @pytest.mark.parametrize("n", range(2, 41))
    def test_equals_the_sort_and_merge_of_its_ends(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        pts, w = support_points(n, 0.0), canonical_weights(n)
        mirror = Design(pts, w).reflected()
        for alpha in (0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, *rng.uniform(0.0, 1.0, 5)):
            got = zero_b_family(n, alpha).design
            ref_pts, ref_wts = sort_and_merge(
                pts, (1.0 - alpha) * w, mirror.points, alpha * mirror.weights)
            assert got.points.tobytes() == ref_pts.tobytes()
            assert got.weights.tobytes() == ref_wts.tobytes()


def sort_and_merge(p1, w1, p2, w2, tol=1e-12):
    """Two weighted point sets as one: sorted, points within tol merged, zero weights dropped."""
    pts = np.concatenate([p1, p2])
    wts = np.concatenate([w1, w2])
    order = np.argsort(pts)
    pts, wts = pts[order], wts[order]
    out_p: list[float] = []
    out_w: list[float] = []
    for x, w in zip(pts, wts):
        if out_p and x - out_p[-1] <= tol:
            out_w[-1] += w
        else:
            out_p.append(float(x))
            out_w.append(float(w))
    keep = np.array(out_w) > 0.0
    return np.array(out_p)[keep], np.array(out_w)[keep]


class TestCachedConstants:
    def test_cached_constants_are_read_only_and_results_fresh(self):
        assert not _extrema(5).flags.writeable
        assert not _weights(5).flags.writeable

        def results():
            designs = [t_optimal_design(5, 0.3).design, t_optimal_design(5, -0.3).design,
                       zero_b_family(5, 0.3).design]
            return [support_points(5, 0.3), canonical_weights(5),
                    *(a for d in designs for a in (d.points, d.weights))]

        before = [a.copy() for a in results()]
        for a in results():
            a[:] = np.nan
        assert all(np.array_equal(a, b) for a, b in zip(results(), before))


class TestNonNumericRatio:
    # NaN compares false with the critical ratio, so it must be caught by name

    @pytest.mark.parametrize("build", [support_points, t_optimal_design])
    def test_nan_is_an_argument_error(self, build):
        with pytest.raises(ValueError, match="b must be a number") as err:
            build(5, float("nan"))
        assert not isinstance(err.value, RegimeError)

    @pytest.mark.parametrize("build", [support_points, t_optimal_design])
    def test_infinite_is_outside_the_regime(self, build):
        for b in (float("inf"), -float("inf")):
            with pytest.raises(RegimeError):
                build(5, b)
