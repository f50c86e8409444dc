import numpy as np
import pytest

from tdiscrim.closed_form import critical_b, t_optimal_design, zero_b_family
from tdiscrim.continuation import d1_optimal_start, solve_at
from tdiscrim.checks import verification_report
from tdiscrim.designs import Design, DiscriminationProblem, t_criterion
from tdiscrim.maximin import RatioInterval, maximin_design, optimal_design, r_value


class TestOptimalDesign:
    """One switch from b to its construction, in every regime."""

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_each_regime_is_its_construction(self, n):
        bc = critical_b(n)
        zero = optimal_design(n, 0.0)
        ref = zero_b_family(n, 0.5)
        assert (zero.regime, zero.alpha, zero.b) == ("zero_b_family", 0.5, 0.0)
        assert zero.design.points.tolist() == ref.design.points.tolist()
        assert zero.design.weights.tolist() == ref.design.weights.tolist()
        for b in (0.5 * bc, -0.5 * bc, bc, -bc):
            res, ref = optimal_design(n, b), t_optimal_design(n, b)
            assert (res.regime, res.n, res.b, res.alpha) == (ref.regime, n, b, None)
            assert res.design.points.tolist() == ref.design.points.tolist()
            assert res.design.weights.tolist() == ref.design.weights.tolist()
        for b in (1.5 * bc, -1.5 * bc):
            res = optimal_design(n, b)
            assert (res.regime, res.n, res.b, res.alpha) == ("alternance", n, b, None)
            if n == 2:
                assert res.design.points.tolist() == [-1.0, 1.0]
                assert res.design.weights.tolist() == [0.5, 0.5]
            else:
                ref = solve_at(n, 1.0 / b).design()
                assert res.design.points.tolist() == ref.points.tolist()
                assert res.design.weights.tolist() == ref.weights.tolist()

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_negative_ratio_is_the_exact_mirror(self, n):
        for share in (0.3, 1.0, 1.0 + 1e-9, 2.0, 1e4):
            b = share * critical_b(n)
            up = optimal_design(n, b).design.reflected()
            down = optimal_design(n, -b).design
            assert down.points.tolist() == up.points.tolist()
            assert down.weights.tolist() == up.weights.tolist()

    @pytest.mark.parametrize("n", [3, 6])
    def test_rays_and_r_value_read_it(self, n):
        for b0 in (0.0, 0.5 * critical_b(n), 4.0 * critical_b(n)):
            d = optimal_design(n, b0).design
            assert maximin_design(n, RatioInterval.ray_up(b0)).points.tolist() == d.points.tolist()
            assert (maximin_design(n, RatioInterval.ray_down(b0)).points.tolist()
                    == d.reflected().points.tolist())
            if b0 > critical_b(n):
                assert r_value(n, b0) == t_criterion(d, DiscriminationProblem(n, b=b0))


class TestRatioInterval:
    def test_constructors(self):
        assert RatioInterval.whole_line().kind == "whole_line"
        assert RatioInterval.ray_up(0.4).b0 == 0.4
        assert RatioInterval.ray_down(1.5).kind == "ray_down"

    def test_validation(self):
        with pytest.raises(ValueError):
            RatioInterval("half_line")
        with pytest.raises(ValueError):
            RatioInterval.ray_up(-0.1)
        with pytest.raises(ValueError):
            RatioInterval("whole_line", 0.3)


class TestWholeLine:
    def test_cubic(self):
        d = maximin_design(3, RatioInterval.whole_line())
        assert np.allclose(d.points, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)
        assert np.allclose(d.weights,
                           [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_formula(self, n):
        d = maximin_design(n, RatioInterval.whole_line())
        i = np.arange(n + 1)
        assert np.allclose(d.points, np.cos((n - i) * np.pi / n), atol=1e-15)
        assert d.weights[0] == pytest.approx(1.0 / (2 * n), rel=1e-15)
        assert d.weights[-1] == pytest.approx(1.0 / (2 * n), rel=1e-15)
        assert np.allclose(d.weights[1:-1], 1.0 / n, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 40))
    def test_equals_offset_continuation_anchor(self, n):
        # same measure that anchors the path for the pair one degree up, to
        # the bit: both take their points from chebyshev_extrema(n)
        d = maximin_design(n, RatioInterval.whole_line())
        a = d1_optimal_start(n + 1).design()
        assert np.array_equal(d.points, a.points)
        assert np.array_equal(d.weights, a.weights)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_worst_case_is_the_bound_no_design_beats(self, n):
        # min over b of T(xi, b) is the fit of x^n off degree n - 1, at most
        # 4^(1-n) for every design; here x^n's residual is 2^(1-n) T_n, so the
        # bound is attained at b = 0 and the design is optimal there
        d = maximin_design(n, RatioInterval.whole_line())
        bound = 0.25 ** (n - 1)
        at_zero = t_criterion(d, DiscriminationProblem(n, b=0.0))
        assert abs(at_zero / bound - 1.0) <= 2e-15
        assert verification_report(d, n, 0.0)["passed"]
        for b in (1e-6, -1e-6, 0.1, -0.1, 1.0, -1.0, 1e3, -1e6):
            assert t_criterion(d, DiscriminationProblem(n, b=b)) >= bound * (1.0 - 1e-14)


class TestRays:
    def test_ray_up_zero_is_symmetric_member(self):
        d = maximin_design(4, RatioInterval.ray_up(0.0))
        ref = zero_b_family(4, 0.5).design
        assert np.abs(d.points - ref.points).max() <= 1e-15
        assert np.abs(d.weights - ref.weights).max() <= 1e-15

    def test_ray_up_inside_regime(self):
        d = maximin_design(5, RatioInterval.ray_up(0.4))
        ref = t_optimal_design(5, 0.4).design
        assert np.abs(d.points - ref.points).max() <= 1e-15

    def test_ray_up_outside_regime(self):
        b0 = 3.0
        d = maximin_design(3, RatioInterval.ray_up(b0))
        ref = solve_at(3, 1.0 / b0).design()
        assert np.abs(d.points - ref.points).max() <= 1e-12
        assert np.abs(d.weights - ref.weights).max() <= 1e-12

    @pytest.mark.parametrize("b0", [2.5, 10.0])
    def test_degree_two_beyond_critical_ratio(self, b0):
        # psi = x^2 + b x - 1 is monotone on [-1, 1] for b >= 2, so the
        # design at b_c stays optimal
        up = maximin_design(2, RatioInterval.ray_up(b0))
        down = maximin_design(2, RatioInterval.ray_down(b0))
        assert up.points.tolist() == [-1.0, 1.0]
        assert up.weights.tolist() == [0.5, 0.5]
        assert verification_report(up, 2, b0)["passed"]
        assert verification_report(down, 2, -b0)["passed"]

    @pytest.mark.parametrize("b0", [0.0, 0.4, 2.5])
    def test_ray_down_mirrors_ray_up(self, b0):
        up = maximin_design(4, RatioInterval.ray_up(b0))
        down = maximin_design(4, RatioInterval.ray_down(b0))
        assert np.abs(down.points + up.points[::-1]).max() <= 1e-12
        assert np.abs(down.weights - up.weights[::-1]).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 20, 40])
    def test_ray_down_is_the_mirror_to_the_bit(self, n):
        # b0 > 0 reads optimal_design(n, -b0); b0 = 0 mirrors the alpha = 0.5
        # member, which differs from optimal_design(n, -0.0) in the last bits
        def bits(d):
            return d.points.view(np.int64).tolist(), d.weights.view(np.int64).tolist()

        for share in (0.0, 1e-300, 0.3, 1.0, 1.5, 40.0, 1e6):
            b0 = share * critical_b(n)
            down = maximin_design(n, RatioInterval.ray_down(b0))
            assert bits(down) == bits(optimal_design(n, b0).design.reflected())
            if b0 > 0.0:
                assert bits(down) == bits(optimal_design(n, -b0).design)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_rays_from_zero_are_one_design_to_the_bit(self, n):
        # both are the alpha = 0.5 member, which is its own mirror
        up = maximin_design(n, RatioInterval.ray_up(0.0))
        down = maximin_design(n, RatioInterval.ray_down(0.0))
        assert up.points.tobytes() == down.points.tobytes()
        assert up.weights.tobytes() == down.weights.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 20])
    def test_ray_down_inside_the_regime_validates_one_design(self, monkeypatch, n):
        made = []
        init = Design.__post_init__

        def counted(design):
            made.append(design)
            init(design)

        monkeypatch.setattr(Design, "__post_init__", counted)
        b0 = 0.5 * critical_b(n)
        counts = []
        for ray in (RatioInterval.ray_up(b0), RatioInterval.ray_down(b0)):
            made.clear()
            maximin_design(n, ray)
            counts.append(len(made))
        assert counts == [1, 1]

    @pytest.mark.parametrize("n", [2, 3, 8, 20, 40])
    def test_the_ray_end_is_its_worst_ratio(self, n):
        # maximin on a ray means the design's criterion is lowest at the
        # finite end: it rises at every ratio further out
        bc = critical_b(n)
        for share in (0.0, 0.5, 1.0, 3.0, 100.0):
            b0 = share * bc
            up = maximin_design(n, RatioInterval.ray_up(b0))
            down = maximin_design(n, RatioInterval.ray_down(b0))
            at_up = t_criterion(up, DiscriminationProblem(n, b=b0))
            at_down = t_criterion(down, DiscriminationProblem(n, b=-b0))
            for factor in (1.001, 1.5, 4.0, 1e3):
                b = factor * (b0 if b0 > 0.0 else bc)
                assert t_criterion(up, DiscriminationProblem(n, b=b)) >= at_up
                assert t_criterion(down, DiscriminationProblem(n, b=-b)) >= at_down


class TestRValue:
    def test_at_zero(self):
        assert r_value(3, 0.0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_formula_inside_regime(self):
        b = 0.52
        assert r_value(5, b) == pytest.approx(
            (1.0 + b / 5.0) ** 10 / 2.0**8, rel=1e-12
        )
        bc = critical_b(5)
        assert r_value(5, bc) == pytest.approx(
            (1.0 + bc / 5.0) ** 10 / 2.0**8, rel=1e-12
        )

    def test_beats_formula_extrapolation_outside(self):
        # past the regime the explicit expression overshoots the true optimum
        b = 0.6
        assert r_value(5, b) < (1.0 + b / 5.0) ** 10 / 2.0**8

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_strictly_increasing(self, n):
        grid = np.linspace(0.0, 3.0 * critical_b(n), 25)
        vals = [r_value(n, float(b)) for b in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_degree_two_beyond_critical_ratio(self):
        # the criterion of {-1, 1} with weights 1/2 is b^2, read through a
        # weighted fit, so it holds to rounding
        for b in (2.5, 10.0):
            assert r_value(2, b) == pytest.approx(b * b, rel=1e-15)
        vals = [r_value(2, b) for b in (1.9, critical_b(2), 2.0, 2.0 + 1e-9, 2.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_continuous_at_regime_boundary(self):
        bc = critical_b(4)
        inside = r_value(4, bc * (1.0 - 1e-9))
        outside = r_value(4, bc * (1.0 + 1e-9))
        assert outside == pytest.approx(inside, rel=1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            r_value(3, -0.2)


def test_maximin_rejects_bad_n():
    with pytest.raises(ValueError):
        maximin_design(1, RatioInterval.whole_line())
