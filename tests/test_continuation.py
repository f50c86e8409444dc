import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb
from hypothesis import given, settings, strategies as st

from tdiscrim import continuation
from tdiscrim.closed_form import critical_b, t_optimal_design
from tdiscrim.continuation import (
    ContinuationState,
    _dgrad_dbbar,
    _gradient_raw,
    _jacobian_raw,
    _newton,
    _tangent,
    _walk,
    bbar_limit,
    d1_optimal_start,
    h_form,
    inequality_margin,
    solve_at,
    stationarity_residual,
    taylor_coefficients,
    trajectory,
)
from tdiscrim.designs import DiscriminationProblem, t_criterion
from tdiscrim.errors import OptimalityError, RegimeError


@pytest.fixture
def fresh_cache():
    """Empty the shared path cache before and after the test."""
    continuation._PATHS.clear()
    yield
    continuation._PATHS.clear()


def cold_solve(n, bbar):
    """solve_at from an empty path cache, walking from bbar = 0."""
    continuation._PATHS.clear()
    return solve_at(n, bbar)


class TestState:
    def test_dimensions_and_views(self):
        st = d1_optimal_start(4)
        assert st.n == 4
        assert st.theta.size == 8
        assert st.psi().coeffs.size == 5
        d = st.design()
        assert d.points[0] == -1.0 and d.points[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuationState([0.0, 0.0], [1.5], [0.3, 0.3], 0.0)
        with pytest.raises(ValueError):
            ContinuationState([0.0, 0.0], [0.0], [0.6, 0.6], 0.0)
        with pytest.raises(ValueError):
            ContinuationState([0.0, 0.0], [0.0, 0.1], [0.3, 0.3], 0.0)
        with pytest.raises(ValueError):
            ContinuationState([0.0], [], [0.5], 0.0)


class TestAnchor:
    def test_quintic_anchor(self):
        st = d1_optimal_start(5)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(st.design().points, [-1.0, -r, 0.0, r, 1.0], atol=1e-12)
        assert np.allclose(st.design().weights,
                           [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-15)

    def test_cubic_anchor(self):
        st = d1_optimal_start(3)
        assert np.allclose(st.design().points, [-1.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(st.design().weights, [0.25, 0.5, 0.25], atol=1e-15)
        # psi = x^2 - 1/2 = T_2 / 2; cheb2poly drops the zero x^3 coefficient
        assert st.psi().coeffs.size == 4
        assert np.allclose(ncheb.cheb2poly(st.psi().coeffs), [-0.5, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_anchor_is_stationary(self, n):
        st = d1_optimal_start(n)
        assert np.abs(stationarity_residual(st)).max() <= 1e-9

    @pytest.mark.parametrize("n", range(3, 9))
    def test_anchor_h_value(self, n):
        assert h_form(d1_optimal_start(n)) == pytest.approx(
            2.0 ** (-2 * (n - 2)), rel=1e-12
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            d1_optimal_start(2)


def test_h_form_vanishes_when_psi_interpolates():
    # nearly all weight on the middle point and psi(0) = 0
    eps = 1e-13
    st = ContinuationState([0.0, 1.0], [0.0], [eps, 1.0 - 2 * eps], 0.0)
    assert h_form(st) <= 1e-10


def test_nan_target_ends_the_walk():
    # a NaN target makes every step NaN; the walk must fail, not halve forever,
    # so it runs in a child process that a timeout kills if it hangs
    code = ("import math\n"
            "from tdiscrim.continuation import _path, _walk\n"
            "from tdiscrim.errors import ConvergenceError\n"
            "try:\n"
            "    _walk(5, _path(5).anchor, 0.0, math.nan, 1e-10)\n"
            "except ConvergenceError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "step collapsed" in proc.stdout


def test_stationarity_residual_detects_perturbation():
    st = d1_optimal_start(4)
    theta = st.theta.copy()
    theta[0] += 1e-3
    from tdiscrim.continuation import _state_from

    assert np.abs(stationarity_residual(_state_from(4, theta, 0.0))).max() > 1e-5


class TestSolveAt:
    def test_zero_returns_anchor(self):
        st = solve_at(5, 0.0)
        ref = d1_optimal_start(5)
        assert np.abs(st.theta - ref.theta).max() <= 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_boundary_matches_closed_form(self, n):
        bc = critical_b(n)
        st = solve_at(n, bbar_limit(n))
        cf = t_optimal_design(n, bc).design
        d = st.design()
        assert np.abs(d.points - cf.points).max() <= 1e-5
        assert np.abs(d.weights - cf.weights).max() <= 1e-5

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_negative_boundary_mirrors(self, n):
        up = solve_at(n, bbar_limit(n)).design()
        down = solve_at(n, -bbar_limit(n)).design()
        assert np.abs(down.points + up.points[::-1]).max() <= 1e-9
        assert np.abs(down.weights - up.weights[::-1]).max() <= 1e-9

    @pytest.mark.parametrize("bbar", [0.15, 0.6, 1.2])
    def test_residual_and_margin(self, bbar):
        st = solve_at(4, bbar)
        assert np.abs(stationarity_residual(st)).max() <= 1e-10
        assert inequality_margin(st) <= 1e-8

    def test_equioscillation_on_support(self):
        st = solve_at(5, 1.0)
        vals = st.psi()(st.design().points)
        mags = np.abs(vals)
        assert mags.max() - mags.min() <= 1e-7
        assert np.all(vals[:-1] * vals[1:] < 0)

    def test_criterion_value_matches_h(self):
        st = solve_at(4, 0.8)
        crit = t_criterion(st.design(), DiscriminationProblem(4, bbar=0.8))
        assert crit == pytest.approx(h_form(st), rel=1e-10)

    def test_outside_interval(self):
        with pytest.raises(RegimeError):
            solve_at(3, 1.1)
        with pytest.raises(RegimeError):
            solve_at(5, -2.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            solve_at(2, 0.1)


class TestTrajectory:
    def test_full_interval_quintic(self):
        lim = bbar_limit(5)
        grid = np.linspace(0.0, lim, 40)
        rows = trajectory(5, grid)
        assert len(rows) == 40
        for k, (bbar, d) in enumerate(rows):
            assert bbar == pytest.approx(grid[k])
            assert d.support_size == 5
            assert d.points[0] == -1.0 and d.points[-1] == 1.0
        jumps = [
            np.abs(rows[k + 1][1].points - rows[k][1].points).max()
            for k in range(len(rows) - 1)
        ]
        assert max(jumps) < 0.05

    def test_symmetric_grid_mirrors(self):
        rows = trajectory(4, np.linspace(-0.5, 0.5, 11))
        lo = rows[0][1]
        hi = rows[-1][1]
        assert np.abs(lo.points + hi.points[::-1]).max() <= 1e-8
        assert np.abs(lo.weights - hi.weights[::-1]).max() <= 1e-8

    def test_single_point_grid(self):
        rows = trajectory(3, [0.25])
        assert len(rows) == 1
        ref = solve_at(3, 0.25).design()
        assert np.abs(rows[0][1].points - ref.points).max() <= 1e-9

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            trajectory(3, [0.5, 0.1])

    def test_out_of_interval_grid_rejected(self):
        with pytest.raises(RegimeError):
            trajectory(3, [0.0, 1.2])

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_matches_solve_at(self, n, fresh_cache):
        grid = np.linspace(-bbar_limit(n), bbar_limit(n), 9)
        rows = trajectory(n, grid)
        for g, d in rows:
            ref = cold_solve(n, g).design()
            assert np.abs(d.points - ref.points).max() <= 1e-9
            assert np.abs(d.weights - ref.weights).max() <= 1e-9

    def test_screens_every_state(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(continuation, "inequality_margin", lambda state: 1.0)
        with pytest.raises(OptimalityError):
            trajectory(4, [0.0, 0.3])
        with pytest.raises(OptimalityError):
            solve_at(4, 0.3)
        # a state failing the screen is never stored
        assert continuation._PATHS[4].states == {}


class TestTangentAndTaylor:
    def test_first_order_matches_analytic_tangent(self):
        st = solve_at(4, 0.3, check_inequality=False)
        tangent = -np.linalg.solve(
            _jacobian_raw(4, st.theta, 0.3), _dgrad_dbbar(4, st.theta, 0.3)
        )
        tc = taylor_coefficients(4, 0.3, order=1)
        assert np.abs(tc[0] - tangent).max() <= 1e-6

    def test_predictor_error_quarters_when_step_halves(self):
        bbar0 = 0.3
        st = solve_at(4, bbar0, check_inequality=False)
        tangent = -np.linalg.solve(
            _jacobian_raw(4, st.theta, bbar0), _dgrad_dbbar(4, st.theta, bbar0)
        )

        def predictor_error(h):
            exact = _walk(4, st.theta, bbar0, bbar0 + h, 1e-12)
            return np.linalg.norm(st.theta + tangent * h - exact.theta)

        ratio = predictor_error(0.1) / predictor_error(0.05)
        assert 3.0 <= ratio <= 5.5

    def test_second_order_improves_prediction(self):
        bbar0, h = 0.4, 0.1
        tc = taylor_coefficients(4, bbar0, order=2, step=1e-3)
        base = solve_at(4, bbar0, check_inequality=False).theta
        exact = solve_at(4, bbar0 + h, check_inequality=False).theta
        err1 = np.linalg.norm(base + tc[0] * h - exact)
        err2 = np.linalg.norm(base + tc[0] * h + tc[1] * h * h - exact)
        assert err2 < err1

    def test_third_order_row_shape(self):
        tc = taylor_coefficients(3, 0.2, order=3)
        assert tc.shape == (3, 5)
        assert np.all(np.isfinite(tc))

    def test_order_gate(self):
        with pytest.raises(ValueError):
            taylor_coefficients(3, 0.2, order=4)
        with pytest.raises(ValueError):
            taylor_coefficients(3, 0.2, order=0)

    def test_stencil_must_fit_interval(self):
        with pytest.raises(RegimeError):
            taylor_coefficients(3, bbar_limit(3), order=1)


class TestPathCache:
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([3, 5, 8]),
           shares=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    def test_results_do_not_depend_on_request_order(self, n, shares):
        continuation._PATHS.clear()
        lim = bbar_limit(n)
        warm = [solve_at(n, s * lim).theta for s in shares]
        for s, theta in zip(shares, warm):
            assert np.abs(theta - cold_solve(n, s * lim).theta).max() <= 1e-9
        continuation._PATHS.clear()

    def test_requested_tol_holds_on_exact_hit(self, fresh_cache):
        x = 0.7
        solve_at(4, x)
        st_ = solve_at(4, x, tol=1e-12)
        assert np.abs(stationarity_residual(st_)).max() <= 1e-12
        # a stored state converged more loosely is corrected, not handed out
        path = continuation._PATHS[4]
        (key, (bbar, theta)), = path.states.items()
        path.states[key] = (bbar, theta + 1e-7)
        st_ = solve_at(4, x, tol=1e-12)
        assert np.abs(stationarity_residual(st_)).max() <= 1e-12

    def test_returned_states_do_not_alias_the_cache(self, fresh_cache):
        first = solve_at(5, 0.6)
        expected = first.theta.copy()
        first.q[:] = 0.0
        first.interior_points[:] = 0.0
        first.weights[:] = 0.0
        assert np.abs(solve_at(5, 0.6).theta - expected).max() <= 1e-12
        anchor = d1_optimal_start(5)
        anchor.q[:] = 1.0
        assert np.abs(d1_optimal_start(5).theta - solve_at(5, 0.0).theta).max() <= 1e-12

    def test_stored_states_stay_bounded(self, fresh_cache):
        lim = bbar_limit(3)
        requests = np.random.default_rng(3).permutation(np.linspace(-lim, lim, 2000))
        for x in requests:
            solve_at(3, x)
        assert len(continuation._PATHS[3].states) <= 2 * continuation.CACHE_BUCKETS + 1


class TestSharedGeometry:
    # _newton and _tangent build the geometry of each iterate once and pass
    # it to every kernel; the result must be exactly that of kernels building
    # it themselves.

    @staticmethod
    def unfused_newton(n, theta, bbar, tol):
        th = np.array(theta, dtype=float)
        last = np.inf
        for it in range(continuation.NEWTON_MAX_ITER):
            g = _gradient_raw(n, th, bbar)
            res = float(np.abs(g).max())
            if res == 0.0 or not res <= continuation.NEWTON_CONTRACTION * last:
                assert res <= tol
                return th, it
            last = res
            th = th - np.linalg.solve(_jacobian_raw(n, th, bbar), g)
        raise AssertionError("reference Newton did not settle")

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_newton_from_perturbed_state(self, n):
        bbar = 0.6 * bbar_limit(n)
        theta = solve_at(n, bbar, check_inequality=False).theta
        rng = np.random.Generator(np.random.PCG64(n))
        start = theta * (1.0 + 1e-4 * rng.standard_normal(theta.size))
        state, iters = _newton(n, start, bbar, 1e-10)
        ref, ref_iters = self.unfused_newton(n, start, bbar, 1e-10)
        assert iters == ref_iters >= 2
        assert np.array_equal(state.theta, ref)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_tangent(self, n):
        bbar = -0.4 * bbar_limit(n)
        theta = solve_at(n, bbar, check_inequality=False).theta
        ref = -np.linalg.solve(_jacobian_raw(n, theta, bbar),
                               _dgrad_dbbar(n, theta, bbar))
        assert np.array_equal(_tangent(n, theta, bbar), ref)


class TestMirror:
    """x -> -x maps the problem at -bbar onto the one at bbar."""

    SHARES = (0.05, 0.3, 0.6, 0.95, 1.0)

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16, 20])
    def test_negative_ratio_is_the_exact_mirror(self, n):
        lim = bbar_limit(n)
        for s in self.SHARES:
            for tol in (continuation.STATIONARITY_TOL, 1e-12):
                down = solve_at(n, -s * lim, tol)
                up = solve_at(n, s * lim, tol).design().reflected()
                assert np.array_equal(down.design().points, up.points)
                assert np.array_equal(down.design().weights, up.weights)
                assert down.bbar == -s * lim
                assert np.abs(stationarity_residual(down)).max() <= tol

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_mirror_matches_a_direct_walk(self, n, fresh_cache):
        # the walk itself knows nothing of the mirror: it crosses to bbar < 0
        lim = bbar_limit(n)
        for s in self.SHARES:
            mirror = solve_at(n, -s * lim)
            direct = _walk(n, continuation._path(n).anchor, 0.0, -s * lim,
                           continuation.STATIONARITY_TOL)
            assert np.abs(mirror.theta - direct.theta).max() <= 1e-9
            assert abs(inequality_margin(mirror) - inequality_margin(direct)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    # bbar = +-0 is the anchor itself, one ratio, not a mirrored pair
    @given(n=st.sampled_from([3, 4, 5, 8, 12]),
           share=st.floats(0.0, 1.0, exclude_min=True))
    def test_mirror_property(self, n, share):
        x = share * bbar_limit(n)
        up, down = solve_at(n, x), solve_at(n, -x)
        signs = (-1.0) ** (n - 1 + np.arange(n - 1))
        assert np.array_equal(down.q, signs * up.q)
        assert np.array_equal(down.interior_points, -up.interior_points[::-1])
        assert np.array_equal(down.design().weights, up.design().weights[::-1])
        grid = np.linspace(-1.0, 1.0, 101)
        assert np.allclose(down.psi()(grid), (-1.0) ** (n - 1) * up.psi()(-grid),
                           rtol=0.0, atol=1e-14 * np.abs(up.psi()(grid)).max())

    def test_exact_hit_returns_the_stored_bits(self, fresh_cache):
        first = solve_at(5, 0.6)
        assert np.array_equal(solve_at(5, 0.6).theta, first.theta)
        assert np.array_equal(solve_at(5, -0.6).design().points,
                              first.design().reflected().points)


class TestWorkCount:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_symmetric_trajectory_walks_each_magnitude_once(self, n, fresh_cache,
                                                            monkeypatch):
        calls = []
        walk = continuation._walk

        def counted(*args):
            calls.append(args[3])
            return walk(*args)

        monkeypatch.setattr(continuation, "_walk", counted)
        asymmetric = 0
        for s in (0.33, 0.5, 0.71, 0.95, 1.0):
            continuation._PATHS.clear()
            calls.clear()
            grid = np.linspace(-s * bbar_limit(n), s * bbar_limit(n), 9)
            # linspace often rounds mirrored values a few ulps apart
            asymmetric += np.unique(np.abs(grid)).size > 5
            rows = trajectory(n, grid)
            assert len(calls) == 5
            assert all(b >= 0.0 for b in calls)
            for (g, d), (h, e) in zip(rows, rows[::-1]):
                assert g == pytest.approx(-h, rel=1e-14, abs=0.0)
                if g < 0.0:
                    ref = e.reflected()
                    assert np.array_equal(d.points, ref.points)
                    assert np.array_equal(d.weights, ref.weights)
        assert asymmetric > 0

    def test_cache_keeps_only_nonnegative_ratios(self, fresh_cache):
        lim = bbar_limit(3)
        requests = np.random.default_rng(3).permutation(np.linspace(-lim, lim, 2000))
        for x in requests:
            solve_at(3, x)
        states = continuation._PATHS[3].states
        assert all(key >= 0 and bbar >= 0.0 for key, (bbar, _) in states.items())
        assert len(states) <= continuation.CACHE_BUCKETS + 1
