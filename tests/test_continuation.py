import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb
from hypothesis import given, settings, strategies as st

from tdiscrim import continuation, minimax, polynomials
from tdiscrim.closed_form import (canonical_weights, critical_b, in_explicit_regime,
                                  support_points, t_optimal_design)
from tdiscrim.continuation import (
    ContinuationState,
    bbar_limit,
    d1_optimal_start,
    h_form,
    inequality_margin,
    solve_at,
    taylor_coefficients,
    trajectory,
)
from tdiscrim.checks import INEQUALITY_TOL, alternation_check, equivalence_system
from tdiscrim.designs import Design, DiscriminationProblem, _fit, _monomial, t_criterion
from tdiscrim.minimax import closed_form_psi, remez
from tdiscrim.polynomials import ChebyshevSeries, _certified_critical, _critical, _vander
from tdiscrim.errors import ConvergenceError, OptimalityError, RegimeError


def assert_certified(state):
    """The equivalence theorem holds on the state, relative to the scale of psi.

    The weighted psi is orthogonal to degree n - 2 on the support, psi
    alternates there with equal magnitude, and no point of [-1, 1] beats
    the support by more than 1e-11 of H.
    """
    d, psi = state.design(), state.psi()
    sup = np.abs(psi(psi.critical_points())).max()
    assert np.abs(equivalence_system(d, psi, state.n)).max() <= 1e-12 * sup
    assert alternation_check(d, psi, 1e-11 * sup)
    assert inequality_margin(state) <= 1e-11 * h_form(state)


def state_vector(state):
    """psi's Chebyshev coefficients, the interior points and the weights, in one array.

    The endpoints are -1 and 1 in every state; the columns of
    taylor_coefficients follow this order.
    """
    return np.concatenate([state.coeffs, state.interior_points, state.weights])


def recorded(name, monkeypatch):
    """Wrap continuation._alternances or _exchanges; return each call's ratios or targets."""
    calls = []
    inner = getattr(continuation, name)
    rows = 1 if name == "_alternances" else 0

    def counted(*args):
        calls.append(list(args[rows]))
        return inner(*args)

    monkeypatch.setattr(continuation, name, counted)
    return calls


def cold_solve(n, bbar):
    """solve_at on a freshly built start table."""
    continuation._table.cache_clear()
    return solve_at(n, bbar)


class TestState:
    PSI = [0.0, 0.0, 0.5, 0.0]  # 2^(2-n) T_(n-1) at n = 3, the cubic anchor's psi
    POINTS = [-1.0, 0.0, 1.0]
    WEIGHTS = [0.25, 0.5, 0.25]

    def test_dimensions_and_views(self):
        st = d1_optimal_start(4)
        assert st.n == 4
        assert st.interior_points.size == 2 and st.weights.size == 4
        assert st.psi().coeffs.size == 5
        d = st.design()
        assert d.points[0] == -1.0 and d.points[-1] == 1.0

    def test_validation(self):
        ContinuationState(self.PSI, self.POINTS, self.WEIGHTS, 0.0)
        cases = [
            ("endpoints", self.PSI, [-0.9, 0.0, 1.0], self.WEIGHTS, 0.0),
            ("endpoints", self.PSI, [-1.0, 0.0, 0.9], self.WEIGHTS, 0.0),
            ("at least 3 points", [0.0, 0.0, 1.0], [-1.0, 1.0], [0.5, 0.5], 0.0),
            ("increasing", self.PSI, [-1.0, 1.0, 1.0], self.WEIGHTS, 0.0),
            ("positive", self.PSI, self.POINTS, [0.5, 0.0, 0.5], 0.0),
            ("sum to one", self.PSI, self.POINTS, [0.25, 0.5, 0.3], 0.0),
            ("n \\+ 1 finite", self.PSI[:-1], self.POINTS, self.WEIGHTS, 0.0),
            ("n \\+ 1 finite", self.PSI + [0.0], self.POINTS, self.WEIGHTS, 0.0),
            ("n \\+ 1 finite", [0.0, np.nan, 0.5, 0.0], self.POINTS, self.WEIGHTS, 0.0),
            ("bbar must be a number", self.PSI, self.POINTS, self.WEIGHTS, np.nan),
        ]
        for match, coeffs, points, weights, bbar in cases:
            with pytest.raises(ValueError, match=match):
                ContinuationState(coeffs, points, weights, bbar)


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
        assert_certified(d1_optimal_start(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_anchor_h_value(self, n):
        assert h_form(d1_optimal_start(n)) == pytest.approx(
            2.0 ** (-2 * (n - 2)), rel=1e-12
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            d1_optimal_start(2)


@pytest.mark.parametrize("n", range(3, 41))
def test_anchor_design_is_its_own_mirror(n):
    d = solve_at(n, 0.0).design()
    r = d.reflected()
    assert np.array_equal(d.points, r.points)
    assert np.array_equal(d.weights, r.weights)


def test_h_form_vanishes_when_psi_interpolates():
    # nearly all weight on the middle point and psi(0) = 0: psi = x + x^2
    eps = 1e-13
    st = ContinuationState([0.5, 1.0, 0.5, 0.0], [-1.0, 0.0, 1.0],
                           [eps, 1.0 - 2 * eps, eps], 0.0)
    assert h_form(st) <= 1e-10


def test_nan_target_ends_the_walk():
    # a NaN start makes every iterate NaN; the exchange must fail at once,
    # without a floating-point warning
    with pytest.raises(ConvergenceError, match="degenerate reference"):
        continuation._alternance(5, 0.5, np.full(5, np.nan))


class TestSolveAt:
    def test_zero_returns_anchor(self):
        st = solve_at(5, 0.0)
        ref = d1_optimal_start(5)
        assert np.abs(state_vector(st) - state_vector(ref)).max() <= 1e-9

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

    @pytest.mark.parametrize("n", [12, 14, 20, 40])
    def test_the_limit_needs_the_explicit_row(self, n, monkeypatch):
        # at bbar_limit(n) -1 is a double extremum of psi; left to the
        # exchange from the table's last node, the certified Newton step
        # keeps the interior twin and drops -1 at these degrees (and keeps
        # -1 at the other n = 3..40), so the row starts and stays on the
        # closed-form support there
        table, _ = continuation._table(n)
        lim = bbar_limit(n)
        start = np.concatenate([[-1.0], continuation._lookup(table, 1.0), [1.0]])
        monkeypatch.setattr(continuation, "in_explicit_regime", lambda n, b: False)
        with pytest.raises(ConvergenceError) as err:
            next(continuation._alternances(n, [lim], start[None]))
        assert str(err.value) == (
            f"the alternance at bbar = {lim!r} is not a design on both endpoints")

    @pytest.mark.parametrize("n", range(3, 41))
    def test_weights_solve_the_moment_system(self, n):
        # the barycentric weights against the n x n solve of
        # sum_i w_i (-1)^i T_k(x_i) = 0 for k <= n-2 and sum_i w_i = 1 on
        # the same support; measured worst 1.5e-12 relative, at n = 40
        for share in (0.05, -0.05, 0.5, -0.5, 0.95, -0.95, 1.0, -1.0):
            st = solve_at(n, share * bbar_limit(n))
            a = np.ones((n, n))
            a[:-1] = ncheb.chebvander(st.points, n - 2).T * (-1.0) ** np.arange(n)
            ref = np.linalg.solve(a, np.eye(n)[-1])
            assert np.abs(st.weights / ref - 1.0).max() <= 1e-11
        # at the regime boundary the support is the closed form's, and so
        # are the weights; measured worst 6.2e-14 relative
        w = canonical_weights(n)
        assert np.abs(solve_at(n, bbar_limit(n)).weights / w - 1.0).max() <= 1e-13
        assert np.abs(solve_at(n, -bbar_limit(n)).weights / w[::-1] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("bbar", [0.15, 0.6, 1.2])
    def test_residual_and_margin(self, bbar):
        assert_certified(solve_at(4, bbar))

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
    def test_matches_solve_at(self, n, fresh_table):
        grid = np.linspace(-bbar_limit(n), bbar_limit(n), 9)
        rows = trajectory(n, grid)
        for g, d in rows:
            ref = cold_solve(n, g).design()
            assert np.abs(d.points - ref.points).max() <= 1e-9
            assert np.abs(d.weights - ref.weights).max() <= 1e-9

    def test_screens_every_state(self, fresh_table, monkeypatch):
        alternances = continuation._alternances
        monkeypatch.setattr(continuation, "_alternances",
                            lambda *args: ((state, 2.0 * INEQUALITY_TOL)
                                           for state, _ in alternances(*args)))
        with pytest.raises(OptimalityError):
            trajectory(4, [0.0, 0.3])
        with pytest.raises(OptimalityError):
            solve_at(4, 0.3)
        with pytest.raises(OptimalityError):
            taylor_coefficients(4, 0.3)


class TestTangentAndTaylor:
    def test_second_order_improves_prediction(self):
        bbar0, h = 0.4, 0.1
        tc = taylor_coefficients(4, bbar0, order=2)
        base = state_vector(solve_at(4, bbar0))
        exact = state_vector(solve_at(4, bbar0 + h))
        err1 = np.linalg.norm(base + tc[0] * h - exact)
        err2 = np.linalg.norm(base + tc[0] * h + tc[1] * h * h - exact)
        assert err2 < err1

    def test_third_order_row_shape(self):
        tc = taylor_coefficients(3, 0.2, order=3)
        assert tc.shape == (3, 8)
        assert np.all(np.isfinite(tc))

    def test_order_gate(self):
        with pytest.raises(ValueError):
            taylor_coefficients(3, 0.2, order=4)
        with pytest.raises(ValueError):
            taylor_coefficients(3, 0.2, order=0)

    def test_stencil_must_fit_interval(self):
        # the interpolation nodes, the stencil of the derivatives, are cut to
        # the path interval: beyond it RegimeError, at either end a one-sided window
        lim = bbar_limit(3)
        with pytest.raises(RegimeError):
            taylor_coefficients(3, 1.01 * lim, order=1)
        for bbar0 in (lim, -lim):
            assert np.all(np.isfinite(taylor_coefficients(3, bbar0)))

    @pytest.mark.parametrize("n", [5, 12, 20, 40])
    @pytest.mark.parametrize("share", [0.0, 0.5, -0.5, 0.9])
    def test_series_converges_at_its_order(self, n, share):
        # halving h cuts a degree-K series' error by about 2^(K+1): measured
        # 3.9-4.1 at K = 1 and 15.8-16.2 at K = 3
        bbar0 = share * bbar_limit(n)
        tc = taylor_coefficients(n, bbar0)
        r = np.hypot(bbar0, continuation.SINGULARITY_HEIGHT) / 4.0
        base = state_vector(solve_at(n, bbar0))
        for order, least in ((1, 3.0), (3, 10.0)):
            errs = []
            for h in (r / 8.0, r / 16.0):
                series = base + sum(tc[k] * h ** (k + 1) for k in range(order))
                errs.append(np.abs(series - state_vector(solve_at(n, bbar0 + h))).max())
            assert errs[0] >= least * errs[1]


def path_gap(design, n, bbar):
    """Relative gap of the design's criterion to remez's optimum at bbar != 0."""
    value = t_criterion(design, DiscriminationProblem(n, bbar=bbar))
    return abs(value / (bbar * bbar * remez(n, 1.0 / bbar).deviation ** 2) - 1.0)


class TestPathCache:
    """The path engine keeps a fixed start table and no solved state."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([3, 5, 8, 16, 30, 40]),
           shares=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_results_do_not_depend_on_request_order(self, n, shares, seed):
        lim = bbar_limit(n)
        continuation._table.cache_clear()
        first = [solve_at(n, s * lim) for s in shares]
        order = np.random.default_rng(seed).permutation(len(shares))
        shuffled = {k: solve_at(n, shares[k] * lim) for k in order}
        continuation._table.cache_clear()
        cleared = {k: solve_at(n, shares[k] * lim) for k in reversed(range(len(shares)))}
        for k, state in enumerate(first):
            for other in (shuffled[k], cleared[k]):
                assert np.array_equal(state_vector(state), state_vector(other))
                assert np.array_equal(state.design().points, other.design().points)
                assert np.array_equal(state.design().weights, other.design().weights)
                assert np.array_equal(state.psi().coeffs, other.psi().coeffs)
        continuation._table.cache_clear()

    def test_a_fresh_interpreter_gives_the_same_bits(self):
        pairs = [(5, 0.3), (16, -0.7), (40, 0.95)]
        script = ("from tdiscrim import bbar_limit, solve_at\n"
                  "for n, s in %r:\n"
                  "    st = solve_at(n, s * bbar_limit(n))\n"
                  "    vec = list(st.coeffs) + list(st.points) + list(st.weights)\n"
                  "    print(' '.join(float(v).hex() for v in vec))\n" % pairs)
        env = dict(os.environ)
        src = str(Path(continuation.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        states = [solve_at(n, s * bbar_limit(n)) for n, s in pairs]
        here = [" ".join(float(v).hex() for v in np.concatenate([st.coeffs, st.points,
                                                                  st.weights]))
                for st in states]
        assert proc.stdout.splitlines() == here

    def test_requested_tol_holds_on_exact_hit(self, fresh_table):
        x = 0.7
        solve_at(4, x)
        assert_certified(solve_at(4, x))

    @staticmethod
    def corrupt_table(n, monkeypatch):
        """Make the start table of degree n 1e-4 off; return its start at s = 0.5.

        The start is read where _solve reads it for bbar = 0.5 bbar_limit(n).
        """
        table, margin = continuation._table(n)
        corrupted = table * (1.0 + 1e-4)
        monkeypatch.setattr(continuation, "_table", lambda n: (corrupted, margin))
        x = continuation._coordinate(n, 0.5 * bbar_limit(n))
        return np.concatenate([[-1.0], continuation._lookup(corrupted, x), [1.0]])

    @pytest.mark.parametrize("n", [30, 40])
    def test_a_corrupted_start_table_still_reaches_the_optimum(self, n, fresh_table,
                                                             monkeypatch):
        # a start table 1e-4 off at these degrees: the exchange from it
        # must still reach the optimum
        start = self.corrupt_table(n, monkeypatch)
        bbar = 0.5 * bbar_limit(n)
        state = solve_at(n, bbar)
        assert np.abs(state.design().points - start).max() > 1e-6
        assert path_gap(state.design(), n, bbar) <= 1e-10

    @pytest.mark.parametrize("n", [30, 40])
    def test_a_state_stopped_on_a_corrupted_start_is_refused(self, n, fresh_table,
                                                           monkeypatch):
        # the exchange stops on the corrupted start's own reference; the
        # relative margin refuses the state on every route
        self.corrupt_table(n, monkeypatch)
        monkeypatch.setattr(continuation, "EXCHANGE_TOL", 1.0)
        bbar = 0.5 * bbar_limit(n)
        with pytest.raises(OptimalityError):
            solve_at(n, bbar)
        # a mirrored state is screened at the requested ratio
        with pytest.raises(OptimalityError, match=f"bbar = {-bbar!r} ") as err:
            solve_at(n, -bbar)
        assert err.value.last.bbar == -bbar
        with pytest.raises(OptimalityError):
            taylor_coefficients(n, bbar)
        with pytest.raises(OptimalityError):
            trajectory(n, [-bbar, bbar])

    def test_an_exhausted_budget_names_bbar_and_carries_the_iterate(self, fresh_table,
                                                                   monkeypatch):
        # one reference from a start 1e-4 off does not meet EXCHANGE_TOL
        self.corrupt_table(30, monkeypatch)
        monkeypatch.setattr(continuation, "MAX_EXCHANGES", 1)
        bbar = 0.5 * bbar_limit(30)
        with pytest.raises(ConvergenceError, match=f"bbar = {bbar!r}") as err:
            solve_at(30, bbar)
        assert err.value.last.iterations == 1

    @pytest.mark.parametrize("n", [30, 40])
    def test_declined_rows_take_one_colleague_call_each(self, n, fresh_table, monkeypatch):
        # the certified step declines every row a corrupted table starts, and
        # _critical hands each declined row its own colleague call; every
        # row of the stacked pass gets the bits its ratio gets alone
        self.corrupt_table(n, monkeypatch)
        bbars = [s * bbar_limit(n) for s in (0.1, 0.3, 0.6, 0.9)]
        alone = [solve_at(n, bbar).design() for bbar in bbars]
        log = []
        certify, colleague = polynomials._certified_critical, polynomials._critical_points

        def certified(psi, points, table):
            found = certify(psi, points, table)
            log.append("declined" if found is None else "certified")
            return found

        monkeypatch.setattr(polynomials, "_certified_critical", certified)
        monkeypatch.setattr(polynomials, "_critical_points",
                            lambda d: log.append("colleague") or colleague(d))
        rows = trajectory(n, bbars)
        k = len(bbars)
        assert log[: 2 * k] == ["declined", "colleague"] * k
        assert set(log[2 * k :]) == {"colleague"}
        for (_, design), single in zip(rows, alone):
            assert design.points.tobytes() == single.points.tobytes()
            assert design.weights.tobytes() == single.weights.tobytes()

    def test_returned_states_do_not_alias_the_cache(self, fresh_table):
        first = solve_at(5, 0.6)
        expected = state_vector(first)
        first.coeffs[:] = 0.0
        first.points[:] = 0.0
        first.weights[:] = 0.0
        assert np.abs(state_vector(solve_at(5, 0.6)) - expected).max() <= 1e-12
        anchor = d1_optimal_start(5)
        anchor.coeffs[:] = 1.0
        assert np.abs(state_vector(d1_optimal_start(5))
                      - state_vector(solve_at(5, 0.0))).max() <= 1e-12


class TestMirror:
    """x -> -x maps the problem at -bbar onto the one at bbar."""

    SHARES = (0.05, 0.3, 0.6, 0.95, 1.0)

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16, 20])
    def test_negative_ratio_is_the_exact_mirror(self, n):
        lim = bbar_limit(n)
        for s in self.SHARES:
            down = solve_at(n, -s * lim)
            up = solve_at(n, s * lim).design().reflected()
            assert np.array_equal(down.design().points, up.points)
            assert np.array_equal(down.design().weights, up.weights)
            assert down.bbar == -s * lim
            assert_certified(down)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_mirror_matches_a_direct_walk(self, n, fresh_table):
        # the exchange itself knows nothing of the mirror: run it at bbar < 0
        # from the bbar = 0 support; at the limit it is the closed form
        lim = bbar_limit(n)
        start = d1_optimal_start(n).design().points
        shares = self.SHARES[:-1]
        walked = continuation._alternances(n, [-s * lim for s in shares],
                                           np.tile(start, (len(shares), 1)))
        for s, (direct, _) in zip(shares, walked):
            mirror = solve_at(n, -s * lim)
            assert direct.bbar == -s * lim
            assert np.abs(state_vector(mirror) - state_vector(direct)).max() <= 1e-9
            assert abs(inequality_margin(mirror) - inequality_margin(direct)) <= 1e-12
        cf = t_optimal_design(n, -critical_b(n)).design
        mirror = solve_at(n, -lim).design()
        assert np.abs(mirror.points - cf.points).max() <= 1e-12
        assert np.abs(mirror.weights - cf.weights).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    # bbar = +-0 is the anchor itself, one ratio, not a mirrored pair
    @given(n=st.sampled_from([3, 4, 5, 8, 12]),
           share=st.floats(0.0, 1.0, exclude_min=True))
    def test_mirror_property(self, n, share):
        x = share * bbar_limit(n)
        up, down = solve_at(n, x), solve_at(n, -x)
        signs = (-1.0) ** (n - 1 + np.arange(n + 1))
        assert np.array_equal(down.psi().coeffs, signs * up.psi().coeffs)
        assert np.array_equal(down.interior_points, -up.interior_points[::-1])
        assert np.array_equal(down.design().weights, up.design().weights[::-1])

    def test_exact_hit_returns_the_stored_bits(self, fresh_table):
        first = solve_at(5, 0.6)
        assert np.array_equal(state_vector(solve_at(5, 0.6)), state_vector(first))
        assert np.array_equal(solve_at(5, -0.6).design().points,
                              first.design().reflected().points)


class TestWorkCount:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_symmetric_trajectory_walks_each_magnitude_once(self, n, fresh_table,
                                                            monkeypatch):
        continuation._table(n)
        calls = recorded("_alternances", monkeypatch)
        asymmetric = 0
        for s in (0.33, 0.5, 0.71, 0.95, 1.0):
            calls.clear()
            grid = np.linspace(-s * bbar_limit(n), s * bbar_limit(n), 9)
            # linspace often rounds mirrored values a few ulps apart
            asymmetric += np.unique(np.abs(grid)).size > 5
            rows = trajectory(n, grid)
            # five magnitudes: bbar = 0 is the known anchor, the other
            # four are solved in one stacked call
            assert [len(c) for c in calls] == [4]
            assert all(b > 0.0 for b in calls[0])
            for (g, d), (h, e) in zip(rows, rows[::-1]):
                assert g == pytest.approx(-h, rel=1e-14, abs=0.0)
                if g < 0.0:
                    ref = e.reflected()
                    assert np.array_equal(d.points, ref.points)
                    assert np.array_equal(d.weights, ref.weights)
        assert asymmetric > 0

    @pytest.mark.parametrize("n", range(3, 41))
    def test_start_table_leaves_one_exchange(self, n, monkeypatch):
        # in u = asinh(bbar / SINGULARITY_HEIGHT) the start table is close
        # enough that the exchange stops on the start's own reference, for a
        # row alone or in a stack
        continuation._table(n)
        exchanges = continuation._exchanges
        count = []

        def counted(*args):
            found = exchanges(*args)
            count.append([row[0] for row in found])
            return found

        monkeypatch.setattr(continuation, "_exchanges", counted)
        shares = [1e-12, 1e-9, 1e-6, 1e-3, 0.01, *np.arange(1, 21) * 0.05]
        per_solve = []
        for s in shares:
            count.clear()
            solve_at(n, s * bbar_limit(n))
            per_solve.append(list(count))
        assert per_solve == [[[1]]] * len(shares)
        count.clear()
        trajectory(n, np.array(shares) * bbar_limit(n))
        assert count == [[1] * len(shares)]

    def test_one_exchange_call_per_request(self, fresh_table, monkeypatch):
        n, lim = 8, bbar_limit(8)
        continuation._table(n)
        calls = recorded("_exchanges", monkeypatch)
        trajectory(n, np.linspace(-0.9 * lim, 0.9 * lim, 9))
        assert [len(c) for c in calls] == [4]
        calls.clear()
        taylor_coefficients(n, 0.4 * lim)
        assert [len(c) for c in calls] == [continuation.WINDOW_NODES]
        calls.clear()
        solve_at(n, 0.4 * lim)
        assert [len(c) for c in calls] == [1]

    def test_a_long_grid_is_cut_into_blocks(self, fresh_table, monkeypatch):
        n, k = 5, 2 * continuation.STACK_ROWS + 1
        continuation._table(n)
        calls = recorded("_exchanges", monkeypatch)
        grid = np.linspace(0.01, 1.0, k) * bbar_limit(n)
        rows = trajectory(n, grid)
        assert len(calls) == -(-k // continuation.STACK_ROWS) == 3
        assert [len(c) for c in calls] == [continuation.STACK_ROWS] * 2 + [1]
        for (g, d), bbar in zip(rows, grid):
            state = solve_at(n, bbar)
            assert g == bbar
            assert np.array_equal(d.points, state.points)
            assert np.array_equal(d.weights, state.weights)


class TestStack:
    """A path request solves its ratios in one stack; each row is the one-ratio solve."""

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_rows_equal_one_ratio_solves(self, n, monkeypatch):
        lim = bbar_limit(n)
        grid = np.concatenate([-np.geomspace(lim, 1e-9 * lim, 6), [0.0],
                               np.linspace(0.05, 1.0, 9) * lim])
        for g, d in trajectory(n, grid):
            ref = solve_at(n, g).design()
            assert np.array_equal(d.points, ref.points)
            assert np.array_equal(d.weights, ref.weights)
        stacked = [taylor_coefficients(n, s * lim) for s in (-1.0, 0.0, 0.3)]
        # the same window solved one ratio per exchange
        monkeypatch.setattr(continuation, "_solve", lambda n, bbars, solve=continuation._solve:
                            [solve(n, [b])[0] for b in bbars])
        for s, tc in zip((-1.0, 0.0, 0.3), stacked):
            assert np.array_equal(taylor_coefficients(n, s * lim), tc)

    @pytest.mark.parametrize("fails_first", ["screen", "exchange"])
    def test_the_smaller_magnitude_fails_first(self, fails_first, fresh_table, monkeypatch):
        # the smaller of two magnitudes fails one way, the larger the other;
        # the error is the smaller one's, as when each is solved in turn
        n, lim = 6, bbar_limit(6)
        small, large = 0.2 * lim, 0.6 * lim
        continuation._table(n)
        exchanges = continuation._exchanges
        unconverged = 0 if fails_first == "exchange" else -1

        def failing(targets, *args):
            found = exchanges(targets, *args)
            found[unconverged] = ConvergenceError("no equioscillation (forced)")
            return found

        monkeypatch.setattr(continuation, "_exchanges", failing)
        monkeypatch.setattr(continuation, "INEQUALITY_TOL", -1.0)
        expected = OptimalityError if fails_first == "screen" else ConvergenceError
        with pytest.raises(expected, match=f"bbar = {small!r}"):
            trajectory(n, [-large, -small, small, large])


class TestBlockPass:
    """_alternances ends a block with one array pass: weights, H and margins of all its rows."""

    @staticmethod
    def block(n, fail=True):
        """Both signs, the critical ratio (the explicit row), a failing row and one after it.

        Each row starts from the start table, reflected for bbar < 0; a NaN
        start makes the exchange fail on the fourth row.
        """
        lim = bbar_limit(n)
        table, _ = continuation._table(n)
        bbars = [-0.3 * lim, 0.05 * lim, lim, 0.7 * lim, 0.5 * lim]
        starts = np.array([np.concatenate([[-1.0], continuation._lookup(
            table, continuation._coordinate(n, abs(b))), [1.0]]) for b in bbars])
        starts[0] = -starts[0][::-1]
        if fail:
            starts[3] = np.nan
        return bbars, starts

    @staticmethod
    def walk(n, bbars, starts):
        """The rows _alternances yields before its first failure, and that failure."""
        rows = []
        try:
            for row in continuation._alternances(n, bbars, starts):
                rows.append(row)
        except ConvergenceError as err:
            return rows, err
        return rows, None

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_margins_are_recomputed_from_the_returned_states(self, n):
        bbars, starts = self.block(n)
        with warnings.catch_warnings():
            # the failed row is left out of the pass: no floating-point warning
            warnings.simplefilter("error")
            rows, err = self.walk(n, bbars, starts)
        assert [state.bbar for state, _ in rows] == bbars[:3]
        assert err is not None and f"at bbar = {bbars[3]!r}" in str(err)
        assert "degenerate reference" in str(err)
        assert in_explicit_regime(n, 1.0 / rows[2][0].bbar)
        # the row after the failure, once the failing row is mended; the
        # rows before it do not move
        bbars, starts = self.block(n, fail=False)
        mended, err = self.walk(n, bbars, starts)
        assert err is None and len(mended) == len(bbars)
        for (state, margin), (again, again_margin) in zip(rows, mended):
            assert np.array_equal(state_vector(state), state_vector(again))
            assert margin == again_margin
        for (state, margin), start in zip(mended, self.row_starts(n, starts)):
            # the pass's route: one certified Newton step from the row's start
            psi = state.psi()
            _, cv = _certified_critical(psi, start)
            pv = cv if state.bbar != bbar_limit(n) else psi(state.points)
            h = np.sum(state.weights * pv * pv)
            assert margin == (np.max(cv * cv) - h) / h
            # the colleague roots and Clenshaw agree to rounding: measured
            # worst 8.9e-15 at n = 3..40
            eig = _critical(psi)[1]
            h = h_form(state)
            assert abs(margin - (np.max(eig * eig) - h) / h) <= 2e-14

    @staticmethod
    def row_starts(n, starts):
        """The rows' starts as the exchange takes them: the critical ratio's is the closed-form support."""
        starts = starts.copy()
        starts[2] = support_points(n, 1.0 / bbar_limit(n))
        starts[2, 0] = -1.0
        return starts

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_support_values_are_psi_at_the_points(self, n, monkeypatch):
        # psi at the support is the exchange's own values there, not a
        # second evaluation: the certified step's points and its Newton
        # model's values, to the bit
        kept = []
        exchange = continuation._exchange

        def recorded(cand, vals, m):
            idx = exchange(cand, vals, m)
            kept.append((cand[idx], vals[idx]))
            return idx

        monkeypatch.setattr(continuation, "_exchange", recorded)
        bbars, starts = self.block(n, fail=False)
        states = [state for state, _ in continuation._alternances(n, bbars, starts)]
        # the explicit row at the critical ratio keeps its closed-form support
        assert len(kept) == len(bbars) - 1
        del states[2]
        starts = np.delete(starts, 2, axis=0)
        for state, start, (points, values) in zip(states, starts, kept):
            assert np.array_equal(state.points, points)
            pts, vals = _certified_critical(state.psi(), start)
            assert np.array_equal(pts, points) and np.array_equal(vals, values)
            # Clenshaw at the points agrees to rounding: measured worst
            # 1.6e-14 of the largest |psi| at n = 3..40
            clenshaw = state.psi()(state.points)
            assert np.abs(clenshaw - values).max() <= 4e-14 * np.abs(values).max()


class TestNewtonRoute:
    """A path row takes psi's critical points from one certified Newton step at its start."""

    def test_requests_make_no_eigenvalue_call(self, monkeypatch):
        # once each degree's table exists, every row it starts is certified,
        # the explicit row at the critical ratio included
        for n in range(3, 41):
            continuation._table(n)
        calls = []
        real = polynomials._critical_points
        monkeypatch.setattr(polynomials, "_critical_points",
                            lambda d: calls.append(len(np.atleast_2d(d))) or real(d))
        for n in range(3, 41):
            lim = bbar_limit(n)
            for share in (1e-9, 0.05, 0.5, 0.95):
                solve_at(n, share * lim)
                solve_at(n, -share * lim)
                trajectory(n, np.linspace(-share * lim, share * lim, 5))
                taylor_coefficients(n, share * lim)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_one_chebyshev_table_per_exchange_pass(self, n, fresh_table, monkeypatch):
        # the first pass's certified step reads the rows of the table its
        # reference solve built: one _vander per pass, whatever the number
        # of rows, the start table's chained rows included
        built, seen = [], []
        vander, exchanges = polynomials._vander, minimax._exchanges

        def counted(x, deg):
            built.append(deg)
            return vander(x, deg)

        def passes(targets, *args):
            built.clear()
            found = exchanges(targets, *args)
            seen.append((len(targets), max(row[0] for row in found), len(built)))
            return found

        for module in (minimax, polynomials):
            monkeypatch.setattr(module, "_vander", counted)
        for module in (minimax, continuation):
            monkeypatch.setattr(module, "_exchanges", passes)
        lim = bbar_limit(n)
        solve_at(n, 0.4 * lim)
        # the table's chained rows, one exchange each, then the request's row
        assert len(seen) == continuation.TABLE_NODES
        assert [rows for rows, _, _ in seen] == [1] * len(seen)
        assert all(count == it for _, it, count in seen)
        assert seen[-1] == (1, 1, 1)
        seen.clear()
        trajectory(n, np.linspace(0.1, 0.9, 5) * lim)
        assert seen == [(5, 1, 1)]
        seen.clear()
        remez(5, 100.0)
        assert seen == [(1, 5, 5)]

    @pytest.mark.parametrize("n", range(3, 41))
    def test_the_shared_table_gives_the_standalone_step(self, n):
        # byte for byte, on rows of stacked tables: starts read from the
        # start table with the psi of their reference solve, and
        # t_optimal_design supports with their closed-form psi
        table, _ = continuation._table(n)
        lim, bc = bbar_limit(n), critical_b(n)
        shares = [1e-9, 0.05, 0.5, 0.95]
        starts = np.array([np.concatenate(
            [[-1.0], continuation._lookup(table, continuation._coordinate(n, s * lim)), [1.0]])
            for s in shares])
        tops = (np.array(shares)[:, None] * lim * _monomial(n, n + 1)
                + _monomial(n - 1, n + 1))[:, n - 1 :]
        ps, _, rows = minimax._solve_reference(starts, tops, n)
        cases = [(ChebyshevSeries(c), x, t, True)
                 for c, x, t in zip(np.concatenate([-ps, tops], axis=1), starts, rows)]
        ratios = [-1.0, -0.5, 0.2, 0.7, 1.0]
        supports = np.array([t_optimal_design(n, r * bc).design.points for r in ratios])
        cases += [(closed_form_psi(n, r * bc), x, t, False)
                  for r, x, t in zip(ratios, supports, _vander(supports, n))]
        for psi, points, t, certified in cases:
            alone = _certified_critical(psi, points)
            shared = _certified_critical(psi, points, t)
            assert (alone is None) == (shared is None)
            assert alone is not None or not certified
            if alone is not None:
                assert [a.tobytes() for a in alone] == [b.tobytes() for b in shared]


class TestStartTable:
    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_last_node_is_the_critical_ratio(self, n, fresh_table, monkeypatch):
        # the table is a chain: each node is a stack of one row, started
        # from the node before
        stacks = recorded("_alternances", monkeypatch)
        table, _ = continuation._table(n)
        assert [len(rows) for rows in stacks] == [1] * (continuation.TABLE_NODES - 1)
        solved = [rows[0] for rows in stacks]
        assert all(0.0 < a < b for a, b in zip(solved, solved[1:]))
        assert solved[-1] == bbar_limit(n)
        assert in_explicit_regime(n, 1.0 / solved[-1])
        # the closed form at the critical ratio, read back at the last node
        cf = t_optimal_design(n, critical_b(n)).design.points[1:-1]
        assert np.abs(continuation._lookup(table, 1.0) - cf).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_lookup_matches_chebval(self, n):
        table, _ = continuation._table(n)
        # relative to each column's sum of |coefficients|, which bounds the
        # series on [-1, 1]: at odd n the middle point is 0 at bbar = 0
        scale = np.abs(table).sum(axis=0)
        xs = np.concatenate([[-1.0, 1.0], np.random.default_rng(21).uniform(-1.0, 1.0, 50)])
        for x in xs:
            ref = ncheb.chebval(x, table)
            got = continuation._lookup(table, float(x))
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    def test_coordinate_spans_the_path_half_width(self):
        for n in (3, 12, 40):
            lim = bbar_limit(n)
            assert continuation._coordinate(n, 0.0) == -1.0
            assert continuation._coordinate(n, lim) == 1.0
            assert continuation._coordinate(n, lim * (1.0 + 1e-13)) == 1.0


class TestRelativeScreen:
    """The screen compares the margin with INEQUALITY_TOL times H, which shrinks like 4^-n."""

    @staticmethod
    def fitted_state(design, bbar):
        """The state on design whose psi is the weighted least-squares residual there.

        psi is the top two Chebyshev terms of the fixed part less the fit of
        the reduced target, so that nothing cancels at high degree.
        """
        n = design.support_size
        g, coef, _ = _fit(design, DiscriminationProblem(n, bbar=bbar))
        psi = np.concatenate([-coef, g[n - 1 :]])
        return ContinuationState(psi, design.points, design.weights, bbar)

    @pytest.mark.parametrize("n", [16, 30, 40])
    def test_one_moved_point_fails(self, n):
        bbar = 0.5 * bbar_limit(n)
        d = solve_at(n, bbar).design()
        optimal = self.fitted_state(d, bbar)
        continuation._screened(optimal, inequality_margin(optimal) / h_form(optimal))
        for k in (1, n // 3, n - 2):
            pts = d.points.copy()
            pts[k] *= 1.0 + 1e-6
            moved = self.fitted_state(Design(pts, d.weights), bbar)
            margin = inequality_margin(moved)
            # the absolute margin is far below the tolerance: only H scales it
            assert margin < 1e-10
            with pytest.raises(OptimalityError):
                continuation._screened(moved, margin / h_form(moved))
