"""Every regime to near machine precision at each degree n = 3..40.

The oracle is mpmath at 50 digits: the closed-form optimal values
(1 + |b|/n)^(2n) / 2^(2n-2) and their square roots, and the error
polynomials, summed by the Chebyshev three-term recurrence from their
coefficients. Beyond the critical ratio the path route (solve_at,
trajectory, maximin) is held to remez, whose deviation is held to mpmath
here: the optimal criterion in the bbar parametrization is bbar^2 times
its deviation squared. There optimal_design, remez, trajectory and the
path's psi are also each held to mp_alternance, a 50-digit Remez iteration that
shares no code with the package, as is solve_at beside bbar = 0 (six cells
by default, all of n = 3..40 under the slow marker), and
taylor_coefficients to mp_taylor, a polynomial fit through nine of its
states at 90 digits.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest

from tdiscrim import (
    Design,
    DiscriminationProblem,
    RatioInterval,
    bbar_limit,
    closed_form_psi,
    critical_b,
    maximin_design,
    optimal_design,
    r_value,
    remez,
    solve_at,
    support_points,
    t_criterion,
    taylor_coefficients,
    t_optimal_design,
    trajectory,
    verification_report,
    zero_b_family,
)
from tdiscrim import continuation
from tdiscrim.continuation import h_form, inequality_margin
from tdiscrim.designs import _dual, error_polynomial

DEGREES = range(3, 41)
DPS = 50


def optimal_value(n, b):
    """(1 + |b|/n)^(2n) / 2^(2n-2), the criterion of the optimal design."""
    with mp.workdps(DPS):
        return (1 + mp.mpf(abs(b)) / n) ** (2 * n) / mp.mpf(2) ** (2 * n - 2)


def mp_chebval(x, coeffs):
    """sum_k coeffs[k] T_k(x), at DPS digits."""
    with mp.workdps(DPS):
        x = mp.mpf(float(x))
        prev, cur = mp.mpf(1), x
        total = mp.mpf(float(coeffs[0]))
        for k in range(1, len(coeffs)):
            total += mp.mpf(float(coeffs[k])) * cur
            prev, cur = cur, 2 * x * cur - prev
        return total


def rel(value, ref):
    with mp.workdps(DPS):
        return float(abs(mp.mpf(float(value)) / ref - 1))


@pytest.mark.parametrize("n", DEGREES)
def test_criterion_of_closed_form_designs(n):
    bc = critical_b(n)
    for b in (0.5 * bc, -0.5 * bc, bc, -bc):
        design = t_optimal_design(n, b).design
        value = t_criterion(design, DiscriminationProblem(n, b=b))
        assert rel(value, optimal_value(n, b)) <= 1e-13
    for alpha in (0.0, 0.3, 1.0):
        design = zero_b_family(n, alpha).design
        value = t_criterion(design, DiscriminationProblem(n, b=0.0))
        assert rel(value, optimal_value(n, 0.0)) <= 1e-13


@pytest.mark.parametrize("n", DEGREES)
def test_remez_deviation_inside_regime(n):
    # h <= true deviation <= dev at every iterate, so the relative stop
    # test dev - |h| <= tol * dev bounds the error of dev by tol
    bc = critical_b(n)
    for b in (0.0, 0.5 * bc, -0.5 * bc, 0.9 * bc, bc):
        res = remez(n, b, tol=1e-12)
        with mp.workdps(DPS):
            ref = mp.sqrt(optimal_value(n, b))
        assert rel(res.deviation, ref) <= 1e-12


@pytest.mark.parametrize("n", (16, 20, 25, 30, 40))
@pytest.mark.parametrize("share", (0.05, 0.5, 0.95, -0.5))
def test_remez_alternance_beyond_critical_ratio(n, share):
    b = 1.0 / (share * bbar_limit(n))
    res = remez(n, b)
    assert res.extremal_points.size == n
    assert np.all(res.signs[:-1] * res.signs[1:] == -1)
    with mp.workdps(DPS):
        mags = [abs(mp_chebval(x, res.psi.coeffs)) for x in res.extremal_points]
        spread = (max(mags) - min(mags)) / max(mags)
    assert float(spread) <= 1e-10
    assert rel(res.deviation, max(mags)) <= 1e-12


@pytest.mark.parametrize("n", DEGREES)
def test_verification_report_passes_optima_and_fails_the_control(n):
    bc = critical_b(n)
    for b in (0.5 * bc, -0.5 * bc, bc):
        assert verification_report(t_optimal_design(n, b).design, n, b)["passed"]
    assert verification_report(zero_b_family(n, 0.3).design, n, 0.0)["passed"]
    lim = bbar_limit(n)
    for share in (0.05, -0.05, 0.5, -0.5, 0.95):
        bbar = share * lim
        assert verification_report(solve_at(n, bbar).design(), n, 1.0 / bbar)["passed"]
    control = Design(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n))
    for b in (0.0, 0.5 * bc, 2.0 * bc):
        assert not verification_report(control, n, b)["passed"]


def mp_fit_residual(design, n, b, dps=DPS):
    """x -> psi_xi(x) at dps digits: x^n + b x^(n-1) less its weighted fit on T_0..T_(n-2)."""
    with mp.workdps(dps):
        pts = [mp.mpf(float(x)) for x in design.points]
        wts = [mp.mpf(float(w)) for w in design.weights]
        b = mp.mpf(float(b))

        def basis(x):
            row = [mp.mpf(1), x]
            while len(row) < n - 1:
                row.append(2 * x * row[-1] - row[-2])
            return row[: n - 1]

        rows = [basis(x) for x in pts]
        target = [x**n + b * x ** (n - 1) for x in pts]
        gram = mp.matrix(n - 1, n - 1)
        rhs = mp.matrix(n - 1, 1)
        for row, y, w in zip(rows, target, wts):
            for j in range(n - 1):
                rhs[j] += w * row[j] * y
                for k in range(n - 1):
                    gram[j, k] += w * row[j] * row[k]
        coef = mp.lu_solve(gram, rhs)

    def psi(x):
        with mp.workdps(dps):
            x = mp.mpf(float(x))
            fit = sum(c * t for c, t in zip(coef, basis(x)))
            return x**n + b * x ** (n - 1) - fit

    return psi


def non_optimal_designs(n):
    """The equispaced uniform design and a seeded random one, both on n points."""
    rng = np.random.Generator(np.random.PCG64(n))
    w = rng.uniform(0.1, 1.0, n)
    return [Design(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n)),
            Design(np.sort(rng.uniform(-1.0, 1.0, n)), w / w.sum())]


@pytest.mark.parametrize("n", (5, 20, 30, 40))
def test_error_polynomial_matches_a_high_precision_fit(n):
    # on n points psi_xi is built from the dual; a least-squares fit missed
    # the non-optimal designs at n = 40 by 7.5e-9 (equispaced) and 1.2e-3
    bc = critical_b(n)
    bbar = 0.5 * bbar_limit(n)
    cases = [(t_optimal_design(n, 0.5 * bc).design, 0.5 * bc),
             (solve_at(n, bbar).design(), 1.0 / bbar)]
    cases += [(design, 0.5 * bc) for design in non_optimal_designs(n)]
    grid = -np.cos(np.linspace(0.0, np.pi, 4 * n + 1))
    for design, b in cases:
        psi = error_polynomial(design, DiscriminationProblem(n, b=b))
        exact = mp_fit_residual(design, n, b)
        xs = np.concatenate([grid, design.points, psi.critical_points()])
        with mp.workdps(DPS):
            sup = max(abs(exact(x)) for x in xs)
            err = max(abs(mp_chebval(x, psi.coeffs) - exact(x)) for x in xs)
        assert float(err / sup) <= 1e-12


@pytest.mark.parametrize("n", (20, 30, 40))
def test_criterion_is_exact_on_non_optimal_n_point_designs(n):
    # on n points t_criterion takes the divided-difference route, which a
    # least-squares residual misses here by up to its whole value
    b = 0.5 * critical_b(n)
    for design in non_optimal_designs(n):
        psi = mp_fit_residual(design, n, b)
        with mp.workdps(DPS):
            exact = sum(mp.mpf(float(w)) * psi(x) ** 2
                        for x, w in zip(design.points, design.weights))
        assert rel(t_criterion(design, DiscriminationProblem(n, b=b)), exact) <= 1e-13


@pytest.mark.parametrize("n", (5, 20, 30, 40))
def test_the_dual_matches_a_high_precision_fit_on_n_plus_1_points(n):
    # on n + 1 points the dual is a weighted straight-line fit in x; a
    # least-squares fit missed T here at n = 40 by 6.5e-9 (equispaced) and
    # 7.0e-4 (random)
    rng = np.random.Generator(np.random.PCG64(n))
    w = rng.uniform(0.1, 1.0, n + 1)
    b = 0.5 * critical_b(n)
    cases = [(zero_b_family(n, 0.3).design, 0.0, 1e-12),
             (Design(np.linspace(-1.0, 1.0, n + 1), np.full(n + 1, 1.0 / (n + 1))), b, 1e-12),
             (Design(np.sort(rng.uniform(-1.0, 1.0, n + 1)), w / w.sum()), b, 1e-10)]
    grid = -np.cos(np.linspace(0.0, np.pi, 4 * n + 1))
    for design, b, bound in cases:
        assert design.support_size == n + 1
        problem = DiscriminationProblem(n, b=b)
        value = t_criterion(design, problem)
        psi = error_polynomial(design, problem)
        exact = mp_fit_residual(design, n, b)
        xs = np.concatenate([grid, design.points, psi.critical_points()])
        with mp.workdps(DPS):
            target = sum(mp.mpf(float(w)) * exact(x) ** 2
                         for x, w in zip(design.points, design.weights))
            sup = max(abs(exact(x)) for x in xs)
            err = max(abs(mp_chebval(x, psi.coeffs) - exact(x)) for x in xs)
        assert rel(value, target) <= 1e-13
        assert float(err / sup) <= bound


@pytest.mark.parametrize("n,gap,b,extra", [
    pytest.param(6, 1e-200, 1e100, 0, id="6-1e-200-1e+100"),
    pytest.param(20, 1e-9, 0.3, 0, id="20-1e-09-0.3"),
    pytest.param(6, 1e-100, 1e100, 1, id="6-1e-100-1e+100-n+1"),
    pytest.param(20, 1e-9, 0.3, 1, id="20-1e-09-0.3-n+1"),
])
def test_the_dual_holds_on_a_clustered_support(n, gap, b, extra):
    # on n + extra points, gap^(2 size - 2) times the smallest weight is
    # below 2^-994, so the dual takes lambda_i in log space; at gap = 1e-200
    # plain products of gaps would overflow, and the large b keeps T a
    # normal float; on n + 1 points the close pair's offsets from the
    # centre are sums of gaps, never differences of rounded coordinates
    size = n + extra
    rng = np.random.Generator(np.random.PCG64(n))
    pts = np.sort(np.concatenate([rng.uniform(-1.0, 1.0, size - 2), [0.0, gap]]))
    w = rng.uniform(0.1, 1.0, size)
    design = Design(pts, w / w.sum())
    assert np.diff(pts).min() ** (2 * size - 2) * design.weights.min() < 2.0**-994
    problem = DiscriminationProblem(n, b=b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = t_criterion(design, problem)
        psi = error_polynomial(design, problem)
        crit = psi.critical_points()
        wpsi = _dual(design, problem)[3]
        assert not verification_report(design, n, b)["passed"]
    dps = 2 * n * int(-np.log10(gap)) + DPS
    exact = mp_fit_residual(design, n, b, dps)
    xs = np.concatenate([-np.cos(np.linspace(0.0, np.pi, 4 * n + 1)), pts, crit])
    with mp.workdps(dps):
        target = sum(mp.mpf(float(w)) * exact(x) ** 2
                     for x, w in zip(design.points, design.weights))
        sup = max(abs(exact(x)) for x in xs)
        err = max(abs(mp_chebval(x, psi.coeffs) - exact(x)) for x in xs)
        assert float(abs(mp.mpf(value) / target - 1)) <= 1e-13
        ref = [mp.mpf(float(w)) * exact(x) for x, w in zip(design.points, design.weights)]
        miss = max(abs(mp.mpf(float(v)) - r) for v, r in zip(wpsi, ref))
        assert float(miss / max(map(abs, ref))) <= 1e-13
    assert float(err / sup) <= 1e-12


@pytest.mark.parametrize("n", DEGREES)
def test_closed_form_psi_peaks_on_the_support(n):
    bc = critical_b(n)
    for b in (0.5 * bc, bc):
        pts = support_points(n, b)
        level = mp.sqrt(optimal_value(n, b))
        for sign in (1.0, -1.0):
            psi = closed_form_psi(n, sign * b)
            support = pts if sign > 0 else -pts[::-1]
            crit = psi.critical_points()
            assert max(np.abs(crit - x).min() for x in support) <= 1e-12
            for x in support:
                assert rel(abs(mp_chebval(x, psi.coeffs)), level) <= 1e-13


@pytest.mark.parametrize("n", [5, 12, 20, 40])
def test_closed_form_psi_matches_a_50_digit_interpolant(n):
    # scale T_n(-(x + beta) / (1 + beta)) interpolated at the n + 1 points of
    # the first kind, exact for degree n; negative b mirrors it
    bc = critical_b(n)
    with mp.workdps(DPS):
        theta = [(2 * j + 1) * mp.pi / (2 * n + 2) for j in range(n + 1)]
        for b in (0.0, 0.3 * bc, 0.5 * bc, bc, -0.3 * bc, -0.7 * bc, -bc):
            beta = abs(mp.mpf(b)) / n
            scale = (-1) ** n * mp.mpf(2) ** (1 - n) * (1 + beta) ** n
            vals = [scale * mp.chebyt(n, -(mp.cos(t) + beta) / (1 + beta)) for t in theta]
            exact = [2 * mp.fsum(v * mp.cos(k * t) for v, t in zip(vals, theta)) / (n + 1)
                     for k in range(n + 1)]
            exact[0] /= 2
            if b < 0:
                exact = [c * (-1) ** (n + k) for k, c in enumerate(exact)]
            got = closed_form_psi(n, b).coeffs
            miss = max(abs(mp.mpf(float(g)) - c) for g, c in zip(got, exact))
            assert float(miss / abs(scale)) <= 1e-14


PATH_DEGREES = (16, 20, 25, 26, 30, 40)
PATH_SHARES = (0.05, 0.2, 0.5, 0.95, 1.0, -1.0, -0.5)


def path_gap(design, n, bbar):
    """Relative gap of the design's criterion to the optimum at bbar != 0.

    In the bbar parametrization the optimum is bbar^2 times remez's
    deviation squared at b = 1/bbar.
    """
    value = t_criterion(design, DiscriminationProblem(n, bbar=bbar))
    return abs(value / (bbar * bbar * remez(n, 1.0 / bbar).deviation ** 2) - 1.0)


@pytest.mark.parametrize("n", PATH_DEGREES)
@pytest.mark.parametrize("share", PATH_SHARES)
def test_solve_at_reaches_the_optimum(n, share, fresh_table):
    bbar = share * bbar_limit(n)
    for _ in ("cold", "stored"):
        state = solve_at(n, bbar)
        assert path_gap(state.design(), n, bbar) <= 1e-10
        # psi is the Chebyshev series the state was solved with: its margin
        # relative to H is at the rounding floor at every degree
        assert inequality_margin(state) <= 1e-10 * h_form(state)


@pytest.mark.parametrize("n", PATH_DEGREES)
def test_symmetric_trajectory_reaches_the_optimum(n, fresh_table):
    grid = np.linspace(-bbar_limit(n), bbar_limit(n), 9)
    rows = trajectory(n, grid)
    assert [g for g, _ in rows] == grid.tolist()
    for g, d in rows:
        if g == 0.0:
            # psi is 2^(2-n) T_(n-1), alternating on the whole support
            value = t_criterion(d, DiscriminationProblem(n, bbar=0.0))
            assert value == pytest.approx(0.25 ** (n - 2), rel=1e-12)
        else:
            assert path_gap(d, n, g) <= 1e-10


@pytest.mark.parametrize("n", PATH_DEGREES)
def test_maximin_on_a_ray_reaches_the_optimum(n, fresh_table):
    b0 = 1.0 / (0.5 * bbar_limit(n))
    optimum = remez(n, b0).deviation ** 2
    assert abs(r_value(n, b0) / optimum - 1.0) <= 1e-10
    for ray, b in ((RatioInterval.ray_up(b0), b0), (RatioInterval.ray_down(b0), -b0)):
        value = t_criterion(maximin_design(n, ray), DiscriminationProblem(n, b=b))
        assert abs(value / optimum - 1.0) <= 1e-10


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_solve_at_n25_at_a_fifth_of_the_limit(sign, fresh_table):
    # the monomial Newton walk returned a design 1.7e-3 off here, silently
    bbar = sign * 0.2 * bbar_limit(25)
    assert path_gap(solve_at(25, bbar).design(), 25, bbar) <= 1e-10


def test_trajectory_n26_reaches_the_optimum(fresh_table):
    # the Newton walk exited cleanly with designs 1.4e-5 below the optimum
    for g, d in trajectory(26, np.linspace(-5.0, 5.0, 5)):
        if g != 0.0:
            assert path_gap(d, 26, g) <= 1e-10


@pytest.mark.parametrize("n", (24, 30, 40))
def test_results_do_not_depend_on_request_order(n, fresh_table):
    # at n = 24 the Newton walk's designs moved by up to 1.7e-3 with the order
    bbars = np.array([0.9, -0.1, 0.45, -0.7, 0.2, 1.0, -0.33]) * bbar_limit(n)
    first = [solve_at(n, x).design() for x in bbars]
    continuation._table.cache_clear()
    second = [solve_at(n, x).design() for x in bbars[::-1]][::-1]
    for a, b in zip(first, second):
        assert np.abs(a.points - b.points).max() <= 1e-12
        assert np.abs(a.weights - b.weights).max() <= 1e-12


def mp_alternance(n, bbar, start, dps=DPS, sweeps=2):
    """The optimal design at bbar beyond the critical ratio, at dps digits.

    Shares no code with the package. A Remez iteration in the monomial
    basis: solve p(t_i) + (-1)^i h = t_i^(n-1) + bbar t_i^n on the current
    n points for the degree n - 2 polynomial p and the level h by mp.lu_solve,
    then move each interior point by Newton on the exact derivative of
    psi = x^(n-1) + bbar x^n - p. sweeps sweeps from the float support start;
    bbar may be an mpf. The weights are the normalised barycentric ones,
    w_i proportional to 1 / |prod_(j != i) (t_i - t_j)|. Returns the points,
    the weights, the level |h| and psi's monomial coefficients, lowest
    first, after checking that |psi(t_i)| = |h|.
    """
    with mp.workdps(dps):
        bbar = mp.mpf(bbar)
        pts = [mp.mpf(float(x)) for x in start]
        for _ in range(sweeps):
            a = mp.matrix(n, n)
            rhs = mp.matrix(n, 1)
            for i, t in enumerate(pts):
                for k in range(n - 1):
                    a[i, k] = t**k
                a[i, n - 1] = (-1) ** i
                rhs[i] = t ** (n - 1) + bbar * t**n
            sol = mp.lu_solve(a, rhs)
            # psi's monomial coefficients, lowest first, and those of psi' and psi''
            psi = [-sol[k] for k in range(n - 1)] + [mp.mpf(1), bbar]
            d1 = [k * c for k, c in enumerate(psi)][1:]
            d2 = [k * c for k, c in enumerate(d1)][1:]
            for i in range(1, n - 1):
                for _ in range(8):
                    step = mp.polyval(d1[::-1], pts[i]) / mp.polyval(d2[::-1], pts[i])
                    pts[i] -= step
                    if abs(step) <= mp.mpf(10) ** (-dps + 5):
                        break
        level = abs(sol[n - 1])
        for t in pts:
            assert abs(abs(mp.polyval(psi[::-1], t)) - level) <= mp.mpf(10) ** -30 * level
        inv = [1 / abs(mp.fprod(t - u for u in pts if u is not t)) for t in pts]
        total = mp.fsum(inv)
        return pts, [w / total for w in inv], level, psi


@pytest.mark.parametrize("n", (5, 12, 20, 30, 40))
@pytest.mark.parametrize("share", (0.05, 0.5, 0.95))
def test_alternance_routes_match_a_50_digit_oracle(n, share):
    bbar = share * bbar_limit(n)
    b = 1.0 / bbar
    design = optimal_design(n, b).design
    pts, wts, level, psi = mp_alternance(n, bbar, design.points)
    with mp.workdps(DPS):
        deviation = level / mp.mpf(bbar)
        for sign in (1.0, -1.0):
            d = optimal_design(n, sign * b).design
            value = t_criterion(d, DiscriminationProblem(n, b=sign * b))
            assert rel(np.sqrt(value), deviation) <= 1e-11
            if sign < 0.0:
                d = d.reflected()
            assert max(abs(x - t) for x, t in zip(d.points, pts)) <= 1e-13
            assert max(rel(w, v) for w, v in zip(d.weights, wts)) <= 1e-11
        res = remez(n, b)
        assert res.extremal_points.size == n
        assert max(abs(x - t) for x, t in zip(res.extremal_points, pts)) <= 1e-13
        assert rel(res.deviation, deviation) <= 1e-11
        # the path's psi, in the Chebyshev form it was solved in, against the
        # oracle's monomial psi; measured worst 5.0e-13 of the level, at n = 12
        coeffs = solve_at(n, bbar).coeffs
        gap = max(abs(mp_chebval(x, coeffs) - mp.polyval(psi[::-1], mp.mpf(float(x))))
                  for x in np.linspace(-1.0, 1.0, 41))
        assert gap <= mp.mpf(1e-11) * level


@pytest.mark.parametrize("n", (5, 12))
@pytest.mark.parametrize("share", (0.5, 0.95))
def test_trajectory_ends_match_a_50_digit_oracle(n, share):
    # the end rows of a symmetric grid: the state at share * limit and its mirror
    bbar = share * bbar_limit(n)
    rows = trajectory(n, np.linspace(-bbar, bbar, 5))
    pts, wts, _, _ = mp_alternance(n, bbar, rows[-1][1].points)
    for d in (rows[0][1].reflected(), rows[-1][1]):
        assert max(abs(x - t) for x, t in zip(d.points, pts)) <= 1e-13
        assert max(rel(w, v) for w, v in zip(d.weights, wts)) <= 1e-11


WEIGHT_DPS = 60


@pytest.mark.parametrize("n", (12, 20, 28, 33, 36, 40))
@pytest.mark.parametrize("share", (1e-12, 1e-7, 0.3, 0.95, 1.0, -0.4))
def test_path_weights_match_60_digit_products_at_their_points(n, share):
    # the weight formula alone, the state's own float points taken as exact.
    # The bound separates products of gaps (worst 1.8e-15 here) from an exp
    # of a log-sum of gaps (7.2e-15 at n = 36, share 1e-12)
    state = solve_at(n, share * bbar_limit(n))
    with mp.workdps(WEIGHT_DPS):
        pts = [mp.mpf(float(x)) for x in state.points]
        inv = [1 / abs(mp.fprod(t - u for j, u in enumerate(pts) if j != i))
               for i, t in enumerate(pts)]
        total = mp.fsum(inv)
        miss = max(abs(mp.mpf(float(w)) * total / v - 1) for w, v in zip(state.weights, inv))
    assert miss <= 2.5e-15


def assert_near_zero_ratio_matches_the_oracle(n, share):
    # beside bbar = 0 the path's complex singularity is nearest the real
    # axis; the support within 1e-11 and the weights within 1e-9 relative
    bbar = share * bbar_limit(n)
    state = solve_at(n, bbar)
    pts, wts, _, _ = mp_alternance(n, bbar, state.points)
    assert max(abs(x - t) for x, t in zip(state.points, pts)) <= 1e-11
    assert max(rel(w, v) for w, v in zip(state.weights, wts)) <= 1e-9


# six cells of the sweep below, measured 8.9e-13 / 1.1e-11, 3.0e-12 /
# 8.0e-11, 4.4e-14 / 4.9e-13, 6.7e-13 / 7.4e-11, 3.2e-13 / 5.4e-12 and
# 1.5e-13 / 4.4e-11 in points / relative weights; (24, 1e-12) is the worst
# cell of the whole sweep in both
@pytest.mark.parametrize("n, share", [(14, 1e-12), (24, 1e-12), (28, 1e-9),
                                      (33, 1e-9), (36, 1e-12), (40, 1e-7)])
def test_near_zero_ratio_matches_a_50_digit_oracle(n, share):
    assert_near_zero_ratio_matches_the_oracle(n, share)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(3, 41))
@pytest.mark.parametrize("share", (1e-12, 1e-9, 1e-7))
def test_near_zero_ratio_sweep_matches_a_50_digit_oracle(n, share):
    assert_near_zero_ratio_matches_the_oracle(n, share)


TAYLOR_DPS = 90


def mp_taylor(n, bbar0, order=3, h="1e-9"):
    """Taylor coefficients of the interior points and the weights at bbar0, orders 1..order.

    mp_alternance at TAYLOR_DPS digits and five sweeps solves bbar0 + j h,
    j = -4..4, and the coefficients are those of the exact degree-8
    polynomial through the nine states: its truncation error is of order
    h^(9-k) and its rounding about 10^-TAYLOR_DPS / h^k at order k.
    """
    start = solve_at(n, bbar0).points
    with mp.workdps(TAYLOR_DPS):
        h = mp.mpf(h)
        states = []
        for j in range(-4, 5):
            pts, wts, _, _ = mp_alternance(n, mp.mpf(bbar0) + j * h, start,
                                           dps=TAYLOR_DPS, sweeps=5)
            states.append(pts[1:-1] + wts)
        fit = mp.inverse(mp.matrix([[mp.mpf(j) ** k for k in range(9)] for j in range(-4, 5)]))
        return np.array([[float(mp.fsum(fit[k, j] * states[j][c] for j in range(9)) / h**k)
                          for c in range(len(states[0]))]
                         for k in range(1, order + 1)])


@pytest.mark.parametrize("n", (5, 12))
@pytest.mark.parametrize("share", (0.0, 0.3, -0.3, 0.9, 0.99))
def test_taylor_coefficients_match_a_90_digit_oracle(n, share):
    # each order's error relative to the row's largest entry; measured worst
    # at n <= 20: 5e-11, 1.2e-8 and 5.5e-7 for orders 1, 2 and 3, all at s = 0.99
    bbar0 = share * bbar_limit(n)
    ref = mp_taylor(n, bbar0)
    # the columns past psi's n + 1 Chebyshev coefficients
    got = taylor_coefficients(n, bbar0)[:, n + 1 :]
    for k, bound in enumerate((1e-9, 1e-7, 1e-5)):
        assert np.abs(got[k] - ref[k]).max() <= bound * np.abs(ref[k]).max()


SWEEP_SHARES = (0.01, 0.5, 0.999, 1.0, 1.0 + 1e-9, 1.001, 1.05, 1.5, 3.0, 10.0, 1e3, 1e6)


@pytest.mark.parametrize("n", range(2, 41))
def test_optimal_design_passes_the_certificate_at_every_ratio(n):
    bc = critical_b(n)
    assert verification_report(optimal_design(n, 0.0).design, n, 0.0)["passed"]
    for share in SWEEP_SHARES:
        for b in (share * bc, -share * bc):
            res = optimal_design(n, b)
            assert res.regime == ("alternance" if share > 1.0 else
                                  "positive_b" if b > 0.0 else "negative_b")
            assert verification_report(res.design, n, b)["passed"]


@pytest.mark.parametrize("n", range(3, 41))
def test_optimal_design_is_continuous_across_the_critical_ratio(n):
    bc = critical_b(n)
    for delta in (1e-9, 1e-6):
        for sign in (1.0, -1.0):
            closed = t_optimal_design(n, sign * bc).design
            beyond = optimal_design(n, sign * bc * (1.0 + delta))
            assert beyond.regime == "alternance"
            assert np.abs(beyond.design.points - closed.points).max() <= delta
            assert np.abs(beyond.design.weights - closed.weights).max() <= delta
