"""Path following for optimal discrimination designs at large ratios.

Past the explicit window the problem is parametrized by the inverse ratio
bbar = 1/b, running over a symmetric interval around zero. The optimal
design and its error polynomial psi(x) = q . (1, x, ..., x^(n-2))
+ x^(n-1) + bbar x^n solve a stationarity system: the weighted mean square
H of psi over the design is stationary in the free coefficients q, the
interior support points, and the weights (endpoints -1 and 1 stay in the
support throughout, and the last weight is implied). At bbar = 0 the state
is known in closed form.

Every request goes through one path engine per degree, SolutionPath. It
keeps converged states that passed the global-inequality screen, at most
one per bucket of width bbar_limit(n) / CACHE_BUCKETS, and continues each
request from the stored state nearest in bbar, or from the bbar = 0 state
when that is nearer. Each continuation step predicts along the analytic
tangent and corrects with Newton. A step whose correction converges
quickly doubles the next one; a step is halved whenever its candidate
state stops being a valid design or Newton fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import global_inequality
from .closed_form import critical_b, REGIME_SLACK
from .designs import Design
from .errors import ConvergenceError, OptimalityError, RegimeError
from .polynomials import Polynomial, chebyshev_t

MIN_STEP = 1e-6
STATIONARITY_TOL = 1e-10
INEQUALITY_TOL = 1e-8
NEWTON_MAX_ITER = 40
# Each Newton residual must be at most this share of the one before.
NEWTON_CONTRACTION = 0.5
# A correction that converges within this many Newton steps doubles the next step.
FAST_NEWTON_ITER = 4
# Buckets per side of zero; the cache holds at most 2 * CACHE_BUCKETS + 1
# states per degree.
CACHE_BUCKETS = 32


@dataclass
class ContinuationState:
    """One point on the solution path.

    q holds the n-1 free coefficients of psi, interior_points the support
    between the fixed endpoints, weights the first n-1 design weights (the
    last is one minus their sum). Construction validates the design part:
    ordering, interval membership, positivity.
    """

    q: np.ndarray
    interior_points: np.ndarray
    weights: np.ndarray
    bbar: float

    def __post_init__(self) -> None:
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        t = np.atleast_1d(np.asarray(self.interior_points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        n = q.size + 1
        if n < 3:
            raise ValueError("need n >= 3 (q must have at least 2 entries)")
        if t.size != n - 2 or w.size != n - 1:
            raise ValueError("inconsistent state dimensions")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(t))
                and np.all(np.isfinite(w)) and np.isfinite(self.bbar)):
            raise ValueError("state entries must be finite")
        full = np.concatenate([[-1.0], t, [1.0]])
        if np.any(np.diff(full) <= 0.0):
            raise ValueError("support points must be strictly increasing in (-1, 1)")
        if np.any(w <= 0.0) or w.sum() >= 1.0:
            raise ValueError("weights must be positive with positive remainder")
        self.q = q
        self.interior_points = t
        self.weights = w
        self.bbar = float(self.bbar)

    @property
    def n(self) -> int:
        return int(self.q.size) + 1

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.q, self.interior_points, self.weights])

    def psi(self) -> Polynomial:
        return Polynomial(np.concatenate([self.q, [1.0, self.bbar]]))

    def design(self) -> Design:
        pts = np.concatenate([[-1.0], self.interior_points, [1.0]])
        wts = np.concatenate([self.weights, [1.0 - self.weights.sum()]])
        return Design(pts, wts)


def bbar_limit(n: int) -> float:
    """Half-width of the inverse-ratio interval the path is defined on."""
    return 1.0 / critical_b(n)


def d1_optimal_start(n: int) -> ContinuationState:
    """The known path point at bbar = 0.

    Support at the extrema of T_(n-1) with weight 1/(2(n-1)) on each endpoint
    and 1/(n-1) inside; psi is 2^(2-n) T_(n-1), whose leading coefficient is
    exactly one as the parametrization requires.
    """
    path = _path(n)
    return _state_from(path.n, path.anchor.copy(), 0.0)


def _split(n: int, theta: np.ndarray):
    return theta[: n - 1], theta[n - 1 : 2 * n - 3], theta[2 * n - 3 :]


def _state_from(n: int, theta: np.ndarray, bbar: float) -> ContinuationState:
    q, t, w = _split(n, theta)
    return ContinuationState(q, t, w, bbar)


def _geometry(n: int, theta: np.ndarray, bbar: float):
    """Common evaluations: full weights, powers 0..n of the full points, psi, psi', psi''.

    psi and its derivatives come from one Vandermonde matrix of the support,
    whose first n - 1 columns are also the fitted basis at the points.
    """
    q, t, w = _split(n, theta)
    pts = np.concatenate([[-1.0], t, [1.0]])
    wts = np.concatenate([w, [1.0 - w.sum()]])
    powers = np.vander(pts, n + 1, increasing=True)
    c = np.concatenate([q, [1.0, bbar]])
    k = np.arange(n + 1)
    pv = powers @ c
    dv = powers[:, :n] @ (k[1:] * c[1:])
    ddv = powers[:, : n - 1] @ (k[2:] * k[1:-1] * c[2:])
    return wts, powers, pv, dv, ddv


# The three kernels below take the _geometry of (theta, bbar) as geo when the
# caller has built it already for this iterate; without it they build it.

def _gradient_raw(n: int, theta: np.ndarray, bbar: float, geo=None) -> np.ndarray:
    wts, powers, pv, dv, _ = _geometry(n, theta, bbar) if geo is None else geo
    gq = 2.0 * ((wts * pv) @ powers[:, : n - 1])
    gt = 2.0 * wts[1:-1] * pv[1:-1] * dv[1:-1]
    gw = pv[:-1] ** 2 - pv[-1] ** 2
    return np.concatenate([gq, gt, gw])


def _jacobian_raw(n: int, theta: np.ndarray, bbar: float, geo=None) -> np.ndarray:
    wts, powers, pv, dv, ddv = _geometry(n, theta, bbar) if geo is None else geo
    d = 3 * n - 4
    jac = np.zeros((d, d))
    sq = slice(0, n - 1)
    st = slice(n - 1, 2 * n - 3)
    sw = slice(2 * n - 3, d)

    vand = powers[:, : n - 1]
    jac[sq, sq] = 2.0 * (vand.T * wts) @ vand

    # d/dt_k of dH/dq_j: product rule through psi(t_k) t_k^j
    dvand = np.zeros((n - 2, n - 1))
    dvand[:, 1:] = powers[1:-1, : n - 2] * np.arange(1, n - 1)
    block_qt = 2.0 * wts[1:-1, None] * (
        dv[1:-1, None] * vand[1:-1] + pv[1:-1, None] * dvand
    )
    jac[sq, st] = block_qt.T
    jac[st, sq] = block_qt

    block_qw = 2.0 * (pv[:-1, None] * vand[:-1] - pv[-1] * vand[-1][None, :])
    jac[sq, sw] = block_qw.T
    jac[sw, sq] = block_qw

    diag_tt = 2.0 * wts[1:-1] * (dv[1:-1] ** 2 + pv[1:-1] * ddv[1:-1])
    jac[st, st] = np.diag(diag_tt)

    # t_k pairs only with its own weight (index k among the free weights)
    block_tw = np.zeros((n - 2, n - 1))
    block_tw[np.arange(n - 2), np.arange(1, n - 1)] = 2.0 * pv[1:-1] * dv[1:-1]
    jac[st, sw] = block_tw
    jac[sw, st] = block_tw.T
    return jac


def _dgrad_dbbar(n: int, theta: np.ndarray, bbar: float, geo=None) -> np.ndarray:
    wts, powers, pv, dv, _ = _geometry(n, theta, bbar) if geo is None else geo
    xn = powers[:, n]
    dq = 2.0 * ((wts * xn) @ powers[:, : n - 1])
    dt = 2.0 * wts[1:-1] * (xn[1:-1] * dv[1:-1] + pv[1:-1] * n * powers[1:-1, n - 1])
    dw = 2.0 * (pv[:-1] * xn[:-1] - pv[-1])
    return np.concatenate([dq, dt, dw])


def stationarity_residual(state: ContinuationState) -> np.ndarray:
    """Gradient of H in the free variables; zero on the solution path."""
    return _gradient_raw(state.n, state.theta, state.bbar)


def h_form(state: ContinuationState) -> float:
    """The weighted mean square of psi over the design; the criterion value."""
    d = state.design()
    pv = state.psi()(d.points)
    return float(np.sum(d.weights * pv * pv))


def inequality_margin(state: ContinuationState) -> float:
    """Positive when some point of [-1, 1] beats the support; ~0 at an optimum."""
    return global_inequality(state)


def _newton(n: int, theta: np.ndarray, bbar: float,
            tol: float) -> tuple[ContinuationState, int]:
    """Newton's method on the stationarity system at fixed bbar.

    Iterates while each residual is at most NEWTON_CONTRACTION times the one
    before. Once they stop falling the iterate sits at its rounding floor,
    so the result does not depend on where the iteration started; it is
    returned, with the number of steps taken, when its residual is at most
    tol. A non-finite residual, or residuals that stop falling above tol,
    raise ConvergenceError.
    """
    th = np.array(theta, dtype=float)
    last = np.inf
    for it in range(NEWTON_MAX_ITER):
        geo = _geometry(n, th, bbar)
        g = _gradient_raw(n, th, bbar, geo)
        res = float(np.abs(g).max())
        if not np.isfinite(res):
            raise ConvergenceError("newton iterate diverged")
        if res == 0.0 or not res <= NEWTON_CONTRACTION * last:
            if res <= tol:
                return _state_from(n, th, bbar), it
            raise ConvergenceError(f"newton residual stopped falling at {res!r}")
        last = res
        th = th - np.linalg.solve(_jacobian_raw(n, th, bbar, geo), g)
    raise ConvergenceError(f"newton residual stalled at {res!r}")


def _tangent(n: int, theta: np.ndarray, bbar: float) -> np.ndarray:
    """d theta / d bbar on the path, from the implicit function theorem."""
    geo = _geometry(n, theta, bbar)
    try:
        tangent = -np.linalg.solve(_jacobian_raw(n, theta, bbar, geo),
                                   _dgrad_dbbar(n, theta, bbar, geo))
    except np.linalg.LinAlgError:
        tangent = np.full(theta.size, np.nan)
    if not np.all(np.isfinite(tangent)):
        raise ConvergenceError(f"no path tangent at bbar = {bbar!r}")
    return tangent


def _walk(n: int, theta: np.ndarray, b_from: float, b_to: float,
          tol: float) -> ContinuationState:
    """Continue the path from b_from, where theta solves it, to b_to.

    Each step predicts along the analytic tangent and corrects with Newton;
    the first one tries the whole distance. A failed correction halves the
    step, one that converges within FAST_NEWTON_ITER Newton steps doubles
    the next. Floating-point events raise no warning: a non-finite iterate
    fails its step instead.
    """
    th = np.asarray(theta, dtype=float)
    cur, end = float(b_from), float(b_to)
    h = abs(end - cur)
    with np.errstate(all="ignore"):
        if cur == end:
            return _newton(n, th, end, tol)[0]
        while cur != end:
            tangent = _tangent(n, th, cur)
            while True:
                h = min(h, abs(end - cur))
                nxt = end if h == abs(end - cur) else cur + math.copysign(h, end - cur)
                try:
                    state, iters = _newton(n, th + tangent * (nxt - cur), nxt, tol)
                    break
                except (ValueError, ConvergenceError, np.linalg.LinAlgError):
                    h *= 0.5
                    if h < MIN_STEP:
                        raise ConvergenceError(
                            f"continuation step collapsed below {MIN_STEP} "
                            f"near bbar = {cur!r}"
                        ) from None
            th, cur = state.theta, nxt
            if iters <= FAST_NEWTON_ITER:
                h *= 2.0
    return state


class SolutionPath:
    """The path engine of one degree: checked states and the walk between them.

    Stores only states whose global-inequality margin is at most
    INEQUALITY_TOL, as private copies of their theta, and at most one per
    bucket of width bbar_limit(n) / CACHE_BUCKETS: the latest one solved
    there. Use _path(n) rather than building one, so that every caller in
    the process shares it.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.limit = bbar_limit(n)
        self.width = self.limit / CACHE_BUCKETS
        # the bbar = 0 state, see d1_optimal_start
        j = np.arange(1, n - 1)
        interior = -np.cos(j * np.pi / (n - 1))
        w = np.full(n - 1, 1.0 / (n - 1))
        w[0] = 1.0 / (2.0 * (n - 1))
        q = 0.5 ** (n - 2) * chebyshev_t(n - 1).coeffs[: n - 1]
        self.anchor = np.concatenate([q, interior, w])
        self.states: dict[int, tuple[float, np.ndarray]] = {}

    def check(self, bbar: float) -> None:
        """Raise RegimeError unless bbar lies on the path interval."""
        if not abs(bbar) <= self.limit * (1.0 + REGIME_SLACK):
            raise RegimeError(
                f"|bbar| = {abs(bbar)!r} outside the path interval "
                f"[-{self.limit!r}, {self.limit!r}] for n = {self.n}"
            )

    def solve(self, bbar: float, tol: float) -> tuple[ContinuationState, float]:
        """The state at bbar with residual at most tol, and its inequality margin."""
        self.check(bbar)
        start, theta = min([(0.0, self.anchor), *self.states.values()],
                           key=lambda s: abs(s[0] - bbar))
        state = _walk(self.n, theta, start, bbar, tol)
        margin = inequality_margin(state)
        if margin <= INEQUALITY_TOL:
            self.states[round(bbar / self.width)] = (state.bbar, state.theta)
        return state, margin


_PATHS: dict[int, SolutionPath] = {}


def _path(n: int) -> SolutionPath:
    """The shared path engine of degree n; rejects n that is not an integer >= 3."""
    if n != int(n) or n < 3:
        raise ValueError("n must be an integer >= 3")
    n = int(n)
    path = _PATHS.get(n)
    if path is None:
        path = _PATHS[n] = SolutionPath(n)
    return path


def _screened(state: ContinuationState, margin: float,
              inequality_tol: float) -> ContinuationState:
    if margin > inequality_tol:
        raise OptimalityError(
            f"stationary point at bbar = {state.bbar!r} violates the global "
            f"inequality by {margin!r}",
            margin=margin,
            last=state,
        )
    return state


def solve_at(n: int, bbar: float, tol: float = STATIONARITY_TOL, *,
             check_inequality: bool = True,
             inequality_tol: float = INEQUALITY_TOL) -> ContinuationState:
    """The path state at inverse ratio bbar.

    Continues from the checked state nearest in bbar that an earlier request
    for degree n left in this process, or from the known state at bbar = 0.
    The returned state has stationarity residual at most tol; when
    check_inequality is set the converged design is also screened against
    the whole interval, and a violation raises OptimalityError rather than
    returning a merely stationary point.
    """
    state, margin = _path(n).solve(float(bbar), tol)
    return _screened(state, margin, inequality_tol) if check_inequality else state


def trajectory(n: int, grid, tol: float = 1e-9) -> list[tuple[float, Design]]:
    """Optimal designs along a sorted grid of inverse ratios.

    Grid values are solved outward from zero through the path engine, so
    each can continue from a neighbour already solved, and each is screened
    as solve_at screens: a merely stationary point raises OptimalityError.
    """
    path = _path(n)
    g = np.atleast_1d(np.asarray(grid, dtype=float))
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a non-empty one-dimensional sequence")
    if np.any(np.diff(g) < 0):
        raise ValueError("grid must be sorted ascending")
    path.check(g[0])
    path.check(g[-1])
    designs = {}
    for i in np.argsort(np.abs(g), kind="stable"):
        state, margin = path.solve(float(g[i]), tol)
        designs[i] = _screened(state, margin, INEQUALITY_TOL).design()
    return [(float(v), designs[i]) for i, v in enumerate(g)]


def taylor_coefficients(n: int, bbar0: float, order: int = 3, *,
                        step: float = 1e-4,
                        tol: float = 1e-12) -> np.ndarray:
    """Derivative coefficients of the path theta(bbar) at bbar0, orders 1..order.

    Central finite differences of converged states with one Richardson level.
    Row k-1 holds the k-th Taylor coefficient (k-th derivative over k!).
    Validation tool only; the solver itself uses the analytic tangent. The
    whole stencil, bbar0 +/- 2 step, must stay inside the path interval.
    """
    if order != int(order) or not 1 <= order <= 3:
        raise ValueError("order must be 1, 2 or 3")
    order = int(order)
    if step <= 0:
        raise ValueError("step must be positive")
    path = _path(n)
    path.check(abs(bbar0) + 2.0 * step)
    base = path.solve(bbar0, tol)[0]
    cache: dict[float, np.ndarray] = {0.0: base.theta}

    def theta_at(db: float) -> np.ndarray:
        if db not in cache:
            cache[db] = path.solve(bbar0 + db, tol)[0].theta
        return cache[db]

    def d1(h):
        return (theta_at(h) - theta_at(-h)) / (2.0 * h)

    def d2(h):
        return (theta_at(h) - 2.0 * cache[0.0] + theta_at(-h)) / h**2

    def d3(h):
        return (theta_at(2 * h) - 2.0 * theta_at(h)
                + 2.0 * theta_at(-h) - theta_at(-2 * h)) / (2.0 * h**3)

    rows = [(4.0 * d1(step / 2) - d1(step)) / 3.0]
    if order >= 2:
        rows.append((4.0 * d2(step / 2) - d2(step)) / 3.0 / 2.0)
    if order >= 3:
        rows.append((4.0 * d3(step / 2) - d3(step)) / 3.0 / 6.0)
    return np.vstack(rows)
