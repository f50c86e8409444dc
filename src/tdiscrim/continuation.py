"""Optimal discrimination designs at large ratios, along the inverse ratio bbar.

Past the explicit window the problem is parametrized by the inverse ratio
bbar = 1/b, running over a symmetric interval around zero. A path state is
the optimal design together with its error polynomial
psi(x) = x^(n-1) + bbar x^n - p(x), p of degree n - 2. T-optimality is
dual to uniform approximation here: psi is the minimax error of
x^(n-1) + bbar x^n against degree n - 2, the design sits on its n
alternance points (endpoints -1 and 1 among them), and its weights make
psi orthogonal over the support to every polynomial of degree n - 2. Each
state is built that way: a Remez exchange gives psi and the points, the
points being psi's critical points (minimax._exchanges, which takes them
from polynomials._critical), and the weights are the points' normalised
barycentric weights,
w_i proportional to 1 / prod_(j != i) |x_i - x_j| (Berrut & Trefethen,
SIAM Review 46, 2004). At bbar = 0 the state is known in closed form,
and at |bbar| = bbar_limit(n) it is the closed-form design at the
critical ratio.

A state holds what the path solves and nothing else: psi's n + 1
Chebyshev coefficients, the whole design and bbar.

Before any caller sees a state, it passes one acceptance rule, from the
equivalence theorem (Atkinson & Fedorov, 1975): no point of [-1, 1] may
beat the support. The state's relative margin, the largest psi^2 over the critical
points of psi less the criterion value H, over H, must be at most
INEQUALITY_TOL; else OptimalityError. The margin is free of scale, so it
holds at every degree although H shrinks like 4^-n.

The problem is symmetric under x -> -x, which maps x^n + b x^(n-1) to
(-1)^n (x^n - b x^(n-1)): the state at -bbar is the mirror of the state at
bbar. Every request solves only bbar >= 0 and answers bbar < 0 with the
exact mirror of the state at |bbar|. No solved state is kept. The first
request for a degree solves the support at TABLE_NODES Chebyshev-Lobatto
nodes in u = asinh(bbar / SINGULARITY_HEIGHT) over the path half-width, and
the Chebyshev interpolant of the interior points in u is cached, read-only,
as the degree's start table. Each request sends all its ratios through one
stacked exchange, each row starting from the table at its own u; a request
of more than STACK_ROWS ratios is cut into blocks of that many, and a
failure is raised in the order of the request, as if its ratios were solved
one at a time. In u the path's complex singularity near bbar = 0 lies
far from the real interval, so the interpolant converges fast enough that
at n = 3..40 the exchange stops on its first iterate (Hale & Trefethen,
SIAM J. Numer. Anal. 46, 2008, on maps that move a singularity away from a
Chebyshev interpolant). That iterate needs no eigenvalue solve:
polynomials._critical certifies its one Newton step from every row a
request starts from the table, the explicit row included, so the support
is psi's critical points to about an ulp. A result is then a function of
n and bbar alone, whatever was requested before it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebfit, chebval

from .checks import INEQUALITY_TOL, global_inequality
from .closed_form import REGIME_SLACK, critical_b, in_explicit_regime, support_points
from .designs import Design, _gaps, _monomial
from .errors import (ConvergenceError, OptimalityError, RegimeError, _numbers,
                     check_degree, check_integer, check_ratio)
from .minimax import EXCHANGE_TOL, MAX_EXCHANGES, _exchange, _exchanges
from .polynomials import ChebyshevSeries, chebyshev_extrema

# Distance from the real axis to the path's nearest complex singularity near
# bbar = 0, measured at n = 5..40: a series about bbar0 converges within
# |bbar0 - 1.15i|. It also sets the start table's coordinate
# u = asinh(bbar / SINGULARITY_HEIGHT), in which that singularity sits far
# from the real interval.
SINGULARITY_HEIGHT = 1.15
# Chebyshev-Lobatto nodes of each degree's start table, in u, and of
# taylor_coefficients' window, in bbar; the support is analytic in bbar, so
# both interpolants converge geometrically.
TABLE_NODES = 24
WINDOW_NODES = 16
# Ratios solved by one stacked exchange: a longer request is cut into blocks
# of this many, so that its stacks hold at most this many n x n matrices.
STACK_ROWS = 64


# m Chebyshev-Lobatto nodes are the extrema of T_(m-1)
LOBATTO = chebyshev_extrema(TABLE_NODES - 1)
WINDOW = chebyshev_extrema(WINDOW_NODES - 1)


@dataclass
class ContinuationState:
    """One point on the solution path: psi, the design and bbar.

    coeffs holds the n + 1 Chebyshev coefficients of psi, the error
    polynomial the state was solved with; points and weights hold the whole
    design, both endpoints and all n weights; bbar is the inverse ratio.
    Construction validates the design through Design and requires -1 and 1
    in the support and n + 1 finite coefficients, which follow Design's
    rule for numbers: no strings or bools.
    """

    coeffs: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    bbar: float

    def __post_init__(self) -> None:
        d = Design(self.points, self.weights)
        if d.support_size < 3 or d.points[0] != -1.0 or d.points[-1] != 1.0:
            raise ValueError("the support needs at least 3 points and endpoints -1 and 1")
        try:
            c = _numbers(self.coeffs)
            ok = c.shape == (d.support_size + 1,) and np.all(np.isfinite(c))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError("psi needs n + 1 finite Chebyshev coefficients")
        self.coeffs, self.points, self.weights = c, d.points, d.weights
        self.bbar = check_ratio(self.bbar, "bbar", finite=True)

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def interior_points(self) -> np.ndarray:
        return self.points[1:-1]

    def psi(self) -> ChebyshevSeries:
        """psi as a Chebyshev series, on a copy of coeffs."""
        return ChebyshevSeries(self.coeffs.copy())

    def design(self) -> Design:
        return Design(self.points.copy(), self.weights.copy())


def _mirrored(state: ContinuationState) -> ContinuationState:
    """The state at -bbar, from a solved state at bbar.

    psi at -bbar is (-1)^(n-1) psi(-x) at bbar, so the coefficient of T_j
    changes sign with n-1+j, and the design is reflected through x = 0 by
    Design.reflected's rule, 0.0 - x. Every entry is a sign change or a
    reordering, so the mirror is exact.
    """
    signs = (-1.0) ** (state.n - 1 + np.arange(state.n + 1))
    return ContinuationState(signs * state.coeffs, 0.0 - state.points[::-1],
                             state.weights[::-1].copy(), -state.bbar)


def bbar_limit(n: int) -> float:
    """Half-width of the inverse-ratio interval the path is defined on."""
    return 1.0 / critical_b(n)


def d1_optimal_start(n: int) -> ContinuationState:
    """The known path point at bbar = 0.

    Support at the extrema of T_(n-1) with weight 1/(2(n-1)) on each endpoint
    and 1/(n-1) inside; psi is 2^(2-n) T_(n-1), whose leading coefficient is
    exactly one as the parametrization requires. Built afresh on each call.
    """
    n = check_degree(n, 3)
    pts = chebyshev_extrema(n - 1)
    w = np.full(n, 1.0 / (n - 1))
    w[0] = w[-1] = 0.5 / (n - 1)
    psi = np.zeros(n + 1)
    psi[n - 1] = 0.5 ** (n - 2)
    return ContinuationState(psi, pts, w, 0.0)


def h_form(state: ContinuationState) -> float:
    """The weighted mean square of psi over the design; the criterion value."""
    pv = state.psi()(state.points)
    return float(np.sum(state.weights * pv * pv))


def inequality_margin(state: ContinuationState) -> float:
    """Positive when some point of [-1, 1] beats the support; ~0 at an optimum."""
    return global_inequality(state.psi(), h_form(state))


def _alternances(n: int, bbars, starts: np.ndarray):
    """The state at each bbar and its relative margin, in turn, by one exchange from the starts.

    The path asks only for bbar >= 0. psi is the minimax error of
    x^(n-1) + bbar x^n, whose top Chebyshev coefficients come from the
    monomials' closed form, so that a denormal bbar needs no b = 1/bbar.
    The exchange is one minimax._exchanges call over all rows, with
    EXCHANGE_TOL and MAX_EXCHANGES, and the support is the n-point
    alternance among the candidates of a row's last psi: cand[idx], with
    idx from _exchange, and psi there is vals[idx], which the stop rule has
    already computed by polynomials._critical. At |b| = critical_b(n),
    where -1 is a double extremum and the exchange finds no clean n-point
    set, the support is the closed-form design's, psi is solved on it once,
    and only that row evaluates psi afresh: it stops on its first iterate at
    EXCHANGE_TOL, its gap being at most 5.0e-15 of the deviation (n = 3..40,
    REGIME_SLACK band).

    The rest is one array pass over the rows that were solved, as (k, n)
    arrays. The weights, which make sum_i w_i (-1)^i p(x_i) vanish for
    every p of degree n - 2 and sum to one, are the normalised |lambda_i|,
    with lambda_i = 1 / prod_(j != i) (x_i - x_j) taken from the products
    of gaps (designs._gaps) that give the certificate its lambda_i (Berrut
    & Trefethen, SIAM Review 46, 2004): the (n-1)-th divided difference of
    such a p is zero. At n <= 40 a path support keeps its gaps near 3e-3
    or wider, so the products stay far inside the float range. H is the
    weighted mean square of psi over the support, and the relative margin
    is (dev^2 - H) / H, with dev the largest |psi| over its critical points
    that the exchange found. A failed row is left out of that pass, so that
    it warns of nothing; its failure names bbar and is raised when its row
    is reached, so that the rows before it are yielded first.
    """
    ratios = [float(bbar) for bbar in bbars]
    starts = np.array(starts, dtype=float)
    targets = np.array(ratios)[:, None] * _monomial(n, n + 1) + _monomial(n - 1, n + 1)
    explicit = [bbar > 0.0 and in_explicit_regime(n, 1.0 / bbar) for bbar in ratios]
    for j, bbar in enumerate(ratios):
        if explicit[j]:
            starts[j] = support_points(n, 1.0 / bbar)
            starts[j, 0] = -1.0
    found = _exchanges(targets, starts, EXCHANGE_TOL, MAX_EXCHANGES)
    pts, pv, dev2 = np.empty_like(starts), np.empty_like(starts), np.empty(len(ratios))
    ok = np.zeros(len(ratios), dtype=bool)
    for j, (start, exp, row) in enumerate(zip(starts, explicit, found)):
        if isinstance(row, ConvergenceError):
            continue
        _, _, psi, cand, vals, dev = row
        if exp:
            pts[j], pv[j] = start, psi(start)
        else:
            try:
                idx = _exchange(cand, vals, n)
            except ConvergenceError as err:
                found[j] = err
                continue
            pts[j], pv[j] = cand[idx], vals[idx]
        dev2[j], ok[j] = dev * dev, True
    pts, pv = pts[ok], pv[ok]
    w = np.abs(1.0 / _gaps(pts).prod(axis=2))
    w /= w.sum(axis=1, keepdims=True)
    h = (w * pv * pv).sum(axis=1)
    margins = ((dev2[ok] - h) / h).tolist()
    valid = ((pts[:, 0] == -1.0) & (pts[:, -1] == 1.0) & (w > 0.0).all(axis=1)).tolist()
    solved = zip(pts, w, margins, valid)
    for bbar, row in zip(ratios, found):
        if isinstance(row, ConvergenceError):
            raise ConvergenceError(f"{row} at bbar = {bbar!r}", last=row.last) from row
        x, weights, margin, is_design = next(solved)
        if not is_design:
            raise ConvergenceError(
                f"the alternance at bbar = {bbar!r} is not a design on both endpoints")
        yield ContinuationState(row[2].coeffs, x, weights, bbar), margin


def _alternance(n: int, bbar: float, start: np.ndarray) -> tuple[ContinuationState, float]:
    """The state at one bbar and its relative margin: _alternances on a stack of one row."""
    return next(_alternances(n, [bbar], start[None]))


@functools.cache
def _table(n: int) -> tuple[np.ndarray, float]:
    """The start table of degree n and the anchor's relative margin, built once per degree.

    The table interpolates the support's interior points at TABLE_NODES
    Chebyshev-Lobatto nodes in u = asinh(bbar / SINGULARITY_HEIGHT) over
    [0, _u_limit(n)]: the anchor at bbar = 0, the closed form at exactly
    bbar_limit(n), and between them exchanges chained from node to node at
    bbar = SINGULARITY_HEIGHT sinh(u). The last node is the limit itself,
    not its sinh round trip, which lands up to two ulps off it, so that
    _alternance takes its explicit branch there at exactly the critical
    ratio. It is shared by every caller, so it is read-only. Rejects n that
    is not an integer >= 3.
    """
    n = check_degree(n, 3)
    anchor = d1_optimal_start(n)
    nodes = SINGULARITY_HEIGHT * np.sinh(_u_limit(n) * (1.0 + LOBATTO[1:]) / 2.0)
    nodes[-1] = bbar_limit(n)
    pts = [anchor.interior_points]
    for bbar in nodes:
        start = np.concatenate([[-1.0], pts[-1], [1.0]])
        pts.append(_alternance(n, float(bbar), start)[0].interior_points)
    table = chebfit(LOBATTO, np.array(pts), TABLE_NODES - 1)
    table.flags.writeable = False
    return table, inequality_margin(anchor) / h_form(anchor)


def _u_limit(n: int) -> float:
    """The start table's coordinate u = asinh(bbar / SINGULARITY_HEIGHT) at bbar_limit(n)."""
    return math.asinh(bbar_limit(n) / SINGULARITY_HEIGHT)


def _coordinate(n: int, bbar: float) -> float:
    """Where the start table of degree n is read for bbar >= 0, in [-1, 1].

    u = asinh(bbar / SINGULARITY_HEIGHT) mapped from [0, _u_limit(n)] onto
    [-1, 1], clipped at the table's last node.
    """
    return 2.0 * min(math.asinh(bbar / SINGULARITY_HEIGHT) / _u_limit(n), 1.0) - 1.0


def _lookup(table: np.ndarray, x: float) -> np.ndarray:
    """The Chebyshev series whose coefficient rows are table, at x in [-1, 1].

    One product of the basis T_k(x) = cos(k acos x) with the table; it
    equals chebval(x, table) to rounding at a tenth of its cost.
    """
    return np.cos(np.arange(table.shape[0]) * math.acos(x)) @ table


def _check(n: int, bbar: float, name: str = "bbar") -> None:
    """Raise RegimeError for bbar off the path interval of degree n, ValueError for NaN; messages say name."""
    bbar = check_ratio(bbar, name)
    limit = bbar_limit(n)
    if abs(bbar) > limit * (1.0 + REGIME_SLACK):
        raise RegimeError(
            f"|{name}| = {abs(bbar)!r} outside the path interval "
            f"[-{limit!r}, {limit!r}] for n = {n}"
        )


def _solve(n: int, bbars) -> list[ContinuationState]:
    """The states at the ratios bbars on the path interval, each screened by its relative margin.

    The anchor at bbar = 0; the other ratios are solved by one stacked
    exchange per block of at most STACK_ROWS of them, each row starting
    from the start table read at u = asinh(|bbar| / SINGULARITY_HEIGHT),
    clipped to its last node. At bbar < 0 a state is the mirror of the one
    at -bbar, screened by the margin the two share, so that an
    OptimalityError names bbar and carries the state at it. Failures are
    raised in the order of bbars, each before any later row is screened
    and before the next block is solved.
    """
    table, anchor_margin = _table(n)
    mags = [abs(bbar) for bbar in bbars if bbar != 0.0]
    solved = itertools.chain.from_iterable(
        _alternances(n, mags[i : i + STACK_ROWS],
                     [np.concatenate([[-1.0], _lookup(table, _coordinate(n, m)), [1.0]])
                      for m in mags[i : i + STACK_ROWS]])
        for i in range(0, len(mags), STACK_ROWS))
    states = []
    for bbar in bbars:
        if bbar == 0.0:
            states.append(_screened(d1_optimal_start(n), anchor_margin))
        else:
            state, margin = next(solved)
            states.append(_screened(_mirrored(state) if bbar < 0.0 else state, margin))
    return states


def _screened(state: ContinuationState, margin: float) -> ContinuationState:
    """state, unless its margin relative to H exceeds INEQUALITY_TOL or is NaN."""
    if not margin <= INEQUALITY_TOL:
        raise OptimalityError(
            f"the design at bbar = {state.bbar!r} violates the global "
            f"inequality by {margin!r} of its criterion value",
            margin=margin,
            last=state,
        )
    return state


def solve_at(n: int, bbar: float) -> ContinuationState:
    """The path state at inverse ratio bbar.

    Starts the exchange from the start table of degree n, which the first
    request for n builds; at bbar = 0 the state is the known one, and at
    bbar < 0 the exact mirror of the one at -bbar, so the result depends on
    n and bbar alone. The state is returned only if its relative margin is
    at most INEQUALITY_TOL, so that no point of [-1, 1] beats its support;
    otherwise OptimalityError.
    """
    n, bbar = check_degree(n, 3), check_ratio(bbar, "bbar")
    _check(n, bbar)
    return _solve(n, [bbar])[0]


def trajectory(n: int, grid) -> list[tuple[float, Design]]:
    """Optimal designs along a sorted grid of inverse ratios.

    Each distinct |bbar| of the grid is solved once, all of them in one
    stacked exchange (one per block of STACK_ROWS), and screened by the
    rule solve_at applies: a margin above INEQUALITY_TOL raises
    OptimalityError, for the smallest magnitude that fails. A negative
    grid value gets the reflection of the design at its magnitude. Every
    grid value is checked before any is solved.
    """
    n = check_degree(n, 3)
    g = np.atleast_1d(np.asarray(grid, dtype=object))
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a non-empty one-dimensional sequence")
    g = np.array([check_ratio(v, "bbar") for v in g.tolist()])
    if np.any(np.diff(g) < 0):
        raise ValueError("grid must be sorted ascending")
    _check(n, g[0])
    _check(n, g[-1])
    mags = np.abs(g)
    pos = np.unique(g[g >= 0.0])
    if pos.size:
        # linspace rounds mirrored values up to a few ulps of the largest
        # |value| apart; a magnitude that close to a non-negative grid value
        # is that value, far below the solver's tolerance
        hi = np.minimum(np.searchsorted(pos, mags), pos.size - 1)
        near = np.where(np.abs(pos[hi - 1] - mags) < np.abs(pos[hi] - mags),
                        pos[hi - 1], pos[hi])
        slack = 4.0 * np.finfo(float).eps * mags.max()
        mags = np.where(np.abs(near - mags) <= slack, near, mags)
    distinct = np.unique(mags).tolist()
    states = dict(zip(distinct, _solve(n, distinct)))
    # each row is its own copy, validated once; a negative row is reflected
    return [(float(v), states[m].design() if v >= 0.0 else
             Design(0.0 - states[m].points[::-1], states[m].weights[::-1].copy()))
            for v, m in zip(g, mags)]


def taylor_coefficients(n: int, bbar0: float, order: int = 3) -> np.ndarray:
    """Taylor coefficients in bbar of psi's Chebyshev coefficients, interior points and weights.

    Row k-1 of the (order, 3n - 1) result holds the k-th derivative at
    bbar0 over k!, for order <= 3, of the Chebyshev interpolant of screened
    states at the WINDOW_NODES Chebyshev-Lobatto nodes of the window
    bbar0 +/- r, cut to the path interval; r = |bbar0 - SINGULARITY_HEIGHT i| / 4
    is a quarter of the series' radius. The nodes are solved in one stacked
    exchange. A state that fails the screen raises OptimalityError. order
    follows the integer rule of n. Validation tool only: the path states
    come from the alternance.
    """
    order = check_integer(order, "order", 1)
    if order > 3:
        raise ValueError("order must be 1, 2 or 3")
    n, bbar0 = check_degree(n, 3), check_ratio(bbar0, "bbar0")
    _check(n, bbar0, "bbar0")
    limit = bbar_limit(n)
    r = math.hypot(bbar0, SINGULARITY_HEIGHT) / 4.0
    lo, hi = max(bbar0 - r, -limit), min(bbar0 + r, limit)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    states = _solve(n, (mid + half * WINDOW).tolist())
    fit = chebfit(WINDOW, np.array([np.concatenate([s.coeffs, s.interior_points, s.weights])
                                    for s in states]), WINDOW_NODES - 1)
    x0 = (bbar0 - mid) / half
    return np.array([chebval(x0, chebder(fit, k, 1.0 / half)) / math.factorial(k)
                     for k in range(1, order + 1)])
