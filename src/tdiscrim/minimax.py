"""Best uniform approximation of x^n + b x^(n-1) by polynomials of degree n - 2.

Two independent routes to the same object, both on Chebyshev series. The
closed form expresses the error polynomial psi as a rescaled Chebyshev
polynomial of an affine map of x, valid while |b| stays below the critical
ratio. The Remez exchange iteration solves the same problem for every b,
in one function for remez and the continuation path alike. That function
works on a stack of references of one degree, each row stopping on its
own: remez sends one row, a path request all its ratios in one call. Each
pass builds one table of T_0..T_n at its references, for its stacked
solve, and takes each row's critical points of psi, with psi there, from
polynomials._critical. The error polynomial equioscillates on its
extremal set, and that set carries the optimal discrimination design,
which is what ties this module to the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import _check_regime
from .designs import DiscriminationProblem, _cosines
from .errors import ConvergenceError, check_degree, check_integer, check_ratio
from .polynomials import ChebyshevSeries, _critical, _vander, chebyshev_extrema

# Two extremal-point candidates closer than this are one analytic extremum
# split by the root finder; keep the larger.
CLUSTER_RADIUS = 1e-7
# Relative distance below sup |psi| within which a candidate is extremal.
EXTREMAL_TOL = 1e-9
# An exchange stops once the largest error over the candidates exceeds the
# alternation level by at most this share of it, or fails after this many
# references; _exchanges applies both, for remez and the continuation path.
EXCHANGE_TOL = 1e-12
MAX_EXCHANGES = 100


@dataclass
class BestApproxResult:
    """Minimax approximant and error polynomial, plus the equioscillation evidence.

    approximant is target - psi, the best approximation of degree n - 2.
    """

    approximant: ChebyshevSeries
    psi: ChebyshevSeries
    deviation: float
    extremal_points: np.ndarray
    signs: np.ndarray
    iterations: int = 0


def target_polynomial(n: int, b: float) -> ChebyshevSeries:
    """The fixed part x^n + b x^(n-1) whose best approximation is sought; b must be finite."""
    return DiscriminationProblem(n, b=b).fixed_part()


def closed_form_psi(n: int, b: float) -> ChebyshevSeries:
    """Explicit minimax error polynomial for |b| <= critical_b(n).

    Monic of degree n with x^(n-1) coefficient b; its sup-norm on [-1, 1] is
    (1 + |b|/n)^n / 2^(n-1). For b >= 0 it is the rescaled Chebyshev
    polynomial scale * T_n(-(x + beta) / (1 + beta)) with beta = b/n,
    interpolated at the n + 1 Chebyshev points of the first kind x = cos(theta)
    by the cosine matrix designs._cosines caches, which is exact for degree n. For negative b it is the mirror image
    (-1)^n psi(-x), whose coefficients differ only in sign. Outside the
    critical window the formula stops being minimax, so it is rejected
    rather than extrapolated.
    """
    n = check_degree(n, 2)
    b = _check_regime(n, b)
    beta = abs(b) / n
    scale = (-1.0) ** n * 0.5 ** (n - 1) * (1.0 + beta) ** n
    theta, m = _cosines(n)
    # arccos(-(cos(theta) + beta) / (1 + beta)) by its half-angle tangent,
    # which keeps full relative accuracy where the argument nears -1 or 1
    half = np.cos(0.5 * theta)
    phi = 2.0 * np.arctan2(np.sqrt(half * half + beta), np.sin(0.5 * theta))
    c = m @ (scale * np.cos(n * phi))
    if b < 0:
        c[n - 1 :: -2] *= -1.0
    return ChebyshevSeries(c)


def extremal_set(psi: ChebyshevSeries) -> np.ndarray:
    """All x in [-1, 1] with |psi(x)| >= (1 - EXTREMAL_TOL) * sup |psi|, clustered.

    psi must be nonconstant, with finite coefficients. Candidates come from
    the stationary points of psi plus the endpoints; near-duplicates within
    CLUSTER_RADIUS collapse to the one with the larger |psi|.
    """
    if not np.isfinite(psi.coeffs).all():
        raise ValueError("psi must have finite coefficients")
    if psi.degree < 1:
        raise ValueError("psi must be nonconstant")
    cand, vals = _critical(psi)
    return cand[_extremal(cand, vals)]


def _extremal(cand: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Indices of extremal_set's points among sorted candidates, psi there being vals."""
    mags = np.abs(vals)
    out: list[int] = []
    for i in np.flatnonzero(mags >= (1.0 - EXTREMAL_TOL) * float(mags.max())):
        if out and cand[i] - cand[out[-1]] <= CLUSTER_RADIUS:
            if mags[i] > mags[out[-1]]:
                out[-1] = i
        else:
            out.append(i)
    return np.array(out, dtype=int)


def _solve_reference(refs: np.ndarray, tops: np.ndarray, n: int):
    """Interpolate each row's target on its row of refs with an alternating offset.

    Modulo degree n - 2 the target of row j is tops[j, 0] T_(n-1) +
    tops[j, 1] T_n. Solves, in one stacked call, for the degree <= n-2
    Chebyshev coefficients p and the signed level h of each row such that
    p(x_i) + (-1)^i h equals that reduced target at x_i. Returns p, h and
    the pass's one table of T_0..T_n at refs, _vander(refs, n), which the
    exchange's first pass hands row by row to _critical.
    """
    k, m = refs.shape
    a = np.empty((k, m, m))
    v = _vander(refs, n)
    a[:, :, : m - 1] = v[:, :, : n - 1]
    a[:, :, m - 1] = (-1.0) ** np.arange(m)
    sol = np.linalg.solve(a, v[:, :, n - 1 :] @ tops[:, :, None])[:, :, 0]
    return sol[:, :-1], sol[:, -1], v


def _exchange(cand: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """Indices of m alternating-sign candidates, largest magnitudes, ends trimmed first.

    The kept candidates are cand[idx] and psi there is vals[idx], already
    evaluated, in increasing order of x.
    """
    nonzero = np.flatnonzero(vals != 0.0)
    idx: list[int] = []
    vs: list[float] = []
    for i, v in zip(nonzero.tolist(), vals[nonzero].tolist()):
        if vs and (vs[-1] > 0) == (v > 0):
            if abs(v) > abs(vs[-1]):
                idx[-1], vs[-1] = i, v
        else:
            idx.append(i)
            vs.append(v)
    lo, hi = 0, len(idx)
    while hi - lo > m:
        if abs(vs[lo]) <= abs(vs[hi - 1]):
            lo += 1
        else:
            hi -= 1
    if hi - lo < m:
        raise ConvergenceError(
            f"degenerate reference: only {hi - lo} alternations available"
        )
    return np.array(idx[lo:hi])


def _exchanges(targets: np.ndarray, refs: np.ndarray, tol: float, max_iter: int) -> list:
    """Remez exchange for a stack of targets of one degree, each from its row of refs.

    Each target row holds n + 1 Chebyshev coefficients and each row of refs
    n points. On each pass it solves the references of the rows still
    running in one stacked call, for p and the signed level against the
    target's top two terms, psi being those less p (so no cancellation),
    and exchanges the next reference of each from psi's critical points,
    which _critical gives with psi there. On the first pass it hands
    _critical the row's reference and that row of the table
    _solve_reference built; later passes hand no points, so that no Newton
    model value can close a gap that the exchange has not. Every row, the
    path's critical-ratio row included, has one stop rule: it stops once
    the largest |psi| there exceeds its level by at most tol of it; its
    entry is then the count, p, psi, the critical points, psi there and
    that largest |psi|. A row still running takes as its next reference
    the candidates whose indices _exchange returns. After
    max_iter references its entry is a ConvergenceError with the last
    iterate (_result) as last, and a degenerate reference leaves the
    ConvergenceError of _exchange. Each row's entry is the one a stack of
    that row alone gives.
    """
    k, n = refs.shape
    tops = targets[:, n - 1 :]
    found: list = [None] * k
    active, top = list(range(k)), tops
    for it in range(1, max_iter + 1):
        ps, levels, table = _solve_reference(refs, top, n)
        psis = [ChebyshevSeries(c) for c in np.concatenate([-ps, top], axis=1)]
        running, exchanged = [], []
        for j, p, level, psi, ref, t in zip(active, ps, levels.tolist(), psis, refs, table):
            cand, vals = _critical(psi, ref if it == 1 else None, t)
            dev = float(np.abs(vals).max())
            if dev - abs(level) <= tol * dev:
                found[j] = it, p, psi, cand, vals, dev
            elif it == max_iter:
                found[j] = ConvergenceError(
                    f"no equioscillation within {max_iter} iterations "
                    f"(gap {dev - abs(level)!r})",
                    last=_result(targets[j], it, p, psi, cand, vals, dev),
                )
            else:
                try:
                    exchanged.append(cand[_exchange(cand, vals, n)])
                    running.append(j)
                except ConvergenceError as err:
                    found[j] = err
        if not running:
            break
        active, refs, top = running, np.array(exchanged), tops[running]
    return found


def _result(target: np.ndarray, it: int, p: np.ndarray, psi: ChebyshevSeries,
            cand: np.ndarray, vals: np.ndarray, dev: float) -> BestApproxResult:
    """The iterate of _exchanges as a BestApproxResult: approximant, psi and its extremal set."""
    keep = _extremal(cand, vals)
    return BestApproxResult(
        ChebyshevSeries(target[: p.size] + p), psi, dev,
        cand[keep], np.sign(vals[keep]).astype(int), iterations=it,
    )


def remez(n: int, b: float, tol: float = EXCHANGE_TOL,
          max_iter: int = MAX_EXCHANGES) -> BestApproxResult:
    """Exchange iteration for the minimax approximant of x^n + b x^(n-1).

    Runs _exchanges from the Chebyshev extrema of degree n, dropping the
    end the target is least strained at, with its one stop rule at tol. It
    needs 0 < tol < 1: the gap never exceeds the error, so a tol of 1 would
    stop on the first reference; tol follows check_ratio's rule first.
    max_iter follows the integer rule of n.
    """
    tol = check_ratio(tol, "tol")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    max_iter = check_integer(max_iter, "max_iter", 1)
    n = check_degree(n, 2)
    target = target_polynomial(n, b).coeffs
    ext = chebyshev_extrema(n)
    found = _exchanges(target[None], (ext[1:] if b >= 0 else ext[:-1])[None], tol, max_iter)[0]
    if isinstance(found, ConvergenceError):
        raise found
    return _result(target, *found)
