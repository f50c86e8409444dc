"""Best uniform approximation of x^n + b x^(n-1) by polynomials of degree n - 2.

Two independent routes to the same object. The closed form expresses the
error polynomial psi as a rescaled Chebyshev polynomial composed with an
affine map, valid while |b| stays below the critical ratio. The Remez
exchange iteration solves the same problem for every b. The error
polynomial equioscillates on its extremal set, and that set carries the
optimal discrimination design, which is what ties this module to the rest
of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .closed_form import _check_regime
from .errors import ConvergenceError, check_degree, check_ratio
from .polynomials import (
    Polynomial,
    chebyshev_extrema,
    chebyshev_t,
    chebyshev_to_monomial,
    compose_affine,
    trim_tail,
)

# Two extremal-point candidates closer than this are one analytic extremum
# split by the root finder; keep the larger.
CLUSTER_RADIUS = 1e-7
# Relative distance below sup |psi| within which a candidate is extremal.
EXTREMAL_TOL = 1e-9


@dataclass
class BestApproxResult:
    """Minimax approximant plus the equioscillation evidence for it."""

    approximant: Polynomial
    deviation: float
    extremal_points: np.ndarray
    signs: np.ndarray
    iterations: int = 0


def target_polynomial(n: int, b: float) -> Polynomial:
    """The fixed part x^n + b x^(n-1) whose best approximation is sought."""
    n = check_degree(n, 2)
    c = np.zeros(n + 1)
    c[n - 1] = check_ratio(b, "b")
    c[n] = 1.0
    return Polynomial(c)


def closed_form_psi(n: int, b: float) -> Polynomial:
    """Explicit minimax error polynomial for |b| <= critical_b(n).

    Monic of degree n with x^(n-1) coefficient exactly b; its sup-norm on
    [-1, 1] is (1 + |b|/n)^n / 2^(n-1). For negative b the expression is the
    mirror image of the positive-b one; outside the critical window the
    formula stops being minimax, so it is rejected rather than extrapolated.
    """
    n = check_degree(n, 2)
    b = _check_regime(n, b)
    beta = abs(b) / n
    scale = (-1.0) ** n * 0.5 ** (n - 1) * (1.0 + beta) ** n
    psi = scale * compose_affine(
        chebyshev_t(n), -1.0 / (1.0 + beta), -beta / (1.0 + beta)
    )
    if b < 0:
        psi = (-1.0) ** n * compose_affine(psi, -1.0, 0.0)
    return psi


def _critical_points(psi: Polynomial) -> np.ndarray:
    """Endpoints plus real roots of psi' inside [-1, 1], sorted.

    The roots are the eigenvalues of the companion matrix of psi' after its
    roundoff-sized leading coefficients are cut, as numpy's polyroots
    builds it.
    """
    dc = psi.deriv().coeffs
    dc = trim_tail(dc, 1e-14 * max(1.0, float(np.abs(dc).max())))
    if dc.size == 1:
        return np.array([-1.0, 1.0])
    if dc.size == 2:
        roots = np.array([-dc[0] / dc[1]])
    else:
        m = dc.size - 1
        companion = np.zeros((m, m))
        companion.reshape(-1)[m :: m + 1] = 1.0
        companion[:, -1] -= dc[:-1] / dc[-1]
        roots = np.sort(np.linalg.eigvals(companion))
    real = roots.real[np.abs(roots.imag) <= 1e-9]
    real = real[(real >= -1.0 - 1e-12) & (real <= 1.0 + 1e-12)]
    return np.unique(np.concatenate(([-1.0, 1.0], np.clip(real, -1.0, 1.0))))


def extremal_set(psi: Polynomial, tol: float = EXTREMAL_TOL) -> np.ndarray:
    """All x in [-1, 1] with |psi(x)| >= (1 - tol) * sup |psi|, clustered.

    psi must be nonconstant. Candidates come from the stationary points of
    psi plus the endpoints; near-duplicates within CLUSTER_RADIUS collapse
    to the one with the larger |psi|.
    """
    if psi.degree < 1:
        raise ValueError("psi must be nonconstant")
    cand = _critical_points(psi)
    return cand[_extremal(cand, psi(cand), tol)]


def _extremal(cand: np.ndarray, vals: np.ndarray, tol: float) -> np.ndarray:
    """Indices of extremal_set's points among sorted candidates, psi there being vals."""
    mags = np.abs(vals)
    out: list[int] = []
    for i in np.flatnonzero(mags >= (1.0 - tol) * float(mags.max())):
        if out and cand[i] - cand[out[-1]] <= CLUSTER_RADIUS:
            if mags[i] > mags[out[-1]]:
                out[-1] = i
        else:
            out.append(i)
    return np.asarray(out)


def _solve_reference(ref: np.ndarray, target: Polynomial, n: int):
    """Interpolate target on ref with an alternating offset.

    Solves for degree <= n-2 coefficients (Chebyshev basis, for conditioning)
    and the signed level h such that p(x_i) + (-1)^i h = target(x_i).
    """
    m = ref.size
    a = np.empty((m, m))
    a[:, : m - 1] = ncheb.chebvander(ref, n - 2)
    a[:, m - 1] = (-1.0) ** np.arange(m)
    sol = np.linalg.solve(a, target(ref))
    return sol[:-1], float(sol[-1])


def _exchange(cand: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """Pick m alternating-sign candidates, largest magnitudes, ends trimmed first."""
    mask = vals != 0.0
    cand, vals = cand[mask], vals[mask]
    xs: list[float] = []
    vs: list[float] = []
    for x, v in zip(cand, vals):
        if vs and (vs[-1] > 0) == (v > 0):
            if abs(v) > abs(vs[-1]):
                xs[-1], vs[-1] = float(x), float(v)
        else:
            xs.append(float(x))
            vs.append(float(v))
    while len(xs) > m:
        if abs(vs[0]) <= abs(vs[-1]):
            xs.pop(0)
            vs.pop(0)
        else:
            xs.pop()
            vs.pop()
    if len(xs) < m:
        raise ConvergenceError(
            f"degenerate reference: only {len(xs)} alternations available"
        )
    return np.asarray(xs)


def remez(n: int, b: float, tol: float = 1e-12, max_iter: int = 100) -> BestApproxResult:
    """Exchange iteration for the minimax approximant of x^n + b x^(n-1).

    References carry n points (the approximating space has dimension n - 1).
    Starts from the Chebyshev extrema of degree n, dropping the end the
    target is least strained at, and stops when the largest error over the
    current candidates matches the alternation level within tol.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = check_degree(n, 2)
    target = target_polynomial(n, b)
    ext = chebyshev_extrema(n)
    ref = ext[1:] if b >= 0 else ext[:-1]
    last: BestApproxResult | None = None
    for it in range(1, max_iter + 1):
        coef_cheb, level = _solve_reference(ref, target, n)
        approx = Polynomial(chebyshev_to_monomial(coef_cheb))
        psi = target - approx
        cand = _critical_points(psi)
        vals = psi(cand)
        dev = float(np.abs(vals).max())
        keep = _extremal(cand, vals, EXTREMAL_TOL)
        last = BestApproxResult(
            approx, dev, cand[keep], np.sign(vals[keep]).astype(int), iterations=it
        )
        if dev - abs(level) <= tol * max(1.0, dev):
            return last
        ref = _exchange(cand, vals, n)
    raise ConvergenceError(
        f"no equioscillation within {max_iter} iterations "
        f"(gap {dev - abs(level)!r})",
        last=last,
    )
