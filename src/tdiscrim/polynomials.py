"""The one polynomial representation of the package: Chebyshev series on [-1, 1].

A polynomial is held as its coefficients in the basis T_0, T_1, ... of
Chebyshev polynomials of the first kind. The error polynomials of this
problem shrink like 2^(1-n); in this basis their coefficients shrink with
them, so evaluation, differentiation and root finding keep their relative
accuracy at every degree up to 40, where monomial coefficients cancel
about 0.3 n digits.

The kernels act on plain arrays: at these sizes numpy.polynomial's per-call
coercion costs more than the arithmetic. Evaluation, differentiation, the
pseudo-Vandermonde matrix and the colleague matrix perform the
floating-point operations of chebval, chebder, chebvander and
chebcompanion in the same order, so results agree bit for bit; the tests
hold them to that reference. The pseudo-Vandermonde matrix is returned as
chebvander returns it, a transposed view of its recurrence's rows. The
root finder's cut of trailing coefficients is per-row work that numpy's
dispatch would dominate, so it runs over Python floats, keeping numpy's
NaN semantics; each size's colleague entries are built once and cached
read-only.

psi's critical points in [-1, 1], and psi's values there, come from one
function, _critical, whose docstring states the route.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _numbers, check_degree


@dataclass(eq=False)
class ChebyshevSeries:
    """Real polynomial p(x) = sum_k coeffs[k] T_k(x).

    coeffs follow Design's rule for numbers; a list or tuple is scanned for
    bools element by element, an array is judged by its kind alone.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        try:
            c = _numbers(self.coeffs)
        except ValueError:
            raise ValueError("coeffs must be numbers: no str, bool or None") from None
        if c.ndim == 0:
            c = c.reshape(1)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty one-dimensional sequence")
        self.coeffs = c

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; 0 for a constant."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[-1]) if nz.size else 0

    def __call__(self, x):
        """Clenshaw's recurrence, elementwise over array x."""
        if isinstance(x, (tuple, list)):
            x = np.asarray(x)
        c = self.coeffs.tolist()
        if len(c) == 1:
            return c[0] + 0 * x
        c0, c1 = c[-2], c[-1]
        if len(c) > 2:
            x2 = 2 * x
            for i in range(3, len(c) + 1):
                c0, c1 = c[-i] - c1, c0 + c1 * x2
        return c0 + c1 * x

    def deriv(self) -> "ChebyshevSeries":
        if self.coeffs.size == 1:
            return ChebyshevSeries(self.coeffs[:1] * 0)
        return ChebyshevSeries(np.array(_der(self.coeffs.tolist())))

    def critical_points(self) -> np.ndarray:
        """Endpoints plus the real roots of p' inside [-1, 1], sorted; see _critical_points."""
        return _critical_points(self.deriv().coeffs)

    def __neg__(self) -> "ChebyshevSeries":
        return ChebyshevSeries(-self.coeffs)

    def __add__(self, other: "ChebyshevSeries") -> "ChebyshevSeries":
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        out = b.copy()
        out[: a.size] += a
        return ChebyshevSeries(out)

    def __sub__(self, other: "ChebyshevSeries") -> "ChebyshevSeries":
        return self + (-other)


def _der(c: list) -> list:
    """Chebyshev coefficients of the derivative, from those of a series of degree >= 1.

    chebder's recurrence over Python floats; c is consumed.
    """
    n = len(c) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def _critical(psi: ChebyshevSeries, points=None,
              table: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """psi's critical points in [-1, 1], sorted, and psi's values there: the one route.

    When points are given and _certified_critical accepts them, with table
    when given, the result is that certified Newton step's. Otherwise the
    points are psi.critical_points(), the colleague matrix's route, and psi
    is read there by Clenshaw inside and by _ends at -1 and 1. The two
    routes agree to rounding. A caller gives points only where they may sit
    at the critical points already: the exchange on its first pass, where a
    path row starts at the alternance, and verification_report on a support
    that alternates.
    """
    if points is not None:
        found = _certified_critical(psi, points, table)
        if found is not None:
            return found
    cand = psi.critical_points()
    vals = psi(cand)
    vals[0], vals[-1] = _ends(psi.coeffs.tolist())
    return cand, vals


def _certified_critical(psi: ChebyshevSeries, points,
                        table: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """psi's critical points in [-1, 1] and its values there, by one Newton step at points; or None.

    For psi of degree n >= 3 with a nonzero top coefficient, psi' has degree
    m = n - 1. Of points, the k strictly inside (-1, 1) must number m or
    m - 1, as the interior support of an optimal design does; psi, psi' and
    psi'' there come from one product with T_0..T_n at them. table, when
    given, is _vander(points, n): the exchange's first pass hands each row
    the T_k rows of that pass's reference solve. Its interior rows are read
    in place, so the product is the one a fresh _vander of those points
    gives, bit for bit; points must then be sorted, as exchange references
    are. Without a table that _vander is built here. Each x_i must pass
    Kantorovich's test for Newton's method on psi', L eta_i <= h_i / 4:
    L = sum_k |c_k| k^2 (k^2 - 1)(k^2 - 4) / 15 bounds |psi'''| on [-1, 1],
    as each |T_k'''| peaks at 1; h_i, |psi''(x_i)| less e'', must exceed
    e'', and eta_i = (|psi'(x_i)| + e') / h_i. e' and e'' allow for the rounding of
    the product, (n + 1)^2 eps times the sum of the magnitudes of the
    coefficients of psi' and psi''. The balls of radius 2 eta_i about the
    x_i must be disjoint and lie inside (-1, 1); each then holds exactly
    one root of psi', and those roots are distinct. With k = m they are
    every root of psi'. With k = m - 1 the last root is real, as complex
    roots come in pairs, and the roots of a_m T_m + a_(m-1) T_(m-1) + ...
    sum to -a_(m-1) / (2 a_m) for m >= 2, so the last one is that sum less
    the Newton points x_i - psi'(x_i) / psi''(x_i). It is kept, in order,
    if it lies in [-1, 1], and only there read by Clenshaw. The value at a
    Newton point is that of Newton's quadratic model at its stationary
    point, psi(x_i) - psi'(x_i)^2 / (2 psi''(x_i)), off the extremum by the
    cubic term alone; the endpoint values are coefficient sums. None when
    any condition fails, so that _critical takes the eigenvalue route.
    """
    c = psi.coeffs.tolist()
    n = len(c) - 1
    if n < 3 or c[-1] == 0.0:
        return None
    given = points.tolist()
    inside = [i for i, x in enumerate(given) if -1.0 < x < 1.0]
    xs = [given[i] for i in inside]
    k = len(xs)
    # 4 L; a NaN or an infinite coefficient fails its test
    lip4 = 4.0 * sum(abs(a) * w for a, w in zip(c, _third(n)))
    if (k != n - 1 and k != n - 2) or not lip4 < math.inf:
        return None
    d1 = _der(c.copy())
    d2 = _der(d1.copy())
    # exchange references are sorted, so their interior rows are one run
    rows = _vander(xs, n) if table is None else table[inside[0] : inside[-1] + 1]
    v, g, h = (np.array([c, d1 + [0.0], d2 + [0.0, 0.0]]) @ rows.T).tolist()
    # per point over Python floats: at these sizes numpy's calls cost more
    eps = (n + 1) * (n + 1) * 2.220446049250313e-16
    e1 = eps * sum(map(abs, d1))
    e2 = eps * sum(map(abs, d2))
    low, high = _ends(c)
    pts, vals, edge = [-1.0], [low], -1.0
    for x, vx, gx, hx in zip(xs, v, g, h):
        ah = abs(hx) - e2
        if not ah > e2:
            return None
        eta = (abs(gx) + e1) / ah
        if not (lip4 * eta <= ah and x - 2.0 * eta > edge):
            return None
        edge = x + 2.0 * eta
        step = gx / hx
        pts.append(x - step)
        vals.append(vx - 0.5 * gx * step)
    if not edge < 1.0:
        return None
    pts.append(1.0)
    vals.append(high)
    if k == n - 2:
        r = -d1[-2] / (2.0 * d1[-1]) - math.fsum(pts[1:-1])
        if -1.0 <= r <= 1.0:
            i = bisect.bisect(pts, r)
            pts.insert(i, r)
            vals.insert(i, float(psi(r)))
    return np.array(pts), np.array(vals)


def _ends(c: list) -> tuple[float, float]:
    """The series of coefficients c at -1 and at 1: sum_k (-1)^k c_k and sum_k c_k.

    Clenshaw's recurrence loses up to 2.0e-14 of an error polynomial's sup
    at the ends (n = 37), where these plain sums are exact but for rounding.
    """
    return sum(c[::2]) - sum(c[1::2]), sum(c)


@functools.cache
def _third(n: int) -> tuple[float, ...]:
    """T_k'''(1) = k^2 (k^2 - 1)(k^2 - 4) / 15 for k = 0..n, the peak of |T_k'''| on [-1, 1]."""
    return tuple(k * k * (k * k - 1) * (k * k - 4) / 15 for k in range(n + 1))


def _critical_points(d: np.ndarray) -> np.ndarray:
    """critical_points of a series, from the coefficient row d of its derivative.

    The roots are the eigenvalues of the colleague matrix of d, rotated as
    numpy's chebroots rotates it. Trailing coefficients of d up to 1e-14 of
    its largest are cut first: they move the roots inside [-1, 1] by
    rounding only, and left in they overflow the matrix. A row holding a
    NaN is cut to its constant term, as numpy's NaN-propagating max would
    cut it. Roots within 1e-9 of the real axis count as real, and those
    within 1e-12 outside [-1, 1] as endpoint roots.
    """
    # the cut over Python floats: at these sizes numpy's reductions cost more
    mags = [abs(v) for v in d.tolist()]
    total = sum(mags)
    # max skips a NaN that is not first; the sum of magnitudes keeps it
    tol = 1e-14 * max(mags) if total == total else math.nan
    m = len(mags) - 1
    while m > 0 and not mags[m] > tol:
        m -= 1
    if m == 0:
        return np.array([-1.0, 1.0])
    d = d[: m + 1]
    if m == 1:
        found = -d[:1] / d[1:]
    else:
        skeleton, scl = _colleague(m)
        # the colleague matrix flattened row by row
        mat = skeleton.copy()
        mat[m - 1 :: m] -= (d[:-1] / d[-1:]) * scl * 0.5
        # reversing a flattened matrix reverses both its axes
        found = np.linalg.eigvals(mat[::-1].reshape(m, m))
    real = found.real
    keep = (np.abs(found.imag) <= 1e-9) & (real >= -1.0 - 1e-12) & (real <= 1.0 + 1e-12)
    pts = np.concatenate(([-1.0, 1.0], real.clip(-1.0, 1.0)[keep]))
    # np.unique's sort and first-of-each-run mask, without its dispatch
    pts.sort()
    first = np.empty(pts.size, dtype=bool)
    first[0] = True
    np.not_equal(pts[1:], pts[:-1], out=first[1:])
    return pts[first]


@functools.cache
def _colleague(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The colleague matrix of size m without its last column's coefficient terms.

    The matrix flattened row by row, with 1/2 on both off-diagonals and
    sqrt(1/2) in the two entries next to the first diagonal entry, and the
    scale that numpy's chebcompanion applies to the coefficients of the last
    column. Built once per size and shared, so both are read-only.
    """
    mat = np.zeros(m * m)
    mat[1 :: m + 1] = mat[m :: m + 1] = 1 / 2
    mat[1] = mat[m] = np.sqrt(0.5)
    scl = np.array([1.0] + [np.sqrt(0.5)] * (m - 1))
    scl = scl / scl[-1]
    mat.flags.writeable = scl.flags.writeable = False
    return mat, scl


def _vander(x, deg: int) -> np.ndarray:
    """T_0..T_deg at x, along a new last axis: chebvander's recurrence for x of one or more axes.

    The same operations in the same order as numpy's chebvander, on the
    same memory layout, so the matrix and every product taken with it agree
    bit for bit, without its per-call coercion; a scalar x counts as one
    point, as there. Adding 0.0 turns -0.0 into 0.0, as chebvander does.
    Each step of the recurrence writes into its own preallocated row, with
    no temporaries. The exchange builds one such table per pass and
    _certified_critical reads its interior rows on the first.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.empty((deg + 1,) + x.shape)
    rows = list(v)
    np.multiply(x, 0.0, out=rows[0])
    rows[0] += 1.0
    if deg > 0:
        x = np.add(x, 0.0, out=rows[1])
        x2 = 2.0 * x
        for i in range(2, deg + 1):
            np.multiply(rows[i - 1], x2, out=rows[i])
            rows[i] -= rows[i - 2]
    return v.transpose(*range(1, v.ndim), 0)


def chebyshev_extrema(n: int) -> np.ndarray:
    """The n + 1 extremal points of T_n on [-1, 1], increasing: -cos(i pi / n).

    Computed as the sine of the centred angle (2i - n) pi / 2n, so that the
    points are symmetric to the bit, with an exact 0 at even n. A fresh
    copy of the degree's cached points.
    """
    return _extrema(check_degree(n, 1)).copy()


@functools.cache
def _extrema(n: int) -> np.ndarray:
    """chebyshev_extrema of a checked degree, built once per degree and shared, so read-only."""
    x = np.sin((2 * np.arange(n + 1) - n) * np.pi / (2 * n))
    x.flags.writeable = False
    return x
