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
root finder takes a stack of derivative rows, so that an exchange over
many references of one degree makes one eigenvalue call; one series is a
stack of one row. Its per-row work is what numpy's dispatch would
dominate, so it runs over Python floats, keeping numpy's NaN semantics:
the cut of trailing coefficients. The stacked work stays in numpy: each
size's colleague entries, built once and cached read-only, are copied
into one preallocated stack, and the real roots inside [-1, 1] are
masked for the whole stack at once.
"""

from __future__ import annotations

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
        c = self.coeffs.tolist()
        n = len(c) - 1
        if n == 0:
            return ChebyshevSeries(self.coeffs[:1] * 0)
        der = [0.0] * n
        for j in range(n, 2, -1):
            der[j - 1] = (2 * j) * c[j]
            c[j - 2] += (j * c[j]) / (j - 2)
        if n > 1:
            der[1] = 4 * c[2]
        der[0] = c[1]
        return ChebyshevSeries(np.array(der))

    def critical_points(self) -> np.ndarray:
        """Endpoints plus the real roots of p' inside [-1, 1], sorted; see _critical_points."""
        return _critical_points([self.deriv().coeffs])[0]

    def __neg__(self) -> "ChebyshevSeries":
        return ChebyshevSeries(-self.coeffs)

    def __add__(self, other: "ChebyshevSeries") -> "ChebyshevSeries":
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        out = b.copy()
        out[: a.size] += a
        return ChebyshevSeries(out)

    def __sub__(self, other: "ChebyshevSeries") -> "ChebyshevSeries":
        return self + (-other)


def _critical_points(derivs) -> list[np.ndarray]:
    """critical_points of a stack of series, from the coefficient rows of their derivatives.

    The roots are the eigenvalues of the colleague matrix of each row,
    rotated as numpy's chebroots rotates it. Trailing coefficients of a row
    up to 1e-14 of its largest are cut first: they move the roots inside
    [-1, 1] by rounding only, and left in they overflow the matrix. A row
    holding a NaN is cut to its constant term, as numpy's NaN-propagating
    max would cut it. Rows cut to one length share one eigvals call, which
    runs LAPACK's routine on each matrix of the stack as on a single one.
    Roots within 1e-9 of the real axis count as real, and those within
    1e-12 outside [-1, 1] as endpoint roots.
    """
    # the cut over Python floats: at these sizes numpy's reductions cost more
    cut = []
    for d in derivs:
        mags = [abs(v) for v in d.tolist()]
        total = sum(mags)
        # max skips a NaN that is not first; the sum of magnitudes keeps it
        tol = 1e-14 * max(mags) if total == total else math.nan
        size = len(mags)
        while size > 1 and not mags[size - 1] > tol:
            size -= 1
        cut.append(d[:size])
    roots = [np.empty(0)] * len(cut)
    for m in {d.size - 1 for d in cut} - {0}:
        rows = [i for i, d in enumerate(cut) if d.size - 1 == m]
        d = np.array([cut[i] for i in rows])
        if m == 1:
            found = -d[:, :1] / d[:, 1:]
        else:
            skeleton, scl = _colleague(m)
            # each row of mat is a colleague matrix flattened row by row
            mat = np.empty((len(rows), m * m))
            mat[:] = skeleton
            mat[:, m - 1 :: m] -= (d[:, :-1] / d[:, -1:]) * scl * 0.5
            # reversing a flattened matrix reverses both its axes
            found = np.linalg.eigvals(mat[:, ::-1].reshape(-1, m, m))
        real = found.real
        keep = (np.abs(found.imag) <= 1e-9) & (real >= -1.0 - 1e-12) & (real <= 1.0 + 1e-12)
        real = real.clip(-1.0, 1.0)
        for i, r, k in zip(rows, real, keep):
            roots[i] = r[k]
    out = []
    for r in roots:
        pts = np.concatenate(([-1.0, 1.0], r))
        # np.unique's sort and first-of-each-run mask, without its dispatch
        pts.sort()
        first = np.empty(pts.size, dtype=bool)
        first[0] = True
        np.not_equal(pts[1:], pts[:-1], out=first[1:])
        out.append(pts[first])
    return out


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
    """T_0..T_deg at x, along a new last axis: chebvander's recurrence for x of any shape.

    The same operations in the same order as numpy's chebvander, on the
    same memory layout, so the matrix and every product taken with it agree
    bit for bit, without its per-call coercion. Adding 0.0 turns -0.0 into
    0.0, as chebvander does.
    """
    x = np.asarray(x, dtype=float) + 0.0
    v = np.empty((deg + 1,) + x.shape)
    v[0] = x * 0 + 1
    if deg > 0:
        x2 = 2 * x
        v[1] = x
        for i in range(2, deg + 1):
            v[i] = v[i - 1] * x2 - v[i - 2]
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
