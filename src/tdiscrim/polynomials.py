"""Monomial-basis polynomials, Chebyshev construction, affine composition.

Everything works on dense coefficient arrays indexed by power, which is all
the small degrees used here (n <= 12 or so) ever need. The kernels act on
plain arrays: at these sizes numpy.polynomial's per-call coercion costs more
than the arithmetic. Each one performs the floating-point operations of its
numpy.polynomial.polynomial counterpart in the same order, so results agree
bit for bit; the tests hold them to that reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_degree

# Trailing coefficients at or below this magnitude are treated as roundoff
# when reporting the degree; affine composition and basis changes leave
# tails of this size on exact cancellations.
DEGREE_TRIM = 1e-12


def _trimseq(c: np.ndarray) -> np.ndarray:
    """c without its exactly zero trailing entries, keeping at least one."""
    if c[-1] != 0:
        return c
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1] if nz.size else c[:1]


def trim_tail(c: np.ndarray, tol: float) -> np.ndarray:
    """Copy of c without the trailing entries of magnitude at most tol.

    The zero series [0] when every entry is that small.
    """
    nz = np.flatnonzero(np.abs(c) > tol)
    return c[: nz[-1] + 1].copy() if nz.size else c[:1] * 0


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _trimseq(a), _trimseq(b)
    if a.size > b.size:
        out = a.copy()
        out[: b.size] += b
    else:
        out = b.copy()
        out[: a.size] += a
    return _trimseq(out)


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _trimseq(a), _trimseq(b)
    if a.size > b.size:
        out = a.copy()
        out[: b.size] -= b
    else:
        out = -b
        out[: a.size] += a
    return _trimseq(out)


@dataclass
class Polynomial:
    """Real polynomial p(x) = sum_i coeffs[i] * x**i."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = c

    @property
    def degree(self) -> int:
        """Degree after ignoring roundoff-sized trailing coefficients."""
        nz = np.nonzero(np.abs(self.coeffs) > DEGREE_TRIM)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, x):
        """Horner's rule, elementwise over array x."""
        if isinstance(x, (tuple, list)):
            x = np.asarray(x)
        c = self.coeffs
        out = c[-1] + x * 0
        for coef in c[-2::-1]:
            out = coef + out * x
        return out

    def deriv(self) -> "Polynomial":
        c = self.coeffs
        if c.size == 1:
            return Polynomial(np.zeros(1))
        return Polynomial(c[1:] * np.arange(1, c.size))

    def trimmed(self) -> "Polynomial":
        return Polynomial(trim_tail(self.coeffs, DEGREE_TRIM))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)

    def __add__(self, other) -> "Polynomial":
        return Polynomial(_add(self.coeffs, _coerce(other).coeffs))

    def __sub__(self, other) -> "Polynomial":
        return Polynomial(_sub(self.coeffs, _coerce(other).coeffs))

    def __mul__(self, other) -> "Polynomial":
        if np.isscalar(other):
            return Polynomial(self.coeffs * float(other))
        other = _coerce(other)
        return Polynomial(
            _trimseq(np.convolve(_trimseq(self.coeffs), _trimseq(other.coeffs)))
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.trimmed().coeffs, other.trimmed().coeffs
        return a.shape == b.shape and bool(np.array_equal(a, b))


def _coerce(p) -> Polynomial:
    if isinstance(p, Polynomial):
        return p
    if np.isscalar(p):
        return Polynomial(np.array([float(p)]))
    return Polynomial(p)


def chebyshev_t(n: int) -> Polynomial:
    """Chebyshev polynomial of the first kind, expanded in the monomial basis.

    Built by the three-term recurrence; for the degrees used here every
    coefficient is an exactly representable integer.
    """
    n = check_degree(n, 0)
    if n == 0:
        return Polynomial(np.array([1.0]))
    prev = np.array([1.0])
    cur = np.array([0.0, 1.0])
    for _ in range(n - 1):
        nxt = np.concatenate(([0.0], 2.0 * cur))
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return Polynomial(cur)


def chebyshev_to_monomial(c: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the Chebyshev series sum_i c[i] T_i.

    numpy's cheb2poly recurrence, run on the trimmed series.
    """
    c = _trimseq(np.asarray(c, dtype=float))
    if c.size < 3:
        return c.copy()
    c0, c1 = c[-2:-1], c[-1:]
    for i in range(c.size - 1, 1, -1):
        c0, c1 = _sub(c[i - 2 : i - 1], c1), _add(c0, _mulx(c1) * 2)
    return _add(c0, _mulx(c1))


def _mulx(c: np.ndarray) -> np.ndarray:
    """x times the series c."""
    c = _trimseq(c)
    if c.size == 1 and c[0] == 0:
        return c
    out = np.empty(c.size + 1)
    out[0] = c[0] * 0
    out[1:] = c
    return out


def chebyshev_extrema(n: int) -> np.ndarray:
    """The n + 1 extremal points of T_n on [-1, 1], increasing: -cos(i pi / n)."""
    n = check_degree(n, 1)
    return -np.cos(np.arange(n + 1) * np.pi / n)


def compose_affine(p: Polynomial, a: float, c: float) -> Polynomial:
    """Expand p(a x + c) in the monomial basis (Horner over the affine map)."""
    if a == 0:
        raise ValueError("degenerate affine map: a must be nonzero")
    lin = np.array([float(c), float(a)])
    out = p.coeffs[-1:].copy()
    for coef in p.coeffs[-2::-1]:
        out = _trimseq(np.convolve(out, lin))
        out[0] += coef
        out = _trimseq(out)
    return Polynomial(out)
