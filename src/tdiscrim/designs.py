"""Finitely supported probability measures on [-1, 1] and the discrimination criterion.

A design is a finite set of support points with positive weights summing to
one. For the model pair of degrees n and n - 2 the criterion value of a
design is the weighted squared distance, on the support, between the fixed
highest-degree part of the larger model and the span of T_0, ..., T_(n-2).

_residual is the one place that picks how a design's own residual is
found: T(xi), psi_xi and the weighted residuals w_i psi_xi(x_i) at the
support. On n or n + 1 support points all three come from the dual of the
fit (_dual), built on the divided-difference weights lambda_i (Berrut &
Trefethen, SIAM Review 46, 2004), with no fit. On exactly n points, as
every optimal design past b = 0 has, the residual space is
one-dimensional: with dd the (n-1)-th divided difference of the fixed
part, T = dd^2 / sum lambda_i^2 / w_i, and psi_xi is a_n omega + L, omega
the node polynomial and L the interpolant of the residuals (_dual_series).
On n + 1 points, as every interior member of the b = 0 family has, it is
two-dimensional, w_i psi_i = lambda_i (c1 (x_i - m) + c0): a weighted
straight-line fit in x whose right-hand sides are two exact divided
differences of the fixed part, so that T = dd^2 / V + a_n^2 / U and psi_xi
is the interpolant alone. Either way psi_xi is turned into Chebyshev
coefficients by one cached cosine matrix (_cosines). The dual keeps T
within a few ulps and psi_xi near machine precision where a least-squares
residual of a non-optimal design can lose every digit: against a 50-digit
fit at n = 5..40 on n + 1 points, T is within 1.1e-15 and psi_xi within
4.2e-14 of its sup, where the fit missed T by up to 7e-4. t_criterion
makes the same choice for T alone, building no psi_xi.

Other support sizes keep plain weighted least squares (_fit). Modulo the
span the fixed part is its top two Chebyshev terms,
x^n + b x^(n-1) = 2^(1-n) (T_n + 2b T_(n-1)), so the residual is formed
without the cancellation a monomial fit suffers at high degree. Each
monomial's series comes from its closed form (_monomial), exact in floats.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import _numbers, check_degree, check_ratio
from .polynomials import ChebyshevSeries, _vander

POINT_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12


@dataclass
class Design:
    """Probability measure with finite support in [-1, 1].

    points must be strictly increasing; weights positive and summing to one
    within WEIGHT_SUM_TOL. Construction validates, it never repairs.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts, wts = _numbers(self.points), _numbers(self.weights)
        # a scalar is a one-point support; every check after the shapes reads
        # the Python floats, as at these sizes builtins beat numpy's calls
        if pts.ndim == 0:
            pts = pts.reshape(1)
        if wts.ndim == 0:
            wts = wts.reshape(1)
        if pts.ndim != 1 or wts.ndim != 1:
            raise ValueError("points and weights must be one-dimensional")
        if pts.size == 0 or pts.size != wts.size:
            raise ValueError("points and weights must be non-empty and equally long")
        p, w = pts.tolist(), wts.tolist()
        if not all(map(math.isfinite, p + w)):
            raise ValueError("points and weights must be finite")
        if min(p) < -1.0 - POINT_TOL or max(p) > 1.0 + POINT_TOL:
            raise ValueError("support points must lie in [-1, 1]")
        if any(map(operator.ge, p, p[1:])):
            raise ValueError("support points must be strictly increasing")
        if min(w) <= 0.0:
            raise ValueError("weights must be positive")
        s = math.fsum(w)
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to one (got {s!r})")
        self.points = pts
        self.weights = wts

    @property
    def support_size(self) -> int:
        return int(self.points.size)

    def reflected(self) -> "Design":
        """The mirror design x -> -x.

        Mirrored as 0.0 - x, which keeps an exact 0 at +0.0, so that a
        design symmetric to the bit is its own mirror to the bit.
        """
        return Design(0.0 - self.points[::-1], self.weights[::-1].copy())

    def to_json(self) -> str:
        return json.dumps(
            {"points": self.points.tolist(), "weights": self.weights.tolist()}
        )

    @classmethod
    def from_json(cls, source) -> "Design":
        """Parse a design from a JSON string or already-decoded mapping.

        Extra keys are ignored so that annotated CLI outputs round-trip.
        """
        obj = json.loads(source) if isinstance(source, (str, bytes)) else source
        if not isinstance(obj, dict) or "points" not in obj or "weights" not in obj:
            raise ValueError("design JSON must be an object with points and weights")
        return cls(obj["points"], obj["weights"])

    def to_csv(self) -> str:
        # repr of a float is the shortest string that round-trips the bits
        lines = ["point,weight"]
        for x, w in zip(self.points, self.weights):
            lines.append(f"{float(x)!r},{float(w)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str | bytes) -> "Design":
        """Parse a design from CSV text, str or UTF-8 bytes, with an optional point,weight header.

        Bytes that are not UTF-8, and input that is neither, raise ValueError,
        as from_json's do.
        """
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        if not isinstance(text, str):
            raise ValueError("design CSV must be str or UTF-8 bytes")
        rows = [r for r in csv.reader(io.StringIO(text)) if r and r[0].strip()]
        if rows and rows[0] and rows[0][0].strip().lower() == "point":
            rows = rows[1:]
        if not rows:
            raise ValueError("no design rows in CSV")
        if any(len(r) < 2 for r in rows):
            raise ValueError("every design row in CSV needs a point and a weight")
        pts = np.array([float(r[0]) for r in rows])
        wts = np.array([float(r[1]) for r in rows])
        return cls(pts, wts)


@dataclass
class DiscriminationProblem:
    """Model pair x^n vs degree n - 2, with the two leading terms fixed.

    Exactly one of b (coefficient of x^(n-1), monic x^n) and bbar (coefficient
    of x^n, unit x^(n-1)) must be given; the two parametrizations cover small
    and large ratios respectively. Either must be finite, and so must its
    square, since criterion values grow like it.
    """

    n: int
    b: float | None = None
    bbar: float | None = None

    def __post_init__(self) -> None:
        self.n = check_degree(self.n, 2)
        if (self.b is None) == (self.bbar is None):
            raise ValueError("exactly one of b and bbar must be given")
        name = "b" if self.bbar is None else "bbar"
        x = check_ratio(getattr(self, name), name, finite=True)
        if not math.isfinite(x * x):
            raise ValueError(f"{name} = {x!r} is too large: its square overflows")
        setattr(self, name, x)

    def fixed_part(self) -> ChebyshevSeries:
        """The non-fittable part: x^n + b x^(n-1) or x^(n-1) + bbar x^n."""
        hi, lo = _monomial(self.n, self.n + 1), _monomial(self.n - 1, self.n + 1)
        if self.b is not None:
            return ChebyshevSeries(hi + self.b * lo)
        return ChebyshevSeries(self.bbar * hi + lo)


@functools.cache
def _monomial(m: int, size: int) -> np.ndarray:
    """The Chebyshev coefficients of x^m, zero-padded to size > m.

    x^m = 2^(1-m) sum_k C(m, k) T_(m-2k), the T_0 term halved: binomial
    coefficients times powers of two, exact while C(m, m // 2) < 2^53.
    Built once per (m, size) and shared, so it is read-only; callers
    combine it into fresh arrays.
    """
    c = np.zeros(size)
    c[m::-2] = [math.comb(m, k) * 2.0 ** (1 - m) for k in range(m // 2 + 1)]
    c[0] *= 0.5
    c.flags.writeable = False
    return c


def _fit(design: Design, problem: DiscriminationProblem):
    """Weighted least squares of the fixed part against T_0..T_(n-2) on the support.

    Only the top two Chebyshev terms of the fixed part lie outside the span,
    so only they are fitted; rows are scaled by the root weights. lstsq
    returns the minimum-norm minimizer, so designs with fewer than n - 1
    support points are fitted exactly. Returns the fixed part's coefficients,
    the fitted coefficients and the root-weighted residuals.
    """
    n = problem.n
    g = problem.fixed_part().coeffs
    v = _vander(design.points, n)
    sw = np.sqrt(design.weights)
    a = sw[:, None] * v[:, : n - 1]
    y = sw * (v[:, n - 1 :] @ g[n - 1 :])
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    return g, coef, y - a @ coef


def _gaps(x: np.ndarray) -> np.ndarray:
    """The matrix x_i - x_j with ones on its diagonal: row i's product is 1 / lambda_i.

    x is one support or a (k, n) stack of them, which gives a (k, n, n)
    stack of such matrices, one per support.
    """
    n = x.shape[-1]
    gaps = x[..., :, None] - x[..., None, :]
    gaps.reshape(-1, n * n)[:, :: n + 1] = 1.0
    return gaps


def _dual(design: Design, problem: DiscriminationProblem):
    """The dual of the fit on n or n + 1 support points: (T, dd, shares, wpsi).

    The divided-difference weights lambda_i = 1 / prod_(j != i) (x_i - x_j)
    annihilate every polynomial of degree below the support size less one,
    and wpsi_i = w_i psi_i lies in their span. dd is one exact sum
    (math.fsum), the top divided difference of (x - m) f, f the fixed part:
    sum x_i - m + b, or 1 + bbar (sum x_i - m), m being 0 on n points. There
    the span is lambda itself: with S = sum_i lambda_i^2 / w_i, psi_i =
    dd lambda_i / (w_i S) and T = dd^2 / S; shares is
    share_i = lambda_i^2 / (w_i S), nonnegative and summing to one.

    On n + 1 points it is lambda and lambda x: wpsi_i = lambda_i
    (c1 (x_i - m) + c0), a straight-line fit in x with weights
    u_i = lambda_i^2 / w_i whose right-hand sides are the n-th divided
    differences of x f and f: (sum x_i + b, 1), or (1 + bbar sum x_i, bbar),
    the second being a_n. Centred at m = sum u x / U, U = sum u, the two
    vectors are u-orthogonal, the first right-hand side less a_n m being dd,
    so with V = sum u (x - m)^2, T = dd^2 / V + a_n^2 / U, c1 = dd / V and
    c0 = a_n / U. x_i - m is lo_i - hi_i, lo_i and hi_i being the sums of
    (u_k / U) |x_i - x_k| over the points below and above x_i: exact gaps
    and nonnegative terms, so no digit of a close pair's offsets is lost to
    the rounding of m. shares is (u / U, lo, hi). A support so clustered
    that some u_i / U falls below the normal float range, whose digits V is
    made of, is left to the fit (None is returned), as is a support of any
    other size.

    lambda_i comes from plain products of gaps when the smallest gap and
    weight bound every lambda_i^2 / w_i well inside the float range. Else
    each lambda_i^2 / w_i is held in log space, base 2: a mantissa from
    frexp and an exact integer exponent, so that no product of gaps, weight
    or dd^2 overflows or underflows on the way and T loses no digit to an
    exponential; a clustered support is valid input and warns of nothing.
    """
    x, w = design.points, design.weights
    size = x.size
    if not 0 <= size - problem.n <= 1:
        return None
    xs = x.tolist()
    gaps = _gaps(x)
    # |prod of gaps| >= gmin^(size-1): here each lambda_i^2 / w_i < 2^994, and S < 2^1000
    plain = (min(map(operator.sub, xs[1:], xs)) ** (2 * size - 2) * min(w.tolist())
             > 2.0**-994)
    if plain:
        lam = 1.0 / gaps.prod(axis=1)
        lw = lam / w
        s = float(lam @ lw)
        share = lam * lw / s
    else:
        mg, eg = np.frexp(gaps)
        mw, ew = np.frexp(w)
        mant = mg.prod(axis=1)
        e = eg.sum(axis=1)
        # lambda_i^2 / w_i = 2^-k_i / (mant_i^2 mw_i), summed from the largest power of two
        k = 2 * e + ew
        k0 = int(k.min())
        share = np.ldexp(1.0 / (mant * mant * mw), k0 - k)
        s = float(share.sum())
        share /= s
    # at a close pair V / U comes from the smallest shares: a subnormal one lost its digits
    if size > problem.n and min(share.tolist()) < 2.0**-1022:
        return None
    # one divided difference: on n + 1 points the centre m = sum u x / U is one more term
    terms = xs if size == problem.n else [*xs, -float(share @ x)]
    if problem.b is not None:
        dd = math.fsum([*terms, problem.b])
    else:
        dd = 1.0 + problem.bbar * math.fsum(terms)
    if size == problem.n:
        shares, y, r = share, dd, abs(dd)
    else:
        a_n = 1.0 if problem.b is not None else problem.bbar
        # lo_i = sum_(k < i) (u_k / U) (x_i - x_k), hi_i = sum_(k > i) (u_k / U) (x_k - x_i)
        below = np.maximum(gaps, 0.0)
        below.reshape(-1)[:: size + 1] = 0.0
        lo, hi = below @ share, share @ below
        dev = lo - hi
        v = float((share * dev) @ dev)
        shares = (share, lo, hi)
        y = (dd / v) * dev + a_n
        r = math.hypot(dd / math.sqrt(v), a_n)
    # wpsi_i = y_i lambda_i / S and T = r^2 / S, S = sum_i lambda_i^2 / w_i
    if plain:
        return r * (r / s), dd, shares, (y / s) * lam
    # y lambda_i / S = y 2^(k0 - e_i) / (s mant_i)
    wpsi = np.ldexp(y / (s * mant), k0 - e)
    # T is r^2 2^k0 / s; with k0 even, the square comes last
    if k0 % 2:
        s, k0 = 2.0 * s, k0 + 1
    root = math.ldexp(r / math.sqrt(s), k0 // 2)
    return root * root, dd, shares, wpsi


@functools.cache
def _cosines(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles of the n + 1 Chebyshev points of the first kind, and the cosine matrix.

    The points are cos(theta). The matrix takes a polynomial's values at
    them to its Chebyshev coefficients on T_0..T_n, exactly for degree up
    to n (discrete orthogonality). Built once per degree and shared, so
    both are read-only.
    """
    theta = (2 * np.arange(n + 1) + 1) * (np.pi / (2 * n + 2))
    m = np.cos(np.arange(n + 1)[:, None] * theta) * (2.0 / (n + 1))
    m[0] *= 0.5
    theta.flags.writeable = m.flags.writeable = False
    return theta, m


def _dual_series(x: np.ndarray, problem: DiscriminationProblem, dd: float,
                 shares) -> ChebyshevSeries:
    """psi_xi on the support x from its dual (_dual's dd and shares).

    On n points psi_xi is a_n omega + L: omega(t) = prod (t - x_i), and
    L(t) = dd sum_i share_i prod_(j != i) (t - x_j) interpolates psi_i at
    x_i, since lambda_i psi_i = dd share_i; a_n is 1, or bbar. On n + 1
    points it is the interpolant alone, lambda_i psi_i = u_i (c1 (x_i - m)
    + c0). Its c0 part is a_n sum_i (u_i / U) prod_(j != i) (t - x_j). Its
    c1 part, whose terms at a close pair would cancel, is summed over
    adjacent pairs instead: sum_i u_i (x_i - m) prod_(j != i) (t - x_j) is
    sum_i q_i prod_(j != i, i + 1) (t - x_j), with
    q_i = (x_(i+1) - x_i) (L_i hi_i + R_i lo_i) U and L_i and R_i the sums
    of u / U up to x_i and beyond it, nonnegative, and sum_i q_i = V. All
    are sampled at the Chebyshev points of the first kind from prefix and
    suffix products of t - x_j, with no division, and the samples are
    turned into the coefficients of T_0..T_(n-2) by the first n - 1 rows of
    one cosine matrix; the top two are the fixed part's own.
    """
    n = problem.n
    theta, m = _cosines(n)
    d = np.cos(theta)[:, None] - x
    pre = d.cumprod(axis=1)
    suf = d[:, ::-1].cumprod(axis=1)[:, ::-1]
    others = np.ones_like(d)
    others[:, 1:] = pre[:, :-1]
    others[:, :-1] *= suf[:, 1:]
    a_n = 1.0 if problem.b is not None else problem.bbar
    if x.size == n:
        samples = a_n * pre[:, -1] + dd * (others @ shares)
    else:
        share, lo, hi = shares
        left = share.cumsum()[:-1]
        right = share[::-1].cumsum()[-2::-1]
        q = (x[1:] - x[:-1]) * (left * hi[:-1] + right * lo[:-1])
        pairs = np.ones((n + 1, n))
        pairs[:, 1:] = pre[:, :-2]
        pairs[:, :-1] *= suf[:, 2:]
        samples = a_n * (others @ share) + dd * ((pairs @ q) / q.sum())
    low = m[: n - 1] @ samples
    return ChebyshevSeries(np.concatenate([low, problem.fixed_part().coeffs[n - 1 :]]))


def _residual(design: Design, problem: DiscriminationProblem):
    """The design's own residual: (T, psi_xi, w_i psi_xi(x_i)).

    The one place that chooses the route. On n or n + 1 support points all
    three come from the dual (_dual, _dual_series). On any other support,
    or one the dual leaves to the fit, psi_xi is the fixed part's top two
    Chebyshev terms less _fit's coefficients, since subtracting the whole
    fit from the whole fixed part cancels nearly all of psi at high degree;
    T is the sum of squared root-weighted residuals, and w_i psi_xi(x_i)
    each of them times its root weight. On fewer than n points the fit
    interpolates, so T is exactly 0.0, not the rounding noise of that sum.
    """
    dual = _dual(design, problem)
    if dual is not None:
        criterion, dd, shares, wpsi = dual
        return criterion, _dual_series(design.points, problem, dd, shares), wpsi
    n = problem.n
    g, coef, res = _fit(design, problem)
    psi = ChebyshevSeries(np.concatenate([-coef, g[n - 1 :]]))
    criterion = float(res @ res) if design.support_size >= n else 0.0
    return criterion, psi, np.sqrt(design.weights) * res


def error_polynomial(design: Design, problem: DiscriminationProblem) -> ChebyshevSeries:
    """psi_xi: the fixed part less its nearest polynomial of degree n - 2 in the design's norm.

    sum_i w_i psi_xi(x_i)^2 is the criterion value. Built by _residual: from
    the dual on n or n + 1 support points, from _fit on any other support.
    """
    return _residual(design, problem)[1]


def t_criterion(design: Design, problem: DiscriminationProblem) -> float:
    """Criterion value: weighted squared deviation of the fixed part from its best fit.

    On n or n + 1 support points the value comes from the dual (_dual):
    dd^2 / sum_i lambda_i^2 / w_i on n, dd^2 / V + a_n^2 / U on n + 1. On
    fewer than n points the support can be interpolated and the value is
    exactly 0.0, with no fit. On more than n + 1 points, or a support the
    dual leaves to the fit, it is the explicit sum of squared root-weighted
    residuals of _fit, nonnegative by construction.
    """
    if design.support_size < problem.n:
        return 0.0
    dual = _dual(design, problem)
    if dual is not None:
        return dual[0]
    res = _fit(design, problem)[2]
    return float(res @ res)
