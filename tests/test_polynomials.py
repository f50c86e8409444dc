import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb
from numpy.polynomial import polynomial as npoly

from tdiscrim.designs import _monomial
from tdiscrim.polynomials import (
    ChebyshevSeries,
    _certified_critical,
    _colleague,
    _critical,
    _vander,
    chebyshev_extrema,
)


def chebyshev_t(n):
    """T_n as a Chebyshev series."""
    return ChebyshevSeries(np.eye(n + 1)[n])


def test_chebyshev_low_degrees_exact():
    # 1, x, x^2 = (T_0 + T_2) / 2, x^3 = (3 T_1 + T_3) / 4
    assert [_monomial(m, 4).tolist() for m in range(4)] == [[1.0, 0.0, 0.0, 0.0],
                                                            [0.0, 1.0, 0.0, 0.0],
                                                            [0.5, 0.0, 0.5, 0.0],
                                                            [0.0, 0.75, 0.0, 0.25]]


@pytest.mark.parametrize("n", range(1, 13))
def test_chebyshev_matches_cosine_form(n):
    x = np.linspace(-1.0, 1.0, 201)
    ref = np.cos(n * np.arccos(x))
    assert np.abs(chebyshev_t(n)(x) - ref).max() <= 1e-10


@pytest.mark.parametrize("n", range(1, 13))
def test_chebyshev_leading_coefficient(n):
    # x^n = 2^(1-n) T_n + lower terms, exactly
    assert _monomial(n, n + 1)[n] == 2.0 ** (1 - n)


def test_extrema_values():
    e = chebyshev_extrema(2)
    assert np.allclose(e, [-1.0, 0.0, 1.0], atol=1e-15)
    e = chebyshev_extrema(3)
    assert np.allclose(e, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)
    assert e[0] == -1.0 and e[-1] == 1.0


@pytest.mark.parametrize("n", range(1, 13))
def test_extrema_alternation(n):
    e = chebyshev_extrema(n)
    assert e.size == n + 1
    assert np.all(np.diff(e) > 0)
    vals = chebyshev_t(n)(e)
    expected = (-1.0) ** (n - np.arange(n + 1))
    assert np.abs(vals - expected).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 41))
def test_extrema_are_symmetric_to_the_bit(n):
    e = chebyshev_extrema(n)
    assert np.array_equal(e, -e[::-1])
    assert e[0] == -1.0 and e[-1] == 1.0
    if n % 2 == 0:
        assert e[n // 2] == 0.0


def test_eval_clenshaw():
    p = ChebyshevSeries(ncheb.poly2cheb([1.0, 0.0, 2.0]))
    assert p(3.0) == 19.0
    assert chebyshev_t(5)(1.0) == pytest.approx(1.0, abs=1e-14)
    assert abs(chebyshev_t(4)(np.cos(np.pi / 8))) <= 1e-12


def test_arithmetic_and_derivative():
    p = ChebyshevSeries([0.5, 0.0, 0.5])  # x^2
    q = ChebyshevSeries([1.0, 1.0])  # 1 + x
    assert (p - q).coeffs.tolist() == [-0.5, -1.0, 0.5]
    assert (p + q)(2.0) == 7.0
    assert p.deriv().coeffs.tolist() == [0.0, 2.0]
    assert ChebyshevSeries([3.0]).deriv().coeffs.tolist() == [0.0]
    assert p.degree == 2 and ChebyshevSeries([2.0, 0.0]).degree == 0


def test_validation():
    with pytest.raises(ValueError):
        ChebyshevSeries([])
    with pytest.raises(ValueError):
        ChebyshevSeries([[1.0, 2.0]])
    with pytest.raises(ValueError):
        chebyshev_extrema(0)


# The kernels above run on plain arrays; numpy.polynomial is their reference.
# Each must match it exactly, shape included: same operations, same order.
# Only the sum and difference keep the exactly zero trailing coefficients
# that numpy trims.

def reference_series():
    """Seeded coefficient arrays of degree 0..40, some ending in exact zeros."""
    rng = np.random.Generator(np.random.PCG64(2012))
    out = [np.zeros(1), np.zeros(4), np.array([-0.0, 0.0])]
    for deg in range(41):
        c = rng.normal(size=deg + 1) * rng.uniform(0.1, 10.0)
        out.append(c)
        tail = c.copy()
        tail[-min(3, c.size):] = 0.0
        out.append(tail)
        gaps = c.copy()
        gaps[::3] = 0.0
        out.append(gaps)
    return out


def same(ours, ref):
    return np.shape(ours) == np.shape(ref) and bool(np.array_equal(ours, ref))


def padded(ref, size):
    out = np.zeros(size)
    out[: ref.size] = ref
    return out


def test_evaluation_matches_chebval():
    x = np.linspace(-1.3, 1.1, 17)
    for c in reference_series():
        p = ChebyshevSeries(c)
        for arg in (0.37, -1.0, x, x.tolist(), tuple(x[:3]), x.reshape(1, -1)):
            assert same(p(arg), ncheb.chebval(arg, c))


def test_vander_matches_chebvander():
    # values and memory layout, so that every product taken with it agrees too
    rng = np.random.Generator(np.random.PCG64(2013))
    supports = [np.array([-1.0, -0.0, 0.0, 1.0]), np.sort(rng.uniform(-1.0, 1.0, 9)),
                rng.uniform(-1.0, 1.0, (3, 7))]
    for deg in range(42):
        for x in supports:
            ours, ref = _vander(x, deg), ncheb.chebvander(x, deg)
            assert same(ours, ref) and ours.strides == ref.strides
            c = rng.normal(size=deg + 1)
            assert np.array_equal(ours @ c, ref @ c)


def test_vander_takes_a_scalar_as_one_point():
    for deg in (0, 1, 5):
        ours, ref = _vander(0.3, deg), ncheb.chebvander(0.3, deg)
        assert same(ours, ref) and ours.shape == (1, deg + 1) and ours.strides == ref.strides


def test_colleague_skeletons_are_cached_read_only():
    mat, scl = _colleague(6)
    assert _colleague(6)[0] is mat
    assert not mat.flags.writeable and not scl.flags.writeable


def test_derivative_matches_chebder():
    for c in reference_series():
        assert same(ChebyshevSeries(c).deriv().coeffs, ncheb.chebder(c))


def test_sum_and_difference_match_polyadd_and_polysub():
    # coefficientwise, in any basis: chebadd and chebsub are these functions
    series = reference_series()
    rng = np.random.Generator(np.random.PCG64(7))
    for c in series:
        for d in (series[int(i)] for i in rng.integers(0, len(series), 4)):
            size = max(c.size, d.size)
            ours = (ChebyshevSeries(c) + ChebyshevSeries(d)).coeffs
            assert same(ours, padded(npoly.polyadd(c, d), size))
            assert same(ours, padded(ncheb.chebadd(c, d), size))
            ours = (ChebyshevSeries(c) - ChebyshevSeries(d)).coeffs
            assert same(ours, padded(npoly.polysub(c, d), size))
            assert same(ours, padded(ncheb.chebsub(c, d), size))
        assert not np.any((ChebyshevSeries(c) - ChebyshevSeries(c)).coeffs)


def test_chebyshev_matches_cheb2poly_of_basis_vector():
    # x^k in the Chebyshev basis is poly2cheb of the k-th basis vector,
    # which cheb2poly maps back to it exactly
    for n in range(41):
        for k in range(n + 1):
            e = np.eye(n + 1)[k]
            c = _monomial(k, n + 1)
            assert same(c, padded(ncheb.poly2cheb(e), n + 1))
            assert same(padded(ncheb.cheb2poly(c), n + 1), e)


class TestCertifiedCritical:
    """_certified_critical on series built by hand, where each of its conditions decides."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_the_root_left_out_is_the_root_sum_less_the_others(self, n):
        # psi' of T_n + T_(n-1) / 4 has n - 1 real roots inside (-1, 1); given
        # all but the middle one, the identity supplies it
        psi = ChebyshevSeries(np.eye(n + 1)[n] + np.eye(n + 1)[n - 1] / 4.0)
        roots = psi.critical_points()
        assert roots.size == n + 1
        inner = roots[1:-1]
        pts, vals = _certified_critical(psi, np.delete(inner, (n - 1) // 2))
        assert pts.size == n + 1
        assert np.abs(pts - roots).max() <= 1e-12
        assert np.abs(vals - psi(roots)).max() <= 1e-14 * np.abs(vals).max()

    def test_two_points_in_one_basin_are_refused(self):
        # both step to the root at -0.5 of T_3' = 12 x^2 - 3; their balls overlap
        assert _certified_critical(ChebyshevSeries([0.0, 0.0, 0.0, 1.0]),
                                   np.array([-0.51, -0.49])) is None

    def test_a_ball_across_an_endpoint_is_refused(self):
        # T_3 + a T_1 with a = -9.0006: psi' = 12 x^2 - 3 + a has its roots just
        # outside +-1, and a step from either end's neighbour would leave [-1, 1]
        psi = ChebyshevSeries([0.0, 3.0 - 12.0 * 1.00005 ** 2, 0.0, 1.0])
        for x in (-1.0 + 1e-4, 1.0 - 1e-4):
            assert _certified_critical(psi, np.array([x])) is None

    @pytest.mark.parametrize("n", [3, 8, 20, 40])
    def test_a_start_beyond_kantorovich_is_refused(self, n):
        # an eighth of the spacing off every critical point of T_n: one step
        # would not reach the roots to rounding
        inner = chebyshev_t(n).critical_points()[1:-1]
        assert _certified_critical(chebyshev_t(n), inner + np.diff(inner).min() / 8.0) is None

    def test_degrees_below_three_and_wrong_counts_are_refused(self):
        assert _certified_critical(chebyshev_t(2), np.array([0.0])) is None
        inner = chebyshev_t(5).critical_points()[1:-1]
        assert _certified_critical(chebyshev_t(5), inner) is not None
        assert _certified_critical(chebyshev_t(5), inner[1:]) is not None
        assert _certified_critical(chebyshev_t(5), inner[2:]) is None
        assert _certified_critical(ChebyshevSeries([0.0, 0.0, 1.0, 0.0]), inner[:2]) is None


def same_bits(a, b):
    """Two (points, values) pairs hold the same bytes."""
    return [x.tobytes() for x in a] == [y.tobytes() for y in b]


class TestCritical:
    """_critical, the one route to psi's critical points and its values there."""

    @staticmethod
    def series():
        """Random series at degrees 1..40, and T_n + T_(n-1) / 4 at n = 3..40."""
        rng = np.random.Generator(np.random.PCG64(42))
        out = [ChebyshevSeries(rng.normal(size=deg + 1)) for deg in range(1, 41)]
        out += [ChebyshevSeries(np.eye(n + 1)[n] + np.eye(n + 1)[n - 1] / 4.0)
                for n in range(3, 41)]
        return out

    def test_without_points_it_is_the_colleague_route(self):
        # the colleague roots, Clenshaw inside and coefficient sums at -1 and 1
        for psi in self.series():
            cand, vals = _critical(psi)
            assert cand.tobytes() == psi.critical_points().tobytes()
            assert vals[1:-1].tobytes() == psi(cand[1:-1]).tobytes()
            c = psi.coeffs.tolist()
            assert vals[0] == sum(c[::2]) - sum(c[1::2]) and vals[-1] == sum(c)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_certified_points_give_the_certified_step(self, n):
        # every interior critical point, and all but the middle one
        psi = ChebyshevSeries(np.eye(n + 1)[n] + np.eye(n + 1)[n - 1] / 4.0)
        inner = psi.critical_points()[1:-1]
        for points in (inner, np.delete(inner, (n - 1) // 2)):
            table = _vander(points, n)
            found = _certified_critical(psi, points)
            assert found is not None
            assert same_bits(_critical(psi, points), found)
            assert same_bits(_critical(psi, points, table), _certified_critical(psi, points, table))

    @pytest.mark.parametrize("n", [3, 8, 20, 40])
    def test_declined_points_fall_back(self, n):
        # too far from the roots, too few, and a degree below three
        inner = chebyshev_t(n).critical_points()[1:-1]
        for psi, points in [(chebyshev_t(n), inner + np.diff(inner).min() / 8.0),
                            (chebyshev_t(n), inner[2:]),
                            (chebyshev_t(2), np.array([0.0]))]:
            assert _certified_critical(psi, points) is None
            assert same_bits(_critical(psi, points), _critical(psi))
            assert same_bits(_critical(psi, points, _vander(points, psi.coeffs.size - 1)),
                             _critical(psi))
