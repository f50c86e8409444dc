import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb
from numpy.polynomial import polynomial as npoly

from tdiscrim.polynomials import (
    Polynomial,
    chebyshev_extrema,
    chebyshev_t,
    chebyshev_to_monomial,
    compose_affine,
)


def test_chebyshev_low_degrees_exact():
    assert chebyshev_t(0).coeffs.tolist() == [1.0]
    assert chebyshev_t(1).coeffs.tolist() == [0.0, 1.0]
    assert chebyshev_t(2).coeffs.tolist() == [-1.0, 0.0, 2.0]
    assert chebyshev_t(3).coeffs.tolist() == [0.0, -3.0, 0.0, 4.0]


@pytest.mark.parametrize("n", range(1, 13))
def test_chebyshev_matches_cosine_form(n):
    x = np.linspace(-1.0, 1.0, 201)
    ref = np.cos(n * np.arccos(x))
    assert np.abs(chebyshev_t(n)(x) - ref).max() <= 1e-10


@pytest.mark.parametrize("n", range(1, 13))
def test_chebyshev_leading_coefficient(n):
    # 2^(n-1) exactly; the recurrence only doubles and subtracts integers
    assert chebyshev_t(n).coeffs[-1] == 2.0 ** (n - 1)


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


def test_eval_horner():
    p = Polynomial([1.0, 0.0, 2.0])
    assert p(3.0) == 19.0
    assert chebyshev_t(5)(1.0) == pytest.approx(1.0, abs=1e-14)
    assert abs(chebyshev_t(4)(np.cos(np.pi / 8))) <= 1e-12


def test_compose_affine_examples():
    t2 = chebyshev_t(2)
    flipped = compose_affine(t2, -1.0, 0.0)
    assert np.allclose(flipped.coeffs, t2.coeffs, atol=1e-15)
    p = compose_affine(chebyshev_t(1), 2.0, 1.0)
    assert p.coeffs.tolist() == [1.0, 2.0]
    q = compose_affine(chebyshev_t(3), -1.0, 0.0)
    assert np.allclose(q.coeffs, [0.0, 3.0, 0.0, -4.0], atol=1e-15)


def test_compose_affine_matches_pointwise():
    rng = np.random.Generator(np.random.PCG64(42))
    x = np.linspace(-1.0, 1.0, 37)
    for _ in range(25):
        deg = int(rng.integers(0, 9))
        p = Polynomial(rng.normal(size=deg + 1))
        a = float(rng.uniform(-2.0, 2.0)) or 1.0
        c = float(rng.uniform(-1.0, 1.0))
        composed = compose_affine(p, a, c)
        assert np.abs(composed(x) - p(a * x + c)).max() <= 1e-12 * (
            1.0 + np.abs(p.coeffs).max()
        )


def test_compose_affine_rejects_constant_map():
    with pytest.raises(ValueError):
        compose_affine(chebyshev_t(3), 0.0, 0.5)


def test_compose_affine_preserves_degree():
    p = Polynomial([1.0, -2.0, 0.0, 5.0])
    assert compose_affine(p, 0.5, 0.25).degree == p.degree


def test_degree_trims_roundoff():
    p = Polynomial([1.0, 1.0, 1e-15])
    assert p.degree == 1
    assert Polynomial([0.0]).degree == 0


def test_product_degree_adds():
    p = Polynomial([1.0, 2.0, 3.0])
    q = Polynomial([-1.0, 4.0])
    assert (p * q).degree == 3
    assert (2.0 * p).coeffs.tolist() == [2.0, 4.0, 6.0]


def test_arithmetic_and_derivative():
    p = Polynomial([0.0, 0.0, 1.0])
    q = Polynomial([1.0, 1.0])
    assert (p - q).coeffs.tolist() == [-1.0, -1.0, 1.0]
    assert (p + q)(2.0) == 7.0
    assert p.deriv().coeffs.tolist() == [0.0, 2.0]
    assert Polynomial([3.0]).deriv().coeffs.tolist() == [0.0]


def test_validation():
    with pytest.raises(ValueError):
        Polynomial([])
    with pytest.raises(ValueError):
        Polynomial([1.0, np.nan])
    with pytest.raises(ValueError):
        chebyshev_t(-1)
    with pytest.raises(ValueError):
        chebyshev_extrema(0)


# The kernels above run on plain arrays; numpy.polynomial is their reference.
# Each must match it exactly, shape included: same operations, same order.

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


def test_evaluation_matches_polyval():
    x = np.linspace(-1.3, 1.1, 17)
    for c in reference_series():
        p = Polynomial(c)
        for arg in (0.37, -1.0, x, x.tolist(), tuple(x[:3]), x.reshape(1, -1)):
            assert same(p(arg), npoly.polyval(arg, c))
        assert type(p(0.37)) is type(npoly.polyval(0.37, c))


def test_derivative_matches_polyder():
    for c in reference_series():
        assert same(Polynomial(c).deriv().coeffs, npoly.polyder(c))


def test_sum_and_difference_match_polyadd_and_polysub():
    series = reference_series()
    rng = np.random.Generator(np.random.PCG64(7))
    for c in series:
        for d in (series[int(i)] for i in rng.integers(0, len(series), 4)):
            assert same((Polynomial(c) + Polynomial(d)).coeffs, npoly.polyadd(c, d))
            assert same((Polynomial(c) - Polynomial(d)).coeffs, npoly.polysub(c, d))
        # leading terms cancel: the result is trimmed as numpy trims it
        assert same((Polynomial(c) - Polynomial(c)).coeffs, npoly.polysub(c, c))
        assert same((Polynomial(c) + Polynomial(-c)).coeffs, npoly.polyadd(c, -c))


def test_product_and_trim_match_polymul_and_polytrim():
    series = reference_series()
    for c, d in zip(series, series[::-1]):
        assert same((Polynomial(c) * Polynomial(d)).coeffs, npoly.polymul(c, d))
        rough = c + 1e-13 * (np.arange(c.size) % 2)
        assert same(Polynomial(rough).trimmed().coeffs,
                    npoly.polytrim(rough, tol=1e-12))
    # a trailing coefficient exactly at the cut is trimmed
    edge = np.array([1.0, 2.0, 1e-12])
    assert same(Polynomial(edge).trimmed().coeffs, npoly.polytrim(edge, tol=1e-12))


def test_chebyshev_matches_cheb2poly_of_basis_vector():
    for n in range(41):
        assert same(chebyshev_t(n).coeffs, ncheb.cheb2poly(np.eye(n + 1)[n]))


def test_chebyshev_series_conversion_matches_cheb2poly():
    for c in reference_series():
        assert same(chebyshev_to_monomial(c), ncheb.cheb2poly(c))


def compose_affine_reference(c, a, shift):
    """p(a x + shift) by numpy.polynomial's polymul/polyadd Horner loop."""
    lin = np.array([shift, a])
    out = np.array([c[-1]])
    for coef in c[-2::-1]:
        out = npoly.polyadd(npoly.polymul(out, lin), np.array([coef]))
    return out


def test_compose_affine_matches_polymul_polyadd_loop():
    rng = np.random.Generator(np.random.PCG64(11))
    for c in reference_series():
        for a, shift in ((-1.0, 0.0), (float(rng.uniform(-2.0, 2.0)),
                                       float(rng.uniform(-1.0, 1.0)))):
            assert same(compose_affine(Polynomial(c), a, shift).coeffs,
                        compose_affine_reference(c, a, shift))
