import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from tdiscrim.closed_form import critical_b, support_points
from tdiscrim.errors import ConvergenceError, RegimeError
from tdiscrim.minimax import (
    _critical_points,
    closed_form_psi,
    extremal_set,
    remez,
    target_polynomial,
)
from tdiscrim.polynomials import Polynomial, chebyshev_extrema, chebyshev_t


def deviation_formula(n, b):
    return (1.0 + abs(b) / n) ** n / 2.0 ** (n - 1)


class TestClosedFormPsi:
    def test_degree_two_centered(self):
        psi = closed_form_psi(2, 0.0)
        assert np.allclose(psi.coeffs, [-0.5, 0.0, 1.0], atol=1e-14)

    def test_degree_three_centered(self):
        psi = closed_form_psi(3, 0.0)
        assert np.allclose(psi.coeffs, [0.0, -0.75, 0.0, 1.0], atol=1e-14)

    def test_degree_three_at_unit_ratio(self):
        # x^3 + x^2 - x - 11/27, extremal at -1, 1/3, 1 with level 16/27
        psi = closed_form_psi(3, 1.0)
        assert np.allclose(psi.coeffs, [-11.0 / 27.0, -1.0, 1.0, 1.0], atol=1e-12)
        pts = extremal_set(psi)
        assert np.allclose(pts, [-1.0, 1.0 / 3.0, 1.0], atol=1e-9)
        assert abs(psi(1.0)) == pytest.approx(16.0 / 27.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_leading_coefficients(self, n):
        for b in np.linspace(-critical_b(n), critical_b(n), 7):
            psi = closed_form_psi(n, float(b))
            assert psi.coeffs.size == n + 1
            assert psi.coeffs[n] == pytest.approx(1.0, abs=1e-10)
            assert psi.coeffs[n - 1] == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_deviation_formula(self, n):
        for b in np.linspace(0.0, critical_b(n), 5):
            psi = closed_form_psi(n, float(b))
            sup = np.abs(psi(extremal_set(psi))).max()
            assert sup == pytest.approx(deviation_formula(n, b), rel=1e-11)

    def test_mirror_for_negative_ratio(self):
        psi_neg = closed_form_psi(4, -0.3)
        psi_pos = closed_form_psi(4, 0.3)
        x = np.linspace(-1.0, 1.0, 101)
        assert np.abs(psi_neg(x) - psi_pos(-x)).max() <= 1e-13

    def test_outside_regime_rejected(self):
        with pytest.raises(RegimeError):
            closed_form_psi(3, 1.5)
        with pytest.raises(RegimeError):
            closed_form_psi(5, -0.6)


class TestExtremalSet:
    def test_chebyshev(self):
        pts = extremal_set(chebyshev_t(3))
        assert np.allclose(pts, [-1.0, -0.5, 0.5, 1.0], atol=1e-9)

    def test_shifted_parabola(self):
        pts = extremal_set(Polynomial([-0.5, 0.0, 1.0]))
        assert np.allclose(pts, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_matches_support_formula(self):
        psi = closed_form_psi(5, 0.4)
        pts = extremal_set(psi)
        assert np.allclose(pts, support_points(5, 0.4), atol=1e-9)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            extremal_set(Polynomial([2.0]))


class TestRemez:
    def test_degree_two(self):
        res = remez(2, 0.0)
        assert np.allclose(res.approximant.coeffs, [0.5], atol=1e-13)
        assert res.deviation == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(res.extremal_points, [-1.0, 0.0, 1.0], atol=1e-7)

    def test_centered_quintic(self):
        res = remez(5, 0.0)
        assert res.deviation == pytest.approx(2.0 ** (-4), rel=1e-12)
        assert np.allclose(res.extremal_points, chebyshev_extrema(5), atol=1e-8)
        # at b = 0 the degenerate case carries n + 1 extremal points
        assert res.extremal_points.size == 6

    def test_agrees_with_closed_form(self):
        res = remez(5, 0.4)
        psi = target_polynomial(5, 0.4) - res.approximant
        ref = closed_form_psi(5, 0.4)
        assert res.deviation == pytest.approx(deviation_formula(5, 0.4), rel=1e-10)
        assert np.abs(psi.coeffs - ref.coeffs).max() <= 1e-8
        assert np.allclose(res.extremal_points, support_points(5, 0.4), atol=1e-8)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cross_validation_sweep(self, n):
        bc = critical_b(n)
        for b in np.linspace(-bc, bc, 11):
            res = remez(n, float(b))
            assert res.iterations <= 20
            assert res.deviation == pytest.approx(
                deviation_formula(n, b), rel=1e-9
            )
            ref = closed_form_psi(n, float(b))
            psi = target_polynomial(n, float(b)) - res.approximant
            assert np.abs(psi.coeffs - ref.coeffs).max() <= 1e-8

    def test_works_outside_explicit_regime(self):
        res = remez(3, 1.5)
        # minimax level can only grow with |b| past the regime boundary
        assert res.deviation > deviation_formula(3, 1.0)
        assert res.extremal_points.size >= 3
        signs = res.signs
        assert np.all(signs[:-1] * signs[1:] == -1)

    def test_alternation_count(self):
        for n, b in [(3, 0.5), (4, 0.25), (6, -0.2)]:
            res = remez(n, b)
            assert res.extremal_points.size >= n
            assert np.all(res.signs[:-1] * res.signs[1:] == -1)

    def test_equioscillation_magnitudes(self):
        res = remez(6, 0.3)
        psi = target_polynomial(6, 0.3) - res.approximant
        mags = np.abs(psi(res.extremal_points))
        assert mags.max() - mags.min() <= 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            remez(3, 0.5, tol=0.0)
        with pytest.raises(ValueError):
            remez(1, 0.5)
        with pytest.raises(ValueError):
            remez(3, 0.5, max_iter=0)

    def test_iteration_budget_reported(self):
        with pytest.raises(ConvergenceError) as err:
            remez(8, 0.29, max_iter=1)
        assert err.value.last is not None
        assert err.value.last.iterations == 1


def test_target_polynomial():
    g = target_polynomial(4, -2.5)
    assert g.coeffs.tolist() == [0.0, 0.0, 0.0, -2.5, 1.0]
    with pytest.raises(ValueError):
        target_polynomial(1, 0.0)


def critical_points_reference(psi):
    """_critical_points through numpy.polynomial's polytrim and polyroots."""
    dc = npoly.polyder(psi.coeffs)
    dc = npoly.polytrim(dc, tol=1e-14 * max(1.0, float(np.abs(dc).max())))
    pts = [-1.0, 1.0]
    if dc.size > 1:
        roots = npoly.polyroots(dc)
        real = roots.real[np.abs(roots.imag) <= 1e-9]
        real = real[(real >= -1.0 - 1e-12) & (real <= 1.0 + 1e-12)]
        pts.extend(np.clip(real, -1.0, 1.0))
    return np.unique(np.asarray(pts, dtype=float))


def test_critical_points_match_polyroots():
    rng = np.random.Generator(np.random.PCG64(40))
    # constant, trailing zeros, a roundoff-sized leading term, and psi' with
    # the complex pair 0.5 +- 5e-8 i, which the imaginary-part cut drops
    polys = [Polynomial([0.0]), Polynomial([3.0, 0.0, 0.0]),
             Polynomial([1.0, 2.0, 1e-16]),
             Polynomial([0.0, 0.25 + 2.5e-15, -0.5, 1.0 / 3.0])]
    for deg in range(1, 41):
        c = rng.normal(size=deg + 1)
        polys.append(Polynomial(c))
        c = c.copy()
        c[-1] = 0.0
        polys.append(Polynomial(c))
    polys += [closed_form_psi(n, 0.5 * critical_b(n)) for n in range(2, 21)]
    for psi in polys:
        ours, ref = _critical_points(psi), critical_points_reference(psi)
        assert ours.shape == ref.shape and np.array_equal(ours, ref)


def test_remez_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="tol"):
        remez(5, 1.0, tol=float("nan"))


def test_closed_form_psi_rejects_nan_ratio():
    with pytest.raises(ValueError, match="b must be a number") as err:
        closed_form_psi(5, float("nan"))
    assert not isinstance(err.value, RegimeError)
    for b in (float("inf"), -float("inf")):
        with pytest.raises(RegimeError):
            closed_form_psi(5, b)
