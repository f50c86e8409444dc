import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb

import mpmath as mp

from tdiscrim import minimax
from tdiscrim.closed_form import critical_b, support_points
from tdiscrim.errors import ConvergenceError, RegimeError
from tdiscrim.minimax import (
    EXCHANGE_TOL,
    MAX_EXCHANGES,
    _exchanges,
    closed_form_psi,
    extremal_set,
    remez,
    target_polynomial,
)
from tdiscrim.polynomials import ChebyshevSeries, _at_critical, _critical_points, chebyshev_extrema


def monomial(p):
    """Monomial coefficients of a Chebyshev series, through numpy's cheb2poly."""
    return ncheb.cheb2poly(p.coeffs)


def deviation_formula(n, b):
    return (1.0 + abs(b) / n) ** n / 2.0 ** (n - 1)


class TestClosedFormPsi:
    def test_degree_two_centered(self):
        psi = closed_form_psi(2, 0.0)
        assert np.allclose(monomial(psi), [-0.5, 0.0, 1.0], atol=1e-14)

    def test_degree_three_centered(self):
        psi = closed_form_psi(3, 0.0)
        assert np.allclose(monomial(psi), [0.0, -0.75, 0.0, 1.0], atol=1e-14)

    def test_degree_three_at_unit_ratio(self):
        # x^3 + x^2 - x - 11/27, extremal at -1, 1/3, 1 with level 16/27
        psi = closed_form_psi(3, 1.0)
        assert np.allclose(monomial(psi), [-11.0 / 27.0, -1.0, 1.0, 1.0], atol=1e-12)
        pts = extremal_set(psi)
        assert np.allclose(pts, [-1.0, 1.0 / 3.0, 1.0], atol=1e-9)
        assert abs(psi(1.0)) == pytest.approx(16.0 / 27.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_leading_coefficients(self, n):
        for b in np.linspace(-critical_b(n), critical_b(n), 7):
            psi = monomial(closed_form_psi(n, float(b)))
            assert psi.size == n + 1
            assert psi[n] == pytest.approx(1.0, abs=1e-10)
            assert psi[n - 1] == pytest.approx(b, abs=1e-10)

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
        pts = extremal_set(ChebyshevSeries([0.0, 0.0, 0.0, 1.0]))
        assert np.allclose(pts, [-1.0, -0.5, 0.5, 1.0], atol=1e-9)

    def test_shifted_parabola(self):
        pts = extremal_set(ChebyshevSeries(ncheb.poly2cheb([-0.5, 0.0, 1.0])))
        assert np.allclose(pts, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_matches_support_formula(self):
        psi = closed_form_psi(5, 0.4)
        pts = extremal_set(psi)
        assert np.allclose(pts, support_points(5, 0.4), atol=1e-9)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            extremal_set(ChebyshevSeries([2.0]))


class TestRemez:
    def test_degree_two(self):
        res = remez(2, 0.0)
        assert np.allclose(monomial(res.approximant), [0.5], atol=1e-13)
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
        assert np.abs(monomial(psi) - monomial(ref)).max() <= 1e-8
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
            assert np.abs(monomial(psi) - monomial(ref)).max() <= 1e-8

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

    @pytest.mark.parametrize("tol", [1.0, 2.0, float("inf"), -1e-12, float("nan")])
    def test_rejects_tol_outside_zero_one(self, tol):
        # a tol of 1 or more would take the first, unconverged reference:
        # its gap never exceeds its deviation
        with pytest.raises(ValueError, match="tol"):
            remez(8, 0.29, tol=tol)

    def test_rejects_non_integer_budget(self):
        with pytest.raises(ValueError, match="max_iter"):
            remez(8, 0.29, max_iter=2.5)

    def test_iteration_budget_reported(self):
        with pytest.raises(ConvergenceError) as err:
            remez(8, 0.29, max_iter=1)
        assert err.value.last is not None
        assert err.value.last.iterations == 1


def test_target_polynomial():
    g = target_polynomial(4, -2.5)
    assert monomial(g).tolist() == [0.0, 0.0, 0.0, -2.5, 1.0]
    with pytest.raises(ValueError):
        target_polynomial(1, 0.0)


def critical_points_reference(psi):
    """critical_points through numpy.polynomial's chebder, chebtrim and chebroots."""
    dc = ncheb.chebder(psi.coeffs)
    dc = ncheb.chebtrim(dc, tol=1e-14 * float(np.abs(dc).max()))
    pts = [-1.0, 1.0]
    if dc.size > 1:
        roots = ncheb.chebroots(dc)
        real = roots.real[np.abs(roots.imag) <= 1e-9]
        real = real[(real >= -1.0 - 1e-12) & (real <= 1.0 + 1e-12)]
        pts.extend(np.clip(real, -1.0, 1.0))
    return np.unique(np.asarray(pts, dtype=float))


def test_critical_points_match_chebroots():
    rng = np.random.Generator(np.random.PCG64(40))
    # constant, trailing zeros, a roundoff-sized leading term, and psi' with
    # the complex pair 0.5 +- 5e-8 i, which the imaginary-part cut drops
    polys = [ChebyshevSeries([0.0]), ChebyshevSeries([3.0, 0.0, 0.0]),
             ChebyshevSeries([1.0, 2.0, 1e-16]),
             ChebyshevSeries(ncheb.poly2cheb([0.0, 0.25 + 2.5e-15, -0.5, 1.0 / 3.0]))]
    for deg in range(1, 41):
        c = rng.normal(size=deg + 1)
        polys.append(ChebyshevSeries(c))
        c = c.copy()
        c[-1] = 0.0
        polys.append(ChebyshevSeries(c))
    polys += [closed_form_psi(n, 0.5 * critical_b(n)) for n in range(2, 41)]
    for psi in polys:
        ours, ref = psi.critical_points(), critical_points_reference(psi)
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


def test_a_stack_of_exchanges_equals_its_rows():
    # remez's starts at n = 8: b = 0 stops after 1 exchange, 0.5 and 3 b_c
    # after 5, 10 b_c needs 6 and runs out of a budget of 5, and a NaN start
    # leaves a degenerate reference
    n, max_iter = 8, 5
    shares = [0.0, 0.5, 10.0, -3.0]
    targets = np.array([target_polynomial(n, s * critical_b(n)).coeffs for s in shares]
                       + [target_polynomial(n, 1.0).coeffs])
    ext = chebyshev_extrema(n)
    refs = np.array([ext[1:] if s >= 0 else ext[:-1] for s in shares] + [np.full(n, np.nan)])
    stacked = _exchanges(targets, refs, 1e-12, max_iter)
    assert [row[0] for row in stacked if isinstance(row, tuple)] == [1, 5, 5]
    for j, row in enumerate(stacked):
        alone = _exchanges(targets[j : j + 1], refs[j : j + 1], 1e-12, max_iter)[0]
        assert type(alone) is type(row)
        if isinstance(row, ConvergenceError):
            assert str(row) == str(alone)
            if row.last is None:
                continue
            assert row.last.iterations == alone.last.iterations == max_iter
            pairs = [(row.last.psi.coeffs, alone.last.psi.coeffs),
                     (row.last.approximant.coeffs, alone.last.approximant.coeffs),
                     (row.last.extremal_points, alone.last.extremal_points),
                     (row.last.signs, alone.last.signs),
                     (row.last.deviation, alone.last.deviation)]
        else:
            pairs = [(row[0], alone[0]), (row[1], alone[1]),
                     (row[2].coeffs, alone[2].coeffs), (row[3], alone[3]), (row[4], alone[4])]
        assert all(np.array_equal(a, b) for a, b in pairs)
    assert [type(row) for row in stacked[2:]] == [ConvergenceError, tuple, ConvergenceError]
    assert "within 5 iterations" in str(stacked[2])
    assert "degenerate reference" in str(stacked[4])


def test_a_stack_of_critical_points_equals_its_rows():
    # rows whose cut leaves the same degree share one eigvals call
    rng = np.random.Generator(np.random.PCG64(41))
    for size in (2, 3, 8, 21, 41):
        rows = rng.normal(size=(6, size))
        rows[1, -1] = 0.0
        rows[2, -2:] = [1e-16, 0.0]
        rows[3] = np.nan
        rows[4] = 0.0
        stacked = _critical_points(rows)
        for row, pts in zip(rows, stacked):
            assert np.array_equal(_critical_points([row])[0], pts)
            assert np.array_equal(colleague_reference(row), pts)
    # a NaN past the first entry cuts the row to a constant, as numpy's max does
    row = np.array([1.0, np.nan, 2.0, 3.0])
    assert np.array_equal(_critical_points([row])[0], [-1.0, 1.0])
    assert np.array_equal(colleague_reference(row), [-1.0, 1.0])


def colleague_reference(d):
    """critical_points from one derivative row, its colleague matrix built in full per call."""
    mags = np.abs(d)
    nz = np.flatnonzero(mags > 1e-14 * mags.max())
    d = d[: nz[-1] + 1] if nz.size else d[:1]
    m = d.size - 1
    roots = np.empty(0)
    if m == 1:
        roots = -d[:1] / d[1:]
    elif m > 1:
        mat = np.zeros((1, m * m))
        mat[:, 1 :: m + 1] = mat[:, m :: m + 1] = 1 / 2
        mat[:, 1] = mat[:, m] = np.sqrt(0.5)
        scl = np.array([1.0] + [np.sqrt(0.5)] * (m - 1))
        mat[:, m - 1 :: m] -= (d[None, :-1] / d[None, -1:]) * (scl / scl[-1]) * 0.5
        roots = np.linalg.eigvals(mat[:, ::-1].reshape(-1, m, m))[0]
    real = roots.real[np.abs(roots.imag) <= 1e-9]
    real = real[(real >= -1.0 - 1e-12) & (real <= 1.0 + 1e-12)]
    return np.unique(np.concatenate(([-1.0, 1.0], real.clip(-1.0, 1.0))))


def counted_critical_points(monkeypatch):
    """Patch minimax._critical_points to record the rows of each call; the list of counts."""
    calls = []
    real = minimax._critical_points

    def counter(derivs):
        calls.append(len(derivs))
        return real(derivs)

    monkeypatch.setattr(minimax, "_critical_points", counter)
    return calls


def test_remez_takes_the_eigenvalues_after_its_first_pass(monkeypatch):
    # the Chebyshev start is no alternance, so the certified step declines
    # it, and every later pass takes the colleague matrix whatever its
    # reference: a model value there could close the gap to exactly 0
    calls = counted_critical_points(monkeypatch)
    res = remez(5, 100.0)
    assert res.iterations == 5
    assert calls == [1] * res.iterations


def mp_ends(coeffs):
    """psi(-1) and psi(1) as 40-digit sums of the coefficients."""
    with mp.workdps(40):
        c = [mp.mpf(float(v)) for v in coeffs]
        return mp.fsum(v * (-1) ** k for k, v in enumerate(c)), mp.fsum(c)


@pytest.mark.parametrize("n, share", [(37, 0.7), (37, -0.7), (31, 1.0), (31, -1.0)])
def test_the_ends_are_read_as_coefficient_sums(n, share, monkeypatch):
    # Clenshaw at +-1 misses the 40-digit sums by up to 1.4e-14 of the sup
    # on these series; the exchange's eigenvalue route and global_inequality
    # (through _at_critical) read the sums, within 4 eps of the sup
    b = share * critical_b(n)
    psi = closed_form_psi(n, b)
    vals = _at_critical(psi, psi.critical_points())
    sup = np.abs(vals).max()
    for value, exact in zip(vals[[0, -1]], mp_ends(psi.coeffs)):
        assert abs(value - exact) <= 4 * np.finfo(float).eps * sup
    calls = counted_critical_points(monkeypatch)
    ext = chebyshev_extrema(n)
    row = _exchanges(target_polynomial(n, b).coeffs[None], (ext[1:] if b >= 0 else ext[:-1])[None],
                     EXCHANGE_TOL, MAX_EXCHANGES)[0]
    its, _, psi, cand, vals, dev = row
    assert calls == [1] * its and cand[0] == -1.0 and cand[-1] == 1.0
    for value, exact in zip(vals[[0, -1]], mp_ends(psi.coeffs)):
        assert abs(value - exact) <= 4 * np.finfo(float).eps * dev
