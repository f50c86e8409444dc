"""Every regime to near machine precision at each degree n = 3..40.

The oracle is mpmath at 50 digits: the closed-form optimal values
(1 + |b|/n)^(2n) / 2^(2n-2) and their square roots, and the error
polynomials, summed by the Chebyshev three-term recurrence from their
coefficients.
"""

import mpmath as mp
import numpy as np
import pytest

from tdiscrim import (
    Design,
    DiscriminationProblem,
    bbar_limit,
    closed_form_psi,
    critical_b,
    remez,
    support_points,
    t_criterion,
    t_optimal_design,
    verification_report,
    zero_b_family,
)

DEGREES = range(3, 41)
DPS = 50


def optimal_value(n, b):
    """(1 + |b|/n)^(2n) / 2^(2n-2), the criterion of the optimal design."""
    with mp.workdps(DPS):
        return (1 + mp.mpf(abs(b)) / n) ** (2 * n) / mp.mpf(2) ** (2 * n - 2)


def mp_chebval(x, coeffs):
    """sum_k coeffs[k] T_k(x), at DPS digits."""
    with mp.workdps(DPS):
        x = mp.mpf(float(x))
        prev, cur = mp.mpf(1), x
        total = mp.mpf(float(coeffs[0]))
        for k in range(1, len(coeffs)):
            total += mp.mpf(float(coeffs[k])) * cur
            prev, cur = cur, 2 * x * cur - prev
        return total


def rel(value, ref):
    with mp.workdps(DPS):
        return float(abs(mp.mpf(float(value)) / ref - 1))


@pytest.mark.parametrize("n", DEGREES)
def test_criterion_of_closed_form_designs(n):
    bc = critical_b(n)
    for b in (0.5 * bc, -0.5 * bc, bc, -bc):
        design = t_optimal_design(n, b).design
        value = t_criterion(design, DiscriminationProblem(n, b=b))
        assert rel(value, optimal_value(n, b)) <= 1e-13
    for alpha in (0.0, 0.3, 1.0):
        design = zero_b_family(n, alpha).design
        value = t_criterion(design, DiscriminationProblem(n, b=0.0))
        assert rel(value, optimal_value(n, 0.0)) <= 1e-13


@pytest.mark.parametrize("n", DEGREES)
def test_remez_deviation_inside_regime(n):
    # h <= true deviation <= dev at every iterate, so the relative stop
    # test dev - |h| <= tol * dev bounds the error of dev by tol
    bc = critical_b(n)
    for b in (0.0, 0.5 * bc, -0.5 * bc, 0.9 * bc, bc):
        res = remez(n, b, tol=1e-12)
        with mp.workdps(DPS):
            ref = mp.sqrt(optimal_value(n, b))
        assert rel(res.deviation, ref) <= 1e-12


@pytest.mark.parametrize("n", (16, 20, 25, 30, 40))
@pytest.mark.parametrize("share", (0.05, 0.5, 0.95, -0.5))
def test_remez_alternance_beyond_critical_ratio(n, share):
    b = 1.0 / (share * bbar_limit(n))
    res = remez(n, b)
    assert res.extremal_points.size == n
    assert np.all(res.signs[:-1] * res.signs[1:] == -1)
    with mp.workdps(DPS):
        mags = [abs(mp_chebval(x, res.psi.coeffs)) for x in res.extremal_points]
        spread = (max(mags) - min(mags)) / max(mags)
    assert float(spread) <= 1e-10
    assert rel(res.deviation, max(mags)) <= 1e-12


@pytest.mark.parametrize("n", DEGREES)
def test_verification_report_passes_optima_and_fails_the_control(n):
    bc = critical_b(n)
    for b in (0.5 * bc, -0.5 * bc, bc):
        assert verification_report(t_optimal_design(n, b).design, n, b)["passed"]
    assert verification_report(zero_b_family(n, 0.3).design, n, 0.0)["passed"]
    control = Design(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n))
    for b in (0.0, 0.5 * bc, 2.0 * bc):
        assert not verification_report(control, n, b)["passed"]


@pytest.mark.parametrize("n", DEGREES)
def test_closed_form_psi_peaks_on_the_support(n):
    bc = critical_b(n)
    for b in (0.5 * bc, bc):
        pts = support_points(n, b)
        level = mp.sqrt(optimal_value(n, b))
        for sign in (1.0, -1.0):
            psi = closed_form_psi(n, sign * b)
            support = pts if sign > 0 else -pts[::-1]
            crit = psi.critical_points()
            assert max(np.abs(crit - x).min() for x in support) <= 1e-12
            for x in support:
                assert rel(abs(mp_chebval(x, psi.coeffs)), level) <= 1e-13
