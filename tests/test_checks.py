import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdiscrim import checks, polynomials
from tdiscrim.checks import (
    alternation_check,
    appendix_identity,
    equivalence_system,
    global_inequality,
    verification_report,
)
from tdiscrim.closed_form import critical_b, t_optimal_design, zero_b_family
from tdiscrim.continuation import bbar_limit, solve_at
from tdiscrim.designs import Design, DiscriminationProblem, _residual
from tdiscrim.maximin import RatioInterval, maximin_design, optimal_design
from tdiscrim.minimax import closed_form_psi, remez
from tdiscrim.polynomials import ChebyshevSeries, _at_critical, _certified_critical


def chebyshev_t(n):
    """T_n as a Chebyshev series."""
    return ChebyshevSeries(np.eye(n + 1)[n])


class TestEquivalenceSystem:
    def test_family_member_with_quarter_chebyshev(self):
        d = zero_b_family(3, 0.5).design
        psi = ChebyshevSeries([0.0, 0.0, 0.0, 0.25])
        res = equivalence_system(d, psi, 3)
        assert res.shape == (2,)
        assert np.abs(res).max() <= 1e-12

    def test_optimal_quintic(self):
        d = t_optimal_design(5, 0.4).design
        res = equivalence_system(d, closed_form_psi(5, 0.4), 5)
        assert np.abs(res).max() <= 1e-10

    def test_two_point_design_fails_first_moment(self):
        d = Design([-1.0, 1.0], [0.5, 0.5])
        psi = ChebyshevSeries([0.0, 0.0, 0.0, 0.25])
        res = equivalence_system(d, psi, 3)
        assert abs(res[0]) <= 1e-15
        assert res[1] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_regime_designs_pass(self, n):
        for b in np.linspace(-critical_b(n), critical_b(n), 7):
            d = (zero_b_family(n, 0.5) if b == 0.0
                 else t_optimal_design(n, float(b))).design
            res = equivalence_system(d, closed_form_psi(n, float(b)), n)
            assert np.abs(res).max() <= 1e-10

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            equivalence_system(Design([0.0], [1.0]), chebyshev_t(2), 1)

    def test_equals_the_per_moment_compensated_sums(self):
        rng = np.random.Generator(np.random.PCG64(25))
        for n in range(2, 41):
            for size in (1, n, 2 * n):
                pts = np.sort(rng.uniform(-1.0, 1.0, size))
                w = rng.uniform(0.1, 1.0, size)
                d = Design(pts, w / w.sum())
                psi = ChebyshevSeries(rng.normal(size=n + 1))
                pv = psi(d.points)
                ref = [math.fsum((d.weights * pv * d.points**k).tolist()) for k in range(n - 1)]
                assert np.array_equal(equivalence_system(d, psi, n), ref)

    def test_results_share_no_array_with_a_later_call(self):
        d = t_optimal_design(6, 0.3).design
        psi = closed_form_psi(6, 0.3)
        first = [equivalence_system(d, psi, 6), psi.critical_points(),
                 alternation_check(d, psi).signs, alternation_check(d, psi).magnitudes]
        keep = [a.copy() for a in first]
        for a in first:
            a[...] = 7
        again = [equivalence_system(d, psi, 6), psi.critical_points(),
                 alternation_check(d, psi).signs, alternation_check(d, psi).magnitudes]
        assert all(np.array_equal(a, b) for a, b in zip(again, keep))


class TestAppendixIdentity:
    @pytest.mark.parametrize("n,k", [(3, 0), (3, 1), (6, 2), (10, 0), (10, 8)])
    def test_examples_vanish(self, n, k):
        assert abs(appendix_identity(n, k)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_full_sweep(self, n):
        for k in range(n - 1):
            assert abs(appendix_identity(n, k)) <= 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            appendix_identity(5, 4)
        with pytest.raises(ValueError):
            appendix_identity(5, -1)


class TestAlternation:
    def test_passes_on_optimal_design(self):
        d = t_optimal_design(5, 0.4).design
        rep = alternation_check(d, closed_form_psi(5, 0.4))
        assert rep.passed
        assert bool(rep)
        assert np.all(rep.signs[:-1] * rep.signs[1:] == -1)
        assert rep.spread <= 1e-12

    def test_numpy_tolerance_gives_a_python_bool(self):
        d = t_optimal_design(5, 0.4).design
        rep = alternation_check(d, closed_form_psi(5, 0.4), np.float64(1e-12))
        assert type(rep.passed) is bool and bool(rep)

    def test_passes_on_family_support(self):
        d = zero_b_family(4, 0.3).design
        rep = alternation_check(d, closed_form_psi(4, 0.0))
        assert rep.passed
        assert rep.signs.size == 5

    def test_fails_on_wrong_design(self):
        d = Design([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        rep = alternation_check(d, closed_form_psi(3, 0.5))
        assert not rep.passed

    def test_fails_on_magnitude_spread(self):
        d = Design([-0.9, 0.1, 0.9], [0.3, 0.4, 0.3])
        rep = alternation_check(d, chebyshev_t(3))
        assert not rep.passed
        assert rep.spread > 1e-3


class TestGlobalInequality:
    def test_zero_margin_at_optimum(self):
        psi = closed_form_psi(4, 0.2)
        d = t_optimal_design(4, 0.2).design
        level = float(np.sum(d.weights * psi(d.points) ** 2))
        assert abs(global_inequality(psi, level)) <= 1e-9

    def test_positive_margin_when_level_low(self):
        psi = closed_form_psi(4, 0.2)
        assert global_inequality(psi, 0.5 * psi(1.0) ** 2) > 0.0

    def test_requires_level_for_bare_polynomial(self):
        with pytest.raises(TypeError):
            global_inequality(chebyshev_t(3))


class TestCriticalPointMaximum:
    """global_inequality reads psi^2 at the critical points only.

    Every local maximum of psi^2 on [-1, 1] is an endpoint or a real root of
    psi', so a dense scan must find nothing higher.
    """

    SCAN = -np.cos(np.linspace(0.0, np.pi, 200_001))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_dense_scan_finds_nothing_higher(self, n):
        bc = critical_b(n)
        polys = [closed_form_psi(n, s * bc) for s in (0.5, -0.5, 1.0, -1.0)]
        polys += [remez(n, r * bc).psi for r in (1.5, 4.0, -3.0, 50.0)]
        for psi in polys:
            cand = psi.critical_points()
            top = float(np.max(_at_critical(psi, cand) ** 2))
            scan = float(np.max(psi(self.SCAN) ** 2))
            assert scan - top <= 1e-12 * top
            assert global_inequality(psi, 0.0) == top
            # Clenshaw at the ends agrees with their coefficient sums to rounding
            assert abs(float(np.max(psi(cand) ** 2)) - top) <= (n + 1) ** 2 * 1e-16 * top


class TestVerificationReport:
    def test_full_pass_in_regime(self):
        d = t_optimal_design(4, 0.3).design
        rep = verification_report(d, 4, 0.3)
        assert rep["passed"]
        assert {c["name"] for c in rep["checks"]} == {
            "equivalence_system",
            "alternation",
            "criterion_matches_deviation",
            "global_inequality",
        }
        json.dumps(rep)

    def test_family_design_passes_at_zero(self):
        d = zero_b_family(5, 0.25).design
        rep = verification_report(d, 5, 0.0)
        assert rep["passed"]

    def test_wrong_design_fails(self):
        d = Design([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
        rep = verification_report(d, 3, 0.5)
        assert not rep["passed"]

    def test_remez_route_outside_regime(self):
        from tdiscrim.continuation import solve_at

        state = solve_at(3, 1.0 / 1.5)
        rep = verification_report(state.design(), 3, 1.5)
        assert rep["passed"]


    def test_alternation_is_relative_to_the_support_residuals(self):
        # at b = 0 the symmetric equispaced 20-point design has T near 0: its
        # support residuals are rounding noise, alternating in sign but far
        # from equal in magnitude, however small beside the sup of |psi_xi|
        d = Design(np.linspace(-1.0, 1.0, 20), np.full(20, 0.05))
        rep = verification_report(d, 20, 0.0)
        alternation = rep["checks"][1]
        assert alternation["name"] == "alternation"
        assert not alternation["passed"]
        assert alternation["value"] > alternation["tolerance"]
        assert not rep["passed"]

    def test_alternation_reads_no_rounding_noise_on_too_few_points(self):
        # three points at n = 4: the fit interpolates, so the residuals at the
        # support are rounding noise, equal in magnitude (spread 0) far below
        # the residual tolerance EQUIVALENCE_TOL times the sup deviation
        n = 4
        b = 0.3 * critical_b(n)
        d = Design(np.linspace(-1.0, 1.0, 3), np.full(3, 1.0 / 3.0))
        rep = verification_report(d, n, b)
        equivalence, alternation = rep["checks"][:2]
        assert alternation["name"] == "alternation"
        assert alternation["value"] <= alternation["tolerance"]
        assert alternation["tolerance"] < 1e-8 * equivalence["tolerance"]
        assert not alternation["passed"]
        assert not rep["passed"]

    def test_a_zero_criterion_reads_a_gap_of_exactly_one(self):
        # one point: T is exactly 0, so the gap is max psi^2 / dev^2, which is
        # 1 when both squares are products; libm's pow(dev, 2) here rounds one
        # ulp low, which read 0.9999999999999999
        rep = verification_report(Design([0.85], [1.0]), 35, 0.5)
        gap, inequality = rep["checks"][2:]
        assert gap["name"] == "criterion_matches_deviation"
        assert gap["value"] == 1.0
        assert inequality["tolerance"] == 1e-8 * inequality["value"]


class TestVerdictGrid:
    """Every optimum passes, and every control and 1e-3 move fails, at n = 2..40.

    The optima come from each construction: optimal_design inside, at and
    beyond the critical ratio on both sides, the b = 0 family at its ends
    and inside, and the whole-line maximin design, which is optimal at
    b = 0. The controls are equispaced designs of n - 1, n + 1 and n + 3
    points, at each ratio of the optima.
    """

    SHARES = (0.0, 0.3, -0.7, 1.0, 1.5, -4.0, 50.0)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_optima_pass_and_moves_and_controls_fail(self, n):
        bc = critical_b(n)
        optima = [(optimal_design(n, s * bc).design, s * bc) for s in self.SHARES]
        optima += [(zero_b_family(n, alpha).design, 0.0) for alpha in (0.0, 0.25, 0.5, 1.0)]
        optima.append((maximin_design(n, RatioInterval.whole_line()), 0.0))
        for design, b in optima:
            assert verification_report(design, n, b)["passed"]
            i = (design.support_size - 1) // 2
            pts = design.points.copy()
            pts[i] += 1e-3
            wts = design.weights.copy()
            wts[i] *= 1.001
            for moved in (Design(pts, design.weights), Design(design.points, wts / wts.sum())):
                assert not verification_report(moved, n, b)["passed"]
        for size in (n - 1, n + 1, n + 3):
            control = Design(np.linspace(-1.0, 1.0, size), np.full(size, 1.0 / size))
            for s in self.SHARES:
                assert not verification_report(control, n, s * bc)["passed"]


def optimum(n, kind, share):
    """(design, b) of the optimum of one construction; share in (0, 1]."""
    if kind == "closed_form":
        b = share * critical_b(n)
        return t_optimal_design(n, b).design, b
    if kind == "closed_form_negative":
        b = -share * critical_b(n)
        return t_optimal_design(n, b).design, b
    if kind == "zero_b_family":
        # alpha near 1 leaves a weight near 0 on x = 1, whose 1e-6 relative
        # change keeps the design optimal; cap alpha as share's 0.02 floor does
        return zero_b_family(n, min(share, 0.98)).design, 0.0
    bbar = share * bbar_limit(n) * (1.0 if kind == "path" else -1.0)
    return solve_at(n, bbar).design(), 1.0 / bbar


KINDS = ("closed_form", "closed_form_negative", "zero_b_family", "path",
         "path_negative")


class TestCertificateFromTheDesign:
    """The report passes every optimum and fails every design moved off it.

    A 1e-6 move of one point, or a 1e-6 relative change of one weight,
    moves psi_xi at first order, so max psi_xi^2 exceeds T(xi) by far more
    than the tolerance at every degree n = 3..40.
    """

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 40), kind=st.sampled_from(KINDS),
           share=st.floats(0.02, 1.0), index=st.integers(0, 40),
           sign=st.sampled_from([1.0, -1.0]))
    def test_optimum_passes_and_a_perturbation_fails(self, n, kind, share,
                                                     index, sign):
        design, b = optimum(n, kind, share)
        assert verification_report(design, n, b)["passed"]
        i = index % design.support_size
        pts = design.points.copy()
        pts[i] += sign * 1e-6
        if not (-1.0 <= pts[i] <= 1.0 and np.all(np.diff(pts) > 0.0)):
            pts[i] -= 2.0 * sign * 1e-6
        moved = Design(pts, design.weights)
        assert not verification_report(moved, n, b)["passed"]
        wts = design.weights.copy()
        wts[i] *= 1.0 + sign * 1e-6
        reweighted = Design(design.points, wts / wts.sum())
        assert not verification_report(reweighted, n, b)["passed"]


def test_report_builds_no_optimal_psi(monkeypatch):
    """Verdicts inside and beyond b_c hold with the Remez and closed-form psi gone."""
    cases = []
    for n in (3, 8, 20):
        bc = critical_b(n)
        for b in (0.5 * bc, -bc):
            cases.append((t_optimal_design(n, b).design, n, b))
        bbar = 0.5 * bbar_limit(n)
        cases.append((solve_at(n, bbar).design(), n, 1.0 / bbar))
        cases.append((solve_at(n, -bbar).design(), n, -1.0 / bbar))
        control = Design(np.linspace(-1.0, 1.0, n + 1), np.full(n + 1, 1.0 / (n + 1)))
        cases += [(control, n, 0.5 * bc), (control, n, 3.0 * bc)]
    verdicts = [verification_report(*case)["passed"] for case in cases]
    assert verdicts == [True, True, True, True, False, False] * 3

    def unavailable(*args, **kwargs):
        raise AssertionError("verification rebuilt the optimal psi")

    for name, module in list(sys.modules.items()):
        if name.startswith("tdiscrim"):
            for attr in ("remez", "closed_form_psi"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, unavailable)
    assert [verification_report(*case)["passed"] for case in cases] == verdicts


def route_designs(n):
    """(label, design, b): the optima the certified route must agree on at degree n >= 3.

    The closed-form optima at +-0.3, +-0.7, +-0.999 and +-1 of critical_b(n),
    the b = 0 family at alpha in {0, 0.25, 0.5, 1}, and solve_at designs at
    0.05, 0.5 and 0.95 of bbar_limit(n).
    """
    bc = critical_b(n)
    for share in (0.3, -0.3, 0.7, -0.7, 0.999, -0.999, 1.0, -1.0):
        yield f"closed_form {share}", t_optimal_design(n, share * bc).design, share * bc
    for alpha in (0.0, 0.25, 0.5, 1.0):
        yield f"zero_b_family {alpha}", zero_b_family(n, alpha).design, 0.0
    for share in (0.05, 0.5, 0.95):
        bbar = share * bbar_limit(n)
        yield f"path {share}", solve_at(n, bbar).design(), 1.0 / bbar


def eigenvalue_report(design, n, b, monkeypatch):
    """verification_report with the certified route declined, as on a non-alternating support."""
    with monkeypatch.context() as m:
        m.setattr(checks, "_certified_critical", lambda psi, points: None)
        return verification_report(design, n, b)


class TestCertifiedCriticalPoints:
    """One Newton step at the support finds the critical points the colleague matrix finds."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_the_route_agrees_with_the_colleague_roots(self, n, monkeypatch):
        for label, design, b in route_designs(n):
            psi = _residual(design, DiscriminationProblem(n, b=b))[1]
            found = _certified_critical(psi, design.points)
            if found is None:
                # at exactly +-b_c the outer support point can be -1 + 2 ulp,
                # beside the double extremum at -1 where psi'' nearly vanishes
                assert label in ("closed_form 1.0", "closed_form -1.0")
                continue
            pts, vals = found
            roots = psi.critical_points()
            assert np.abs(pts[:, None] - roots).min(axis=1).max() <= 1e-12
            assert np.abs(roots[:, None] - pts).min(axis=1).max() <= 1e-12
            # the route reads psi(+-1) as coefficient sums; Clenshaw's error
            # grows like n^2 at the ends, up to 2e-14 of the sup at n = 37
            c = psi.coeffs.tolist()
            ends = np.array([math.fsum(c[::2]) - math.fsum(c[1::2]), math.fsum(c)])
            inner = roots[(roots > -1.0) & (roots < 1.0)]
            top = max(np.abs(psi(inner)).max(initial=0.0), np.abs(ends).max())
            assert abs(np.abs(vals).max() - top) <= 1e-14 * top
            assert np.abs(psi(np.array([-1.0, 1.0])) - ends).max() <= (n + 1) ** 2 * 1e-16 * top
            report = verification_report(design, n, b)
            assert report["passed"]
            assert [c["passed"] for c in report["checks"]] == [
                c["passed"] for c in eigenvalue_report(design, n, b, monkeypatch)["checks"]]

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 20])
    def test_an_alternating_support_off_the_extrema_fails(self, n, monkeypatch):
        # weights |lambda_i| / sum |lambda_j| make the residuals of any n points
        # alternate with equal magnitude, so these moved optima reach the
        # route; off the extrema psi' does not vanish there, and the excess of
        # max psi^2 over T is what the Newton model value must find. From
        # n = 30 every such move of 1e-4 or more is too far to certify.
        b = 0.5 * critical_b(n)
        taken = 0
        for delta in (1e-4, 1e-3, 1e-2, 3e-2, 0.1, 0.3):
            x = t_optimal_design(n, b).design.points.copy()
            inner = np.arange(1, n - 1)
            x[inner] += delta * np.minimum(np.diff(x)[:-1], np.diff(x)[1:]) * (-1.0) ** inner
            lam = np.abs([1.0 / np.prod(xi - np.delete(x, i)) for i, xi in enumerate(x)])
            design = Design(x, lam / lam.sum())
            report = verification_report(design, n, b)
            assert report["checks"][1]["passed"] and not report["passed"]
            assert [c["passed"] for c in report["checks"]] == [
                c["passed"] for c in eigenvalue_report(design, n, b, monkeypatch)["checks"]]
            psi = _residual(design, DiscriminationProblem(n, b=b))[1]
            found = _certified_critical(psi, design.points)
            if found is not None:
                taken += 1
                # Kantorovich's test leaves a step that contracts: the Newton
                # point is at least 4 times closer to psi's root than x_i, to rounding
                roots = psi.critical_points()[1:-1]
                start = np.abs(x[(x > -1.0) & (x < 1.0), None] - roots).min(axis=1)
                newton = np.abs(found[0][1:-1, None] - roots).min(axis=1)
                assert (newton <= start / 4.0 + 1e-15).all()
        assert taken >= (3 if n <= 5 else 1)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_the_roots_of_psi_prime_sum_as_its_top_coefficients_say(self, n):
        # a_m T_m + a_(m-1) T_(m-1) + ... is a_m 2^(m-1) x^m + a_(m-1) 2^(m-2) x^(m-1) + ...
        for _, design, b in route_designs(n):
            d = _residual(design, DiscriminationProblem(n, b=b))[1].deriv().coeffs
            m = d.size - 1
            roots = np.polynomial.chebyshev.chebroots(d)
            assert roots.size == m == n - 1
            total = -d[m - 1] / (2.0 * d[m])
            assert abs(roots.sum() - total) <= 1e-13 * max(1.0, np.abs(roots).sum())

    def test_at_degree_two_the_one_root_has_no_factor_two(self):
        # psi' = a_1 T_1 + a_0 T_0, and T_0 = 1 carries no factor 2
        for design, b in [(t_optimal_design(2, 0.3).design, 0.3),
                          (zero_b_family(2, 0.5).design, 0.0)]:
            d = _residual(design, DiscriminationProblem(2, b=b))[1].deriv().coeffs
            assert d.size == 2
            assert np.polynomial.chebyshev.chebroots(d)[0] == pytest.approx(
                -d[0] / d[1], rel=1e-15, abs=1e-300)

    def test_degree_two_keeps_its_verdicts(self, monkeypatch):
        # psi' is linear at n = 2, so psi''' = 0 and any step would certify:
        # the route declines the degree, and TestVerdictGrid's n = 2 optima,
        # moves and controls keep their eigenvalue-route verdicts
        declined = []
        real = checks._certified_critical
        monkeypatch.setattr(checks, "_certified_critical",
                            lambda psi, points: declined.append(real(psi, points)))
        TestVerdictGrid().test_optima_pass_and_moves_and_controls_fail(2)
        assert declined and all(found is None for found in declined)

    def test_the_workload_grid_makes_no_eigenvalue_call(self, monkeypatch):
        # optima at |b| < b_c of both signs and b = 0 family members certify
        # by the Newton step; the equispaced controls do not alternate and
        # take the eigenvalue route, once each
        calls = []
        real = polynomials._critical_points
        monkeypatch.setattr(polynomials, "_critical_points",
                            lambda derivs: calls.append(len(derivs)) or real(derivs))
        for n in range(3, 16):
            bc = critical_b(n)
            optima = [(t_optimal_design(n, s * bc).design, s * bc)
                      for s in (0.01, 0.3, 0.62, 0.98, -0.01, -0.3, -0.62, -0.98)]
            optima += [(zero_b_family(n, a).design, 0.0) for a in (0.0, 0.1, 0.5, 0.9, 1.0)]
            for design, b in optima:
                calls.clear()
                assert verification_report(design, n, b)["passed"]
                assert calls == []
            control = Design(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n))
            for s in (-0.98, -0.3, 0.0, 0.62, 0.98):
                calls.clear()
                assert not verification_report(control, n, s * bc)["passed"]
                assert calls == [1]
