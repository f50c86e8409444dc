"""End-to-end acceptance checks, one test per numbered criterion.

Run with -v to get one verdict line per criterion. One criterion (c8)
compares simulated powers against a tabulated reference that is at odds
with its stated protocol, so its final comparison fails; the failure
message quantifies the discrepancy, and every other property of that
criterion (exact powers, runtime, statistical consistency) is asserted
first so a genuine regression is still caught.
"""

import io
import math
import time
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest

from tdiscrim.checks import appendix_identity, equivalence_system
from tdiscrim.cli import main
from tdiscrim.closed_form import (
    canonical_weights,
    critical_b,
    t_optimal_design,
    zero_b_family,
)
from tdiscrim.continuation import (
    bbar_limit,
    d1_optimal_start,
    inequality_margin,
    solve_at,
)
from tdiscrim.designs import DiscriminationProblem, t_criterion
from tdiscrim.maximin import RatioInterval, maximin_design, r_value
from tdiscrim.minimax import closed_form_psi, remez, target_polynomial
from tdiscrim.power import T_OPTIMAL_48, noncentrality, table1


def _cli(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def _regime_grid(n, count=11):
    bc = critical_b(n)
    return np.linspace(-bc, bc, count)


def _optimal_design(n, b):
    # the b = 0 optimum is a family; its symmetric member stands in for it
    if b == 0.0:
        return zero_b_family(n, 0.5).design
    return t_optimal_design(n, b).design


# Critical ratios b*_n = n tan^2(pi/2n), rounded to nearest at 4 d.p.
# Exact forms: b*_3 = 1, b*_4 = 12 - 8 sqrt(2) = 0.686291..., b*_5 =
# 5 - 2 sqrt(5) = 0.527864..., b*_6 = 42 - 24 sqrt(3) = 0.430780...; the
# rest are 0.364665..., 0.316529..., 0.279820... and 0.250856... for
# n = 7..10 (mpmath, 50 digits). test_c1 re-derives every entry.
REFERENCE_CRITICAL_4DP = {
    3: 1.0000, 4: 0.6863, 5: 0.5279, 6: 0.4308,
    7: 0.3647, 8: 0.3165, 9: 0.2798, 10: 0.2509,
}

# Tabulated simulated powers for the two 48-run study designs over
# theta3 = 0, 0.5, 1.0, 1.5, 2.0, and the exact noncentral-F powers for
# the same cells. The tabulated theta3 >= 1.5 entries are 0.02-0.04 away
# from the exact distribution, far beyond Monte-Carlo noise at 1e5 reps.
REFERENCE_POWER = {
    "T-optimal": (0.051, 0.104, 0.301, 0.641, 0.896),
    "Equidistant": (0.053, 0.092, 0.218, 0.438, 0.638),
}
EXACT_POWER_4DP = {
    "T-optimal": (0.0500, 0.1066, 0.3026, 0.6066, 0.8592),
    "Equidistant": (0.0500, 0.0849, 0.2039, 0.4141, 0.6609),
}


def test_c1_critical_value_table():
    # the table follows from its defining formula alone, not from the program
    with mpmath.workdps(50):
        for n, ref in REFERENCE_CRITICAL_4DP.items():
            exact = n * mpmath.tan(mpmath.pi / (2 * n)) ** 2
            assert ref == round(float(exact), 4), f"table entry n={n}"
    values = {}
    for n in range(3, 11):
        values[n] = float(_cli("critical", "--n", str(n)))
        assert values[n] == critical_b(n)
        assert values[n] == pytest.approx(
            n * math.tan(math.pi / (2 * n)) ** 2, rel=1e-15
        )
    for n in range(3, 11):
        # min over repeats: the true cost, shielded from load spikes
        best = math.inf
        for _ in range(25):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                main(["critical", "--n", str(n)])
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"critical --n {n} took {best * 1e3:.2f} ms"
    off = {
        n: (round(values[n], 4), REFERENCE_CRITICAL_4DP[n])
        for n in range(3, 11)
        if round(values[n], 4) != REFERENCE_CRITICAL_4DP[n]
    }
    assert not off, (
        "ACCEPTANCE 1 FAIL: critical values printed by the CLI disagree "
        "with the tabulated 4 d.p. reference at "
        + "; ".join(
            f"n={n}: {values[n]:.12f} -> {got} vs tabulated {want}"
            for n, (got, want) in sorted(off.items())
        )
        + ". Each tabulated entry is n*tan(pi/2n)**2 at 50 digits, rounded "
        "to nearest at 4 d.p., so the printed values are wrong."
    )
    print("ACCEPTANCE 1 PASS: critical values match the tabulated reference "
          "to 4 d.p. for n = 3..10, each computed in under 1 ms")


def test_c2_closed_form_quintic_design():
    ref_w = np.array([0.038, 0.138, 0.262, 0.362, 0.2])
    bc = critical_b(5)  # 0.528 to three decimals; the closed form ends here
    i = np.arange(1, 6)
    for b in np.linspace(1e-3, bc, 12):
        b = float(b)
        d = t_optimal_design(5, b).design
        assert np.max(np.abs(d.weights - ref_w)) <= 5e-4
        formula = -(1.0 + b / 5.0) * np.cos(i * np.pi / 5.0) - b / 5.0
        assert np.max(np.abs(d.points - formula)) <= 1e-12
    assert np.array_equal(t_optimal_design(5, 0.3).design.weights,
                          canonical_weights(5))
    print("ACCEPTANCE 2 PASS: quintic weights equal (0.038, 0.138, 0.262, "
          "0.362, 0.2) to 3 d.p. across the regime; support matches the "
          "formula to 1e-12")


def test_c3_equivalence_and_moment_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        for b in _regime_grid(n):
            b = float(b)
            res = equivalence_system(_optimal_design(n, b),
                                     closed_form_psi(n, b), n)
            worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= 1e-10
    worst_id = max(
        abs(appendix_identity(n, k))
        for n in range(2, 13)
        for k in range(0, n - 1)
    )
    assert worst_id <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS: equivalence residuals <= {worst:.2e} over "
          f"n = 2..10, alternating-cosine identities <= {worst_id:.2e} for "
          f"n = 2..12, in {elapsed:.2f} s")


def test_c4_remez_cross_validation():
    worst_dev = worst_coef = 0.0
    most_iters = 0
    for n in range(2, 11):
        for b in _regime_grid(n):
            b = float(b)
            res = remez(n, b)
            most_iters = max(most_iters, res.iterations)
            assert res.iterations <= 20
            dev_formula = (1.0 + abs(b) / n) ** n / 2.0 ** (n - 1)
            worst_dev = max(worst_dev, abs(res.deviation - dev_formula))
            best_cf = target_polynomial(n, b) - closed_form_psi(n, b)
            x = np.linspace(-1.0, 1.0, 201)
            worst_coef = max(
                worst_coef, float(np.max(np.abs(res.approximant(x) - best_cf(x))))
            )
    assert worst_dev <= 1e-9
    assert worst_coef <= 1e-8
    print(f"ACCEPTANCE 4 PASS: exchange deviations within {worst_dev:.2e} of "
          f"(1+|b|/n)^n/2^(n-1), approximants within {worst_coef:.2e} of the "
          f"closed form, <= {most_iters} iterations per case")


def test_c5_criterion_matches_formula():
    worst = 0.0
    for n in range(2, 11):
        for b in _regime_grid(n):
            b = float(b)
            val = t_criterion(_optimal_design(n, b),
                              DiscriminationProblem(n, b=b))
            formula = (1.0 + abs(b) / n) ** (2 * n) / 2.0 ** (2 * n - 2)
            worst = max(worst, abs(val / formula - 1.0))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 5 PASS: optimal criterion equals "
          f"(1+|b|/n)^(2n)/2^(2n-2) within relative {worst:.2e}")


def test_c6_continuation_consistency(tmp_path):
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        lim = bbar_limit(n)
        bc = critical_b(n)
        start = d1_optimal_start(n)
        got = solve_at(n, 0.0)
        assert max(np.abs(getattr(got, k) - getattr(start, k)).max()
                   for k in ("coeffs", "points", "weights")) <= 1e-9
        for sgn in (1.0, -1.0):
            d = solve_at(n, sgn * lim).design()
            cf = t_optimal_design(n, sgn * bc).design
            assert np.max(np.abs(d.points - cf.points)) <= 1e-5
            assert np.max(np.abs(d.weights - cf.weights)) <= 1e-5
        margins = [
            inequality_margin(solve_at(n, float(v)))
            for v in np.linspace(-lim, lim, 40)
        ]
        assert max(margins) <= 1e-8
    lim5 = bbar_limit(5)
    out_file = tmp_path / "trajectory_n5.csv"
    _cli("trajectory", "--n", "5", "--bbar-min", repr(-lim5),
         "--bbar-max", repr(lim5), "--steps", "41", "--out", str(out_file))
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "bbar,t_1,t_2,t_3,t_4,t_5,w_1,w_2,w_3,w_4,w_5,criterion"
    assert len(lines) == 42
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        pts, wts = row[1:6], row[6:11]
        assert pts[0] == -1.0 and pts[-1] == 1.0
        assert all(lo < hi for lo, hi in zip(pts, pts[1:]))
        assert all(w > 1e-6 for w in wts)
        assert math.isclose(sum(wts), 1.0, abs_tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 6 PASS: path matches the anchor at 1e-9 and the "
          f"closed form at the boundary to 1e-5, margins <= 1e-8 at 40 "
          f"ratios, 5-point trajectories with endpoint support throughout, "
          f"in {elapsed:.1f} s")


def test_c7_maximin_designs():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        d = maximin_design(n, RatioInterval.whole_line())
        i = np.arange(n + 1)
        ref_pts = -np.cos(i * np.pi / n)
        ref_wts = np.full(n + 1, 1.0 / n)
        ref_wts[0] = ref_wts[-1] = 1.0 / (2 * n)
        assert np.max(np.abs(d.points - ref_pts)) <= 1e-15
        assert np.array_equal(d.weights, ref_wts)
        vals = [r_value(n, float(b))
                for b in np.linspace(0.0, 2.0 * critical_b(n), 50)]
        assert np.all(np.diff(vals) > 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS: whole-line designs equal the extremal-point "
          f"formula and R is strictly increasing across both regimes "
          f"(n = 3, 4, 5), in {elapsed:.1f} s")


def test_c8_power_table_reproduction():
    t0 = time.perf_counter()
    assert noncentrality(T_OPTIMAL_48, 1.0) == 3.0
    table = table1(reps=100_000)
    for name, row in table.items():
        for res, exact in zip(row, EXACT_POWER_4DP[name]):
            assert res.analytic == pytest.approx(exact, abs=5e-5)
            assert res.consistent, (
                f"{name} theta3={res.theta3}: mc={res.estimate:.4f} vs "
                f"analytic={res.analytic:.4f}, se={res.std_error:.4f}"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    off = []
    for name, row in table.items():
        for res, ref in zip(row, REFERENCE_POWER[name]):
            gap = abs(res.estimate - ref)
            if gap > 0.015:
                off.append(
                    f"{name} theta3={res.theta3}: mc={res.estimate:.4f} vs "
                    f"tabulated {ref} (gap {gap:.4f}; exact power "
                    f"{res.analytic:.4f})"
                )
    assert not off, (
        "ACCEPTANCE 8 FAIL: every cell is within 3 standard errors of the "
        "exact noncentral-F power and the oracle gives lambda = 3.0 exactly "
        "at theta3 = 1 for the T-optimal design, but these cells miss the "
        "tabulated simulated powers by more than 0.015: " + " | ".join(off)
        + ". Those tabulated entries sit 0.02-0.04 from the exact "
        "distribution, beyond any correct simulation at this replication "
        "count."
    )
    print(f"ACCEPTANCE 8 PASS: both power rows reproduced within 0.015 of "
          f"the tabulated values and 3 standard errors of the exact "
          f"distribution, in {elapsed:.0f} s")


def test_c9_zero_b_nonuniqueness():
    worst = 0.0
    for n in range(3, 9):
        target = 0.5 ** (2 * n - 2)
        problem = DiscriminationProblem(n, b=0.0)
        for alpha in np.linspace(0.0, 1.0, 11):
            val = t_criterion(zero_b_family(n, float(alpha)).design, problem)
            worst = max(worst, abs(val / target - 1.0))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 9 PASS: all eleven family members share the "
          f"criterion value 1/2^(2n-2) within relative {worst:.2e} "
          f"for n = 3..8")
