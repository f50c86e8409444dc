import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from tdiscrim import power
from tdiscrim.designs import Design, DiscriminationProblem, t_criterion
from tdiscrim.power import (
    EQUIDISTANT_48,
    T_OPTIMAL_48,
    ExactDesign,
    f_critical,
    f_test_power_analytic,
    f_test_power_mc,
    noncentral_f_sf,
    noncentrality,
    table1,
    table1_csv,
)

# designs beyond the two study designs: more than four points, unequal
# counts, and one run per point (every residual degree of freedom is lack of
# fit)
SIX_BY_8 = ExactDesign(np.linspace(-1.0, 1.0, 6), [8] * 6)
TWELVE_ON_5 = ExactDesign([-1.0, -0.5, 0.0, 0.5, 1.0], [3, 2, 2, 2, 3])
TEN_SINGLE = ExactDesign(np.linspace(-1.0, 1.0, 10), [1] * 10)
FOUR_SINGLE = ExactDesign([-1.0, -0.5, 0.5, 1.0], [1, 1, 1, 1])


class TestExactDesign:
    def test_sizes(self):
        assert T_OPTIMAL_48.size == 48
        assert EQUIDISTANT_48.size == 48
        assert T_OPTIMAL_48.expanded().shape == (48,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactDesign([0.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            ExactDesign([0.0, 0.5], [1, 0])
        with pytest.raises(ValueError):
            ExactDesign([0.0, 0.5], [1, 1.5])
        with pytest.raises(ValueError):
            ExactDesign([0.5, 0.0], [1, 1])


class TestNoncentrality:
    def test_t_optimal_exact(self):
        # every intermediate is a binary fraction, so this is literally exact
        assert noncentrality(T_OPTIMAL_48, 1.0) == 3.0

    def test_equidistant_fraction(self):
        ref = float(Fraction(48 * 144, 3645))
        assert noncentrality(EQUIDISTANT_48, 1.0) == pytest.approx(ref, rel=1e-13)

    def test_scales_with_theta_squared(self):
        assert noncentrality(T_OPTIMAL_48, 2.0) == 12.0
        assert noncentrality(T_OPTIMAL_48, -1.0) == 3.0

    def test_links_to_design_criterion(self):
        # lack-of-fit SS = N times the criterion of the normalized design
        for exact in (T_OPTIMAL_48, EQUIDISTANT_48):
            d = Design(exact.points, exact.counts / exact.size)
            crit = t_criterion(d, DiscriminationProblem(3, b=0.0))
            assert noncentrality(exact, 1.0) == pytest.approx(
                exact.size * crit, rel=1e-12
            )


class TestNoncentralF:
    def test_matches_scipy_across_grid(self):
        crit = f_critical(0.05, 2, 44)
        for lam in (0.0, 0.5, 0.75, 3.0, 6.75, 12.0, 30.0):
            mine = noncentral_f_sf(crit, 2, 44, lam)
            ref = float(stats.ncf.sf(crit, 2, 44, lam)) if lam > 0 else 0.05
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_nonpositive_argument(self):
        assert noncentral_f_sf(0.0, 2, 44, 1.0) == 1.0

    def test_monotone_in_noncentrality(self):
        crit = f_critical(0.05, 2, 44)
        vals = [noncentral_f_sf(crit, 2, 44, lam) for lam in np.linspace(0, 12, 13)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            noncentral_f_sf(1.0, 2, 44, -0.5)
        with pytest.raises(ValueError):
            f_critical(0.0, 2, 44)

    def test_critical_value_matches_scipy_stats(self):
        for level in (0.01, 0.05, 0.1):
            for dfd in (1, 6, 44, 200):
                assert f_critical(level, 2, dfd) == pytest.approx(
                    float(stats.f.isf(level, 2, dfd)), rel=1e-14
                )

    def test_matches_scipy_over_wide_noncentrality(self):
        for x in (0.5, f_critical(0.05, 2, 44), 10.0):
            for lam in np.linspace(0.01, 60.0, 25):
                assert noncentral_f_sf(x, 2, 44, lam) == pytest.approx(
                    float(stats.ncf.sf(x, 2, 44, lam)), abs=1e-14
                )

    def test_critical_value_needs_degrees_of_freedom(self):
        for dfn, dfd in ((2, 0), (2, -1), (0, 44)):
            with pytest.raises(ValueError, match="degrees of freedom"):
                f_critical(0.05, dfn, dfd)


class TestAnalyticPower:
    def test_level_at_null(self):
        assert f_test_power_analytic(T_OPTIMAL_48, 0.0) == 0.05
        assert f_test_power_analytic(EQUIDISTANT_48, 0.0, level=0.01) == 0.01

    def test_frozen_values(self):
        # noncentral F with df (2, 44) at the 5% critical value
        expect_t = [0.0500, 0.1066, 0.3026, 0.6066, 0.8592]
        expect_e = [0.0500, 0.0849, 0.2039, 0.4141, 0.6609]
        for theta3, ref in zip((0.0, 0.5, 1.0, 1.5, 2.0), expect_t):
            assert f_test_power_analytic(T_OPTIMAL_48, theta3) == pytest.approx(
                ref, abs=5e-5
            )
        for theta3, ref in zip((0.0, 0.5, 1.0, 1.5, 2.0), expect_e):
            assert f_test_power_analytic(EQUIDISTANT_48, theta3) == pytest.approx(
                ref, abs=5e-5
            )

    def test_symmetric_in_theta(self):
        assert f_test_power_analytic(T_OPTIMAL_48, 1.5) == f_test_power_analytic(
            T_OPTIMAL_48, -1.5
        )

    def test_optimal_design_dominates(self):
        for theta3 in (0.5, 1.0, 1.5, 2.0):
            assert f_test_power_analytic(T_OPTIMAL_48, theta3) > f_test_power_analytic(
                EQUIDISTANT_48, theta3
            )


class TestMonteCarloPower:
    def test_agrees_with_analytic(self):
        res = f_test_power_mc(T_OPTIMAL_48, 1.0, reps=20_000, seed=101)
        assert res.consistent
        assert res.std_error == pytest.approx(
            np.sqrt(res.estimate * (1 - res.estimate) / 20_000), rel=1e-12
        )

    def test_holds_level_under_null(self):
        res = f_test_power_mc(EQUIDISTANT_48, 0.0, reps=20_000, seed=7)
        assert res.analytic == 0.05
        assert res.consistent

    def test_deterministic_given_seed(self):
        a = f_test_power_mc(T_OPTIMAL_48, 0.5, reps=2000, seed=33)
        b = f_test_power_mc(T_OPTIMAL_48, 0.5, reps=2000, seed=33)
        assert a.estimate == b.estimate

    def test_reps_gate(self):
        # reps and seed follow the integer rule, checked before any draw
        for reps, seed in [(10, 1), (1000.7, 1), (float("inf"), 1), ("2000", 1),
                           (2000, 1.5), (2000, -1)]:
            with pytest.raises(ValueError, match="^(reps|seed) must be an integer >= "):
                f_test_power_mc(T_OPTIMAL_48, 1.0, reps=reps, seed=seed)

    def test_integral_float_reps_and_seed_count(self):
        assert (f_test_power_mc(T_OPTIMAL_48, 1.0, 2000.0, 5.0)
                == f_test_power_mc(T_OPTIMAL_48, 1.0, 2000, 5))

    def test_rank_deficient_design_rejected(self):
        three = ExactDesign([-1.0, 0.0, 1.0], [16, 16, 16])
        with pytest.raises(ValueError):
            f_test_power_mc(three, 1.0, reps=2000, seed=1)
        with pytest.raises(ValueError):
            f_test_power_analytic(three, 1.0)


class _CountingNumpy:
    """numpy with Generators that count the variates they return."""

    def __init__(self):
        self.draws = 0
        counter = self

        class CountingGenerator:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                attr = getattr(self._gen, name)

                def call(*args, **kwargs):
                    out = attr(*args, **kwargs)
                    counter.draws += int(np.size(out))
                    return out
                return call

        class Random:
            def __getattr__(self, name):
                return getattr(np.random, name)

            @staticmethod
            def Generator(*args, **kwargs):
                return CountingGenerator(np.random.Generator(*args, **kwargs))

        self.random = Random()

    def __getattr__(self, name):
        return getattr(np, name)


class TestSufficientStatistics:
    @pytest.mark.parametrize("design", [TWELVE_ON_5, SIX_BY_8],
                             ids=["twelve-on-five", "six-points-x8"])
    def test_full_data_f_parts_follow_their_chi_squares(self, design):
        # the two fits to all N responses: the drop in RSS from the line to
        # the cubic is noncentral chi-square(2, lam), the cubic's RSS is an
        # independent central chi-square(N - 4)
        theta3 = 1.5
        x = design.expanded()
        y = np.random.default_rng(5).standard_normal((20_000, x.size)) + theta3 * x**3
        vander = np.vander(x, 4, increasing=True)

        def rss(cols):
            coef, *_ = np.linalg.lstsq(vander[:, :cols], y.T, rcond=None)
            res = y.T - vander[:, :cols] @ coef
            return np.einsum("ij,ij->j", res, res)

        rss_line, rss_cubic = rss(2), rss(4)
        lam = noncentrality(design, theta3)
        num = stats.kstest(rss_line - rss_cubic, stats.ncx2(2, lam).cdf)
        den = stats.kstest(rss_cubic, stats.chi2(x.size - 4).cdf)
        assert num.pvalue > 1e-3, num
        assert den.pvalue > 1e-3, den

    def test_stream_draws_pair_then_residual_ss(self):
        # the seeded stream: per chunk of 2^15 replicates, the shifted
        # normal pairs of the numerator, then the residual sums of squares
        theta3, reps = 1.5, 40_000
        for design in (SIX_BY_8, TEN_SINGLE):
            dfd = design.size - 4
            crit = f_critical(0.05, 2, dfd)
            shift = np.sqrt(noncentrality(design, theta3))
            for seed in (12, 13, 14):
                rng = np.random.Generator(np.random.PCG64(seed))
                hits = 0
                for m in (32_768, reps - 32_768):
                    pair = rng.standard_normal((m, 2))
                    pair[:, 0] += shift
                    num = np.einsum("ij,ij->i", pair, pair)
                    rss = rng.chisquare(dfd, m)
                    hits += np.count_nonzero((num / 2.0) / (rss / dfd) > crit)
                got = f_test_power_mc(design, theta3, reps, seed).estimate
                assert got == hits / reps, (design, seed)

    @pytest.mark.parametrize("design", [T_OPTIMAL_48, TEN_SINGLE],
                             ids=["t-optimal-48", "ten-single-runs"])
    def test_three_variates_per_replicate(self, design, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(power, "np", counting)
        f_test_power_mc(design, 1.0, 40_000, 9)
        assert counting.draws == 120_000

    @pytest.mark.parametrize(
        "design, seed",
        [(SIX_BY_8, 4101), (TWELVE_ON_5, 4102), (TEN_SINGLE, 4103)],
        ids=["six-points-x8", "twelve-on-five", "ten-single-runs"],
    )
    def test_beyond_four_points_within_four_standard_errors(self, design, seed):
        reps = 400_000
        for i, theta3 in enumerate((0.0, 1.0, 2.0)):
            res = f_test_power_mc(design, theta3, reps, seed + 10 * i)
            dfd = design.size - 4
            crit = float(stats.f.isf(0.05, 2, dfd))
            lam = noncentrality(design, theta3)
            exact = float(stats.ncf.sf(crit, 2, dfd, lam)) if lam > 0 else 0.05
            assert res.analytic == pytest.approx(exact, abs=1e-12)
            se = np.sqrt(exact * (1.0 - exact) / reps)
            assert abs(res.estimate - exact) <= 4.0 * se, (theta3, res)

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tdiscrim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestNoResidualDegreesOfFreedom:
    # N = 4 runs on 4 points: the cubic fits exactly, so no F test exists

    def test_simulation_raises_before_drawing(self, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(np.random, "PCG64", no_stream)
        for theta3 in (0.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="residual degrees of freedom"):
                    f_test_power_mc(FOUR_SINGLE, theta3, reps=1000, seed=1)

    def test_analytic_raises(self):
        for theta3 in (0.0, 1.0):
            with pytest.raises(ValueError, match="residual degrees of freedom"):
                f_test_power_analytic(FOUR_SINGLE, theta3)

    def test_five_runs_are_enough(self):
        five = ExactDesign([-1.0, -0.5, 0.5, 1.0], [1, 2, 1, 1])
        res = f_test_power_mc(five, 1.0, reps=2000, seed=1)
        assert 0.0 <= res.estimate <= 1.0 and 0.05 < res.analytic < 1.0


class TestTable:
    def test_small_table_consistent(self):
        tab = table1(reps=10_000, seed=3)
        assert set(tab) == {"T-optimal", "Equidistant"}
        for row in tab.values():
            assert len(row) == 5
            assert all(r.consistent for r in row)
            est = [r.estimate for r in row]
            assert all(a <= b + 0.02 for a, b in zip(est, est[1:]))

    def test_reps_gate(self):
        with pytest.raises(ValueError):
            table1(reps=500)
        with pytest.raises(ValueError, match="^reps must be an integer >= 10000$"):
            table1(reps=10000.5)
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            table1(reps=10_000, seed=2.5)

    def test_csv_records_sampling_scheme(self):
        text = table1_csv({"T-optimal": []}, 10_000, 3)
        assert text.split("\n")[0] == (
            "# rng=PCG64 normals=ziggurat scheme=noncentral-pair+residual-chisquare"
        )

    def test_csv_shape(self):
        tab = table1(reps=10_000, seed=3)
        text = table1_csv(tab, 10_000, 3)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# rng=PCG64")
        assert lines[1] == "design,theta3,mc_power,std_err,analytic_power,reps,seed"
        assert len(lines) == 12
        cells = lines[2].split(",")
        assert cells[0] == "T-optimal"
        assert float(cells[1]) == 0.0
        assert int(cells[5]) == 10_000


def _theta3_message(theta3):
    """The package-wide messages of check_ratio for a non-finite theta3."""
    if np.isnan(theta3):
        return "^theta3 must be a number, got nan$"
    return "^theta3 must be finite, got -?inf$"


class TestNonFiniteTheta3:
    @pytest.mark.parametrize("theta3", [np.nan, np.inf, -np.inf])
    def test_simulation_raises_before_any_generator(self, theta3, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("generator created")

        monkeypatch.setattr(np.random, "PCG64", no_stream)
        monkeypatch.setattr(np.random, "Generator", no_stream)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=_theta3_message(theta3)):
                f_test_power_mc(T_OPTIMAL_48, theta3, 1000, 1)

    @pytest.mark.parametrize("theta3", [np.nan, np.inf, -np.inf])
    def test_analytic_raises(self, theta3):
        with pytest.raises(ValueError, match=_theta3_message(theta3)):
            f_test_power_analytic(T_OPTIMAL_48, theta3)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_survival_function_rejects_bad_noncentrality(self, lam):
        with pytest.raises(ValueError, match="noncentrality"):
            noncentral_f_sf(3.0, 2, 44, lam)
