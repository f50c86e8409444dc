"""Power of the lack-of-fit F-test under a cubic alternative.

The protocol: N observations at k fixed points in [-1, 1], n_i of them at
point i, responses y = theta3 * x^3 plus standard normal noise, a full
cubic fit tested against a straight line with the F statistic on
(2, N - 4) degrees of freedom. Power comes two ways, by seeded simulation
and by the exact noncentral F distribution, and the two must agree; every
simulated figure carries its seed and generator so it can be reproduced
bit for bit.

The simulation draws, per replicate, the F statistic's own two parts: its
numerator sum of squares, noncentral chi-square on 2 degrees of freedom
with the test's noncentrality, and its independent residual sum of
squares, central chi-square on N - 4 (Scheffe 1959, ch. 2). The numerator
is the squared length of a shifted normal pair, which in polar form (Box &
Muller 1958) needs only an exponential and an angle. The figures stay
exact draws from the test's distribution at 3 variates per replicate for
any design, 2 under the null. scipy is imported only inside the two
functions that need it, so importing the package loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import Design
from .errors import _numbers, check_integer, check_ratio

THETA3_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)
DEFAULT_LEVEL = 0.05
DEFAULT_REPS = 100_000
DEFAULT_SEED = 20260821
# PCG64 streams; Generator.standard_exponential draws ziggurat exponentials.
# Per chunk of replicates the numerator's exponentials come first, then its
# uniform angles (none under the null), then the residual sums of squares.
RNG_INFO = {"bit_generator": "PCG64", "exponentials": "ziggurat",
            "scheme": "exponential-angle+residual-chisquare"}

_CHUNK = 1 << 15


@dataclass
class ExactDesign:
    """Repeated-observation design: counts[i] runs at points[i].

    Counts follow n's integer rule and sum below 2**63, one per point;
    points follow Design's rule.
    """

    points: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        cnt = np.atleast_1d(np.asarray(self.counts, dtype=object)).tolist()
        counts = [check_integer(c, "counts", 1) for c in cnt]
        if sum(counts) >= 2**63:
            raise ValueError("counts must sum to less than 2**63")
        pts = np.atleast_1d(_numbers(self.points))
        if pts.ndim == 1 and (pts.size == 0 or pts.size != len(counts)):
            raise ValueError("points and counts must be non-empty and equally long")
        self.counts = np.array(counts, dtype=int)
        self.points = Design(pts, self.counts / self.size).points

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    def expanded(self) -> np.ndarray:
        return np.repeat(self.points, self.counts)


# The two study designs with N = 48: the optimal discrimination design for
# the cubic-versus-line pair (weights 1/6, 1/3, 1/3, 1/6 times 48) and the
# equal-allocation comparator on equispaced points.
T_OPTIMAL_48 = ExactDesign(np.array([-1.0, -0.5, 0.5, 1.0]),
                           np.array([8, 16, 16, 8]))
EQUIDISTANT_48 = ExactDesign(np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0]),
                             np.array([12, 12, 12, 12]))


@dataclass
class PowerResult:
    """One simulated power figure next to its exact counterpart."""

    theta3: float
    estimate: float
    std_error: float
    analytic: float

    @property
    def consistent(self) -> bool:
        """True when the estimate sits within three standard errors of exact."""
        return abs(self.estimate - self.analytic) <= 3.0 * self.std_error


def _line_projection_rss(design: ExactDesign) -> float:
    """Count-weighted squared distance of x^3 from the span of 1 and x.

    Solved by Cramer's rule on the 2x2 normal equations; for the designs of
    interest every intermediate is an exact binary fraction, so the result
    is exact as well.
    """
    x, n = design.points, design.counts.astype(float)
    s0 = float(n.sum())
    s1 = float(np.dot(n, x))
    s2 = float(np.dot(n, x * x))
    x3 = x**3
    r0 = float(np.dot(n, x3))
    r1 = float(np.dot(n, x * x3))
    det = s0 * s2 - s1 * s1
    if det <= 0.0:
        raise ValueError("design cannot support a straight-line fit")
    c1 = (s0 * r1 - s1 * r0) / det
    c0 = (r0 - c1 * s1) / s0
    res = x3 - c0 - c1 * x
    return float(np.dot(n, res * res))


def noncentrality(design: ExactDesign, theta3: float) -> float:
    """F-test noncentrality theta3^2 times the lack-of-fit sum of squares; theta3 finite."""
    theta3 = check_ratio(theta3, "theta3", finite=True)
    return theta3 * theta3 * _line_projection_rss(design)


def _f_test(design: ExactDesign, theta3: float,
            level: float) -> tuple[float, int, float]:
    """Noncentrality, residual degrees of freedom and critical value.

    Checks theta3, then the design, then level, in (0, 1) after
    check_ratio's rule, then that the noncentrality is finite. The points
    are strictly increasing, so the cubic fit is identifiable exactly when
    there are at least 4 of them. scipy's F quantile gives the critical
    value.
    """
    theta3 = check_ratio(theta3, "theta3", finite=True)
    if design.points.size < 4:
        raise ValueError("design cannot support the cubic fit (need 4 distinct points)")
    if design.size <= 4:
        raise ValueError("design leaves no residual degrees of freedom (need N > 4 runs)")
    level = check_ratio(level, "level")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    lam = theta3 * theta3 * _line_projection_rss(design)
    if lam == math.inf:
        raise ValueError("noncentrality must be finite and nonnegative")
    from scipy import special

    dfd = design.size - 4
    return lam, dfd, float(special.fdtri(2, dfd, 1.0 - level))


def _power(lam: float, dfd: int, crit: float, level: float) -> float:
    """Survival function of the noncentral F on (2, dfd) at crit, clamped to [0, 1].

    scipy's ncfdtr is NaN beyond a noncentrality of about 1e18. The power
    is nondecreasing in lam, so there it is read at repeated square roots of
    lam until scipy answers: a power of exactly 1 there is the power at lam.
    Any other answer, or none, raises ValueError naming the noncentrality.
    """
    if lam == 0.0:
        # central case: the survival function at the level quantile is the level
        return float(level)
    from scipy import special

    ref = lam
    cdf = float(special.ncfdtr(2, dfd, ref, crit))
    while cdf != cdf and ref > 1.0:
        ref = math.sqrt(ref)
        cdf = float(special.ncfdtr(2, dfd, ref, crit))
    if cdf != cdf or (ref != lam and cdf != 0.0):
        raise ValueError(f"noncentrality {lam!r} is beyond the exact power's range")
    return min(max(1.0 - cdf, 0.0), 1.0)


def f_test_power_analytic(design: ExactDesign, theta3: float,
                          level: float = DEFAULT_LEVEL) -> float:
    """Exact rejection probability of the lack-of-fit test."""
    return _power(*_f_test(design, theta3, level), level)


def f_test_power_mc(design: ExactDesign, theta3: float, reps: int, seed: int,
                    level: float = DEFAULT_LEVEL) -> PowerResult:
    """Simulated rejection rate of the lack-of-fit test.

    Parameters
    ----------
    design : ExactDesign
        Observation points with repetition counts; total size N.
    theta3 : float
        Cubic coefficient of the true mean (all lower coefficients zero,
        which costs no generality since the test statistic is invariant
        to them).
    reps : int
        Independent replications, an integer >= 1000.
    seed : int
        Seeds a fresh PCG64 stream; identical seeds reproduce identical
        estimates. An integer >= 0.

    Raises ValueError for reps or seed off the integer rule of n (an
    integral float counts, a fraction, infinity, bool or string does not),
    for a non-finite theta3, or for a design without 4 distinct points or
    with N <= 4 runs, before any draw.

    Notes
    -----
    The numerator sum of squares is (z1 + sqrt(lam))^2 + z2^2 for a
    standard normal pair, lam the noncentrality. In polar form the pair
    is sqrt(2E) (cos t, sin t), E standard exponential and t uniform, so
    the numerator is 2E + lam + 2 sqrt(2 lam E) cos t exactly; cos t has
    the law of cos(pi U), U uniform on [0, 1). The residual sum of
    squares is an independent chi-square on N - 4 degrees of freedom,
    drawn as twice a gamma variate on (N - 4) / 2, which is numpy's
    chisquare bit for bit. Each replicate costs 3 draws for any design,
    2 under the null (lam = 0), where the angle drops out. Per chunk of
    replicates the exponentials come first, then the angles, then the
    residual sums (``RNG_INFO["scheme"]``), each filled into a buffer
    allocated once per call.
    """
    reps = check_integer(reps, "reps", 1000)
    seed = check_integer(seed, "seed", 0)
    lam, dfd, crit = _f_test(design, theta3, level)
    # a hit is num / 2 > crit rss / dfd with num / 2 = E + lam / 2 +
    # sqrt(2 lam E) cos(pi U) and rss = 2 G, G the gamma variate
    amp, gain = math.sqrt(2.0 * lam), 2.0 * crit / dfd
    rng = np.random.Generator(np.random.PCG64(seed))
    size = min(_CHUNK, reps)
    e, u, g = np.empty(size), np.empty(size), np.empty(size)
    hit = np.empty(size, dtype=bool)
    hits = 0
    done = 0
    while done < reps:
        m = min(size, reps - done)
        ev, uv, gv = e[:m], u[:m], g[:m]
        rng.standard_exponential(out=ev)
        if lam > 0.0:
            rng.random(out=uv)
            uv *= math.pi
            np.cos(uv, out=uv)
            np.sqrt(ev, out=gv)
            gv *= uv
            gv *= amp
            gv += lam / 2.0
            ev += gv
        rng.standard_gamma(dfd / 2.0, out=gv)
        gv *= gain
        hits += int(np.count_nonzero(np.greater(ev, gv, out=hit[:m])))
        done += m
    est = hits / reps
    se = math.sqrt(est * (1.0 - est) / reps)
    return PowerResult(
        theta3=float(theta3),
        estimate=est,
        std_error=se,
        analytic=_power(lam, dfd, crit, level),
    )


def table1(reps: int = DEFAULT_REPS, seed: int = DEFAULT_SEED,
           level: float = DEFAULT_LEVEL) -> dict[str, list[PowerResult]]:
    """Power of both study designs over the standard theta3 grid.

    Each of the ten cells runs on its own substream derived from the master
    seed, so the table is reproducible as a whole and cell by cell. reps
    must be an integer >= 10000 and seed an integer >= 0; level must lie in
    (0, 1), which the first cell checks before any draw.
    """
    reps = check_integer(reps, "reps", 10_000)
    seed = check_integer(seed, "seed", 0)
    designs = {"T-optimal": T_OPTIMAL_48, "Equidistant": EQUIDISTANT_48}
    cell_seeds = np.random.SeedSequence(seed).generate_state(
        len(designs) * len(THETA3_GRID), dtype=np.uint64
    )
    out: dict[str, list[PowerResult]] = {}
    k = 0
    for name, design in designs.items():
        row = []
        for theta3 in THETA3_GRID:
            row.append(
                f_test_power_mc(design, theta3, reps, int(cell_seeds[k]), level)
            )
            k += 1
        out[name] = row
    return out


def table1_csv(results: dict[str, list[PowerResult]], reps: int, seed: int) -> str:
    """Render a power table as CSV with the RNG recorded in a comment line.

    reps and seed follow table1's rule: integers >= 10000 and >= 0.
    """
    reps = check_integer(reps, "reps", 10_000)
    seed = check_integer(seed, "seed", 0)
    lines = [
        f"# rng={RNG_INFO['bit_generator']} exponentials={RNG_INFO['exponentials']} "
        f"scheme={RNG_INFO['scheme']}",
        "design,theta3,mc_power,std_err,analytic_power,reps,seed",
    ]
    for name, row in results.items():
        for r in row:
            lines.append(
                f"{name},{r.theta3!r},{r.estimate!r},{r.std_error!r},"
                f"{r.analytic!r},{reps},{seed}"
            )
    return "\n".join(lines) + "\n"
