"""Power of the lack-of-fit F-test under a cubic alternative.

The protocol: N observations at k fixed points in [-1, 1], n_i of them at
point i, responses y = theta3 * x^3 plus standard normal noise, a full
cubic fit tested against a straight line with the F statistic on
(2, N - 4) degrees of freedom. Power comes two ways, by seeded simulation
and by the exact noncentral F distribution, and the two must agree; every
simulated figure carries its seed and generator so it can be reproduced
bit for bit.

The simulation draws, per replicate, the k group means and the pooled
within-point sum of squares instead of all N responses. Together they are
sufficient for the F statistic (the pure-error / lack-of-fit split), so
the figures stay exact draws from the test's distribution at k + 1
variates per replicate. scipy is imported only inside the two functions
that need it, so importing the package loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

THETA3_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)
DEFAULT_LEVEL = 0.05
DEFAULT_REPS = 100_000
DEFAULT_SEED = 20260821
# Generator.standard_normal draws ziggurat normals from PCG64 streams; per
# chunk of replicates, the scaled group means come first, then the pooled
# within-point sums of squares.
RNG_INFO = {"bit_generator": "PCG64", "normals": "ziggurat",
            "scheme": "group-means+pooled-chisquare"}

_CHUNK = 1 << 15


@dataclass
class ExactDesign:
    """Repeated-observation design: counts[i] runs at points[i]."""

    points: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        cnt = np.atleast_1d(np.asarray(self.counts))
        if pts.ndim != 1 or cnt.ndim != 1 or pts.size == 0 or pts.size != cnt.size:
            raise ValueError("points and counts must be equally long and non-empty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if pts.min() < -1.0 or pts.max() > 1.0:
            raise ValueError("points must lie in [-1, 1]")
        if pts.size > 1 and np.any(np.diff(pts) <= 0.0):
            raise ValueError("points must be strictly increasing")
        if np.any(cnt != np.floor(cnt)) or np.any(cnt < 1):
            raise ValueError("counts must be positive integers")
        self.points = pts
        self.counts = cnt.astype(int)

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


def f_critical(level: float, dfn: int, dfd: int) -> float:
    """Upper critical value of the central F distribution."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if dfn <= 0 or dfd <= 0:
        raise ValueError("degrees of freedom must be positive")
    from scipy import special

    return float(special.fdtri(dfn, dfd, 1.0 - level))


def noncentral_f_sf(x: float, dfn: int, dfd: int, noncentrality: float) -> float:
    """Survival function of the noncentral F distribution.

    One minus scipy's noncentral F distribution function, clamped to
    [0, 1]; the central case at zero noncentrality.
    """
    if dfn <= 0 or dfd <= 0:
        raise ValueError("degrees of freedom must be positive")
    if not 0.0 <= noncentrality < math.inf:
        raise ValueError("noncentrality must be finite and nonnegative")
    if x <= 0.0:
        return 1.0
    from scipy import special

    cdf = float(special.ncfdtr(dfn, dfd, noncentrality, x))
    return min(max(1.0 - cdf, 0.0), 1.0)


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


def _check_theta3(theta3: float) -> None:
    if not math.isfinite(theta3):
        raise ValueError(f"theta3 must be finite, got {theta3!r}")


def noncentrality(design: ExactDesign, theta3: float) -> float:
    """F-test noncentrality theta3^2 times the lack-of-fit sum of squares."""
    return float(theta3) ** 2 * _line_projection_rss(design)


def _cubic_basis(design: ExactDesign) -> np.ndarray:
    """Orthonormal k x k basis for the count-weighted fit on the k points.

    QR of the k x 4 Vandermonde matrix with row i scaled by sqrt(n_i):
    columns 0-1 span the straight line, 2-3 complete the cubic and the
    remaining k - 4 span the lack of fit left over by the cubic.
    """
    scaled = np.sqrt(design.counts)[:, None] * np.vander(design.points, 4,
                                                         increasing=True)
    if np.linalg.matrix_rank(scaled) < 4:
        raise ValueError("design cannot support the cubic fit (need 4 distinct points)")
    if design.size <= 4:
        raise ValueError("design leaves no residual degrees of freedom (need N > 4 runs)")
    basis, _ = np.linalg.qr(scaled, mode="complete")
    return basis


def _lack_of_fit_f(means: np.ndarray, pure: np.ndarray | float,
                   basis: np.ndarray, dfd: int) -> np.ndarray:
    """F statistics from scaled group means and pooled within-point SS.

    means holds one replicate per row, sqrt(n_i) times the mean response at
    point i; pure is the within-point sum of squares. The cubic's residual
    SS is pure plus the means' part outside the cubic, and the numerator is
    their part inside the cubic but outside the line.
    """
    proj = means @ basis
    extra = proj[:, 2:4]
    rest = proj[:, 4:]
    num = np.einsum("ij,ij->i", extra, extra)
    rss_f = pure + np.einsum("ij,ij->i", rest, rest)
    return (num / 2.0) / (rss_f / dfd)


def f_test_power_analytic(design: ExactDesign, theta3: float,
                          level: float = DEFAULT_LEVEL) -> float:
    """Exact rejection probability of the lack-of-fit test."""
    _check_theta3(theta3)
    _cubic_basis(design)
    lam = noncentrality(design, theta3)
    if lam == 0.0:
        # central case: the survival function at the level quantile is the level
        return float(level)
    crit = f_critical(level, 2, design.size - 4)
    return noncentral_f_sf(crit, 2, design.size - 4, lam)


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
        Independent replications, at least 1000.
    seed : int
        Seeds a fresh PCG64 stream; identical seeds reproduce identical
        estimates.

    Raises ValueError for a non-finite theta3, or for a design without 4
    distinct points or with N <= 4 runs, before any draw.

    Notes
    -----
    Each replicate draws the k scaled group means sqrt(n_i) * ybar_i, which
    are normal with mean sqrt(n_i) * theta3 * x_i^3 and unit variance, and
    then the pooled within-point sum of squares, chi-square on N - k
    degrees of freedom (not drawn when every point has one run). These are
    sufficient for the F statistic, so each replicate costs k + 1 draws
    instead of N. Per chunk of replicates the means come first, then the
    sums of squares (``RNG_INFO["scheme"]``).
    """
    reps = int(reps)
    if reps < 1000:
        raise ValueError("reps must be at least 1000")
    _check_theta3(theta3)
    basis = _cubic_basis(design)
    k, nn = design.points.size, design.size
    crit = f_critical(level, 2, nn - 4)
    shift = np.sqrt(design.counts) * float(theta3) * design.points**3
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    while done < reps:
        m = min(_CHUNK, reps - done)
        means = rng.standard_normal((m, k))
        means += shift
        pure = rng.chisquare(nn - k, m) if nn > k else 0.0
        fstat = _lack_of_fit_f(means, pure, basis, nn - 4)
        hits += int(np.count_nonzero(fstat > crit))
        done += m
    est = hits / reps
    se = math.sqrt(est * (1.0 - est) / reps)
    return PowerResult(
        theta3=float(theta3),
        estimate=est,
        std_error=se,
        analytic=f_test_power_analytic(design, theta3, level),
    )


def table1(reps: int = DEFAULT_REPS, seed: int = DEFAULT_SEED,
           level: float = DEFAULT_LEVEL) -> dict[str, list[PowerResult]]:
    """Power of both study designs over the standard theta3 grid.

    Each of the ten cells runs on its own substream derived from the master
    seed, so the table is reproducible as a whole and cell by cell.
    """
    if int(reps) < 10_000:
        raise ValueError("reps must be at least 10000 for table output")
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
    """Render a power table as CSV with the RNG recorded in a comment line."""
    lines = [
        f"# rng={RNG_INFO['bit_generator']} normals={RNG_INFO['normals']} "
        f"scheme={RNG_INFO['scheme']}",
        "design,theta3,mc_power,std_err,analytic_power,reps,seed",
    ]
    for name, row in results.items():
        for r in row:
            lines.append(
                f"{name},{r.theta3!r},{r.estimate!r},{r.std_error!r},"
                f"{r.analytic!r},{int(reps)},{int(seed)}"
            )
    return "\n".join(lines) + "\n"
