"""Seeded workloads over the public tdiscrim API, each op checked by a gate.

A workload is a fixed set of cells (degree and kind of request). Its inputs
come in cycles: a cycle holds every cell once in each of the workload's
strata of its drawn parameter, in a seeded random order. Where the cost of
an op does not depend on the parameter, it is drawn within its stratum with
a seeded jitter. The cost of a continuation op depends strongly on the
inverse ratio it walks to; there the seed sets only the order, and the
point within each stratum moves from cycle to cycle by the same steps for
every seed, so every seed measures the same costs and no request repeats.
Every cycle then carries nearly the same mix of costs, and whole cycles
give steady figures.

The gates use references independent of the layer under test: closed-form
formulas, the Remez exchange for continuation results and scipy's
noncentral F for the power module.

Timed requests stay where the package answers them correctly, so that every
figure times a right answer and a run's `correct` can hold. The degrees and
ratios where ROADMAP item 1 finds the package wrong are not dropped: each
workload's defect_ops() sends requests there once per run, off the clock,
and their failures are printed and counted apart from the timed ops. The originals are bound here at import,
before any tracer wraps them, so gate calls never count as layer work.

The set-up child (startup.py) imports this module after tdiscrim.cli to
build its inputs, so it imports nothing the program does not: scipy is
loaded inside the power gate only, and set-up time moves with tdiscrim's
own imports alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import tdiscrim
from tdiscrim.designs import t_criterion as _ref_t_criterion
from tdiscrim.minimax import remez as _ref_remez

WORKLOADS = ("closed_form_verify", "continuation_path", "power_mc")

# Step of the point within a stratum from one cycle to the next (golden section).
CYCLE_STEP = 0.381966

# t_criterion is wrong from n = 16: those degrees are probed, not timed.
CLOSED_FORM_DEGREES = tuple(range(3, 16))
CLOSED_FORM_DEFECT_DEGREES = tuple(range(16, 41))
CLOSED_FORM_KINDS = ("optimal+", "optimal-", "zero", "control")
CONTINUATION_DEGREES = (3, 5, 8, 12)
# n = 15: trajectory designs miss the optimum; 16: t_criterion is wrong;
# 25 and 40: the continuation walk collapses.
CONTINUATION_DEFECT_DEGREES = (15, 16, 25, 40)
CONTINUATION_KINDS = ("solve", "trajectory", "maximin")
TRAJECTORY_POINTS = 9
# Inverse ratios are drawn as a share of the path half-width bbar_limit(n),
# away from the interval's end and from 0, where b = 1/bbar is unbounded.
# Below a share of about 0.3 the absolute tolerance of verification_report's
# equivalence check fails optimal solve_at designs at scattered ratios for
# n = 3, 5 and 8.
BBAR_SHARE = (0.32, 0.95)
# (kind, n, share of bbar_limit) of probed requests that fail at scattered
# ratios: the three above, and a trajectory at n = 15 off the optimum.
DEFECT_POINTS = (("solve", 3, 0.106), ("solve", 5, 0.111), ("solve", 8, 0.103),
                 ("trajectory", 15, 0.87))
# The probed point of each defect cell, as a share passed to make_op.
DEFECT_SHARE = 0.875
POWER_REPS = 50_000
POWER_LEVEL = 0.05
POWER_DESIGNS = ("T_OPTIMAL_48", "EQUIDISTANT_48")
THETA3_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)

CRITERION_RTOL = 1e-9
REMEZ_RTOL = 1e-8
ANALYTIC_ATOL = 1e-9
# Wide enough that an honest change of RNG stream cannot fail a cell by
# chance: two-sided tail 5.7e-7 per cell.
MC_SE_LIMIT = 5.0


@dataclass(frozen=True)
class Op:
    """One request: kind of call, degree, and its drawn parameters.

    x is b for closed-form kinds, bbar for continuation kinds and theta3
    for power cells; u is the family parameter alpha (zero) or unused.
    """

    kind: str
    n: int
    x: float
    u: float = 0.0
    design: str = ""
    seed: int = 0


def _optimal_value(n: int, b: float) -> float:
    """Best criterion value at |b| <= critical_b(n): (1 + |b|/n)^(2n) / 2^(2n-2)."""
    return (1.0 + abs(b) / n) ** (2 * n) / 2.0 ** (2 * n - 2)


def _rel_close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


class ClosedFormVerify:
    """Explicit designs at |b| <= critical_b(n), with equispaced controls."""

    name = "closed_form_verify"
    probe = "interp"  # speed probe kernel, see calibrate.py
    # cost does not depend on b: it is drawn over nearly all of each stratum
    strata = 3
    jitter = 0.98
    tail_cycles = 1  # cycles per block over which op_tail_ms is taken
    cells = [(kind, n) for n in CLOSED_FORM_DEGREES for kind in CLOSED_FORM_KINDS]

    def defect_ops(self):
        return [self.make_op((kind, n), DEFECT_SHARE, 0.5, 0)
                for n in CLOSED_FORM_DEFECT_DEGREES for kind in CLOSED_FORM_KINDS]

    def make_op(self, cell, share, aux, seed):
        kind, n = cell
        bc = tdiscrim.critical_b(n)
        if kind == "zero":
            return Op("zero", n, 0.0, u=aux)
        if kind == "control":
            return Op("control", n, bc * (2.0 * share - 1.0))
        return Op("optimal", n, bc * share * (1.0 if kind == "optimal+" else -1.0))

    def execute(self, op):
        n, b = op.n, op.x
        if op.kind == "optimal":
            design = tdiscrim.t_optimal_design(n, b).design
        elif op.kind == "zero":
            design = tdiscrim.zero_b_family(n, op.u).design
        else:
            design = tdiscrim.Design(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n))
        crit = tdiscrim.t_criterion(design, tdiscrim.DiscriminationProblem(n, b=b))
        report = tdiscrim.verification_report(design, n, b)
        return crit, report["passed"]

    def gate(self, op, out):
        crit, passed = out
        ref = _optimal_value(op.n, op.x)
        if op.kind == "control":
            # a non-optimal design cannot beat the optimum, nor pass the checks
            return crit <= ref * (1.0 + CRITERION_RTOL) and not passed
        return _rel_close(crit, ref, CRITERION_RTOL) and passed


class ContinuationPath:
    """Ratios beyond the critical one: solve, trajectory and maximin requests."""

    name = "continuation_path"
    probe = "interp"  # speed probe kernel, see calibrate.py
    strata = 4
    jitter = 0.0
    # A cycle holds 48 ops of widely different cost; within one, the
    # tenth-slowest falls between groups of requests and jumps between them.
    tail_cycles = 4
    cells = [(kind, n) for n in CONTINUATION_DEGREES for kind in CONTINUATION_KINDS]

    def defect_ops(self):
        ops = [self.make_op((kind, n), DEFECT_SHARE, 0.5, 0)
               for n in CONTINUATION_DEFECT_DEGREES for kind in CONTINUATION_KINDS]
        return ops + [Op(kind, n, share * tdiscrim.bbar_limit(n))
                      for kind, n, share in DEFECT_POINTS]

    def make_op(self, cell, share, aux, seed):
        kind, n = cell
        # share in (0, 1) covers both signs: the lower half maps to bbar < 0
        signed = 2.0 * share - 1.0
        lo, hi = BBAR_SHARE
        mag = lo + (hi - lo) * abs(signed)
        return Op(kind, n, math.copysign(mag * tdiscrim.bbar_limit(n), signed))

    def execute(self, op):
        n, bbar = op.n, op.x
        if op.kind == "solve":
            design = tdiscrim.solve_at(n, bbar).design()
            b = 1.0 / bbar
            crit = tdiscrim.t_criterion(design, tdiscrim.DiscriminationProblem(n, b=b))
            return crit, tdiscrim.verification_report(design, n, b)["passed"]
        if op.kind == "trajectory":
            grid = np.linspace(-abs(bbar), abs(bbar), TRAJECTORY_POINTS)
            return tdiscrim.trajectory(n, grid)
        b0 = abs(1.0 / bbar)
        ray = (tdiscrim.RatioInterval.ray_up(b0) if bbar > 0
               else tdiscrim.RatioInterval.ray_down(b0))
        return tdiscrim.r_value(n, b0), tdiscrim.maximin_design(n, ray)

    def gate(self, op, out):
        n, bbar = op.n, op.x
        b = 1.0 / bbar
        ref = _ref_remez(n, abs(b)).deviation ** 2
        if op.kind == "solve":
            crit, passed = out
            return _rel_close(crit, ref, REMEZ_RTOL) and passed
        if op.kind == "trajectory":
            if len(out) != TRAJECTORY_POINTS:
                return False
            # criterion in the bbar parametrization is bbar^2 times the b one
            ends = (out[0], out[-1])
            return all(
                _rel_close(_ref_t_criterion(d, tdiscrim.DiscriminationProblem(n, bbar=g)),
                           g * g * ref, REMEZ_RTOL)
                for g, d in ends
            )
        r, design = out
        crit = _ref_t_criterion(design, tdiscrim.DiscriminationProblem(n, b=b))
        return _rel_close(r, ref, REMEZ_RTOL) and _rel_close(crit, ref, REMEZ_RTOL)


def _lack_of_fit_ss(design) -> float:
    """Count-weighted residual sum of squares of x^3 after a straight-line fit."""
    x = design.expanded()
    basis = np.vander(x, 2, increasing=True)
    coef, *_ = np.linalg.lstsq(basis, x**3, rcond=None)
    res = x**3 - basis @ coef
    return float(res @ res)


class PowerMC:
    """Monte Carlo F-test power cells for the two 48-run study designs."""

    name = "power_mc"
    probe = "stream"  # speed probe kernel, see calibrate.py
    # the parameter is unused; the strata only set how many seeds a cell gets
    strata = 8
    jitter = 0.0
    tail_cycles = 1
    cells = [(design, theta3) for design in POWER_DESIGNS for theta3 in THETA3_GRID]

    def defect_ops(self):
        return []  # no known defect in the power module

    def make_op(self, cell, share, aux, seed):
        design, theta3 = cell
        return Op("power", 0, theta3, design=design, seed=seed)

    def execute(self, op):
        design = getattr(tdiscrim, op.design)
        return tdiscrim.f_test_power_mc(design, op.x, POWER_REPS, op.seed, POWER_LEVEL)

    def gate(self, op, out):
        from scipy import stats

        design = getattr(tdiscrim, op.design)
        dfd = design.size - 4
        crit = stats.f.isf(POWER_LEVEL, 2, dfd)
        lam = op.x**2 * _lack_of_fit_ss(design)
        exact = float(stats.ncf.sf(crit, 2, dfd, lam)) if lam > 0 else POWER_LEVEL
        se = math.sqrt(exact * (1.0 - exact) / POWER_REPS)
        return (abs(out.analytic - exact) <= ANALYTIC_ATOL
                and abs(out.estimate - exact) <= MC_SE_LIMIT * se)


def get(name: str):
    """The workload called name; KeyError for an unknown name."""
    return {w.name: w for w in (ClosedFormVerify, ContinuationPath, PowerMC)}[name]()


def cycles(workload, seed: int):
    """Endless cycles of ops for a workload; identical for identical seeds."""
    cells = workload.cells
    wid = WORKLOADS.index(workload.name)
    strata = workload.strata
    shape = (len(cells), strata)
    cycle = 0
    while True:
        ss = np.random.SeedSequence([seed, wid, cycle])
        rng = np.random.default_rng(ss)
        point = (0.5 + cycle * CYCLE_STEP + workload.jitter * (rng.random(shape) - 0.5)) % 1.0
        shares = (np.arange(strata) + point) / strata
        aux = rng.random(shape)
        op_seeds = ss.generate_state(shares.size, np.uint64).reshape(shape)
        order = rng.permutation(shares.size)
        yield [workload.make_op(cells[k // strata], float(shares.flat[k]),
                                float(aux.flat[k]), int(op_seeds.flat[k])) for k in order]
        cycle += 1


def warm_up_ops(workload, seed: int) -> list[Op]:
    """One op per cell, from a stream apart from the measured cycles."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload.name), 2**32])
    return [workload.make_op(cell, float(share), 0.5, int(op_seed))
            for cell, share, op_seed in zip(workload.cells, rng.random(len(workload.cells)),
                                            rng.integers(0, 2**63, len(workload.cells)))]


def plan(workload, seed: int) -> list[Op]:
    """The first cycle of a workload's inputs."""
    return next(cycles(workload, seed))
