"""Command line interface with machine-readable output.

Data goes to stdout as JSON or CSV; diagnostics go to stderr. Exit codes:
0 success, 2 bad arguments or unreadable input, 3 inverse ratio outside
the path interval of trajectory, 4 solver failure. Identical
invocations (same arguments, same seed) produce byte-identical output.
With --out the data goes to a file instead; a relative --out is resolved
against $TDISCRIM_OUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly

from .checks import verification_report
from .closed_form import critical_b, zero_b_family
from .continuation import trajectory
from .designs import Design, DiscriminationProblem, t_criterion
from .errors import RegimeError, SolverError
from .maximin import RatioInterval, maximin_design, optimal_design
from .minimax import EXCHANGE_TOL, remez
from .power import DEFAULT_REPS, DEFAULT_SEED, table1, table1_csv

OUT_DIR_ENV = "TDISCRIM_OUT_DIR"
# argparse takes "-1e-3" or "-inf" for an option; no option here looks like a number
NEGATIVE_NUMBER = re.compile(r"^-(inf(inity)?|nan|(\d[\d_]*\.?|\.\d)[\d_]*(e[-+]?[\d_]+)?)$", re.I)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.write_text(text)


def _design_payload(design: Design, extra: dict) -> str:
    payload = dict(extra)
    payload["points"] = design.points.tolist()
    payload["weights"] = design.weights.tolist()
    return json.dumps(payload) + "\n"


def _cmd_critical(args) -> int:
    sys.stdout.write(repr(critical_b(args.n)) + "\n")
    return 0


def _cmd_design(args) -> int:
    if args.b == 0.0 and args.alpha is not None:
        res = zero_b_family(args.n, args.alpha)
    else:
        if args.alpha is not None:
            sys.stderr.write("--alpha only selects among b = 0 optima; ignored\n")
        elif args.b == 0.0:
            sys.stderr.write("b = 0: the optimal design is a family; using alpha = 0.5 "
                             "(choose another member with --alpha)\n")
        res = optimal_design(args.n, args.b)
    crit = t_criterion(res.design, DiscriminationProblem(args.n, b=args.b))
    sys.stdout.write(_design_payload(res.design, {
        "n": res.n,
        "b": res.b,
        "alpha": res.alpha,
        "regime": res.regime,
        "criterion": float(crit),
    }))
    return 0


def _cmd_trajectory(args) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if args.bbar_max < args.bbar_min:
        raise ValueError("--bbar-max must be >= --bbar-min")
    bounds = [args.bbar_min, args.bbar_max]
    # linspace would turn an infinite bound into NaN; trajectory rejects it as is
    grid = np.linspace(*bounds, args.steps) if np.isfinite(bounds).all() else bounds
    rows = trajectory(args.n, grid)
    n = args.n
    header = (
        ["bbar"]
        + [f"t_{i}" for i in range(1, n + 1)]
        + [f"w_{i}" for i in range(1, n + 1)]
        + ["criterion"]
    )
    lines = [",".join(header)]
    for bbar, design in rows:
        crit = t_criterion(design, DiscriminationProblem(n, bbar=bbar))
        cells = [repr(float(bbar))]
        cells += [repr(float(x)) for x in design.points]
        cells += [repr(float(w)) for w in design.weights]
        cells.append(repr(float(crit)))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_interval(text: str) -> RatioInterval:
    if text == "all":
        return RatioInterval.whole_line()
    if text.startswith("geq:"):
        return RatioInterval.ray_up(float(text[4:]))
    if text.startswith("leq:"):
        bound = float(text[4:])
        if bound > 0.0:
            raise ValueError("leq: expects a nonpositive bound, e.g. leq:-0.4")
        return RatioInterval.ray_down(-bound)
    raise ValueError("interval must be 'all', 'geq:B0' or 'leq:-B0'")


def _cmd_maximin(args) -> int:
    interval = _parse_interval(args.interval)
    design = maximin_design(args.n, interval)
    sys.stdout.write(_design_payload(design, {
        "n": args.n,
        "interval": args.interval,
    }))
    return 0


def _cmd_verify(args) -> int:
    design = Design.from_json(Path(args.design).read_text())
    report = verification_report(design, args.n, args.b)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


def _cmd_remez(args) -> int:
    res = remez(args.n, args.b, tol=args.tol)
    sys.stdout.write(json.dumps({
        "n": args.n,
        "b": args.b,
        # monomial coefficients, as the payload has always carried them
        "approximant": cheb2poly(res.approximant.coeffs).tolist(),
        "approximant_chebyshev": res.approximant.coeffs.tolist(),
        "psi_chebyshev": res.psi.coeffs.tolist(),
        "deviation": float(res.deviation),
        "extremal_points": res.extremal_points.tolist(),
        "signs": res.signs.tolist(),
        "iterations": int(res.iterations),
    }) + "\n")
    return 0


def _cmd_power(args) -> int:
    results = table1(reps=args.reps, seed=args.seed)
    _emit(table1_csv(results, args.reps, args.seed), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, then reused: parsing
    # leaves the parser unchanged, and building it costs ~1 ms per call.
    parser = argparse.ArgumentParser(
        prog="tdiscrim",
        description="Optimal designs for discriminating polynomial regressions "
                    "of degrees n-2 and n on [-1, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical", help="critical ratio up to which the "
                                        "explicit design is optimal")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("design", help="optimal design at any finite ratio b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, required=True,
                   help="any finite ratio; beyond the critical ratio the regime is alternance")
    p.add_argument("--alpha", type=float, default=None,
                   help="family member at b = 0 (default 0.5)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("trajectory", help="designs along a grid of inverse ratios")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bbar-min", type=float, required=True)
    p.add_argument("--bbar-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("maximin", help="worst-case optimal design over a ratio set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--interval", required=True,
                   help="'all', 'geq:B0' or 'leq:-B0'")
    p.set_defaults(func=_cmd_maximin)

    p = sub.add_parser("verify", help="run optimality checks on a stored design")
    p.add_argument("--design", required=True, help="path to a design JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("remez", help="minimax approximation backing the design",
                       description="approximant holds monomial coefficients, which lose "
                       "digits as n grows (1e-5 of the deviation at n = 30); "
                       "approximant_chebyshev and psi_chebyshev do not")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=EXCHANGE_TOL)
    p.set_defaults(func=_cmd_remez)

    p = sub.add_parser("power", help="F-test power table, simulated and exact")
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.set_defaults(func=_cmd_power)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RegimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except SolverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    raise SystemExit(main())
