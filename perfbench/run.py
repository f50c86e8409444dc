"""Run one tdiscrim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed_form_verify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. See README.md here.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # the names are checked once workloads.py is imported, after the BLAS cap
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return p, args


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tdiscrim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tdiscrim sources under {src}; "
                         "run from the root of a checkout\n")
        return 2
    # Cap BLAS threads at the cores this process may use, before numpy loads;
    # children inherit the cap.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(src))

    import tdiscrim
    if Path(tdiscrim.__file__).resolve().parent != (src / "tdiscrim").resolve():
        sys.stderr.write(f"error: tdiscrim imported from {tdiscrim.__file__}, not {src}\n")
        return 2
    import harness
    import workloads
    try:
        workload = workloads.get(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return harness.main(args, workload, root, nproc)


if __name__ == "__main__":
    raise SystemExit(main())
