"""Fresh-interpreter measurements: benchmark set-up, CLI cold start, import
profile, and the untraced base of the traced run.

Each child is started, timed and reaped one after another from the single
benchmark process; none outlives its measurement.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

CHILD_TIMEOUT_S = 60
# Set-up as the benchmark pays it: import the CLI module, then generate the
# first cycle of the workload's inputs.
_SETUP_CODE = """
import sys
import tdiscrim.cli
import workloads
workloads.plan(workloads.get(sys.argv[1]), int(sys.argv[2]))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# The untraced base of a traced run: the warm-up and the first cycle, as the
# traced pass sends them, with the summed scaled latency of the cycle printed.
_UNTRACED_CODE = """
import sys
import harness
import workloads
from calibrate import SpeedProbe
w, seed = workloads.get(sys.argv[1]), int(sys.argv[2])
probe = SpeedProbe(w.probe)
harness.run_ops(w, workloads.warm_up_ops(w, seed), probe)
res = harness.run_ops(w, workloads.plan(w, seed), probe)
print(sum(res.scaled_ms(probe)))
"""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(Path(__file__).parent)])
    return env


def setup_seconds(root: Path, workload: str, seed: int) -> float:
    """Wall time from spawn until a child has imported tdiscrim.cli and built its inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE, workload, str(seed)],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return elapsed


def untraced_busy_ms(root: Path, workload: str, seed: int) -> float:
    """Summed scaled op latency of a workload's first cycle, untraced, in a fresh child."""
    out = subprocess.run(
        [sys.executable, "-c", _UNTRACED_CODE, workload, str(seed)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"untraced child failed: {out.stderr[-500:]}")
    return float(out.stdout.split()[-1])


def cold_start_ms(root: Path, expected: str) -> float:
    """Wall time of `python -m tdiscrim critical --n 5` in a fresh interpreter."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "tdiscrim", "critical", "--n", "5"],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if out.returncode != 0 or out.stdout.strip() != expected:
        raise RuntimeError(f"cold start printed {out.stdout!r}, exit code {out.returncode}")
    return elapsed * 1e3


def import_profile(root: Path) -> list[tuple[int, str, float]]:
    """Entries of `python -X importtime -c "import tdiscrim.cli"`."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tdiscrim.cli"],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"import profile failed: {out.stderr[-500:]}")
    return parse_importtime(out.stderr)


def parse_importtime(text: str) -> list[tuple[int, str, float]]:
    """(nesting depth, module, cumulative ms) per line, in the order printed.

    Python prints a module after everything it imported, indented two
    spaces per level, so a module's parent is the next line with less depth.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(parts[1]) / 1e3))
    return entries


def package_import_ms(entries, package: str) -> float:
    """Cumulative import time of a package and its submodules.

    Sums the outermost matching entries, those whose parent is not itself in
    the package. Packages loaded lazily through a parent's __getattr__ (as
    scipy loads scipy.stats) print no line of their own, only their
    submodules, which this still counts.
    """
    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if inside(name) and not (stack and inside(stack[-1][1])):
            total += cum
        stack.append((depth, name))
    return total
