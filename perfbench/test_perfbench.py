"""Tests of the benchmark itself: seeded inputs, work counts, span arithmetic.

Run with `python3 -m pytest perfbench` from the root of the checkout.
"""

import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import harness
import startup
import tdiscrim
import workloads
from calibrate import SpeedProbe
from tracing import Span, Tracer, self_times
from workloads import Op

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("calls", "iterations", "points", "draws", "failed", "computed_bytes")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    w = workloads.get(name)
    assert workloads.plan(w, 7) == workloads.plan(w, 7)
    assert workloads.plan(w, 7) != workloads.plan(w, 8)
    assert workloads.warm_up_ops(w, 7) == workloads.warm_up_ops(w, 7)


def _cell(op):
    if op.kind == "power":
        return (op.design, op.x)
    if op.kind == "optimal":
        return ("optimal+" if op.x > 0 else "optimal-", op.n)
    return (op.kind, op.n)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_cycle_holds_every_cell_once_per_stratum(name):
    w = workloads.get(name)
    per_cell = Counter(_cell(op) for op in workloads.plan(w, 3))
    assert set(per_cell) == set(w.cells)
    assert set(per_cell.values()) == {w.strata}


def test_closed_form_requests_stay_in_the_explicit_regime():
    ops = workloads.plan(workloads.get("closed_form_verify"), 5)
    for op in ops:
        assert abs(op.x) <= tdiscrim.critical_b(op.n)
    kinds = {op.kind for op in ops}
    assert kinds == {"optimal", "zero", "control"}
    opt = [op.x for op in ops if op.kind == "optimal"]
    assert min(opt) < 0 < max(opt)
    assert all(op.x == 0.0 for op in ops if op.kind == "zero")
    assert max(op.n for op in ops) == 15


def test_continuation_requests_lie_beyond_the_critical_ratio():
    w = workloads.get("continuation_path")
    ops = workloads.plan(w, 5)
    for op in ops:
        assert 0 < abs(op.x) < tdiscrim.bbar_limit(op.n)
        assert abs(1.0 / op.x) > tdiscrim.critical_b(op.n)
    # half of each cell's strata lie on either side of bbar = 0
    negative = Counter(_cell(op) for op in ops if op.x < 0)
    assert set(negative.values()) == {w.strata // 2}


@pytest.mark.parametrize("name", ["closed_form_verify", "continuation_path"])
def test_known_defect_degrees_are_probed_not_timed(name):
    # together the timed and the probed degrees span the stated range 3..40
    w = workloads.get(name)
    timed = {n for _, n in w.cells}
    probed = {op.n for op in w.defect_ops()}
    assert min(timed) == 3 and max(probed) == 40
    assert probed - timed
    assert w.defect_ops() == w.defect_ops()
    assert {op.kind for op in w.defect_ops()} == {op.kind for op in workloads.plan(w, 1)}


def test_power_has_no_defect_probe():
    assert workloads.get("power_mc").defect_ops() == []


def test_no_request_repeats_across_cycles():
    for name in workloads.WORKLOADS:
        w = workloads.get(name)
        gen = workloads.cycles(w, 9)
        first, second = next(gen), next(gen)
        assert not set(first) & set(second)


def test_power_cells_get_distinct_seeds():
    ops = workloads.plan(workloads.get("power_mc"), 5)
    assert len({op.seed for op in ops}) == len(ops)


def test_continuation_costs_do_not_depend_on_the_seed():
    w = workloads.get("continuation_path")
    assert sorted(workloads.plan(w, 1), key=repr) == sorted(workloads.plan(w, 2), key=repr)


def test_gates_reject_a_wrong_answer():
    w = workloads.get("closed_form_verify")
    op = Op("optimal", 5, 0.3)
    crit, passed = w.execute(op)
    assert w.gate(op, (crit, passed))
    assert not w.gate(op, (crit * (1 + 1e-6), passed))
    assert not w.gate(op, (crit, False))
    control = Op("control", 5, 0.3)
    assert w.gate(control, w.execute(control))
    assert not w.gate(control, (crit, True))


def _traced_counts(name, ops):
    w = workloads.get(name)
    tracer, probe = Tracer(), SpeedProbe()
    with tracer:
        harness.run_ops(w, ops, probe, tracer=tracer)
    metrics = harness._layer_metrics(tracer, ops, probe)
    return {k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTS}


def test_traced_work_counts_repeat_exactly():
    lim = tdiscrim.bbar_limit(5)
    cases = {
        "closed_form_verify": [Op("optimal", 5, -0.2), Op("zero", 4, 0.0, u=0.3),
                               Op("control", 6, 0.1)],
        "continuation_path": [Op("solve", 5, 0.5 * lim), Op("trajectory", 4, -0.3),
                              Op("maximin", 5, -0.4 * lim)],
        "power_mc": [Op("power", 0, 1.0, design="T_OPTIMAL_48", seed=11)],
    }
    for name, ops in cases.items():
        first = _traced_counts(name, ops)
        assert first == _traced_counts(name, ops)
    counts = _traced_counts("continuation_path", cases["continuation_path"])
    assert counts["continuation.trajectory.points"] == workloads.TRAJECTORY_POINTS
    assert counts["minimax.remez.calls"] == 1
    assert counts["minimax.remez.iterations"] >= 1
    draws = _traced_counts("power_mc", cases["power_mc"])["power.f_test_power_mc.draws"]
    assert draws == workloads.POWER_REPS * tdiscrim.T_OPTIMAL_48.size


def test_tracer_nests_calls_made_inside_the_package_and_restores_them():
    original = tdiscrim.checks.remez
    tracer = Tracer()
    with tracer:
        tdiscrim.verification_report(tdiscrim.solve_at(4, 0.5).design(), 4, 2.0)
    assert tdiscrim.checks.remez is original
    assert tdiscrim.remez is original
    names = [s.name for s in tracer.spans]
    report = names.index("checks.verification_report")
    remez = names.index("minimax.remez")
    assert tracer.spans[remez].parent == report


def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", 0, 100, None, 0, True, None), Span("b", 10, 50, 0, 0, True, None),
             Span("c", 20, 30, 1, 0, True, None), Span("d", 60, 70, 0, 0, True, None)]
    durations = [s.dur_ns for s in spans]
    assert self_times(spans, durations) == [50, 30, 10, 10]


def test_set_up_children_are_spread_over_the_timed_phase(monkeypatch):
    calls = []

    def fake_setup(root, name, seed):
        calls.append(time.perf_counter())
        return 0.5

    monkeypatch.setattr(startup, "setup_seconds", fake_setup)
    args = type("Args", (), {"workload": "closed_form_verify", "seed": 1, "seconds": 0.3})
    w = workloads.get("closed_form_verify")
    metrics, res, notes = harness.end_to_end(args, RUN.parents[1], w, SpeedProbe(w.probe),
                                             SpeedProbe())
    assert notes["raw"]["setup_s"] == [0.5] * harness.SETUP_SPAWNS
    # the first child starts with the first timed op, the others between later ones
    assert sum(t > res.starts[0] for t in calls) == harness.SETUP_SPAWNS - 1
    assert metrics["setup_s"]["value"] > 0


def test_every_workload_names_a_probe_kernel():
    for name in workloads.WORKLOADS:
        probe = SpeedProbe(workloads.get(name).probe)
        probe.sample()
        assert probe.slowdown(time.perf_counter()) > 0


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = harness.tail(list(range(100)))
    assert (value, beyond) == (89, 10)
    assert pct == 90.0
    assert harness.tail([3.0, 1.0])[0] == 3.0


def test_tail_blocks_hold_whole_cycles():
    assert [len(b) for b in harness.tail_blocks(list(range(5 * 48)), 48, 4)] == [240]
    blocks = harness.tail_blocks(list(range(9 * 80)), 80, 2)
    assert [len(b) for b in blocks] == [160, 160, 160, 240]
    assert sum(blocks, []) == list(range(9 * 80))
    assert [len(b) for b in harness.tail_blocks(list(range(3 * 156)), 156, 1)] == [156] * 3
    assert harness.tail_blocks([1.0, 2.0], 2, 4) == [[1.0, 2.0]]


def test_import_profile_counts_lazily_loaded_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:       200 |        300 |         scipy.stats._b",
        "import time:        50 |        350 |       scipy.stats._c",
        "import time:        10 |        800 |     tdiscrim.power",
        "import time:        20 |        900 |   tdiscrim",
        "import time:        30 |        930 | tdiscrim.cli",
    ])
    entries = startup.parse_importtime(text)
    assert startup.package_import_ms(entries, "scipy.stats") == pytest.approx(0.45)
    assert startup.package_import_ms(entries, "tdiscrim") == pytest.approx(0.93)
    assert startup.package_import_ms(entries, "numpy") == 0.0


def test_environment_records_versions_threads_and_seed(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    args = type("Args", (), {"workload": "power_mc", "seed": 4, "seconds": 1.0, "trace": 0})
    env = harness.environment(args, 2)
    for key in ("nproc", "python", "numpy", "scipy", "blas_threads", "seed"):
        assert key in env
    assert env["blas_threads"] == 2 and env["seed"] == 4


def test_setup_child_imports_nothing_beyond_the_cli():
    # what the set-up child runs, with every import statement of workloads.py
    # recorded; scipy must come from tdiscrim, if at all, for setup_s to
    # follow the program's own imports
    code = """
import builtins, sys
import tdiscrim.cli
before = set(sys.modules)
asked = []
real = builtins.__import__
def spy(name, globals=None, *args, **kwargs):
    if (globals or {}).get("__name__") == "workloads":
        asked.append(name)
    return real(name, globals, *args, **kwargs)
builtins.__import__ = spy
import workloads
for name in workloads.WORKLOADS:
    workloads.plan(workloads.get(name), 1)
print(sorted(set(sys.modules) - before))
print(sorted(n for n in asked if n.split(".")[0] == "scipy"))
"""
    root = RUN.parents[1]
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         env=startup.child_env(root), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["['workloads']", "[]"]


def test_run_refuses_an_unknown_workload():
    root = RUN.parents[1]
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert "power_mc" in out.stderr and "correct" not in out.stdout


def test_run_refuses_a_directory_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "power_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
