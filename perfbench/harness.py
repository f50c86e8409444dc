"""Closed-loop client, metrics and report for one benchmark run.

One client sends the next op only after the previous one returned and was
gated. Op latency covers the call into tdiscrim alone; the gate runs after
it, outside the clock. The timed phase runs whole cycles of the workload
(see workloads.py), so every run measures the same mix of requests. Every
time reported is scaled to the reference machine speed (see calibrate.py):
op times by the workload's probe kernel, child start-up times by the
interpreter one. The raw figures go to the results file.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import startup
import tdiscrim
import workloads
from calibrate import SpeedProbe
from tracing import Tracer, self_times

SETUP_SPAWNS = 7
COLD_STARTS = 3
IMPORT_PROFILES = 3
OUT_DIR = ".perfbench_out"


@dataclass
class LoopResult:
    starts: list[float] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    busy_ns: int = 0
    passed: int = 0
    failed: int = 0
    # "kind error" -> [count, lowest n, highest n]
    misses: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def scaled_ms(self, probe: SpeedProbe) -> list[float]:
        return [lat / 1e6 / probe.slowdown(t) for t, lat in zip(self.starts, self.latencies_ns)]


def run_ops(workload, ops, probe: SpeedProbe, res: LoopResult | None = None,
            tracer: Tracer | None = None, between=None) -> LoopResult:
    """Execute ops in order, one at a time, adding their outcomes to res.

    between(), if given, is called before each op, off the clock.
    """
    res = LoopResult() if res is None else res
    for op_id, op in enumerate(ops):
        if between is not None:
            between()
        probe.maybe_sample()
        if tracer is not None:
            tracer.op_id = op_id
        res.starts.append(time.perf_counter())
        t0 = time.perf_counter_ns()
        try:
            out = workload.execute(op)
            err = None
        except Exception as exc:  # a failed op is data, not the end of the run
            err = type(exc).__name__
        res.latencies_ns.append(time.perf_counter_ns() - t0)
        res.busy_ns += res.latencies_ns[-1]
        if err is None:
            try:
                ok = workload.gate(op, out)
                err = None if ok else "gate_miss"
            except Exception as exc:
                err = "gate_" + type(exc).__name__
        if err is None:
            res.passed += 1
            continue
        res.failed += 1
        seen = res.misses.setdefault(f"{op.kind} {err}", [0, op.n, op.n])
        seen[0] += 1
        seen[1], seen[2] = min(seen[1], op.n), max(seen[2], op.n)
    probe.sample()
    return res


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than 11 samples
    it is the maximum.
    """
    srt = sorted(latencies)
    k = len(srt) - 11 if len(srt) > 10 else len(srt) - 1
    return srt[k], 100.0 * (k + 1) / len(srt), len(srt) - 1 - k


def tail_blocks(values: list, cycle_size: int, cycles: int) -> list[list]:
    """values cut into blocks of the given number of whole cycles.

    The last block takes the cycles left over; a shorter run is one block.
    Over a whole run of thousands of ops the tenth-slowest is set by one-off
    stalls of the host, so the tail is taken per block and its median kept.
    """
    per = cycle_size * cycles
    count = max(1, len(values) // per)
    return [values[k * per:(k + 1) * per if k < count - 1 else len(values)]
            for k in range(count)]


def scaled_child_time(probe: SpeedProbe, measure) -> tuple[float, float]:
    """(scaled, raw) result of measure(), a child process's wall time.

    Probes taken just before and just after set the speed it ran at.
    """
    for _ in range(3):
        probe.sample()
    t = time.perf_counter()
    raw = measure()
    for _ in range(3):
        probe.sample()
    return raw / probe.slowdown(t), raw


def environment(args, nproc: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tdiscrim": tdiscrim.__version__,
        "machine": platform.machine(),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(args, root: Path, workload, probe: SpeedProbe,
               child_probe: SpeedProbe) -> tuple[dict, LoopResult, dict]:
    setups = []

    def set_up():
        setups.append(scaled_child_time(child_probe, lambda: startup.setup_seconds(
            root, workload.name, args.seed)))

    def set_up_if_due():
        # The set-up children are spread over the timed phase at even steps
        # of its op time, so that their median samples the same stretch of
        # host load as the ops, not only the first seconds of the run.
        step = args.seconds / SETUP_SPAWNS
        done_s = res.busy_ns / 1e9 / probe.slowdown(time.perf_counter())
        if len(setups) < SETUP_SPAWNS and done_s >= len(setups) * step:
            set_up()

    run_ops(workload, workloads.warm_up_ops(workload, args.seed), probe)
    res = LoopResult()
    for done, cycle in enumerate(workloads.cycles(workload, args.seed), start=1):
        run_ops(workload, cycle, probe, res, between=set_up_if_due)
        # Start another cycle only if one more of average length still fits.
        # Counting scaled time keeps the number of cycles, and so the mix of
        # requests measured, the same however busy the host is.
        busy_s = sum(res.scaled_ms(probe)) / 1e3
        if busy_s * (done + 1) / done > args.seconds:
            break
    while len(setups) < SETUP_SPAWNS:  # a run that ended early
        set_up()
    lat = res.scaled_ms(probe)
    size = len(lat) // done
    blocks = tail_blocks(lat, size, workload.tail_cycles)
    tails = [tail(block) for block in blocks]
    tail_ms = statistics.median(t[0] for t in tails)
    _, pct, beyond = tails[0]
    metrics = {
        "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": _metric(res.passed / (sum(lat) / 1e3), "1/s"),
        "op_p50_ms": _metric(statistics.median(lat), "ms"),
        "op_tail_ms": _metric(tail_ms, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_ms = [x / 1e6 for x in res.latencies_ns]
    notes = {
        "cycles": done,
        "op_tail_blocks": len(tails),
        "op_tail_block_ops": len(blocks[0]),
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "failed_frac": res.failed / res.attempted,
        "slowdown_median": probe.overall(),
        "raw": {
            "setup_s": [r for _, r in setups],
            "ops_per_s": res.passed / (sum(raw_ms) / 1e3),
            "op_p50_ms": statistics.median(raw_ms),
            "op_tail_ms": statistics.median(
                tail(block)[0] for block in tail_blocks(raw_ms, size, workload.tail_cycles)),
        },
    }
    return metrics, res, notes


def _layer_metrics(tracer: Tracer, ops: list, probe: SpeedProbe) -> dict:
    spans = tracer.spans
    dur_ms = [s.dur_ns / 1e6 / probe.slowdown(s.start_ns / 1e9) for s in spans]
    self_ms = self_times(spans, dur_ms)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    m: dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    def calls_busy(name):
        idx = by_name.get(name, [])
        put(f"{name}.calls", len(idx), "count")
        put(f"{name}.busy_ms", sum(dur_ms[i] for i in idx), "ms")
        return idx

    for name in ("closed_form.t_optimal_design", "closed_form.zero_b_family",
                 "designs.t_criterion", "minimax.closed_form_psi"):
        calls_busy(name)

    idx = calls_busy("minimax.remez")
    put("minimax.remez.iterations", sum(spans[i].info.get("iterations", 0) for i in idx), "count")
    put("minimax.remez.failed", sum(not spans[i].ok for i in idx), "count")

    idx = calls_busy("checks.verification_report")
    put("checks.verification_report.self_ms", sum(self_ms[i] for i in idx), "ms")
    kinds = [ops[spans[i].op_id].kind for i in idx]
    verdicts = [spans[i].info.get("passed", False) for i in idx]
    opt = [v for k, v in zip(kinds, verdicts) if k != "control"]
    ctl = [v for k, v in zip(kinds, verdicts) if k == "control"]
    put("checks.verification_report.pass_ratio_optimal", ratio(sum(opt), len(opt)), "1")
    put("checks.verification_report.reject_ratio_control",
        ratio(len(ctl) - sum(ctl), len(ctl)), "1")

    solve = calls_busy("continuation.solve_at")
    put("continuation.solve_at.failed", sum(not spans[i].ok for i in solve), "count")
    traj = calls_busy("continuation.trajectory")
    put("continuation.trajectory.points",
        sum(spans[i].info["points"] for i in traj if spans[i].ok), "count")
    walk = solve + traj
    put("continuation.ms_per_unit_bbar",
        ratio(sum(dur_ms[i] for i in walk), sum(spans[i].info["bbar_walked"] for i in walk)),
        "ms")
    seen: set[int] = set()
    repeats = 0
    for i in sorted(walk):
        repeats += spans[i].n in seen
        seen.add(spans[i].n)
    put("continuation.repeat_n_share", ratio(repeats, len(walk)), "1")

    idx = calls_busy("maximin.r_value")
    put("maximin.r_value.self_ms", sum(self_ms[i] for i in idx), "ms")
    calls_busy("maximin.maximin_design")

    idx = calls_busy("power.f_test_power_mc")
    draws = tracer.draws.draws
    put("power.f_test_power_mc.draws", draws, "count")
    put("power.f_test_power_mc.ns_per_draw", ratio(sum(dur_ms[i] for i in idx) * 1e6, draws), "ns")
    put("power.f_test_power_mc.computed_bytes", tracer.draws.nbytes, "B")
    calls_busy("power.f_test_power_analytic")
    put("power.consistent_ratio",
        ratio(sum(spans[i].info.get("consistent", False) for i in idx), len(idx)), "1")
    return m


def per_layer(args, root: Path, workload, probe: SpeedProbe, child_probe: SpeedProbe):
    expected = repr(tdiscrim.critical_b(5))
    cold = [scaled_child_time(child_probe, lambda: startup.cold_start_ms(root, expected))
            for _ in range(COLD_STARTS)]
    profiles = [startup.import_profile(root) for _ in range(IMPORT_PROFILES)]

    # The traced pass sends the first cycle, a fixed op list, after the same
    # warm-up as the end-to-end run, so the work counts repeat exactly and
    # the spans describe the requests that run starts with. The untraced
    # base of trace.overhead_frac sends the same ops in a fresh child, so
    # that no request repeats in either process.
    ops = workloads.plan(workload, args.seed)
    plain_ms = startup.untraced_busy_ms(root, workload.name, args.seed)
    run_ops(workload, workloads.warm_up_ops(workload, args.seed), probe)
    tracer = Tracer()
    with tracer:
        res = run_ops(workload, ops, probe, tracer=tracer)

    metrics = {
        "cli.cold_start_ms": _metric(statistics.median(s for s, _ in cold), "ms"),
        "cli.import.tdiscrim_ms": _metric(
            statistics.median(startup.package_import_ms(p, "tdiscrim") for p in profiles), "ms"),
        "cli.import.scipy_stats_ms": _metric(
            statistics.median(startup.package_import_ms(p, "scipy.stats") for p in profiles),
            "ms"),
    }
    metrics.update(_layer_metrics(tracer, ops, probe))
    metrics["gate.failed_frac"] = _metric(res.failed / res.attempted, "1")
    traced_ms = sum(res.scaled_ms(probe))
    metrics["trace.overhead_frac"] = _metric(traced_ms / plain_ms - 1.0, "1")
    notes = {"ops": len(ops), "slowdown_median": probe.overall(),
             "untraced_busy_ms": plain_ms, "traced_busy_ms": traced_ms,
             "raw": {"cli.cold_start_ms": [r for _, r in cold]}}
    return metrics, res, notes, tracer


def _print_misses(misses: dict) -> None:
    for miss, (count, lo, hi) in sorted(misses.items()):
        print(f"  {miss}: {count} ops" + (f", n {lo}..{hi}" if hi else ""))


def main(args, workload, root: Path, nproc: int) -> int:
    env = environment(args, nproc)
    probe, child_probe = SpeedProbe(workload.probe), SpeedProbe()
    tracer = None
    if args.trace:
        metrics, res, notes, tracer = per_layer(args, root, workload, probe, child_probe)
    else:
        metrics, res, notes = end_to_end(args, root, workload, probe, child_probe)
    # The known-defect requests go last, off the clock and after peak memory
    # was read, so that they cannot move a timed figure.
    defects = run_ops(workload, workload.defect_ops(), probe)
    if args.trace:
        metrics["gate.defect_probe_failed"] = _metric(defects.failed, "count")

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics, "notes": notes,
              "attempted": res.attempted, "failed": res.failed, "misses": res.misses,
              "defect_probe": {"attempted": defects.attempted, "failed": defects.failed,
                               "misses": defects.misses},
              "samples": {"op_start_s": res.starts, "op_ns": res.latencies_ns,
                          "probe_start_s": probe.times, "probe_ms": probe.ms}}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")

    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"op_tail_ms is the median over {notes['op_tail_blocks']} blocks of "
              f"p{notes['op_tail_percentile']:.2f}, {notes['op_tail_beyond']} of "
              f"{notes['op_tail_block_ops']} ops beyond it ({notes['cycles']} cycles)")
    print(f"slowdown against the reference speed: {notes['slowdown_median']:.3f} (median)")
    print(f"failed_frac {res.failed / res.attempted:.4f} "
          f"({res.failed} of {res.attempted} ops)")
    _print_misses(res.misses)
    if defects.attempted:
        print(f"known defects, probed off the clock: {defects.failed} of "
              f"{defects.attempted} requests fail")
        _print_misses(defects.misses)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0
