"""Spans around the public functions of tdiscrim, recorded from outside the package.

The tracer replaces each target function with a wrapper in every tdiscrim
module namespace that holds it, so calls made inside the package (for
example verification_report -> remez) are caught as nested spans. Spans
stay in memory until the run ends; self time is derived from them.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (layer module, public function) pairs whose calls become spans.
TARGETS = (
    ("closed_form", "t_optimal_design"),
    ("closed_form", "zero_b_family"),
    ("designs", "t_criterion"),
    ("minimax", "closed_form_psi"),
    ("minimax", "remez"),
    ("checks", "verification_report"),
    ("continuation", "solve_at"),
    ("continuation", "trajectory"),
    ("maximin", "r_value"),
    ("maximin", "maximin_design"),
    ("power", "f_test_power_mc"),
    ("power", "f_test_power_analytic"),
)


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _solve_info(args, kwargs, result):
    return {"bbar_walked": abs(float(_arg(args, kwargs, 1, "bbar")))}


def _trajectory_info(args, kwargs, result):
    g = np.asarray(_arg(args, kwargs, 1, "grid"), dtype=float)
    # both branches are walked outward from the bbar = 0 anchor
    return {"bbar_walked": float(max(g.max(), 0.0) - min(g.min(), 0.0)),
            "points": int(g.size)}


def _remez_info(args, kwargs, result):
    return {"iterations": int(result.iterations)} if result is not None else {}


def _report_info(args, kwargs, result):
    return {"passed": bool(result["passed"])} if result is not None else {}


def _power_info(args, kwargs, result):
    return {"consistent": bool(result.consistent)} if result is not None else {}


# Per-target extraction of work counts from the call's arguments and result.
OBSERVERS = {
    "minimax.remez": _remez_info,
    "checks.verification_report": _report_info,
    "continuation.solve_at": _solve_info,
    "continuation.trajectory": _trajectory_info,
    "power.f_test_power_mc": _power_info,
}


def _degree(args, kwargs):
    """The degree n of a call, from an int argument or a problem's n."""
    if "n" in kwargs:
        return int(kwargs["n"])
    for a in args[:2]:
        if isinstance(a, (int, np.integer)):
            return int(a)
        if isinstance(getattr(a, "n", None), int):
            return a.n
    return None


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op_id: int
    ok: bool
    n: int | None
    info: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class DrawCounter:
    """Counts variates returned by numpy Generators created through a module's np."""

    def __init__(self):
        self.draws = 0
        self.nbytes = 0

    def _count(self, out):
        self.draws += int(np.size(out))
        self.nbytes += int(np.asarray(out).nbytes)

    def numpy_proxy(self):
        counter = self

        class _Generator:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                attr = getattr(self._gen, name)
                if not callable(attr):
                    return attr

                def call(*args, **kwargs):
                    out = attr(*args, **kwargs)
                    counter._count(out)
                    return out
                return call

        class _Random:
            def __getattr__(self, name):
                return getattr(np.random, name)

            @staticmethod
            def Generator(*args, **kwargs):
                return _Generator(np.random.Generator(*args, **kwargs))

            @staticmethod
            def default_rng(*args, **kwargs):
                return _Generator(np.random.default_rng(*args, **kwargs))

        class _Numpy:
            random = _Random()

            def __getattr__(self, name):
                return getattr(np, name)

        return _Numpy()


class Tracer:
    """Installs span wrappers into the tdiscrim modules and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = -1
        self.draws = DrawCounter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter_ns(), 0,
                        self._stack[-1] if self._stack else None,
                        self.op_id, False, _degree(args, kwargs))
            self.spans.append(span)
            self._stack.append(idx)
            result = None
            try:
                result = func(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if observe is not None:
                    span.info = observe(args, kwargs, result)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "tdiscrim" or k.startswith("tdiscrim.")]
        for mod_name, fn in TARGETS:
            orig = getattr(sys.modules["tdiscrim." + mod_name], fn)
            wrapped = self._wrap(f"{mod_name}.{fn}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        power = sys.modules["tdiscrim.power"]
        self._patched.append((power, "np", power.np))
        power.np = self.draws.numpy_proxy()

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent, "op_id": s.op_id,
                    "ok": s.ok, "n": s.n, **s.info,
                }) + "\n")


def self_times(spans: list[Span], durations: list[float]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Calls are made from one thread, so children of a span never overlap and
    the covered time is the sum of their durations.
    """
    out = list(durations)
    for s, d in zip(spans, durations):
        if s.parent is not None:
            out[s.parent] -= d
    return out
