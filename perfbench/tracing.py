"""Traced pass: per-layer spans recorded from the benchmark's own wrappers.

The wrappers replace module-level names at the place where the caller looks
them up (``framesync.integrator.step_rk4`` is what ``integrate`` calls, not
``framesync.stiefel``'s copy), so nothing under ``src/`` changes. Spans are
aggregated in memory per layer: calls, total time and the time covered by
child spans, so self time is total minus child time. Sweep workers are forked
with the wrappers in place; each worker writes what it recorded to the
benchmark's spool directory after every member and the parent merges those
files when the pass ends.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, layer span): every name a caller looks up in the hot
# path of the workloads
TARGETS = (
    ("framesync.integrator", "step_rk4", "step"),
    ("framesync.integrator", "rhs_first_order", "rhs"),
    ("framesync.integrator", "rhs_second_order", "rhs"),
    ("framesync.integrator", "frame_drift", "monitor"),
    ("framesync.integrator", "retract_polar", "retract"),
    ("framesync.diagnostics", "make_record", "record"),
    ("framesync.scenarios", "integrate", "integrate"),
    ("framesync.scenarios", "clustered_states", "init"),
    ("framesync.scenarios", "write_timeseries", "csv"),
    ("framesync.scenarios", "phase_lock_detector", "lock"),
    ("framesync.scenarios", "inter_diameter", "inter_diameter"),
    ("framesync.cli", "run_scenario", "member"),
    ("framesync.cli", "resolve_config", "resolve"),
)
# spans whose individual durations are kept for percentiles
_KEEP = {"step", "member"}


def target_modules() -> dict:
    """The modules named in TARGETS, imported."""
    return {m: importlib.import_module(m) for m in dict.fromkeys(t[0] for t in TARGETS)}


class Tracer:
    """Span aggregates of one traced pass, in this process and its workers."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.owner = os.getpid()
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._pid = self.owner
        self._dumps = 0
        self._reset()

    def _reset(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list[float]] = []

    def install(self) -> None:
        modules = target_modules()
        for mod_name, attr, span in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, span: str, fn):
        keep = span in _KEEP
        is_member = span == "member"

        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                # first span in a forked worker: drop the parent's copy
                self._pid = os.getpid()
                self._reset()
            frame = [0.0]
            stack = self._stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[span] += 1
                self.total[span] += dt
                self.child[span] += frame[0]
                if keep:
                    self.durations[span].append(dt)
                if is_member and self._pid != self.owner:
                    self._dump()

        return wrapper

    def _dump(self) -> None:
        self._dumps += 1
        path = self.spool / f"{os.getpid()}-{self._dumps}.json"
        path.write_text(json.dumps({
            "calls": self.calls, "total": self.total, "child": self.child,
            "durations": self.durations,
        }))
        self._reset()

    def merge_spool(self) -> None:
        """Add what the sweep workers wrote; call after the pass."""
        for path in sorted(self.spool.glob("*.json")):
            part = json.loads(path.read_text())
            for key in ("calls", "total", "child"):
                mine = getattr(self, key)
                for span, v in part[key].items():
                    mine[span] += v
            for span, v in part["durations"].items():
                self.durations[span].extend(v)
            path.unlink()

    def self_s(self, span: str) -> float:
        return self.total[span] - self.child[span]


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, wall: float, shape, jobs: int, repairs: int,
                  csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit)."""
    count, n, p = shape
    c, t = tr.calls, tr.total
    member_s = tr.durations["member"]
    steps_us = [d * 1e6 for d in tr.durations["step"]]
    busy = t["member"] or wall

    def per_call_us(span):
        return t[span] / c[span] * 1e6 if c[span] else 0.0

    def pct(span):
        return 100.0 * t[span] / busy

    return {
        "dynamics.rhs.calls": (c["rhs"], "count"),
        "dynamics.rhs.s": (t["rhs"], "s"),
        "dynamics.rhs.us_per_call": (per_call_us("rhs"), "us"),
        "dynamics.pooled_flops": (c["rhs"] * 2 * count**2 * n * p, "flop"),
        "integrator.step.calls": (c["step"], "count"),
        "integrator.step.self_s": (tr.self_s("step"), "s"),
        "integrator.step.us.p50": (_pct(steps_us, 50), "us"),
        "integrator.step.us.p99": (_pct(steps_us, 99), "us"),
        "integrator.step.samples": (len(steps_us), "count"),
        "integrator.monitor.calls": (c["monitor"], "count"),
        "integrator.monitor.s": (t["monitor"], "s"),
        "integrator.loop.self_s": (tr.self_s("integrate"), "s"),
        "integrator.repairs": (repairs, "count"),
        "stiefel.retract.calls": (c["retract"], "count"),
        "stiefel.retract.pct": (pct("retract"), "%"),
        "diagnostics.record.calls": (c["record"], "count"),
        "diagnostics.record.s": (t["record"], "s"),
        "diagnostics.record.us_per_call": (per_call_us("record"), "us"),
        "diagnostics.record.bytes_computed":
            (c["record"] * 3 * count**2 * n * p * 8, "B"),
        "diagnostics.csv.s": (t["csv"], "s"),
        "diagnostics.csv.bytes": (csv_bytes, "B"),
        "diagnostics.lock.calls": (c["lock"], "count"),
        "diagnostics.lock.pct": (pct("lock"), "%"),
        "diagnostics.inter_diameter.calls": (c["inter_diameter"], "count"),
        "diagnostics.inter_diameter.pct": (pct("inter_diameter"), "%"),
        "scenarios.resolve.s": (t["resolve"], "s"),
        "scenarios.init.s": (t["init"], "s"),
        "scenarios.checks.self_s": (tr.self_s("member"), "s"),
        "cli.main.s": (wall, "s"),
        "cli.member_s.p50": (statistics.median(member_s) if member_s else 0.0, "s"),
        "cli.member_s.max": (max(member_s, default=0.0), "s"),
        "cli.parallel_efficiency": (t["member"] / (max(jobs, 1) * wall), "ratio"),
    }


def not_measured(tr: Tracer) -> list[str]:
    """Wrapped names that are missing, and spans that were never entered."""
    spans = {span for _, _, span in TARGETS}
    return tr.missing + sorted(s for s in spans if not tr.calls[s])


def shares(tr: Tracer) -> dict[str, float]:
    """Self time of each span as a share of the time spent in members."""
    busy = tr.total["member"]
    if not busy:
        return {}
    called = [span for span, n in tr.calls.items() if n]
    return {span: round(100.0 * tr.self_s(span) / busy, 2)
            for span in sorted(called, key=lambda s: -tr.self_s(s))}
