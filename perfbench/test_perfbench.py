"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest perfbench -q
The count test runs every workload's traced pass twice (about a minute).
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = ("integrator.step.calls", "dynamics.rhs.calls",
         "diagnostics.record.calls", "integrator.repairs")


def _verdict(passed=True):
    return json.dumps({
        "scenario": "s", "passed": passed, "repairs": 3,
        "assertions": [{"name": "a", "op": "<=", "passed": passed},
                       {"name": "b", "op": "info", "passed": True}],
    }).encode()


def test_gate_counts_checks_and_repairs():
    out = gate.evaluate({"verdict.json": _verdict(), "x.csv": b"1"}, 0, None)
    assert (out.attempted, out.failed, out.repairs) == (3, 0, 3)


def test_gate_fails_changed_bytes_failed_check_and_exit_code():
    ref = {"verdict.json": _verdict(), "x.csv": b"1"}
    assert gate.evaluate(dict(ref, **{"x.csv": b"2"}), 0, ref).failed == 1
    # exit code, the failed assertion and the verdict's own flag
    assert gate.evaluate({"verdict.json": _verdict(False)}, 1, None).failed == 3


def test_gate_counts_aborted_sweep_member_as_all_checks_failed():
    sweep = json.dumps({"passed": False, "members": [
        {"passed": False, "error": "drift"}, {"passed": True}]}).encode()
    arts = {"sweep_verdict.json": sweep, "member_001/verdict.json": _verdict()}
    out = gate.evaluate(arts, 3, None, checks_per_run=5)
    # exit code, sweep verdict, and five checks of the aborted member
    assert out.failed == 7


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    tr = tracing.Tracer(HERE)
    layers = tracing.layer_metrics(tr, 1.0, (2, 4, 2), 1, 0, 0)
    # the two that run.py adds
    layers.update({"trace.overhead_s": (0, "s"), "machine.ref_s": (0, "s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}


# the span each workload was chosen to load, as the largest self-time share
LARGEST = {"fo_dispatch": "rhs", "fo_large_n": "record", "locking_sweep": "rhs"}


def _traced_pass(name: str):
    import framesync.cli

    runner = run.Runner(WORKLOADS[name], 0, framesync.cli.main)
    try:
        p, tr = runner.run_traced_pass()
    finally:
        runner.close()
    assert runner.failed == 0
    layers = tracing.layer_metrics(tr, p.wall, WORKLOADS[name].shape, 1,
                                   p.outcome.repairs, 0)
    return {k: layers[k][0] for k in EXACT}, tracing.shares(tr)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_and_the_chosen_layer_dominates(name):
    first, shares = _traced_pass(name)
    assert first["integrator.step.calls"] > 0
    assert next(iter(shares)) == LARGEST[name]
    repairs = first["integrator.repairs"]
    assert repairs >= 10_000 if name == "fo_large_n" else repairs < 100
    assert _traced_pass(name)[0] == first
