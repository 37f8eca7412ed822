"""framesync benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py) through the package's public entry
point ``framesync.cli.main`` in this process. One warm-up pass is discarded;
timed passes follow until ``--seconds`` is used up (at least three), and
wall_s is their median. Every pass goes through the correctness gate
(gate.py). With ``--trace 0`` the set-up time is measured in a fresh
interpreter after each timed pass. With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics come from the fastest traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (checks, not passes) and ``metrics``.
The exit code is 1 when any check failed and 2 when the checkout holds no
``src/framesync``.
"""
import os

# one BLAS thread in this process, in every sweep worker forked from it and in
# every probe it starts: with two OpenBLAS threads on two cores the N=1000
# coupling matmul runs about ten times slower (see NOTES.md)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_TIMED_PASSES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    wall: float
    outcome: gate.Outcome
    artifacts: dict[str, bytes]


class Runner:
    """Runs passes of one workload and gates each against the first."""

    def __init__(self, wl: Workload, seed: int, cli_main):
        self.wl = wl
        self.cli_main = cli_main
        self.work = WORK / f"{wl.name}-{os.getpid()}"
        self.out = self.work / "out"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(wl.raw_config(seed, str(self.out))))
        self.reference: dict[str, bytes] | None = None
        self.checks_per_run = 0
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        log = io.StringIO()
        code = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.cli_main(self.wl.argv(str(self.config)))
        except Exception:  # an unexpected error fails the pass, not the run
            log.write(traceback.format_exc())
        wall = perf_counter() - t0
        artifacts = gate.collect(self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        outcome = gate.evaluate(artifacts, code, self.reference, self.checks_per_run)
        if self.reference is None:
            self.reference = artifacts
        self.checks_per_run = max(self.checks_per_run, outcome.checks_per_run)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.failed:
            print(f"perfbench: pass failed: {outcome.reasons}\n{log.getvalue()}",
                  file=sys.stderr)
        return Pass(wall, outcome, artifacts)

    def run_traced_pass(self) -> tuple[Pass, tracing.Tracer]:
        """One pass with every tracing target wrapped for its duration."""
        spool = self.work / "spool"
        spool.mkdir(exist_ok=True)
        tr = tracing.Tracer(spool)
        tr.install()
        try:
            p = self.run_pass()
        finally:
            tr.uninstall()
        tr.merge_spool()
        return p, tr

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def machine_ref() -> float:
    """Time of a fixed pure-numpy loop that does not call framesync.

    Reported for information only, never used to scale a metric: it shows
    when a noisy run coincided with a slow machine.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 64))
    t0 = perf_counter()
    for _ in range(3000):
        a = np.tanh(a @ a.T * 0.01)
    return perf_counter() - t0


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_time(wl: Workload, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first integrate call."""
    probe_dir = WORK / f"probe-{os.getpid()}"
    probe_dir.mkdir(parents=True, exist_ok=True)
    try:
        config = probe_dir / "config.json"
        config.write_text(json.dumps(wl.raw_config(seed, str(probe_dir / "out"))))
        stamps = probe_dir / "stamps"
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               str(stamps), *wl.argv(str(config))]
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not stamps.exists():
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return min(float(x) for x in stamps.read_text().split()) - t0
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


@dataclass
class Timed:
    untraced: list[Pass]
    traced: list[tuple[Pass, tracing.Tracer]]
    setups: list[float]
    rss_mb: float = 0.0


def timed_loop(runner: Runner, seconds: float, trace: bool, seed: int) -> Timed:
    """Passes until the time is used up.

    With trace set, untraced and traced passes alternate. Otherwise each
    untraced pass is followed by one set-up probe, so the probes sample the
    same stretch of machine time as the passes; peak RSS is read after the
    first pass, before any probe, because probes are children too.
    """
    t = Timed([], [], [])
    start = perf_counter()
    while True:
        t.untraced.append(runner.run_pass())
        round_s = t.untraced[-1].wall
        if trace:
            t.traced.append(runner.run_traced_pass())
            round_s += t.traced[-1][0].wall
        else:
            if not t.setups:
                t.rss_mb = peak_rss_mb()
            probe_t0 = perf_counter()
            t.setups.append(setup_time(runner.wl, seed))
            round_s += perf_counter() - probe_t0
        enough = len(t.untraced) >= (1 if trace else MIN_TIMED_PASSES)
        if enough and perf_counter() - start + round_s > seconds:
            break
    while not trace and len(t.setups) < SETUP_PROBES:
        t.setups.append(setup_time(runner.wl, seed))
    return t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the workload's scenario seeds")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "framesync" / "__init__.py").is_file():
        print(f"perfbench: no framesync package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import framesync
    import framesync.cli

    if Path(framesync.__file__).resolve().parent != (SRC / "framesync").resolve():
        print(f"perfbench: imported framesync from {framesync.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    print("perfbench: machine " + json.dumps(machine_info()))
    print(f"perfbench: workload {wl.name} seed {args.seed} config "
          + json.dumps(wl.raw_config(args.seed, "<work>/out")))
    refs = [machine_ref() for _ in range(3)]
    runner = Runner(wl, args.seed, framesync.cli.main)
    try:
        runner.run_pass()  # warm-up, discarded; its bytes are the reference
        timed = timed_loop(runner, args.seconds, bool(args.trace), args.seed)
    finally:
        runner.close()
    refs += [machine_ref() for _ in range(3)]

    walls = [p.wall for p in timed.untraced]
    wall = statistics.median(walls)
    correct = runner.failed == 0
    ratio = runner.failed / runner.attempted
    print(f"perfbench: {len(walls)} timed passes, wall_s median {wall!r} s, "
          f"fastest {min(walls)!r} s; machine.ref_s {statistics.median(refs)!r} s")
    print(f"perfbench: check_fail_ratio {ratio!r} "
          f"({runner.failed} of {runner.attempted} checks failed)")

    if args.trace:
        p, tr = min(timed.traced, key=lambda pt: pt[0].wall)
        csv_bytes = sum(len(b) for path, b in p.artifacts.items()
                        if path.endswith(".csv"))
        layers = tracing.layer_metrics(tr, p.wall, wl.shape, wl.jobs,
                                       p.outcome.repairs, csv_bytes)
        traced_wall = statistics.median(q.wall for q, _ in timed.traced)
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["machine.ref_s"] = (statistics.median(refs), "s")
        print("perfbench: self-time shares % " + json.dumps(tracing.shares(tr)))
        print("perfbench: not measured " + json.dumps(tracing.not_measured(tr)))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "agent_steps_per_s": {"value": wl.agent_steps() / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(timed.setups), "unit": "s"},
            "peak_rss_mb": {"value": timed.rss_mb, "unit": "MB"},
        }
        print(f"perfbench: setup_s samples {timed.setups!r}")
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
