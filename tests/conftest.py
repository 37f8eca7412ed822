import functools
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from framesync import diagnostics, scenarios
from framesync.scenarios import OUTPUT_ENV, output_root, resolve_config

_failed_criteria = set()


def pytest_runtest_logreport(report):
    """Emit the FAIL counterpart for acceptance criteria that did not pass."""
    if not report.failed:
        return
    m = re.search(r"criterion_(\d+)", report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    if num in _failed_criteria:
        return
    _failed_criteria.add(num)
    print(f"criterion {num:02d}: FAIL ({report.when} stage, see traceback)",
          flush=True)


@pytest.fixture
def announce(pytestconfig):
    """Print a line straight to the terminal, past pytest's fd capture."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _announce(num: int, verdict: str, detail: str) -> None:
        line = f"criterion {num:02d}: {verdict} ({detail})"
        if capman is not None:
            capman.suspend_global_capture(in_=True)
        print(line, flush=True)
        if capman is not None:
            capman.resume_global_capture()

    return _announce


def _count_calls(mp):
    """Count through the names the benchmark wraps, framesync.scenarios.
    integrate and framesync.diagnostics.make_record: returns the lists of
    each integrate call's (ensembles, agents, steps, samples) and of each
    make_record call's time."""
    runs, records = [], []
    integrate, make_record = scenarios.integrate, diagnostics.make_record

    def counting_integrate(states, params, topology, config, *rest):
        shape = np.shape(states)
        runs.append((shape[0] if len(shape) == 4 else 1, shape[-3],
                     config.steps, config.samples))
        return integrate(states, params, topology, config, *rest)

    def counting_record(*args, **kwargs):
        records.append(args[0])
        return make_record(*args, **kwargs)

    mp.setattr(scenarios, "integrate", counting_integrate)
    mp.setattr(diagnostics, "make_record", counting_record)
    return runs, records


@pytest.fixture
def counted(monkeypatch):
    return _count_calls(monkeypatch)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """default_run(scenario): the scenario's default config, run once per
    session under $FRAMESYNC_OUT with its default output_dir, so its
    verdict names no temporary path. Returns the resolved config, the report,
    the run's wall time in seconds, its output directory, and the calls
    counted as the counted fixture counts them."""
    root = tmp_path_factory.mktemp("defaults")

    @functools.cache
    def run(scenario):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(OUTPUT_ENV, str(root))
            runs, records = _count_calls(mp)
            cfg = resolve_config({"scenario": scenario})
            t0 = time.perf_counter()
            report = scenarios.run_scenario(cfg)
            secs = time.perf_counter() - t0
            out = output_root(cfg)
        return SimpleNamespace(cfg=cfg, report=report, secs=secs, out=out,
                               runs=runs, records=records)

    return run
