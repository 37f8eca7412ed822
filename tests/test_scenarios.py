import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import framesync
from framesync import (
    ConfigError,
    clustered_states,
    diameter,
    frame_drift,
    resolve_config,
    run_scenario,
    uniform_states,
)
from framesync.cli import _expand_members, main
from framesync.scenarios import (
    _RULES,
    CONFIG_TABLE,
    OUTPUT_ENV,
    SCENARIOS,
    _heterogeneous_freqs,
    default_dt,
    output_root,
)


def test_resolve_fills_defaults():
    cfg = resolve_config({"scenario": "first_order_homogeneous"})
    assert cfg.N == 8 and cfg.p == 2 and cfg.n == 4
    assert cfg.kappa == 1.0 and cfg.xi_scale == 0.0
    assert cfg.dt == 1e-3 and cfg.horizon == 50.0


def test_resolve_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config({"scenario": "first_order_homogeneous", "coupling": 2})


def test_resolve_rejects_misplaced_keys():
    with pytest.raises(ConfigError, match="not applicable"):
        resolve_config({"scenario": "first_order_homogeneous", "m": 1.0})
    with pytest.raises(ConfigError, match="not applicable"):
        resolve_config({"scenario": "first_order_locking", "vel_scale": 0.2})
    # a key the scenario does not expose is rejected even at its fixed value
    with pytest.raises(ConfigError, match="not applicable"):
        resolve_config({"scenario": "second_order_homogeneous", "xi_scale": 0})


def test_resolve_rejects_bad_types():
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "first_order_homogeneous", "kappa": "big"})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "first_order_homogeneous", "N": 2.5})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "first_order_homogeneous", "seed": True})


def test_resolve_scenario_constraints():
    with pytest.raises(ConfigError, match="forces xi_scale"):
        resolve_config({"scenario": "second_order_homogeneous", "xi_scale": 0.1})
    with pytest.raises(ConfigError, match="needs m > 0"):
        resolve_config({"scenario": "second_order_homogeneous", "m": 0.0})
    with pytest.raises(ConfigError, match="p <= n"):
        resolve_config({"scenario": "first_order_homogeneous", "n": 2, "p": 3})
    with pytest.raises(ConfigError, match="list"):
        resolve_config({"scenario": "practical_consensus_sweep", "kappa": 10.0})
    with pytest.raises(ConfigError, match="per kappa"):
        resolve_config({"scenario": "practical_consensus_sweep", "dt": 1e-3})


# each scenario's resolved defaults, which the config table must reproduce
_GOLDEN = {
    "first_order_homogeneous": {
        "scenario": "first_order_homogeneous", "n": 4, "p": 2, "kappa": 1.0,
        "m": 0.0, "gamma": 1.0, "xi_scale": 0.0, "eta": 1.0, "m0": 1.0,
        "seed": 11, "dt": 0.001, "horizon": 50.0, "record_every": 100,
        "output_dir": "runs/first_order_homogeneous", "diameter0": 1.0,
        "vel_scale": 0.0, "window": None, "N": 8},
    "first_order_locking": {
        "scenario": "first_order_locking", "n": 4, "p": 2, "kappa": 2.0,
        "m": 0.0, "gamma": 1.0, "xi_scale": 0.1, "eta": 1.0, "m0": 1.0,
        "seed": 7, "dt": 0.001, "horizon": 8.0, "record_every": 50,
        "output_dir": "runs/first_order_locking", "diameter0": 1.0,
        "vel_scale": 0.0, "window": 0.3, "N": 3},
    "second_order_homogeneous": {
        "scenario": "second_order_homogeneous", "n": 4, "p": 2, "kappa": 1.0,
        "m": 1.0, "gamma": 2.0, "xi_scale": 0.0, "eta": 1.0, "m0": 1.0,
        "seed": 5, "dt": 0.001, "horizon": 100.0, "record_every": 50,
        "output_dir": "runs/second_order_homogeneous", "diameter0": 1.0,
        "vel_scale": 0.3, "window": None, "N": 10},
    "practical_consensus_sweep": {
        "scenario": "practical_consensus_sweep", "n": 4, "p": 2,
        "kappa": [10.0, 100.0, 1000.0], "m": 0.0, "gamma": 1.0,
        "xi_scale": 0.1, "eta": 1.0, "m0": 1.0, "seed": 3, "dt": None,
        "horizon": None, "record_every": None,
        "output_dir": "runs/practical_consensus_sweep", "diameter0": 1.0,
        "vel_scale": 0.2, "window": None, "N": 5},
    "invariance_checks": {
        "scenario": "invariance_checks", "n": 4, "p": 2, "kappa": 1.0,
        "m": 1.0, "gamma": 2.0, "xi_scale": 0.1, "eta": 1.0, "m0": 1.0,
        "seed": 2, "dt": 0.001, "horizon": 5.0, "record_every": 100,
        "output_dir": "runs/invariance_checks", "diameter0": 1.0,
        "vel_scale": 0.3, "window": None, "N": 5},
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_resolve_defaults_golden(scenario):
    # json text pins key order and int/float types as well as the values
    got = resolve_config({"scenario": scenario}).to_dict()
    assert json.dumps(got) == json.dumps(_GOLDEN[scenario])


def test_expand_members_keeps_the_kappa_ladder_whole():
    raw = {"scenario": "practical_consensus_sweep", "kappa": [10.0, 100.0],
           "seed": [1, 2]}
    assert _expand_members(raw) == [dict(raw, seed=1), dict(raw, seed=2)]
    # a scalar-kappa scenario expands a kappa list like any other list
    raw = {"scenario": "first_order_homogeneous", "kappa": [1.0, 2.0],
           "seed": [1, 2]}
    assert sorted((m["kappa"], m["seed"]) for m in _expand_members(raw)) == [
        (1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)]


def test_repeated_kappa_rung_is_a_config_error(tmp_path, capsys, monkeypatch):
    # a ladder must rise strictly: a repeated rung would integrate twice and
    # fit the tail-spread slope over two equal abscissae
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    raw = {"scenario": "practical_consensus_sweep", "kappa": [10.0, 10.0]}
    with pytest.raises(ConfigError, match="strictly increasing kappa"):
        resolve_config(raw)
    with pytest.raises(ConfigError, match="strictly increasing kappa"):
        resolve_config(dict(raw, kappa=[10.0, 100.0, 100.0]))
    out = tmp_path / "rung"
    cfgp = write_config(tmp_path, dict(raw, output_dir=str(out)))
    assert main(["validate", cfgp]) == 2
    assert main(["run", cfgp]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()
    sweep = write_config(tmp_path, dict(raw, seed=[1, 2], output_dir=str(out)),
                         "sweep.json")
    assert main(["sweep", sweep, "--jobs", "1"]) == 2
    verdict = json.loads((out / "sweep_verdict.json").read_text())
    assert [m["exit"] for m in verdict["members"]] == [2, 2]


def test_default_dt_policy():
    assert default_dt(1.0) == 1e-3
    assert default_dt(100.0) == 2.5e-5
    # stiff friction dominates: m / gamma
    npt.assert_allclose(default_dt(1000.0, mass=1e-6, friction=1.0), 1e-6)


def test_clustered_states_hit_target_diameter():
    rng = np.random.default_rng(0)
    for target in (0.5, 1.0, 1.3):
        states = clustered_states(4, 2, 8, rng, target)
        assert np.max(frame_drift(states)) < 1e-13
        d, _ = diameter(states)
        assert abs(d - target) < 0.05 * target


def test_uniform_states_distinct():
    rng = np.random.default_rng(1)
    states = uniform_states(4, 2, 5, rng)
    assert np.max(frame_drift(states)) < 1e-13
    d, _ = diameter(states)
    assert d > 0.5


def test_heterogeneous_freqs_sup_norm():
    rng = np.random.default_rng(2)
    freqs = _heterogeneous_freqs(5, 2, 0.1, rng)
    sups = np.linalg.norm(freqs, axis=(1, 2))
    npt.assert_allclose(sups.max(), 0.1, rtol=1e-12)
    npt.assert_allclose(freqs, -np.swapaxes(freqs, 1, 2), atol=1e-15)
    # distinct agents
    assert np.linalg.norm(freqs[0] - freqs[1]) > 1e-4


def test_output_root_env_override(tmp_path, monkeypatch):
    cfg = resolve_config(
        {"scenario": "first_order_homogeneous", "output_dir": "runs/x"}
    )
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    assert output_root(cfg) == __import__("pathlib").Path("runs/x")
    monkeypatch.setenv(OUTPUT_ENV, str(tmp_path))
    assert output_root(cfg) == tmp_path / "runs/x"


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = resolve_config(
        {
            "scenario": "first_order_homogeneous",
            "horizon": 30.0,
            "output_dir": str(tmp_path / "out"),
        }
    )
    report = run_scenario(cfg)
    assert report.passed
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["scenario"] == "first_order_homogeneous"
    names = {c["name"] for c in verdict["assertions"]}
    assert "final_diameter" in names and "max_drift" in names
    csv_files = list((tmp_path / "out").glob("*.csv"))
    assert len(csv_files) == 1


def test_invariance_checks_with_a_step_that_does_not_divide_ten(tmp_path):
    # the phase-model comparison runs ten time units; at dt = 0.003 that is
    # no whole number of steps, so the scenario rounds it onto the step grid
    cfg = resolve_config({"scenario": "invariance_checks", "dt": 0.003,
                          "horizon": 0.6, "output_dir": str(tmp_path)})
    report = run_scenario(cfg)
    assert report.passed
    assert report.artifacts == ["invariance_first_order.csv",
                                "invariance_second_order.csv"]


def test_run_scenario_verdict_deterministic(tmp_path):
    reports = []
    for tag in ("a", "b"):
        cfg = resolve_config(
            {
                "scenario": "first_order_homogeneous",
                "horizon": 20.0,
                "output_dir": str(tmp_path / tag),
            }
        )
        run_scenario(cfg)
        text = (tmp_path / tag / "verdict.json").read_text()
        reports.append(
            "\n".join(l for l in text.splitlines() if "output_dir" not in l)
        )
    assert reports[0] == reports[1]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "first_order_locking"})
    assert main(["validate", path]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["scenario"] == "first_order_locking"
    assert resolved["window"] == 0.3


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "nope"})
    assert main(["validate", path]) == 2
    path2 = write_config(tmp_path, {"n": 4}, "no_scenario.json")
    assert main(["validate", path2]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("body", [
    '"first_order_homogeneous", "seed": null',
    '"first_order_homogeneous", "horizon": null',
    '"first_order_homogeneous", "record_every": null',
    '"first_order_homogeneous", "dt": null',
    '"first_order_homogeneous", "n": null',
    '"first_order_homogeneous", "kappa": null',
    '"first_order_homogeneous", "diameter0": null',
    '"first_order_locking", "window": null',
    '"practical_consensus_sweep", "dt": null',
    '"first_order_homogeneous", "dt": NaN',
    '"first_order_homogeneous", "horizon": Infinity',
    '"first_order_homogeneous", "kappa": 1e400',
    '"practical_consensus_sweep", "kappa": [10, "x"]',
    '"practical_consensus_sweep", "kappa": [10, null]',
])
def test_cli_validate_rejects_null_and_non_finite_values(tmp_path, capsys, body):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": ' + body + "}")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("extra", [
    {"window": 0.33, "horizon": 2.0},  # not a multiple of dt * record_every
    {"window": 0.05},  # one sample spacing
    {"window": 0.3, "record_every": 7},  # 0.3 / 0.007 is not whole
])
def test_misaligned_locking_window_is_a_config_error(tmp_path, capsys, extra):
    raw = {"scenario": "first_order_locking", **extra}
    with pytest.raises(ConfigError, match="window"):
        resolve_config(raw)
    path = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "out")))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert not (tmp_path / "out").exists()
    assert "config error: window" in capsys.readouterr().err


@pytest.mark.parametrize("window", [2.0, 1.65, 4.0])
def test_locking_window_needs_five_in_the_horizon(tmp_path, capsys, window):
    # the lock detector fits its ratio over at least five windows; fewer
    # used to integrate both ensembles and then fail with a NaN ratio
    raw = {"scenario": "first_order_locking", "window": window}
    with pytest.raises(ConfigError, match="at least five windows"):
        resolve_config(raw)
    path = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "out")))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert not (tmp_path / "out").exists()
    assert "at least five windows" in capsys.readouterr().err
    # exactly five windows fit the default horizon of 8
    assert resolve_config(dict(raw, window=1.6)).window == 1.6


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_dimensional_frames_are_a_config_error(tmp_path, capsys, scenario):
    # V_1(R^1) = {+1, -1} has no tangent directions: the initial states
    # used to come out NaN and the run died in an SVD with exit 1
    raw = {"scenario": scenario, "n": 1, "p": 1}
    with pytest.raises(ConfigError, match="n >= 2"):
        resolve_config(raw)
    path = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "out")))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert not (tmp_path / "out").exists()
    assert "n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario",
    ["first_order_locking", "practical_consensus_sweep", "invariance_checks"])
def test_one_column_frames_are_a_config_error_where_rotations_are_drawn(
        tmp_path, capsys, scenario):
    # every 1 x 1 antisymmetric matrix is 0, so the rotations of sup norm
    # xi_scale cannot be drawn: the run used to abort with exit 3 on NaN
    # frequencies
    raw = {"scenario": scenario, "p": 1}
    with pytest.raises(ConfigError, match="p >= 2"):
        resolve_config(raw)
    path = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "out")))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert not (tmp_path / "out").exists()
    assert "p >= 2, got p=1" in capsys.readouterr().err
    # the scenarios without rotations still take one column
    for other in ("first_order_homogeneous", "second_order_homogeneous"):
        assert resolve_config({"scenario": other, "p": 1}).p == 1


def test_aligned_locking_windows_resolve():
    for extra in ({"window": 0.1}, {"window": 0.7, "record_every": 100},
                  {"window": 0.06, "dt": 0.002, "record_every": 15,
                   "horizon": 9.0}):
        cfg = resolve_config({"scenario": "first_order_locking", **extra})
        assert cfg.window == extra["window"]


@pytest.mark.parametrize("raw", [
    {"scenario": "first_order_locking", "horizon": 8.01},
    {"scenario": "second_order_homogeneous", "horizon": 10.01},
    # on the record grid within its tolerance, but not a whole number of steps
    {"scenario": "first_order_locking", "horizon": 8.00000001},
    {"scenario": "first_order_homogeneous", "horizon": 0.05},  # < one spacing
    # one spacing: a centred difference needs at least three samples
    {"scenario": "first_order_homogeneous", "horizon": 0.1},
    {"scenario": "second_order_homogeneous", "horizon": 0.05},
    {"scenario": "invariance_checks", "record_every": 300},  # 5.0 / 0.3
])
def test_off_grid_horizon_is_a_config_error(tmp_path, capsys, raw):
    # the last sample would fall off the record grid, and the monitors that
    # need uniform spacing would abort only after the whole integration
    with pytest.raises(ConfigError, match="horizon"):
        resolve_config(raw)
    path = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "out")))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert not (tmp_path / "out").exists()
    assert "config error: horizon" in capsys.readouterr().err


@pytest.mark.parametrize("raw, named", [
    # 2e304 steps of the default dt 2.5e-303
    ({"scenario": "first_order_homogeneous", "kappa": 1e300}, "horizon 50 "),
    ({"scenario": "first_order_homogeneous", "dt": 1e-12, "horizon": 100.0},
     "horizon 100 "),
    # dt = m / gamma = 5e-301
    ({"scenario": "second_order_homogeneous", "m": 1e-300, "horizon": 0.1},
     "horizon 0.1 "),
    # kappa^(1+eta) underflows to 0, or overflows
    ({"scenario": "practical_consensus_sweep", "kappa": [1e-300, 1.0]},
     "kappa 1e-300 rung: mass"),
    ({"scenario": "practical_consensus_sweep", "kappa": [1.0, 1e200]},
     "kappa 1e+200 rung: mass"),
    # m / gamma underflows to a zero step
    ({"scenario": "practical_consensus_sweep", "kappa": [1e10, 1e11],
      "m0": 1e-300, "gamma": 1e10}, "kappa 1e+10 rung: mass"),
    # a horizon of 4e11 time units, 4e14 steps
    ({"scenario": "practical_consensus_sweep", "kappa": [1e-10, 1.0]},
     "kappa 1e-10 rung horizon 400000000000 "),
    # invariance_checks' phase model runs 5e9 steps of 2e-9 over ten time
    # units, and with one record spacing past them, its restart from the
    # middle sample, the last, runs none
    ({"scenario": "invariance_checks", "dt": 2e-9, "horizon": 4e-7},
     "phase model horizon 10 "),
    ({"scenario": "invariance_checks", "dt": 0.01, "horizon": 100.0,
      "record_every": 5000}, "phase model restart horizon 0 "),
])
def test_grids_spacings_cannot_verify_are_config_errors(tmp_path, capsys, raw,
                                                        named):
    # each used to validate with exit 0, then abort with a traceback from
    # numpy or a division, or run for days
    path = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "out")))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.count(f"config error: {named}") == 2


def test_validate_prints_the_cost_of_each_run(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "second_order_homogeneous",
                                   "m": 1e-6})
    assert main(["validate", path]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == resolve_config(
        {"scenario": "second_order_homogeneous", "m": 1e-6}).to_dict()
    # dt = m / gamma = 5e-7 over a horizon of 100
    assert err == ("second_order_homogeneous: 200000000 steps, "
                   "agent-steps 2000000000\n")
    ladder = write_config(tmp_path, {"scenario": "practical_consensus_sweep"},
                          "ladder.json")
    assert main(["validate", ladder]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "kappa 10 rung: 16000 steps, agent-steps 80000",
        "kappa 100 rung: 16000 steps, agent-steps 80000",
        "kappa 1000 rung: 300000 steps, agent-steps 1500000",
    ]


def test_the_names_the_benchmark_wraps_are_reached(tmp_path, counted):
    runs, records = counted
    run_scenario(resolve_config({"scenario": "first_order_locking",
                                 "horizon": 3.0, "output_dir": str(tmp_path)}))
    # one call steps runs A and B: 3000 steps of 1e-3, a sample every 50
    assert runs == [(2, 3, 3000, 61)]
    assert len(records) == 2 * 61


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_validate_prints_what_each_scenario_runs(tmp_path, default_run,
                                                 scenario):
    # locking steps two ensembles, and invariance_checks eight plus its phase
    # model and restart: validate printed 24,000 and 25,000 agent-steps for
    # runs of 48,000 and 275,000
    path = write_config(tmp_path, {"scenario": scenario})
    code, err = _cli(["validate", path])
    assert code == 0
    printed = sum(int(line.rsplit(" ", 1)[1]) for line in err.splitlines())
    run = default_run(scenario)
    assert run.report.passed
    assert printed == sum(b * n * steps for b, n, steps, _ in run.runs)
    assert len(run.records) == sum(b * samples for b, _, _, samples in run.runs)


# agent-steps (summed over the lines validate prints) up to which the
# contract test below also runs a config: the invariance_checks defaults,
# 275,000, and no more
_RUN_BUDGET = 275_000

# values near the bounds of _RULES, and a few the scenarios run well
_NEAR = {"n": [4], "p": [2, 3], "N": [3], "kappa": [0.5, 2.0, 1e3],
         "m": [1e-6, 1.0], "gamma": [0.5, 2.0], "xi_scale": [0.1],
         "eta": [1.0], "m0": [1.0], "seed": [7],
         "dt": [1e-12, 1e-3, 0.01, 0.05], "record_every": [10, 50],
         "diameter0": [0.5, 1.0, 1.99], "vel_scale": [0.3]}


def _near_bounds(key):
    kind, low, strict, _ = _RULES[key]
    if kind is int:
        return [low, low + 1] + _NEAR[key]
    return [1e-300 if strict else low, 1e300] + _NEAR[key]


@st.composite
def bounded_configs(draw):
    """A config of one scenario with each of its keys left out or drawn near
    its bounds: n = p, p = 1, N = 2, kappa and m near 0 and 1e300, and the
    window and horizon at two record spacings, among others."""
    scenario = draw(st.sampled_from(SCENARIOS))
    table = CONFIG_TABLE[scenario]
    raw = {"scenario": scenario}
    for key in sorted(table, key=lambda k: k != "p"):  # p first, for n = p
        if key in ("output_dir", "window", "horizon"):
            continue
        if not draw(st.booleans()):
            continue
        if key == "kappa" and isinstance(table[key], list):
            rungs = st.sampled_from(_near_bounds(key) + [10.0, 100.0])
            raw[key] = sorted(draw(st.lists(rungs, min_size=2, max_size=2)))
            continue
        choices = _near_bounds(key)
        if key == "n":
            p = raw.get("p", table["p"])
            choices = [p, p + 1] + choices
        raw[key] = draw(st.sampled_from(choices))
    if "horizon" in table:
        dt = raw.get("dt", table["dt"]) or default_dt(
            raw.get("kappa", table["kappa"]), raw.get("m", table.get("m", 0.0)),
            raw.get("gamma", table.get("gamma", 1.0)))
        spacing = dt * raw.get("record_every", table["record_every"])
        for key, spans in (("horizon", [2, 10]), ("window", [2])):
            if key in table and draw(st.booleans()):
                raw[key] = draw(st.sampled_from(
                    [k * spacing for k in spans] + [1.5]))
    return raw


def _cli(argv):
    """main(argv) with its stdout and stderr captured: (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=bounded_configs())
@example(raw={"scenario": "first_order_homogeneous", "kappa": 1e300})
@example(raw={"scenario": "first_order_homogeneous", "dt": 1e-12,
              "horizon": 100.0})
@example(raw={"scenario": "second_order_homogeneous", "m": 1e-300,
              "horizon": 0.1})
@example(raw={"scenario": "practical_consensus_sweep", "kappa": [1e-300, 1.0]})
@example(raw={"scenario": "practical_consensus_sweep", "kappa": [1e-10, 1.0]})
# the trap is entered too late to leave two windows: exit 3 with a verdict
@example(raw={"scenario": "first_order_locking", "N": 2, "horizon": 1.5,
              "window": 0.3})
# the inertial field's m / gamma and 1 / gamma factors overflow: exit 3
@example(raw={"scenario": "invariance_checks", "gamma": 1e-300})
def test_every_config_validate_accepts_ends_in_a_verdict(monkeypatch, raw):
    # README's exit codes: 0 all checks passed, 1 a check failed, 2 bad
    # config, 3 aborted with a verdict; a traceback is a fault of the program
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = write_config(Path(tmp), dict(raw, output_dir=str(out)))
        code, err = _cli(["validate", path])
        if code == 2:
            assert err.startswith("config error: ") and "Traceback" not in err
            return
        # validate prints each run's agent-steps: the cost, before any run
        assert code == 0 and err.endswith("\n"), err
        cost = sum(int(line.rsplit(" ", 1)[1]) for line in err.splitlines())
        if cost > _RUN_BUDGET:
            return
        code, err = _cli(["run", path])
        assert code in (0, 1, 3) and "Traceback" not in err, err
        verdict = json.loads((out / "verdict.json").read_text())
    failed = [c["name"] for c in verdict.get("assertions", [])
              if not c["passed"]]
    if code == 0:
        assert verdict["passed"] and not failed
    elif code == 1:
        assert not verdict["passed"] and failed, verdict
    else:
        assert not verdict["passed"] and "aborted" in verdict


def test_cli_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_cli_run_pass_and_fail(tmp_path, capsys):
    ok = write_config(
        tmp_path,
        {
            "scenario": "first_order_homogeneous",
            "horizon": 30.0,
            "output_dir": str(tmp_path / "ok"),
        },
    )
    assert main(["run", ok]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out and "[PASS]" in out

    # a horizon too short to converge fails the final-diameter check
    short = write_config(
        tmp_path,
        {
            "scenario": "first_order_homogeneous",
            "horizon": 1.0,
            "output_dir": str(tmp_path / "short"),
        },
        "short.json",
    )
    assert main(["run", short]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] final_diameter" in out
    verdict = json.loads((tmp_path / "short" / "verdict.json").read_text())
    assert verdict["passed"] is False


def test_cli_output_root_flag(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    cfgp = write_config(
        tmp_path,
        {
            "scenario": "first_order_homogeneous",
            "horizon": 20.0,
            "output_dir": "rel/run",
        },
    )
    assert main(["--output-root", str(tmp_path), "run", cfgp]) == 0
    assert (tmp_path / "rel/run/verdict.json").exists()
    # the flag holds for its own call only: the next one writes under the
    # working directory
    assert OUTPUT_ENV not in os.environ
    monkeypatch.chdir(tmp_path / "rel")
    assert main(["run", cfgp]) == 0
    assert (tmp_path / "rel/rel/run/verdict.json").exists()


def test_cli_sweep_expansion(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    cfgp = write_config(
        tmp_path,
        {
            "scenario": "first_order_homogeneous",
            "horizon": 20.0,
            "seed": [3, 4],
            "kappa": [1.0, 2.0],
            "output_dir": str(tmp_path / "sw"),
        },
    )
    assert main(["sweep", cfgp, "--jobs", "2"]) == 0
    verdict = json.loads((tmp_path / "sw" / "sweep_verdict.json").read_text())
    assert len(verdict["members"]) == 4
    assert verdict["passed"] is True
    seeds = {m["config"]["seed"] for m in verdict["members"]}
    assert seeds == {3, 4}


def test_cli_sweep_verdict_lands_beside_its_members(tmp_path, monkeypatch):
    # an absolute output_dir moves under --output-root, verdict included
    root = tmp_path / "root"
    monkeypatch.setenv(OUTPUT_ENV, str(root))
    out = tmp_path / "abs"
    cfgp = write_config(
        tmp_path,
        {"scenario": "first_order_homogeneous", "horizon": 20.0,
         "seed": [3, 4], "output_dir": str(out)},
    )
    assert main(["--output-root", str(root), "sweep", cfgp, "--jobs", "1"]) == 0
    moved = root / out.relative_to(out.anchor)
    assert (moved / "sweep_verdict.json").exists()
    assert sorted(p.name for p in moved.glob("member_*")) == [
        "member_000", "member_001"]
    assert not out.exists()


@pytest.mark.parametrize("output_dir", [3, ["a", "b"], ""])
def test_cli_sweep_rejects_a_bad_output_dir(tmp_path, monkeypatch, output_dir):
    monkeypatch.chdir(tmp_path)
    cfgp = write_config(
        tmp_path,
        {"scenario": "first_order_homogeneous", "horizon": 0.5,
         "seed": [3, 4], "output_dir": output_dir},
    )
    assert main(["sweep", cfgp, "--jobs", "1"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("raw", [
    {"scenario": "first_order_locking", "seed": []},  # an empty axis
    {"scenario": ["first_order_homogeneous"]},  # not one scenario name
    {"scenario": "no_such_scenario", "seed": [3, 4]},
])
def test_cli_sweep_rejects_a_bad_sweep_and_writes_nothing(tmp_path, monkeypatch,
                                                         capsys, raw):
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    cfgp = write_config(tmp_path, raw)
    assert main(["sweep", cfgp, "--jobs", "1"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_sweep_rejects_non_finite_numbers_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # a member that fails to resolve repeats its raw config in the sweep
    # verdict, which is strict JSON: a NaN must stop the sweep at the start
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        '{"scenario": "first_order_homogeneous", "kappa": [1.0, NaN]}')
    assert main(["sweep", "cfg.json", "--jobs", "1"]) == 2
    assert "finite" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_verdict_is_strict_json_with_non_finite_checks(tmp_path, monkeypatch):
    # the horizon holds five windows this wide, but the detector starts at
    # the first window boundary after the trap entrance and sees only four,
    # so the fitted ratio is NaN and its factor against the rate infinite
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    out = tmp_path / "lockwide"
    cfgp = write_config(tmp_path, {"scenario": "first_order_locking",
                                   "window": 1.6, "output_dir": str(out)})
    assert main(["run", cfgp]) == 1

    def no_constants(name):
        raise AssertionError(f"verdict holds the non-JSON constant {name}")

    verdict = json.loads((out / "verdict.json").read_text(),
                         parse_constant=no_constants)
    values = {c["name"]: c["value"] for c in verdict["assertions"]}
    assert values["window_ratio"] == "nan"
    assert values["window_ratio_matches_rate"] == "inf"


def test_cli_sweep_says_when_it_runs_serially(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(OUTPUT_ENV, raising=False)

    def no_pool(*args, **kwargs):
        raise OSError("no semaphores")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfgp = write_config(
        tmp_path,
        {
            "scenario": "first_order_homogeneous",
            "horizon": 20.0,
            "seed": [3, 4],
            "output_dir": str(tmp_path / "swserial"),
        },
    )
    assert main(["sweep", cfgp, "--jobs", "2"]) == 0
    err = capsys.readouterr().err
    assert "process pool unavailable (no semaphores)" in err
    assert "2 members serially" in err
    verdict = json.loads(
        (tmp_path / "swserial" / "sweep_verdict.json").read_text()
    )
    assert len(verdict["members"]) == 2


def test_cli_sweep_caps_workers_at_members(tmp_path, monkeypatch):
    # the pool forks every worker at its first submit, so --jobs 500 on two
    # members must ask for two; the recording pool runs them in-process
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    raw = {"scenario": "first_order_locking", "horizon": 1.0, "seed": [7, 8]}
    for jobs, want in (("500", [2]), ("2", [2]), ("1", [])):
        asked.clear()
        out = tmp_path / f"jobs{jobs}"
        cfgp = write_config(tmp_path, dict(raw, output_dir=str(out)))
        main(["sweep", cfgp, "--jobs", jobs])
        assert asked == want
        assert (out / "sweep_verdict.json").exists()
    for jobs in ("0", "-3"):
        out = tmp_path / f"bad{jobs}"
        cfgp = write_config(tmp_path, dict(raw, output_dir=str(out)))
        assert main(["sweep", cfgp, "--jobs", jobs]) == 2
        assert not out.exists()
    assert asked == []


def test_cli_sweep_serial_and_parallel_write_identical_bytes(tmp_path, monkeypatch):
    # a short locking sweep over two seeds: each member steps its A/B pair
    # as one batch; the pool (or its serial fallback) must not change a byte.
    # The horizon holds the lock detector's five windows
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    cfgp = write_config(
        tmp_path,
        {"scenario": "first_order_locking", "horizon": 1.0, "window": 0.2,
         "seed": [7, 8], "output_dir": "det"},
    )
    codes = {main(["--output-root", str(tmp_path / f"jobs{jobs}"), "sweep",
                   cfgp, "--jobs", jobs])
             for jobs in ("1", "2")}
    assert len(codes) == 1
    serial, parallel = tmp_path / "jobs1" / "det", tmp_path / "jobs2" / "det"
    names = sorted(str(p.relative_to(serial)) for p in serial.rglob("*.*"))
    assert names == sorted(
        str(p.relative_to(parallel)) for p in parallel.rglob("*.*"))
    assert sum(n.endswith(".csv") for n in names) == 4
    assert sum(n.endswith("/verdict.json") for n in names) == 2
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_cli_sweep_reports_bad_member(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    cfgp = write_config(
        tmp_path,
        {
            "scenario": "first_order_homogeneous",
            "horizon": 20.0,
            "kappa": [1.0, -2.0],
            "output_dir": str(tmp_path / "swbad"),
        },
    )
    assert main(["sweep", cfgp, "--jobs", "1"]) == 2
    verdict = json.loads((tmp_path / "swbad" / "sweep_verdict.json").read_text())
    assert not verdict["passed"]
    exits = sorted(m["exit"] for m in verdict["members"])
    assert exits == [0, 2]


def test_cli_aborted_run_and_member_leave_verdicts(tmp_path, monkeypatch):
    # kappa this weak has no locking trap radii: lock_thresholds raises
    # ParameterError while the scenario runs
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    weak = write_config(
        tmp_path,
        {"scenario": "first_order_locking", "kappa": 0.001,
         "output_dir": str(tmp_path / "weak")},
    )
    assert main(["run", weak]) == 3
    verdict = json.loads((tmp_path / "weak" / "verdict.json").read_text())
    assert verdict["passed"] is False
    assert "too weak" in verdict["aborted"]

    sweep = write_config(
        tmp_path,
        {"scenario": "first_order_locking", "kappa": [0.001, 2.0],
         "output_dir": str(tmp_path / "swweak")},
        "sweep.json",
    )
    assert main(["sweep", sweep, "--jobs", "1"]) == 3
    verdict = json.loads(
        (tmp_path / "swweak" / "sweep_verdict.json").read_text()
    )
    assert not verdict["passed"]
    assert sorted(m["exit"] for m in verdict["members"]) == [0, 3]
    # the aborted member leaves its own verdict, as framesync run does
    member = json.loads(
        (tmp_path / "swweak" / "member_000" / "verdict.json").read_text()
    )
    assert member["passed"] is False
    assert "too weak" in member["aborted"]
    assert member["config"]["kappa"] == 0.001


def test_cli_unexpected_error_aborts_with_a_verdict(tmp_path, monkeypatch,
                                                    capsys):
    # a ValueError from numpy (here from a stand-in integrate) used to escape
    # main with exit 1, the code of a failed check, and leave no verdict
    def too_large(*args, **kwargs):
        raise ValueError("Maximum allowed dimension exceeded")

    monkeypatch.setattr(framesync.scenarios, "integrate", too_large)
    monkeypatch.delenv(OUTPUT_ENV, raising=False)
    raw = {"scenario": "first_order_homogeneous"}
    run = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "run")))
    assert main(["validate", run]) == 0
    assert main(["run", run]) == 3
    verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
    assert verdict["passed"] is False
    assert verdict["aborted"].startswith("ValueError: ")
    err = capsys.readouterr().err
    assert "Traceback" in err and "aborted: ValueError: " in err

    sweep = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "sw")),
                         "sweep.json")
    assert main(["sweep", sweep, "--jobs", "2"]) == 3
    verdict = json.loads((tmp_path / "sw" / "sweep_verdict.json").read_text())
    [member] = verdict["members"]
    assert member["exit"] == 3 and member["error"].startswith("ValueError: ")
    member = json.loads((tmp_path / "sw" / "member_000" / "verdict.json")
                        .read_text())
    assert member["aborted"].startswith("ValueError: ")


def test_python_m_framesync_runs_the_cli(tmp_path):
    src = Path(framesync.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "framesync", "scenarios"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line.split(":")[0] for line in done.stdout.splitlines()] == list(
        SCENARIOS)


def test_cli_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "first_order_locking" in out
    assert "practical_consensus_sweep" in out


def test_cli_scenarios_lists_keys_and_defaults(capsys):
    assert main(["scenarios"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(SCENARIOS)
    for line, (name, table) in zip(lines, CONFIG_TABLE.items()):
        listed = dict(item.split("=", 1) for item in line.split(": ", 1)[1].split())
        assert list(listed) == list(table)
        for key, default in table.items():
            assert listed[key] == ("auto" if default is None
                                   else json.dumps(default, separators=(",", ":")))
