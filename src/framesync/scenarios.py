"""Named experiment scenarios with built-in assertions and artifacts.

Each scenario integrates one or more ensembles and evaluates the checks that
the model's guarantees predict; run_scenario writes a CSV per trajectory and a
verdict JSON into the configured output directory. All randomness flows from
the single config seed, so reruns reproduce every number bit-exactly.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .diagnostics import (
    _centered_diff,
    _uniform_spacing,
    diameter,
    inter_diameter,
    lock_thresholds,
    phase_lock_detector,
    spacings,
    spread_inequality_residuals,
    velocity_bound_check,
    velocity_ceiling,
    write_timeseries,
)
from .dynamics import (
    ModelParams,
    make_tangent_velocity,
    reduced_velocity,
    rhs_first_order,
    rhs_kuramoto,
    rhs_second_order,
    rhs_so_n,
    rhs_sphere,
    split_transform,
    zero_freqs,
)
from .errors import ConfigError, ParameterError
from .integrator import IntegratorConfig, integrate, rk4
from .network import all_to_all, compute_stats
from .stiefel import (
    project_tangent,
    random_skew,
    random_stiefel,
    retract_polar,
    tangency_defect,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioReport",
    "Check",
    "SCENARIOS",
    "resolve_config",
    "run_scenario",
    "clustered_states",
    "uniform_states",
    "output_root",
]

OUTPUT_ENV = "FRAMESYNC_OUT"

# fraction of the rotation magnitude that differs between agents in the
# locking scenario; the common part only gauges the relative dynamics
_LOCK_SPREAD = 0.15


# --- configuration ----------------------------------------------------------


class ScenarioConfig(SimpleNamespace):
    """A resolved config: one attribute per key of _RULES, in its order."""

    def to_dict(self) -> dict:
        return copy.deepcopy(vars(self))


# Every key a user may set, per scenario, with its default. A None default
# is derived at resolve time: dt from default_dt, output_dir as runs/<name>.
# A list default is consumed whole (one rung per element), so a sweep over
# members never expands it.
CONFIG_TABLE: dict[str, dict] = {
    "first_order_homogeneous": dict(
        n=4, p=2, N=8, kappa=1.0, seed=11, dt=None, horizon=50.0,
        record_every=100, output_dir=None, diameter0=1.0,
    ),
    "first_order_locking": dict(
        n=4, p=2, N=3, kappa=2.0, xi_scale=0.1, seed=7, dt=None, horizon=8.0,
        record_every=50, output_dir=None, diameter0=1.0, window=0.3,
    ),
    "second_order_homogeneous": dict(
        n=4, p=2, N=10, kappa=1.0, m=1.0, gamma=2.0, seed=5, dt=None,
        horizon=100.0, record_every=50, output_dir=None, diameter0=1.0,
        vel_scale=0.3,
    ),
    "practical_consensus_sweep": dict(
        n=4, p=2, N=5, kappa=[10.0, 100.0, 1000.0], m0=1.0, eta=1.0,
        gamma=1.0, xi_scale=0.1, seed=3, output_dir=None, diameter0=1.0,
        vel_scale=0.2,
    ),
    "invariance_checks": dict(
        n=4, p=2, N=5, kappa=1.0, m=1.0, gamma=2.0, xi_scale=0.1, seed=2,
        dt=1e-3, horizon=5.0, record_every=100, output_dir=None,
        diameter0=1.0, vel_scale=0.3,
    ),
}
SCENARIOS = tuple(CONFIG_TABLE)

# Every config key but "scenario", in the order a resolved config lists them:
# (type, lower bound, whether the bound is strict, the value a scenario that
# does not expose the key runs with; its configs may not name the key). Floats
# must be finite. A kappa ladder sets dt, horizon and record_every per rung.
# n >= 2: V_1(R^1) = {+1, -1} has no tangent directions to spread frames along.
_RULES = {
    "n": (int, 2, False, None),
    "p": (int, 1, False, None),
    "kappa": (float, 0, True, None),
    "m": (float, 0, True, 0.0),
    "gamma": (float, 0, True, 1.0),
    "xi_scale": (float, 0, True, 0.0),
    "eta": (float, 0, True, 1.0),
    "m0": (float, 0, True, 1.0),
    "seed": (int, 0, False, None),
    "dt": (float, 0, True, None),
    "horizon": (float, 0, True, None),
    "record_every": (int, 1, False, None),
    "output_dir": (str, None, None, None),
    "diameter0": (float, 0, True, None),
    "vel_scale": (float, 0, False, 0.0),
    "window": (float, 0, True, None),
    "N": (int, 2, False, None),
}


def default_dt(kappa: float, mass: float = 0.0, friction: float = 1.0) -> float:
    """Step-size policy: resolve the coupling and keep the friction rate
    gamma/m well inside the RK4 stability window, so the orthonormality
    constraint is not degraded by the stiff transient."""
    dt = min(1e-3, 2.5e-3 / max(kappa, 1.0))
    if mass > 0:
        dt = min(dt, mass / friction)
    return dt


def _checked(scenario: str, key: str, v):
    """v under the key's rule: a finite float, an int or a non-empty string."""
    kind, low, strict, _ = _RULES[key]
    if kind is str:
        if not isinstance(v, str) or not v:
            raise ConfigError(f"{key} must be a non-empty string, got {v!r}")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else int):
        what = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key} must be {what}, got {v!r}")
    if kind is float:
        # also false for NaN, and for ints too large to convert
        if not abs(v) <= sys.float_info.max:
            raise ConfigError(f"{key} must be finite, got {v}")
        v = float(v)
    if v < low or (strict and v == low):
        raise ConfigError(
            f"{scenario} needs {key} {'>' if strict else '>='} {low}, got {v}")
    return v


def scenario_table(raw: dict) -> dict:
    """The CONFIG_TABLE entry of the one scenario a raw config names."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'")
    if raw["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {raw['scenario']!r}; "
                          f"choose from {', '.join(SCENARIOS)}")
    return CONFIG_TABLE[raw["scenario"]]


def resolve_config(raw: dict) -> ScenarioConfig:
    """Validate a raw config mapping against its scenario's table and fill
    the defaults."""
    table = scenario_table(raw)
    scenario = raw["scenario"]
    given = set(raw) - {"scenario"}
    unknown = given - set(_RULES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    misplaced = sorted(given - set(table))
    if misplaced:
        forced = ", ".join(f"{k} = {_RULES[k][3]}" for k in misplaced
                           if _RULES[k][3] is not None)
        ladder = isinstance(table["kappa"], list)
        raise ConfigError(
            f"keys not applicable to {scenario}: {', '.join(misplaced)}"
            + (f"; it forces {forced}" if forced else "")
            + ("; it sets dt, horizon and record_every per kappa" if ladder else "")
        )

    cfg = {"scenario": scenario, **{k: copy.deepcopy(table.get(k, rule[3]))
                                    for k, rule in _RULES.items()}}
    for key, v in raw.items():
        if key not in table:
            continue
        if not isinstance(table[key], list):
            cfg[key] = _checked(scenario, key, v)
            continue
        if not (isinstance(v, list) and len(v) >= 2):
            raise ConfigError(
                f"{scenario} needs {key} as a list of at least two values")
        ladder = cfg[key] = [_checked(scenario, key, x) for x in v]
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError(
                f"{scenario} needs strictly increasing {key} values, got {v}")

    if cfg["p"] > cfg["n"]:
        raise ConfigError(f"need p <= n, got p={cfg['p']}, n={cfg['n']}")
    # every 1 x 1 antisymmetric matrix is 0: there is no rotation to draw
    if "xi_scale" in table and cfg["p"] < 2:
        raise ConfigError(f"{scenario} draws rotations, so it needs p >= 2, "
                          f"got p={cfg['p']}")
    if cfg["diameter0"] >= 2.0:
        raise ConfigError("diameter0 must be below 2")
    if cfg["output_dir"] is None:
        cfg["output_dir"] = f"runs/{scenario}"
    if "horizon" in table and cfg["dt"] is None:
        cfg["dt"] = default_dt(cfg["kappa"], cfg["m"], cfg["gamma"])
    resolved = ScenarioConfig(**cfg)
    try:
        run_grids(resolved)
        # the monitors need every sample on one grid, the last one included,
        # and a centred difference needs three samples
        strides = {key: spacings(cfg[key], cfg["dt"] * cfg["record_every"],
                                 key, least=2)
                   for key in ("window", "horizon") if cfg[key] is not None}
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    # the lock detector fits its ratio over at least five windows
    if "window" in strides and strides["horizon"] < 5 * strides["window"]:
        raise ConfigError(
            f"horizon {cfg['horizon']} must span at least five windows "
            f"of {cfg['window']}")
    return resolved


def _rung(cfg: ScenarioConfig, kappa: float) -> tuple[float, IntegratorConfig]:
    """A kappa rung's mass m0 / kappa^(1+eta) and its grid: default_dt's step,
    max(0.3, 40/kappa) rounded onto it, about 200 records."""
    try:
        mass = cfg.m0 / kappa ** (1.0 + cfg.eta)
    except ArithmeticError:  # kappa^(1+eta) overflows, or underflows to 0
        mass = math.nan
    dt = default_dt(kappa, mass, cfg.gamma)
    # each test is false for NaN; m / gamma can underflow to a zero step
    if not (0 < mass < math.inf and dt > 0):
        raise ParameterError(f"kappa {kappa:g} rung: mass m0/kappa^(1+eta) "
                             "and step m/gamma must be finite and positive")
    # rint, unlike round, takes the infinity of a span no step count reaches
    horizon = dt * float(np.rint(max(0.3, 40.0 / kappa) / dt))
    steps = spacings(horizon, dt, f"kappa {kappa:g} rung horizon", least=2)
    return mass, IntegratorConfig(dt, horizon, max(1, steps // 200))


# ensembles stepped on a scenario's grid: locking runs A and B; invariance
# runs, per flow, a pair of left translates and runs with and without a
# common rotation. Its phase model has five agents.
_ENSEMBLES = {"first_order_locking": 2, "invariance_checks": 8}
_PHASE_N = 5


def run_grids(cfg: ScenarioConfig) -> dict[str, tuple[IntegratorConfig, int]]:
    """Every integration a scenario runs, by the label validate prints: its
    grid and the agents stepped on it, N times the ensembles. invariance_checks
    adds its phase model over ten time units and the restart from its middle
    sample."""
    if isinstance(cfg.kappa, list):
        return {f"kappa {k:g} rung": (_rung(cfg, k)[1], cfg.N)
                for k in cfg.kappa}
    grid = IntegratorConfig(cfg.dt, cfg.horizon, cfg.record_every)
    grids = {cfg.scenario: (grid, _ENSEMBLES.get(cfg.scenario, 1) * cfg.N)}
    if cfg.scenario != "invariance_checks":
        return grids
    # rint, unlike round, takes the infinity of a span no step count reaches
    span = cfg.dt * float(np.rint(10.0 / cfg.dt))
    for label in ("phase model", "phase model restart"):
        try:
            grid = IntegratorConfig(cfg.dt, span, cfg.record_every)
        except ParameterError as exc:
            raise ParameterError(f"{label} {exc}") from None
        grids[label] = (grid, _PHASE_N)
        # the restart runs from the middle sample
        mid = grid.samples // 2
        span -= min(mid * grid.record_every, grid.steps) * cfg.dt
    return grids


def output_root(target: ScenarioConfig | str) -> Path:
    """Where a config (or an output_dir string) writes: the path itself, or
    the path re-rooted under $FRAMESYNC_OUT when that is set."""
    base = os.environ.get(OUTPUT_ENV)
    out = Path(getattr(target, "output_dir", target))
    if base:
        out = Path(base) / out.relative_to(out.anchor) if out.is_absolute() else Path(base) / out
    return out


# --- checks and reports -----------------------------------------------------


@dataclass
class Check:
    """One assertion: measured value against its threshold."""

    name: str
    claim: str
    value: float
    threshold: float
    op: str
    passed: bool

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; JSON needs plain types
        self.value = float(self.value)
        self.threshold = float(self.threshold)
        self.passed = bool(self.passed)


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def _check(name, claim, value, op, threshold) -> Check:
    """A check of value op threshold; op "info" records a value that passes."""
    passed = op == "info" or _OPS[op](value, threshold)
    return Check(name, claim, value, threshold, op, passed)


def _json_number(v: float) -> float | str:
    """v, or "nan", "inf" or "-inf" for a non-finite v: strict JSON has no
    such numbers."""
    return v if math.isfinite(v) else str(v)


def write_json(path: Path, payload) -> Path:
    """Write payload as indented JSON plus a newline, creating the parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path


@dataclass
class ScenarioReport:
    scenario: str
    config: dict
    checks: list[Check]
    artifacts: list[str]
    repairs: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "passed": self.passed,
            "repairs": self.repairs,
            "assertions": [
                dict(dataclasses.asdict(c), value=_json_number(c.value),
                     threshold=_json_number(c.threshold))
                for c in self.checks],
            "artifacts": self.artifacts,
        }


# --- initial data -----------------------------------------------------------


def uniform_states(n, p, count, rng) -> np.ndarray:
    """Independent draws, one random frame per agent."""
    return np.stack([random_stiefel(n, p, rng) for _ in range(count)])


def clustered_states(n, p, count, rng, diameter_target=1.0) -> np.ndarray:
    """Frames scattered around a random centre with a prescribed diameter.

    Tangent perturbations of equal size are retracted back to the manifold;
    one rescaling pass lands the realised diameter within a few percent of
    the target (and never above 2x the perturbation size).
    """
    center = random_stiefel(n, p, rng)
    raw = rng.standard_normal((count, n, p))
    dirs = project_tangent(raw, center)
    dirs /= np.linalg.norm(dirs, axis=(-2, -1), keepdims=True)
    radius = diameter_target / 2.0
    states = None
    for _ in range(3):
        states = retract_polar(center + radius * dirs)
        got, _ = diameter(states)
        if got == 0.0 or abs(got - diameter_target) < 1e-3 * diameter_target:
            break
        radius *= diameter_target / got
    return states


def _tangent_velocities(states, rng, scale) -> np.ndarray:
    """Admissible velocities with per-agent norm exactly scale."""
    raw = rng.standard_normal(states.shape)
    proj = project_tangent(raw, states)
    raw /= np.linalg.norm(proj, axis=(-2, -1), keepdims=True)
    return make_tangent_velocity(states, raw, scale)


def _heterogeneous_freqs(count, p, scale, rng, spread=1.0) -> np.ndarray:
    """Per-agent rotations with sup norm exactly scale.

    spread < 1 makes the agents share a dominant common rotation, with only
    a spread-sized fraction differing between them.
    """
    common = random_skew(p, 1.0, rng)
    if np.linalg.norm(common) > 0:
        common /= np.linalg.norm(common)
    freqs = np.stack(
        [common + spread * random_skew(p, 1.0, rng) for _ in range(count)]
    )
    sup = np.linalg.norm(freqs, axis=(-2, -1)).max()
    return freqs * (scale / sup)


def _spawn(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _worst(a, b) -> float:
    """Largest Frobenius distance between matching matrices of a and b."""
    return float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))


# --- scenario drivers -------------------------------------------------------


def _run_first_order_homogeneous(cfg: ScenarioConfig):
    rng_s, = _spawn(cfg.seed, 1)
    states = clustered_states(cfg.n, cfg.p, cfg.N, rng_s, cfg.diameter0)
    params = ModelParams(kappa=cfg.kappa, freqs=zero_freqs(cfg.N, cfg.p))
    top = all_to_all(cfg.N)
    stats = compute_stats(top)
    traj = integrate(states, params, top, run_grids(cfg)[cfg.scenario][0],
                     keep_states=False)
    d = traj.column("D")
    h = _uniform_spacing(traj.times)
    dsq = d**2
    rate = _centered_diff(dsq, h)
    bound = -(cfg.kappa * stats.a_min / 4.0) * (2.0 - dsq[1:-1]) * dsq[1:-1]
    checks = [
        _check("initial_diameter", "initial diameter below sqrt(2)",
               d[0], "<", math.sqrt(2.0)),
        _check("diameter_monotone",
               "largest per-sample diameter increase at most 1e-10",
               float(np.max(np.diff(d))), "<=", 1e-10),
        _check("diameter_rate",
               "centred d(D^2)/dt at most -(kappa a_min/4)(2-D^2)D^2 + 1e-4",
               float(np.max(rate - bound)), "<=", 1e-4),
        _check("final_diameter", "diameter at the horizon at most 1e-6",
               d[-1], "<=", 1e-6),
        _check("max_drift", "orthonormality drift at most 1e-8 throughout",
               traj.max_drift, "<=", 1e-8),
    ]
    return checks, {"first_order_homogeneous.csv": traj}


def _run_first_order_locking(cfg: ScenarioConfig):
    rng_f, rng_a, rng_b = _spawn(cfg.seed, 3)
    freqs = _heterogeneous_freqs(cfg.N, cfg.p, cfg.xi_scale, rng_f,
                                 spread=_LOCK_SPREAD)
    params = ModelParams(kappa=cfg.kappa, freqs=freqs)
    top = all_to_all(cfg.N)
    stats = compute_stats(top)
    th = lock_thresholds(cfg.p, stats.a_min, stats.a_max, stats.gap,
                         params.freq_sup, cfg.kappa)
    starts = np.stack([clustered_states(cfg.n, cfg.p, cfg.N, rng, cfg.diameter0)
                       for rng in (rng_a, rng_b)])
    grid, _ = run_grids(cfg)[cfg.scenario]
    traj_a, traj_b = integrate(starts, params, top, grid)

    d_a, d_b = traj_a.column("D"), traj_b.column("D")
    h = _uniform_spacing(traj_a.times)

    # entrance into the trap region, then contraction of the relative spread
    inside = np.flatnonzero((d_a < th.alpha) & (d_b < th.alpha))
    entered = len(inside) > 0
    checks = [
        _check("coupling_above_threshold",
               "kappa exceeds the locking threshold kappa_star",
               cfg.kappa, ">", th.kappa_star),
        _check("initial_diameter_a", "run A initial diameter below beta",
               d_a[0], "<", th.beta),
        _check("initial_diameter_b", "run B initial diameter below beta",
               d_b[0], "<", th.beta),
        _check("trap_entrance", "both runs reach diameter below alpha",
               float(entered), "==", 1.0),
    ]

    rate = 2.0 * cfg.kappa * (stats.gap
                              - 2.0 * stats.a_max * math.sqrt(cfg.p) * th.alpha)
    k0 = int(inside[0]) if entered else 0
    # windows start at the first window boundary from the trap entrance on;
    # an entrance too late for two windows aborts the run here
    stride = spacings(cfg.window, h, "window", least=2)
    report = phase_lock_detector(traj_a, cfg.window, tol=1e-6,
                                 start_time=-(-k0 // stride) * stride * h)
    if entered:
        dists = inter_diameter(traj_a.states, traj_b.states)
        seg = slice(max(k0, 1), len(dists) - 1)
        fd = _centered_diff(dists, h)[seg.start - 1:seg.stop - 1]
        margin = fd + rate * dists[seg]
        fd_tol = 2.0 * h**2 * cfg.kappa**3 * float(np.max(dists[seg])) + 1e-12
        checks.append(_check(
            "relative_contraction",
            "centred d/dt of the relative spread at most "
            "-2 kappa (gap - 2 a_max sqrt(p) alpha) x spread + O(h^2)",
            float(np.max(margin)), "<=", fd_tol,
        ))
    rho_theory = math.exp(-rate * cfg.window)
    ratio = report.rho / rho_theory if rho_theory > 0 else math.inf
    factor = max(ratio, 1.0 / ratio) if ratio > 0 else math.inf
    final_delta = float(report.deltas[-1])
    rv = reduced_velocity(traj_a.states[-1], params, top)
    checks += [
        _check("locked", "windowed relative-position changes certify locking",
               float(report.locked), "==", 1.0),
        _check("window_ratio", "fitted per-window contraction ratio below one",
               report.rho, "<", 1.0),
        _check("window_ratio_matches_rate",
               "fitted ratio within a factor 2 of exp(-rate x window)",
               factor, "<=", 2.0),
        _check("final_delta", "final window change at most 1e-6",
               final_delta, "<=", 1e-6),
        _check("velocity_sync",
               "pairwise mismatch of S^T dS/dt at most 10x the final window change",
               _worst(rv[:, None], rv[None, :]), "<=", 10.0 * final_delta),
        _check("max_drift", "orthonormality drift at most 1e-8 throughout",
               max(traj_a.max_drift, traj_b.max_drift), "<=", 1e-8),
    ]
    return checks, {"first_order_locking_a.csv": traj_a,
                    "first_order_locking_b.csv": traj_b}


def _run_second_order_homogeneous(cfg: ScenarioConfig):
    rng_s, rng_v = _spawn(cfg.seed, 2)
    states = clustered_states(cfg.n, cfg.p, cfg.N, rng_s, cfg.diameter0)
    vels = _tangent_velocities(states, rng_v, cfg.vel_scale)
    params = ModelParams(kappa=cfg.kappa, freqs=zero_freqs(cfg.N, cfg.p),
                         mass=cfg.m, friction=cfg.gamma)
    top = all_to_all(cfg.N)
    grid, _ = run_grids(cfg)[cfg.scenario]
    traj = integrate(states, params, top, grid, vels, keep_states=False)
    energy = traj.column("E")
    g = traj.column("G")
    _, residuals = spread_inequality_residuals(traj, params, top)
    vreport = velocity_bound_check(traj, params, top)
    checks = [
        _check("final_velocity_sup",
               "largest velocity norm at the horizon at most 1e-5",
               float(traj.column("Dvel")[-1]), "<=", 1e-5),
        _check("final_spread", "mean squared spread at the horizon at most 1e-5",
               float(g[-1]), "<=", 1e-5),
        _check("energy_monotone",
               "per-sample energy increase at most 1e-10 per step (no rotations)",
               float(np.max(np.diff(energy))), "<=", 1e-10 * cfg.record_every),
        _check("spread_inequality",
               "damped spread inequality residuals at least -1e-6",
               float(np.min(residuals)), ">=", -1e-6),
        _check("velocity_bound",
               "velocity sup stays under its a-priori ceiling",
               vreport.sup_observed, "<=", vreport.bound + 1e-8),
        _check("max_drift", "orthonormality drift at most 1e-8 throughout",
               traj.max_drift, "<=", 1e-8),
    ]
    return checks, {"second_order_homogeneous.csv": traj}


def _run_rung(cfg: ScenarioConfig, kappa: float, freqs, rng_s, rng_v):
    mass, icfg = _rung(cfg, kappa)
    states = clustered_states(cfg.n, cfg.p, cfg.N, rng_s, cfg.diameter0)
    vels = _tangent_velocities(states, rng_v, cfg.vel_scale)
    params = ModelParams(kappa=kappa, freqs=freqs, mass=mass,
                         friction=cfg.gamma)
    top = all_to_all(cfg.N)
    traj = integrate(states, params, top, icfg, vels, keep_states=False)
    g = traj.column("G")
    tail = g[int(0.75 * len(g)):]
    v0 = float(traj.column("Dvel")[0])
    return traj, float(np.mean(tail)), v0 / velocity_ceiling(params, top)


def _run_practical_consensus_sweep(cfg: ScenarioConfig):
    kappas = list(cfg.kappa)
    rngs = _spawn(cfg.seed, 1 + 2 * len(kappas))
    freqs = _heterogeneous_freqs(cfg.N, cfg.p, cfg.xi_scale, rngs[0])
    tails, premise_ratios, trajs = [], [], {}
    for i, kappa in enumerate(kappas):
        traj, tail, ratio = _run_rung(
            cfg, kappa, freqs, rngs[1 + 2 * i], rngs[2 + 2 * i]
        )
        tails.append(tail)
        premise_ratios.append(ratio)
        trajs[f"practical_consensus_kappa_{kappa:g}.csv"] = traj
    tails_arr = np.array(tails)
    slope = float(np.polyfit(np.log(kappas), np.log(tails_arr), 1)[0])
    checks = [
        _check("initial_velocity_premise",
               "initial velocity sup below (freq_sup + kappa a_max sqrt(p))/gamma",
               float(max(premise_ratios)), "<", 1.0),
        _check("tail_spread_monotone",
               "tail-averaged spread strictly decreases along the kappa ladder",
               float(np.max(tails_arr[1:] / tails_arr[:-1])), "<", 1.0),
        _check("tail_spread_slope",
               "log-log slope of tail spread versus kappa at most -0.8",
               slope, "<=", -0.8),
        _check("max_drift", "orthonormality drift at most 1e-8 in every run",
               max(t.max_drift for t in trajs.values()), "<=", 1e-8),
        _check("tail_spread_values",
               "tail-averaged spread per kappa: "
               + ", ".join(f"{k:g}: {t:.3e}" for k, t in zip(kappas, tails)),
               slope, "info", 0.0),
    ]
    return checks, trajs


def _run_invariance_checks(cfg: ScenarioConfig):
    rngs = _spawn(cfg.seed, 8)
    top = all_to_all(cfg.N)
    checks: list[Check] = []

    # one start, its rotations, an orthogonal matrix and a common rotation
    states = clustered_states(cfg.n, cfg.p, cfg.N, rngs[0], cfg.diameter0)
    freqs = _heterogeneous_freqs(cfg.N, cfg.p, cfg.xi_scale, rngs[1])
    left = random_stiefel(cfg.n, cfg.n, rngs[2])
    common = random_skew(cfg.p, 0.2, rngs[3])
    vels = _tangent_velocities(states, rngs[4], cfg.vel_scale)
    grids = run_grids(cfg)
    icfg = grids[cfg.scenario][0]

    # each flow commutes with left translation, and right translation absorbs
    # a common rotation (the inertial flow's velocities shift by S Xi / gamma)
    flows = (("first", "first-order", {}, None, None),
             ("second", "inertial", dict(mass=cfg.m, friction=cfg.gamma),
              vels, vels - states @ (common / cfg.gamma)))
    runs = []
    for order, (tag, flow, inertia, v, v_split) in enumerate(flows, 1):
        model = lambda xi: ModelParams(kappa=cfg.kappa, freqs=xi, **inertia)
        params = model(freqs)
        base, moved = integrate(np.stack([states, left @ states]), params,
                                top, icfg,
                                None if v is None else np.stack([v, left @ v]))
        checks.append(_check(
            f"left_translation_{tag}",
            f"{flow} flow commutes with left translation (1e-8)",
            _worst(moved.states[-1], left @ base.states[-1]), "<=", 1e-8))
        with_rot = integrate(states, model(np.tile(common, (cfg.N, 1, 1))),
                             top, icfg, v)
        without = integrate(states, model(zero_freqs(cfg.N, cfg.p)), top,
                            icfg, v_split)
        recon = split_transform(without.states[-1], common,
                                float(with_rot.times[-1]), order=order,
                                friction=cfg.gamma)
        checks.append(_check(
            f"splitting_{tag}",
            f"common rotation splits off the {flow} flow (1e-8)",
            _worst(with_rot.states[-1], recon), "<=", 1e-8))
        runs.append((base, params))
    (base1, params1), (base2, params2) = runs

    # p=1 frames are unit vectors and p=n frames orthogonal matrices: the
    # field equals the unit-sphere field and the rotation-group field
    rng = rngs[5]
    top_s = all_to_all(6)
    sphere = lambda x, *rest: rhs_sphere(x[..., 0], *rest)[..., None]
    for name, p, kappa, reference, claim in (
            ("sphere", 1, 1.3, sphere, "p=1 field equals the unit-sphere"),
            ("rotation", 3, 0.7, rhs_so_n, "p=n field equals the rotation-group")):
        par = ModelParams(kappa=kappa, freqs=zero_freqs(6, p))
        dev = 0.0
        for _ in range(10):
            frames = uniform_states(3, p, 6, rng)
            lhs = rhs_first_order(frames, par, top_s)
            rhs = reference(frames, np.zeros((6, 3, 3)), top_s, kappa)
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
        checks.append(_check(f"{name}_reduction", f"{claim} field (1e-12)",
                             dev, "<=", 1e-12))

    # phase reduction: p=1, n=2 frames are angles
    top_k = all_to_all(_PHASE_N)
    angles = rng.uniform(0.0, 2.0 * math.pi, _PHASE_N)
    lift = np.stack([np.cos(angles), np.sin(angles)], axis=1)[..., None]
    par_k = ModelParams(kappa=cfg.kappa, freqs=zero_freqs(_PHASE_N, 1))
    field_frames = rhs_first_order(lift, par_k, top_k)
    phase_field = lambda x: rhs_kuramoto(x, np.zeros(_PHASE_N), top_k,
                                         cfg.kappa)
    rates = phase_field(angles)
    tangent = np.stack([-np.sin(angles), np.cos(angles)], axis=1)[..., None]
    dev = float(np.max(np.abs(field_frames - rates[:, None, None] * tangent)))
    checks.append(_check("phase_reduction_field",
                         "p=1, n=2 field matches the lifted phase field (1e-10)",
                         dev, "<=", 1e-10))

    # the lifted trajectory against the phase model, at each sample
    kur_cfg = grids["phase model"][0]
    traj_frames = integrate(lift, par_k, top_k, kur_cfg)
    th = angles.copy()
    dev = 0.0
    every = kur_cfg.record_every
    for k in range(1, kur_cfg.steps + 1):
        th = rk4(phase_field, th, kur_cfg.dt)
        if k % every == 0 or k == kur_cfg.steps:
            lifted = np.stack([np.cos(th), np.sin(th)], axis=1)[..., None]
            dev = max(dev, float(np.max(np.abs(
                traj_frames.states[-(-k // every)] - lifted))))
    checks.append(_check("phase_reduction_trajectory",
                         "p=1, n=2 trajectory tracks the phase model (1e-8)",
                         dev, "<=", 1e-8))

    # reduced velocity agrees with S^T dS/dt and is antisymmetric
    rv = reduced_velocity(states, params1, top)
    dev = _worst(rv, np.swapaxes(states, -1, -2)
                 @ rhs_first_order(states, params1, top))
    checks.append(_check("reduced_velocity",
                         "S^T dS/dt equals its closed antisymmetric form (1e-12)",
                         dev, "<=", 1e-12))

    # admissibility of generated velocities
    defect = float(np.max(tangency_defect(vels, states)))
    checks.append(_check("velocity_admissible",
                         "generated velocities satisfy the tangency constraint "
                         "(1e-12)", defect, "<=", 1e-12))

    # velocity ceiling along the inertial run
    vrep = velocity_bound_check(base2, params2, top)
    checks.append(_check("velocity_bound",
                         "velocity sup stays under its a-priori ceiling",
                         vrep.sup_observed, "<=", vrep.bound + 1e-8))

    # restarting from the middle sample reproduces the tail
    restart = integrate(traj_frames.states[len(traj_frames.times) // 2],
                        par_k, top_k, grids["phase model restart"][0])
    dev = float(np.max(np.abs(restart.states[-1] - traj_frames.states[-1])))
    checks.append(_check("time_shift",
                         "restarting from a recorded sample reproduces the tail "
                         "(1e-10)", dev, "<=", 1e-10))

    # the inertial field preserves the tangency constraint
    s0 = uniform_states(cfg.n, cfg.p, cfg.N, rngs[6])
    v0 = _tangent_velocities(s0, rngs[7], 0.7)
    _, accel = rhs_second_order(s0, v0, params2, top)
    sym = np.swapaxes(accel, -1, -2) @ s0 + np.swapaxes(s0, -1, -2) @ accel
    checks.append(_check("constraint_propagation",
                         "time derivative of the tangency residual vanishes "
                         "(1e-10)",
                         _worst(sym, -2.0 * np.swapaxes(v0, -1, -2) @ v0),
                         "<=", 1e-10))

    return checks, {"invariance_first_order.csv": base1,
                    "invariance_second_order.csv": base2}


_RUNNERS = {
    "first_order_homogeneous": _run_first_order_homogeneous,
    "first_order_locking": _run_first_order_locking,
    "second_order_homogeneous": _run_second_order_homogeneous,
    "practical_consensus_sweep": _run_practical_consensus_sweep,
    "invariance_checks": _run_invariance_checks,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Execute a resolved scenario config; writes artifacts, returns the report.

    The runner returns its checks and its trajectories keyed by CSV name, in
    artifact order; only this function writes files."""
    checks, trajs = _RUNNERS[cfg.scenario](cfg)
    out = output_root(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for name, traj in trajs.items():
        write_timeseries(out / name, traj.table)
    report = ScenarioReport(cfg.scenario, cfg.to_dict(), checks, list(trajs),
                            sum(t.repairs for t in trajs.values()))
    write_json(out / "verdict.json", report.to_dict())
    return report
