"""End-to-end acceptance checks, one test per guaranteed property.

Each test prints a single "criterion NN: PASS" line through the announce
fixture (conftest.py), which suspends pytest's capture so the verdict lines
reach the terminal; failed criteria get a FAIL line from a conftest hook.
Shared trajectories are computed once per module, and each scenario default
runs once per session (the default_run fixture, conftest.py). Thresholds
here are the contract; they must not be loosened to make a test pass.
"""
import math
import time

import numpy as np
import pytest

from framesync import (
    IntegratorConfig,
    ModelParams,
    all_to_all,
    clustered_states,
    compute_stats,
    energy_dissipation_rhs,
    gronwall_bound,
    integrate,
    lock_thresholds,
    make_tangent_velocity,
    random_skew,
    random_stiefel,
    rhs_first_order,
    spread_inequality_residuals,
    zero_freqs,
)
from framesync.integrator import rk4
from framesync.stiefel import exp_skew


def timed_integrate(*args):
    t0 = time.perf_counter()
    traj = integrate(*args)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def first_order_run():
    rng = np.random.default_rng(11)
    states = clustered_states(4, 2, 10, rng, 1.0)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(10, 2))
    top = all_to_all(10)
    traj, secs = timed_integrate(
        states, params, top, IntegratorConfig(1e-3, 50.0, 100)
    )
    return traj, secs, params, top


@pytest.fixture(scope="module")
def second_order_run_50():
    rng = np.random.default_rng(12)
    states = clustered_states(4, 2, 10, rng, 1.0)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.3)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(10, 2), mass=1.0, friction=2.0)
    top = all_to_all(10)
    traj, secs = timed_integrate(
        states, params, top, IntegratorConfig(1e-3, 50.0, 100), vels
    )
    return traj, secs, params, top


@pytest.fixture(scope="module")
def second_order_run_100():
    rng = np.random.default_rng(13)
    states = clustered_states(4, 2, 10, rng, 1.0)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.3)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(10, 2), mass=1.0, friction=2.0)
    top = all_to_all(10)
    traj, _ = timed_integrate(
        states, params, top, IntegratorConfig(1e-3, 100.0, 50), vels
    )
    return traj, params, top


@pytest.fixture(scope="module")
def invariance_report(default_run):
    return {c.name: c for c in default_run("invariance_checks").report.checks}


@pytest.fixture(scope="module")
def locking_report(default_run):
    run = default_run("first_order_locking")
    return run.cfg, {c.name: c for c in run.report.checks}


def test_criterion_01_manifold_invariance(
    first_order_run, second_order_run_50, announce
):
    traj1, secs1, _, _ = first_order_run
    traj2, secs2, _, _ = second_order_run_50
    assert traj1.max_drift <= 1e-8
    assert traj2.max_drift <= 1e-8
    assert secs1 + secs2 < 30.0
    announce(
        1,
        "PASS",
        f"drift {traj1.max_drift:.2e}/{traj2.max_drift:.2e}, "
        f"repairs {traj1.repairs}+{traj2.repairs}, {secs1 + secs2:.1f}s",
    )


def test_criterion_02_first_order_consensus(first_order_run, announce):
    traj, _, params, top = first_order_run
    d = traj.column("D")
    assert d[0] < math.sqrt(2.0)
    assert np.max(np.diff(d)) <= 1e-10  # non-increasing
    h = float(traj.times[1] - traj.times[0])
    dsq = d**2
    rate = (dsq[2:] - dsq[:-2]) / (2.0 * h)
    a_min = compute_stats(top).a_min
    bound = -(params.kappa * a_min / 4.0) * (2.0 - dsq[1:-1]) * dsq[1:-1]
    assert np.max(rate - bound) <= 1e-4
    assert d[-1] <= 1e-6
    announce(2, "PASS", f"D(0)={d[0]:.3f}, D(50)={d[-1]:.2e}")


def test_criterion_03_classical_reductions(invariance_report, announce):
    sphere = invariance_report["sphere_reduction"]
    phases = invariance_report["phase_reduction_trajectory"]
    assert sphere.value <= 1e-12
    assert phases.value <= 1e-8
    announce(
        3,
        "PASS",
        f"sphere field {sphere.value:.1e}, phase trajectory {phases.value:.1e}",
    )


def test_criterion_04_symmetries(invariance_report, announce):
    names = (
        "left_translation_first",
        "left_translation_second",
        "splitting_first",
        "splitting_second",
    )
    worst = max(invariance_report[n].value for n in names)
    for n in names:
        assert invariance_report[n].value <= 1e-8, n
    announce(4, "PASS", f"worst deviation {worst:.1e} at the horizon")


def test_criterion_05_energy_law(second_order_run_100, announce):
    # exact dissipation identity against finite differences, two step sizes
    rng = np.random.default_rng(14)
    states = clustered_states(4, 2, 5, rng, 1.0)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.4)
    freqs = np.stack([random_skew(2, 0.3, rng) for _ in range(5)])
    params = ModelParams(kappa=1.0, freqs=freqs, mass=1.0, friction=2.0)
    top = all_to_all(5)
    errs = []
    for dt in (1e-3, 5e-4):
        traj = integrate(
            states, params, top, IntegratorConfig(dt, 1.0, 10), vels
        )
        e = traj.column("E")
        h = float(traj.times[1] - traj.times[0])
        fd = (e[2:] - e[:-2]) / (2.0 * h)
        exact = np.array(
            [energy_dissipation_rhs(traj.states[k], traj.velocities[k], params)
             for k in range(1, len(traj.times) - 1)]
        )
        errs.append(float(np.max(np.abs(fd - exact))))
        assert errs[-1] <= 20.0 * h**2
    assert errs[0] / errs[1] >= 3.5

    # without rotations the same energy must be non-increasing sample to sample
    traj, _, _ = second_order_run_100
    e = traj.column("E")
    record_every = 50
    worst_rise = float(np.max(np.diff(e)))
    assert worst_rise <= 1e-10 * record_every
    announce(
        5,
        "PASS",
        f"fd error {errs[0]:.1e} -> {errs[1]:.1e} (ratio {errs[0]/errs[1]:.2f}), "
        f"worst energy rise {worst_rise:.1e}",
    )


def test_criterion_06_second_order_consensus(second_order_run_100, announce):
    traj, params, top = second_order_run_100
    vel_final = float(traj.column("Dvel")[-1])
    g_final = float(traj.column("G")[-1])
    vels = traj.velocities[-1]
    pair_final = float(
        max(
            np.linalg.norm(vels[i] - vels[j])
            for i in range(len(vels))
            for j in range(i)
        )
    )
    assert vel_final <= 1e-5
    assert pair_final <= 1e-5  # pairwise velocity diameter at the horizon
    assert g_final <= 1e-5
    _, resid = spread_inequality_residuals(traj, params, top)
    assert float(np.min(resid)) >= -1e-6
    announce(
        6,
        "PASS",
        f"Dvel(100)={vel_final:.1e}, G(100)={g_final:.1e}, "
        f"min residual {np.min(resid):.1e}",
    )


def test_criterion_07_phase_locking(locking_report, announce):
    cfg, checks = locking_report
    # natural rotations of the run's sup norm xi_scale, in one plane
    xi = np.zeros((cfg.N, cfg.p, cfg.p))
    xi[:, 1, 0] = cfg.xi_scale / math.sqrt(2.0)
    xi[:, 0, 1] = -xi[:, 1, 0]
    th = lock_thresholds(ModelParams(kappa=cfg.kappa, freqs=xi), all_to_all(cfg.N))
    assert th.kappa_ok  # coupling clears the threshold
    assert checks["initial_diameter_a"].value < th.beta
    assert checks["initial_diameter_b"].value < th.beta
    assert checks["locked"].passed
    assert checks["window_ratio"].value < 1.0
    assert checks["window_ratio_matches_rate"].value <= 2.0
    assert checks["final_delta"].value <= 1e-6
    assert checks["velocity_sync"].value <= 10.0 * checks["final_delta"].value
    announce(
        7,
        "PASS",
        f"rho={checks['window_ratio'].value:.3f}, "
        f"rate factor {checks['window_ratio_matches_rate'].value:.2f}, "
        f"delta {checks['final_delta'].value:.1e}",
    )


def test_criterion_08_practical_consensus(default_run, announce):
    run = default_run("practical_consensus_sweep")
    secs = run.secs
    checks = {c.name: c for c in run.report.checks}
    assert checks["tail_spread_monotone"].value < 1.0
    assert checks["tail_spread_slope"].value <= -0.8
    assert secs < 300.0
    announce(
        8,
        "PASS",
        f"slope {checks['tail_spread_slope'].value:.2f}, "
        f"{checks['tail_spread_values'].claim.split(': ', 1)[1]}, {secs:.0f}s",
    )


def test_criterion_09_comparison_bound(announce):
    rng = np.random.default_rng(15)
    t = np.linspace(0.0, 25.0, 25001)
    dt = float(t[1] - t[0])
    cases = []
    for _ in range(20):  # overdamped: real rates nu2 < nu1
        a = rng.uniform(0.5, 2.0)
        nu2 = rng.uniform(1.0, 2.0)
        nu1 = rng.uniform(nu2 + 0.5, 5.0)
        cases.append((a, a * (nu1 + nu2), a * nu1 * nu2))
    for _ in range(20):  # underdamped: complex rates sigma +- i omega
        a = rng.uniform(0.5, 2.0)
        sigma = rng.uniform(1.0, 2.5)
        omega = rng.uniform(0.5, 3.0)
        cases.append((a, 2.0 * a * sigma, a * (sigma**2 + omega**2)))
    abc = np.array(cases)
    eps0 = rng.uniform(0.1, 2.0, len(cases))
    y0 = rng.uniform(0.0, 2.0, len(cases))
    yp0 = rng.uniform(-1.0, 2.0, len(cases))

    # RK4 on the equality ODE a y'' + b y' + c y = eps0, all cases at once
    def f(state):
        y, v = state
        return np.stack([v, (eps0 - abc[:, 1] * v - abc[:, 2] * y) / abc[:, 0]])

    state = np.stack([y0, yp0])
    sols = np.empty((len(t), len(cases)))
    sols[0] = y0
    for k in range(1, len(t)):
        state = rk4(f, state, dt)
        sols[k] = state[0]

    worst_excess = -np.inf
    tail = t >= 20.0
    for i, (a, b, c) in enumerate(cases):
        bound, limsup = gronwall_bound(a, b, c, eps0[i], y0[i], yp0[i], t)
        worst_excess = max(worst_excess, float(np.max(sols[:, i] - bound)))
        assert np.all(sols[:, i] <= bound + 1e-8)
        expect = eps0[i] / c if b * b > 4 * a * c else 4.0 * a * eps0[i] / b**2
        assert limsup == pytest.approx(expect)
        assert np.max(sols[tail, i]) <= limsup + 1e-6
    announce(9, "PASS", f"40 tuples, worst excess over the bound {worst_excess:.1e}")


def test_criterion_10_integrator_order(announce):
    s0 = random_stiefel(4, 2, 42)[None]
    xi = np.array([[0.0, -4.0], [4.0, 0.0]])
    params = ModelParams(kappa=1.0, freqs=xi[None])
    top = all_to_all(1)
    rhs = lambda s: rhs_first_order(s, params, top)
    dts = (1e-2, 5e-3, 2.5e-3)
    errs = []
    for dt in dts:
        stepped = rk4(rhs, s0.copy(), dt)
        errs.append(float(np.max(np.abs(stepped - s0 @ exp_skew(xi, dt)))))
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert order >= 4.5
    announce(10, "PASS", f"one-step truncation order {order:.2f}")
