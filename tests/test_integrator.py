import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesync import (
    BlowUpError,
    DriftError,
    IntegratorConfig,
    ModelParams,
    Topology,
    all_to_all,
    integrate,
    integrator,
    make_tangent_velocity,
    random_skew,
    random_stiefel,
    rhs_first_order,
    uniform_states,
    zero_freqs,
)
from framesync.diagnostics import make_record
from framesync.dynamics import agent_last_drift, vector_field
from framesync.errors import ParameterError, TangencyError
from framesync.integrator import _repair, _schulz_steps, _stack, _worst_agent, rk4
from framesync.stiefel import (
    exp_skew,
    frame_drift,
    project_tangent,
    retract_polar,
    tangency_defect,
)


def rotation_rhs(xi):
    return lambda states: states @ xi


def thresholds(monkeypatch, repair, fail):
    """Run integrate at other drift thresholds than its constants."""
    monkeypatch.setattr(integrator, "_DRIFT_REPAIR", repair)
    monkeypatch.setattr(integrator, "_DRIFT_FAIL", fail)


def test_config_validation():
    for dt, horizon in ((0.0, 1.0), (0.1, 0.05), (math.nan, 1.0),
                        (math.inf, 1.0), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ParameterError):
            IntegratorConfig(dt=dt, horizon=horizon)
    for record_every in (0, 2.5, True):
        with pytest.raises(ParameterError, match="record_every"):
            IntegratorConfig(dt=0.1, horizon=1.0, record_every=record_every)
    # 3 steps would end at t = 0.9, short of the horizon
    with pytest.raises(ParameterError, match="whole number of steps"):
        IntegratorConfig(dt=0.3, horizon=1.0)
    assert IntegratorConfig(dt=0.1, horizon=1.0).steps == 10


@pytest.mark.parametrize("dt, horizon", [
    (math.nan, 1.0), (0.1, math.nan), (math.inf, 1.0), (0.1, math.inf),
    (0.1, -math.inf), (0.0, 1.0), (-0.1, -1.0),
    (1e-12, 100.0),  # 1e14 steps: more than spacings can verify
    (0.1, 0.1 * (1 + 1e-8)),  # one step, within 1e-6 of it
])
def test_config_rejects_a_grid_it_cannot_verify(dt, horizon):
    with pytest.raises(ParameterError, match="^horizon "):
        IntegratorConfig(dt, horizon)


def test_config_holds_only_the_grid():
    names = [f.name for f in dataclasses.fields(IntegratorConfig)]
    assert names == ["dt", "horizon", "record_every"]
    with pytest.raises(TypeError):
        IntegratorConfig(dt=0.1, horizon=1.0, drift_fail=1e-6)


def test_drift_thresholds_are_ordered():
    # the repair's Newton-Schulz steps converge only for drift below 1
    assert 0 < integrator._DRIFT_REPAIR < integrator._DRIFT_FAIL < 1


def test_schulz_steps_follow_the_drift_bound():
    assert [_schulz_steps(b) for b in (1e-6, 1e-3)] == [2, 3]
    assert _schulz_steps(1e-20) == 1
    counts = [_schulz_steps(b) for b in (1e-9, 1e-6, 1e-3, 0.5, 0.999)]
    assert counts == sorted(counts)


def test_rk4_local_error_fifth_order():
    rng = np.random.default_rng(1)
    s0 = random_stiefel(4, 2, rng)[None]
    xi = random_skew(2, 1.0, rng)
    errs = []
    for dt in (1e-1, 5e-2):
        stepped = rk4(rotation_rhs(xi), s0.copy(), dt)
        exact = s0 @ exp_skew(xi, dt)
        errs.append(np.max(np.abs(stepped - exact)))
    # one-step truncation error scales like dt^5
    assert errs[0] / errs[1] > 25


def test_rk4_global_error_fourth_order():
    rng = np.random.default_rng(2)
    s0 = random_stiefel(4, 2, rng)[None]
    xi = random_skew(2, 1.0, rng)
    horizon = 1.0
    exact = s0 @ exp_skew(xi, horizon)
    errs = []
    for dt in (2e-2, 1e-2):
        states = s0.copy()
        for _ in range(int(round(horizon / dt))):
            states = rk4(rotation_rhs(xi), states, dt)
        errs.append(np.max(np.abs(states - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 22.0


def test_integrate_global_error_fourth_order(monkeypatch):
    # the coupled first-order flow with rotations, through integrate's own
    # agent-last stack and field; the repair threshold sits above the drift
    # these steps make, so the error is RK4's alone
    thresholds(monkeypatch, 1e-4, 1e-3)
    rng = np.random.default_rng(21)
    states = uniform_states(4, 2, 5, rng)
    freqs = np.stack([random_skew(2, 1.0, rng) for _ in range(5)])
    params = ModelParams(kappa=2.0, freqs=freqs)
    horizon, dt = 2.0, 0.05

    def final(step):
        cfg = IntegratorConfig(step, horizon, int(round(horizon / step)))
        traj = integrate(states, params, all_to_all(5), cfg)
        assert traj.repairs == 0
        return traj.states[-1]

    ref = final(dt / 16)
    errs = [np.max(np.abs(final(step) - ref)) for step in (dt, dt / 2)]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


def test_rk4_steps_states_and_velocities_together():
    # harmonic oscillator per entry: d(s, v) = (v, -s)
    s0 = np.full((1, 2, 1), 1 / math.sqrt(2))
    v0 = np.zeros((1, 2, 1))
    y = np.array([s0, v0])
    rhs = lambda x: np.array([x[1], -x[0]])
    t, dt = 0.0, 1e-3
    for _ in range(1000):
        y = rk4(rhs, y, dt)
        t += dt
    npt.assert_allclose(y[0], s0 * math.cos(t), atol=1e-10)
    npt.assert_allclose(y[1], -s0 * math.sin(t), atol=1e-10)


def make_run(seed=3, n_agents=4, second=False, kappa=1.0):
    rng = np.random.default_rng(seed)
    states = uniform_states(4, 2, n_agents, rng)
    vels = None
    mass = 0.0
    if second:
        vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.3)
        mass = 1.0
    params = ModelParams(
        kappa=kappa, freqs=zero_freqs(n_agents, 2), mass=mass, friction=2.0
    )
    return states, vels, params, all_to_all(n_agents)


def test_integrate_records_grid():
    states, _, params, top = make_run()
    traj = integrate(states, params, top, IntegratorConfig(1e-2, 1.0, 25))
    npt.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    assert len(traj.states) == len(traj.times) == len(traj.table)
    # ragged horizon: the final partial stretch is still recorded
    traj = integrate(states, params, top, IntegratorConfig(1e-2, 0.93, 25))
    npt.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 0.93], atol=1e-12)


@pytest.mark.parametrize("second", [False, True])
def test_integrate_matches_repeated_rk4(second):
    # rk4 on the tall (N, n, p) states, or the (2, N, n, p) states and
    # velocities, through the field turned to and from the agent-last stack
    states, vels, params, top = make_run(second=second)
    if second:
        field = vector_field(params, top, inertial=True)
        rhs = lambda y: np.swapaxes(
            field(np.array((y[0].T, y[1].T))), 1, 3)
        stepped = np.array([states, vels])
    else:
        rhs = lambda y: rhs_first_order(y, params, top)
        stepped = states
    traj = integrate(states, params, top, IntegratorConfig(1e-2, 0.05, 5),
                     vels)
    assert traj.repairs == 0
    for _ in range(5):
        stepped = rk4(rhs, stepped, 1e-2)
    if second:
        npt.assert_array_equal(traj.states[-1], stepped[0])
        npt.assert_array_equal(traj.velocities[-1], stepped[1])
    else:
        npt.assert_array_equal(traj.states[-1], stepped)


def test_integrate_deterministic():
    states, vels, params, top = make_run(second=True)
    cfg = IntegratorConfig(1e-3, 0.5, 100)
    a = integrate(states, params, top, cfg, vels)
    b = integrate(states, params, top, cfg, vels)
    npt.assert_array_equal(a.states[-1], b.states[-1])
    npt.assert_array_equal(a.velocities[-1], b.velocities[-1])


def test_integrate_restart_is_exact():
    states, _, params, top = make_run()
    cfg = IntegratorConfig(1e-3, 2.0, 500)
    full = integrate(states, params, top, cfg)
    idx = 2
    assert full.times[idx] == pytest.approx(1.0)
    tail = integrate(
        full.states[idx], params, top, IntegratorConfig(1e-3, 1.0, 500)
    )
    npt.assert_array_equal(tail.states[-1], full.states[-1])


def test_integrate_rejects_off_manifold_start():
    states, _, params, top = make_run()
    with pytest.raises(DriftError) as err:
        integrate(states + 1e-4, params, top, IntegratorConfig(1e-2, 1.0))
    assert "reduce dt" in str(err.value)


def test_integrate_rejects_non_tangent_velocities():
    states, vels, params, top = make_run(second=True)
    with pytest.raises(TangencyError):
        integrate(states, params, top, IntegratorConfig(1e-2, 1.0),
                  vels + 0.1 * states)


def test_integrate_aborts_on_blowup():
    # a wildly unstable step size drives the stiff inertial system non-finite
    states, _, params, top = make_run(second=True)
    params = ModelParams(
        kappa=params.kappa, freqs=params.freqs, mass=1e-8, friction=2.0
    )
    vels = make_tangent_velocity(states, np.ones_like(states), 0.3)
    with pytest.raises((BlowUpError, DriftError)):
        integrate(states, params, top, IntegratorConfig(0.5, 50.0), vels)


def test_first_order_blowup_is_not_reported_as_drift():
    # natural rotations of norm ~1e150 overflow within the first RK4 step;
    # the drift of a non-finite state is non-finite too, and the run must
    # name the blow-up, at the step where it happened
    states, _, _, top = make_run()
    rng = np.random.default_rng(8)
    freqs = np.stack([random_skew(2, 1e150, rng) for _ in range(4)])
    params = ModelParams(kappa=1.0, freqs=freqs)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError, match=r"at t=0\.01;"):
            integrate(states, params, top, IntegratorConfig(0.01, 1.0))


def test_second_order_blowup_of_velocities_alone():
    # friction/mass = 1e280 with dt = 2e-270: the four stage accelerations
    # grow like (dt gamma / 2m)^k, only the last one overflows, so one step
    # leaves finite states (and drift) but non-finite velocities
    states, vels, _, top = make_run(second=True)
    params = ModelParams(kappa=0.0, freqs=zero_freqs(4, 2), mass=1e-280,
                         friction=1.0)
    cfg = IntegratorConfig(2e-270, 1e-269)
    f = vector_field(params, top, inertial=True)
    with np.errstate(over="ignore", invalid="ignore"):
        y1 = rk4(f, _stack(states[None], vels[None])[:, 0], cfg.dt)
        assert np.isfinite(y1[0]).all() and not np.isfinite(y1[1]).all()
        with pytest.raises(BlowUpError, match=r"at t=2e-270;"):
            integrate(states, params, top, cfg, vels)


def test_integrate_mass_required_for_velocities():
    states, vels, params, top = make_run(second=True)
    first_order_params = ModelParams(kappa=1.0, freqs=zero_freqs(4, 2))
    with pytest.raises(ParameterError):
        integrate(states, first_order_params, top, IntegratorConfig(1e-2, 1.0),
                  vels)


def test_drift_repair_keeps_run_alive(monkeypatch):
    # loose step size on a fast rotation accumulates drift; repairs bring it
    # back without aborting
    thresholds(monkeypatch, 1e-12, 1e-3)
    rng = np.random.default_rng(4)
    states = uniform_states(3, 1, 3, rng)
    xi = np.zeros((3, 1, 1))
    params = ModelParams(kappa=8.0, freqs=xi)
    cfg = IntegratorConfig(5e-2, 40.0, 10)
    traj = integrate(states, params, all_to_all(3), cfg)
    assert traj.repairs > 0
    from framesync import frame_drift

    assert np.max(frame_drift(traj.states[-1])) < 1e-6


ULP = np.finfo(float).eps


def polar_reference(states, vels, hit):
    """The tall per-agent repair of the agents in hit: the SVD polar factor
    and the tangent projection of the velocities onto it."""
    want = np.array([states] if vels is None else [states, vels])
    for i in hit:
        want[0, i] = retract_polar(want[0, i])
        if vels is not None:
            want[1, i] = project_tangent(want[1, i], want[0, i])
    return want


def check_repair(y, want, hit, frame_atol, vel_rtol, vels):
    """y, repaired, against want: repaired agents to the given tolerances,
    the velocities' relative to the largest entry of the unprojected vels,
    on the manifold and tangent; every other agent bit-identical."""
    assert y.flags.c_contiguous
    tall = y.transpose(0, 1, 4, 3, 2)[:, 0]
    kept = [i for i in range(tall.shape[1]) if i not in hit]
    npt.assert_array_equal(tall[:, kept], want[:, kept])
    npt.assert_allclose(tall[0, hit], want[0, hit], rtol=0, atol=frame_atol)
    assert np.max(frame_drift(tall[0, hit])) <= 1e-15
    if len(tall) == 2:
        scale = np.max(np.abs(vels[hit]))
        npt.assert_allclose(tall[1, hit], want[1, hit], rtol=0,
                            atol=vel_rtol * scale)
        assert np.max(tangency_defect(tall[1, hit], tall[0, hit])) < 1e-13


@pytest.mark.parametrize("second", [False, True])
def test_repair_matches_per_agent_reference(second):
    # Newton-Schulz on the agent-last stack against the SVD polar factor and
    # the tall tangent projection, agent by agent: they agree to a few ulp
    rng = np.random.default_rng(12)
    states = uniform_states(4, 2, 7, rng)
    hit = [1, 4, 5]
    states[hit] += 1e-6 * rng.standard_normal((3, 4, 2))
    vels = rng.standard_normal(states.shape) if second else None
    y = _stack(states[None], None if vels is None else vels[None])
    drifts = frame_drift(states)[None]
    want = polar_reference(states, vels, hit)
    assert _repair(y, drifts, 1e-9, _schulz_steps(1e-6)).tolist() == [len(hit)]
    check_repair(y, want, hit, 4 * ULP, 8 * ULP, vels)


def scaled(x, size):
    """x rescaled to Frobenius norm size; a zero x (the skew part of a
    1 x 1 matrix) stays zero."""
    norm = np.linalg.norm(x)
    return x if norm == 0 else x * (size / norm)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(2, 1), (4, 2), (3, 3), (5, 3)]),
    exponents=st.lists(st.floats(-9.0, math.log10(9e-4)), min_size=1,
                       max_size=6),
    second=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_repair_across_drifts_up_to_the_fail_threshold(shape, exponents,
                                                       second, seed):
    # drifts from 1e-9 up to a fail threshold of 1e-3, whose step count the
    # repair takes; agent 0 is left on the manifold and is not repaired
    rng = np.random.default_rng(seed)
    n, p = shape
    count = len(exponents) + 1
    states = np.array([random_stiefel(n, p, rng) for _ in range(count)])
    for i, e in enumerate(exponents, start=1):
        # S (I + M + A) + T with M symmetric, A antisymmetric (zero for
        # p = 1) and S^T T = 0 (T zero for square frames), each of norm
        # 10^e / 2: the drift, the norm of 2M + (M - A)(M + A) + T^T T, is
        # 10^e to within 1.25 10^(2e)
        s, half = states[i], 0.5 * 10.0**e
        g = rng.standard_normal((2, p, p))
        z = rng.standard_normal((n, p))
        m = scaled(g[0] + g[0].T, half)
        a = scaled(g[1] - g[1].T, half)
        t = scaled(z - s @ (s.T @ z), half) if n > p else 0.0
        states[i] = s @ (np.eye(p) + m + a) + t
    drifts = frame_drift(states)
    assert 0.9e-9 < drifts[1:].min() and drifts.max() < 1e-3
    vels = rng.standard_normal(states.shape) if second else None
    hit = list(range(1, count))
    want = polar_reference(states, vels, hit)
    y = _stack(states[None], None if vels is None else vels[None])
    got = _repair(y, drifts[None], 1e-10, _schulz_steps(1e-3))
    assert got.tolist() == [len(hit)]
    # the SVD reference is itself only good to its own drift, up to about
    # 20 ulp for 3 x 3 frames
    check_repair(y, want, hit, 64 * ULP, 64 * ULP, vels)


def batch_members(second):
    """Two runs of one model as a (2, 5, 4, 2) stack of states, and one of
    velocities or None: A spread out, B near consensus, so B drifts less
    and needs fewer repairs at the tight repair threshold of
    batch_thresholds."""
    members = []
    for seed, spread in ((1, 1.0), (2, 0.05)):
        rng = np.random.default_rng(seed)
        center = random_stiefel(4, 2, rng)
        states = retract_polar(center + spread * rng.standard_normal((5, 4, 2)))
        vels = None
        if second:
            vels = make_tangent_velocity(
                states, rng.standard_normal(states.shape), 0.3
            )
        members.append((states, vels))
    states, vels = zip(*members)
    return np.stack(states), np.stack(vels) if second else None


def batch_model(second, uniform):
    rng = np.random.default_rng(9)
    base = rng.uniform(0.5, 2.0, (5, 5))
    top = all_to_all(5) if uniform else Topology((base + base.T) / 2)
    freqs = np.stack([random_skew(2, 0.1, rng) for _ in range(5)])
    params = ModelParams(kappa=3.0, freqs=freqs, mass=1.0 if second else 0.0,
                         friction=2.0)
    return params, top


BATCH_CFG = IntegratorConfig(0.05, 2.0, 8)


@pytest.fixture
def batch_thresholds(monkeypatch):
    """The drift thresholds BATCH_CFG runs at."""
    thresholds(monkeypatch, 3e-9, 1e-3)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("second", [False, True])
def test_batched_integrate_equals_single_runs(second, uniform,
                                              batch_thresholds):
    states, vels = batch_members(second)
    params, top = batch_model(second, uniform)
    batched = integrate(states, params, top, BATCH_CFG, vels)
    single = [integrate(states[b], params, top, BATCH_CFG,
                        None if vels is None else vels[b]) for b in range(2)]
    assert len(batched) == 2
    for got, want in zip(batched, single):
        npt.assert_array_equal(got.times, want.times)
        assert got.repairs == want.repairs
        assert len(got.states) == len(want.states)
        npt.assert_array_equal(got.states, want.states)
        if second:
            npt.assert_array_equal(got.velocities, want.velocities)
        npt.assert_array_equal(got.table, want.table)
    # the repair mask is per member: B needs fewer repairs than A
    assert 0 < batched[1].repairs < batched[0].repairs


def test_batched_integrate_rejects_bad_batches(batch_thresholds):
    states, _ = batch_members(False)
    states2, vels2 = batch_members(True)
    params, top = batch_model(False, True)
    params2, _ = batch_model(True, True)
    # the initial drift and tangency checks cover every member
    off = states.copy()
    off[1] += 1e-4
    with pytest.raises(DriftError):
        integrate(off, params, top, BATCH_CFG)
    skewed = vels2.copy()
    skewed[1] += 0.1 * states2[1]
    with pytest.raises(TangencyError):
        integrate(states2, params2, top, BATCH_CFG, skewed)


def test_batched_integrate_aborts_when_one_member_blows_up(batch_thresholds):
    states, vels = batch_members(True)
    params, top = batch_model(True, True)
    # tangent velocities this large overflow V^T V in the first step
    vels[1] *= 1e200
    alone = integrate(states[0], params, top, BATCH_CFG, vels[0])
    assert alone.times[-1] == pytest.approx(BATCH_CFG.horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            integrate(states, params, top, BATCH_CFG, vels)


def per_step_integrate(states, params, top, cfg, vels=None):
    """integrate with the drift checked after every step, the loop the
    chunked check replaced: the reference it must equal bit for bit.

    states (and vels) is a (B, N, n, p) stack. Returns the tall
    (k, B, S, N, n, p) samples, the (B, S, 8) table, the repairs per member
    and the steps that repaired; raises as integrate does."""
    inertial = vels is not None
    y = _stack(states, vels)
    f = integrator.vector_field(params, top, inertial)
    dt, every, n_steps = cfg.dt, cfg.record_every, cfg.steps
    samples, rows = [], []

    def sample(k, y, window):
        tall = y.transpose(0, 1, 4, 3, 2).copy()
        samples.append(tall)
        rows.append([make_record(k * dt, tall[0, b],
                                 tall[1, b] if inertial else None, params,
                                 top, float(window[b].max()))
                     for b in range(len(states))])

    drifts = agent_last_drift(y[0])
    sample(0, y, drifts)
    repairs, repaired = np.zeros(len(states), dtype=int), []
    window = np.zeros_like(drifts)
    repair, fail = integrator._DRIFT_REPAIR, integrator._DRIFT_FAIL
    schulz = _schulz_steps(fail)
    for k in range(1, n_steps + 1):
        y = rk4(f, y, dt)
        drifts = agent_last_drift(y[0])
        worst = float(drifts.max())
        if not worst <= fail or (
                inertial and not np.isfinite(y[1]).all()):
            if not np.isfinite(y).all():
                raise BlowUpError(
                    f"non-finite state at t={k * dt:.6g}; reduce dt, or "
                    "bring m, gamma, kappa and the rotations into range")
            raise DriftError(k * dt, _worst_agent(drifts), worst)
        np.maximum(window, drifts, out=window)
        if worst > repair:
            repairs += _repair(y, drifts, repair, schulz)
            repaired.append(k)
        if k % every == 0 or k == n_steps:
            sample(k, y, window)
            window.fill(0.0)
    return (np.stack(samples, axis=2), np.array(rows).swapaxes(0, 1),
            repairs, repaired)


def assert_same_error(kind, states, params, top, cfg, vels=None):
    """integrate and the per-step reference raise the same error, with the
    same message and time; returns the error."""
    with pytest.raises(kind) as want:
        per_step_integrate(states[None], params, top, cfg,
                           None if vels is None else vels[None])
    with pytest.raises(kind) as got:
        integrate(states, params, top, cfg, vels)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "t", None) == getattr(want.value, "t", None)
    return got.value


# with no repair, chunks hold 1, 2, 4, ... steps: steps 1, 2-3, 4-7, 8-15,
# then 16-20, cut at the sample step 20, then 21-40, ...
CHUNK_CFG = IntegratorConfig(dt=0.05, horizon=4.0, record_every=20)


@pytest.mark.parametrize("second, repair", [(False, 5e-6), (True, 8e-7)])
def test_chunked_check_repairs_mid_chunk_in_one_member(second, repair,
                                                       monkeypatch):
    # member A crosses the repair threshold first at a step inside the chunk
    # of steps 4-7, and again later; member B never does
    thresholds(monkeypatch, repair, 1e-3)
    states, vels = batch_members(second)
    params, top = batch_model(second, True)
    samples, table, repairs, repaired = per_step_integrate(
        states, params, top, CHUNK_CFG, vels)
    assert 4 <= repaired[0] < 7 and len(repaired) > 1
    assert repairs[0] > 0 and repairs[1] == 0
    for b, traj in enumerate(integrate(states, params, top, CHUNK_CFG, vels)):
        npt.assert_array_equal(traj.states, samples[0, b])
        if second:
            npt.assert_array_equal(traj.velocities, samples[1, b])
        npt.assert_array_equal(traj.table, table[b])
        assert traj.repairs == repairs[b]


def test_chunked_check_raises_drift_error_mid_chunk(monkeypatch):
    # the drift of this run passes 3.93e-7 at step 4 and 5.69e-7 at step 5:
    # step 5, inside the chunk of steps 4-7, is the first to fail
    thresholds(monkeypatch, 4e-7, 5e-7)
    states, _, params, top = make_run()
    cfg = IntegratorConfig(0.1, 2.0, 20)
    err = assert_same_error(DriftError, states, params, top, cfg)
    assert err.t == pytest.approx(0.5)


def test_chunked_check_raises_blow_up_mid_chunk(monkeypatch):
    # frames scaled up by 0.4 % a step, until an entry has grown by 5 %,
    # then overflowing: that is within step 13, inside the chunk of steps
    # 8-15, and the drift after step 12, about 0.14, stays below the repair
    # threshold
    states, _, params, top = make_run()
    level = 1.05 * np.abs(states).max()

    def growing_frames(params, topology, inertial):
        return lambda y: y * (0.4 if np.abs(y).max() < level else np.inf)

    monkeypatch.setattr(integrator, "vector_field", growing_frames)
    thresholds(monkeypatch, 0.5, 0.9)
    cfg = IntegratorConfig(0.01, 1.0, 100)
    with np.errstate(over="ignore", invalid="ignore"):
        err = assert_same_error(BlowUpError, states, params, top, cfg)
    assert "at t=0.13;" in str(err)


def test_chunked_check_catches_velocities_blowing_up_alone(monkeypatch):
    # frames held still, velocities multiplied by about 4e30 per step: the
    # last RK4 stage of step 10, about 2e33 times the velocities, overflows
    # inside the chunk of steps 8-15, with the states and their drift
    # unchanged
    def still_frames(params, topology, inertial):
        return lambda y: np.array([np.zeros_like(y[0]), 1e10 * y[1]])

    monkeypatch.setattr(integrator, "vector_field", still_frames)
    states, vels, params, top = make_run(second=True)
    cfg = IntegratorConfig(0.01, 1.0, 100)
    with np.errstate(over="ignore", invalid="ignore"):
        err = assert_same_error(BlowUpError, states, params, top, cfg, vels)
    assert "at t=0.1;" in str(err)


def counting_drift(monkeypatch):
    """Record the leading shape of every drift check integrate makes: (B,)
    for the initial states, (steps, B) for a chunk."""
    counts = []

    def drift(a):
        counts.append(a.shape[:-3])
        return agent_last_drift(a)

    monkeypatch.setattr(integrator, "agent_last_drift", drift)
    return counts


def test_drift_is_checked_once_per_chunk(monkeypatch):
    # chunks double from one step, never cross a sample step, and start at
    # one step again after a repair
    counts = counting_drift(monkeypatch)
    states, _, params, top = make_run()
    integrate(states, params, top, IntegratorConfig(1e-2, 1.0, 30))
    assert counts == [(1,)] + [(m, 1) for m in (1, 2, 4, 8, 15, 30, 30, 10)]
    counts.clear()
    thresholds(monkeypatch, 5e-6, 1e-3)
    states, _ = batch_members(False)
    params, top = batch_model(False, True)
    integrate(states, params, top, CHUNK_CFG)
    # step 6 repairs, so step 7 is a chunk of its own
    assert counts[:5] == [(2,), (1, 2), (2, 2), (4, 2), (1, 2)]


def test_a_state_past_the_chunk_budget_is_checked_every_step(monkeypatch):
    # a state larger than the budget is held one step at a time, as by a
    # per-step check, and the run is the same
    monkeypatch.setattr(integrator, "_CHUNK_BYTES", 1)
    counts = counting_drift(monkeypatch)
    thresholds(monkeypatch, 5e-6, 1e-3)
    states, _ = batch_members(False)
    params, top = batch_model(False, True)
    samples, table, repairs, _ = per_step_integrate(states, params, top,
                                                    CHUNK_CFG)
    trajs = integrate(states, params, top, CHUNK_CFG)
    assert counts == [(2,)] + [(1, 2)] * CHUNK_CFG.steps
    assert repairs[0] > 0
    for b, traj in enumerate(trajs):
        npt.assert_array_equal(traj.states, samples[0, b])
        npt.assert_array_equal(traj.table, table[b])
        assert traj.repairs == repairs[b]


def test_column_nan_for_first_order():
    states, _, params, top = make_run()
    traj = integrate(states, params, top, IntegratorConfig(1e-2, 0.2, 10))
    assert np.isnan(traj.column("K")).all()
    assert not np.isnan(traj.column("D")).any()


def test_first_order_consensus_decay():
    states, _, params, top = make_run(seed=5)
    traj = integrate(states, params, top, IntegratorConfig(1e-3, 30.0, 1000))
    d = traj.column("D")
    assert d[-1] < 1e-6 or d[-1] < d[0] * 1e-3
    assert traj.max_drift < 1e-10


def test_trajectory_is_arrays():
    states, vels, params, top = make_run(second=True)
    traj = integrate(states, params, top, IntegratorConfig(1e-2, 0.2, 10),
                     vels)
    assert traj.states.shape == traj.velocities.shape == (3, 4, 4, 2)
    assert traj.table.shape == (3, 8)
    npt.assert_array_equal(traj.times, traj.column("t"))
    assert traj.max_drift == traj.column("maxDrift").max()
    states, _, params, top = make_run()
    first = integrate(states, params, top, IntegratorConfig(1e-2, 0.2, 10))
    assert first.velocities is None
    # a column is a view of the table the CSV is written from: all read-only
    for view in (first.column("D"), first.states[0], traj.velocities[1]):
        with pytest.raises(ValueError):
            view[0] = 0.0


def test_column_rejects_an_unknown_name():
    states, _, params, top = make_run()
    traj = integrate(states, params, top, IntegratorConfig(1e-2, 0.2, 10))
    with pytest.raises(ParameterError, match="t, D, Dvel, G, K, L, E, maxDrift"):
        traj.column("diameter")
