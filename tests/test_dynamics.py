import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesync import (
    compute_stats,
    IntegratorConfig,
    ModelParams,
    Topology,
    all_to_all,
    diameter,
    energy,
    energy_dissipation_rhs,
    g_functional,
    integrate,
    make_tangent_velocity,
    random_skew,
    random_stiefel,
    reduced_velocity,
    rhs_first_order,
    rhs_kuramoto,
    rhs_second_order,
    rhs_so_n,
    rhs_sphere,
    split_transform,
    tangency_defect,
    uniform_states,
    zero_freqs,
)
from framesync.diagnostics import _BLOCK
from framesync.dynamics import _pooled_sum, agent_last_drift, vector_field
from framesync.errors import DimensionError, ParameterError, TangencyError
from framesync.stiefel import exp_skew, frame_drift


def brute_first_order(states, freqs, weights, kappa):
    """Per-pair loop over the coupling sum, no algebraic shortcuts."""
    n = len(states)
    out = np.zeros_like(states)
    for i in range(n):
        si = states[i]
        acc = np.zeros_like(si)
        for k in range(n):
            sk = states[k]
            acc += weights[i, k] * (
                sk - 0.5 * (si @ si.T @ sk + si @ sk.T @ si)
            )
        out[i] = si @ freqs[i] + kappa / n * acc
    return out


def brute_second_order(states, vels, freqs, weights, kappa, m, gamma):
    n = len(states)
    acc = np.zeros_like(states)
    for i in range(n):
        s, v, xi = states[i], vels[i], freqs[i]
        force = (
            -m * s @ (v.T @ v)
            - gamma * v
            + s @ xi
            + m / gamma * (2.0 * v @ xi - s @ xi @ s.T @ v + s @ v.T @ s @ xi)
        )
        for k in range(n):
            sk = states[k]
            force += (
                kappa
                / n
                * weights[i, k]
                * (sk - 0.5 * (s @ s.T @ sk + s @ sk.T @ s))
            )
        acc[i] = force / m
    return acc


def random_setup(seed, n=5, p=2, amb=4, second=False):
    rng = np.random.default_rng(seed)
    states = uniform_states(amb, p, n, rng)
    freqs = np.stack([random_skew(p, 0.4, rng) for _ in range(n)])
    base = rng.uniform(0.5, 1.5, (n, n))
    weights = (base + base.T) / 2
    vels = None
    if second:
        vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.6)
    return states, vels, freqs, Topology(weights)


# all_to_all alone cannot tell a dropped weight factor in the uniform-weight sum
UNIFORM_NOT_ONE = Topology(np.full((5, 5), 3.0))


def test_first_order_matches_brute_force():
    states, _, freqs, top = random_setup(1)
    params = ModelParams(kappa=1.7, freqs=freqs)
    for topology in (top, UNIFORM_NOT_ONE):
        got = rhs_first_order(states, params, topology)
        want = brute_first_order(states, freqs, topology.weights, 1.7)
        npt.assert_allclose(got, want, atol=1e-14)


def per_agent_coupling(states, pooled):
    """The uniform-weight coupling one 2-D matmul at a time, per ensemble,
    from the pooled sum of each ensemble."""
    out = np.empty_like(states)
    for idx in np.ndindex(states.shape[:-3]):
        for i, s in enumerate(states[idx]):
            g = s.T @ pooled[idx]
            out[idx + (i,)] = pooled[idx] - s @ (0.5 * (g + g.T))
    return out


def agent_last(*layers):
    """The (k, ..., p, n, N) stack vector_field takes, from tall layers
    (..., N, n, p): entry [l, ..., a, j, i] is (S_i)[j, a] of layer l."""
    return np.array([np.moveaxis(np.swapaxes(x, -1, -2), -3, -1)
                     for x in layers])


def tall(a):
    """Agent-last (..., p, n, N) frames in the tall (..., N, n, p) form."""
    return np.swapaxes(np.moveaxis(a, -1, -3), -1, -2)


@pytest.mark.parametrize("inertial", [False, True])
@pytest.mark.parametrize("shape", [(4, 2), (6, 3), (5, 1)])
@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize("count", [7, 400])
def test_uniform_coupling_matches_per_agent_reference(count, batch, shape,
                                                      inertial):
    # with zero rotations (and, for the inertial flow, zero velocities) the
    # field is the coupling alone. The reference takes the field's own
    # pooled sum, which is checked against a correctly rounded one; the
    # GEMMs and einsums add in another order than the per-agent 2-D
    # products, so the two agree to a few ulp
    n, p = shape
    kappa, mass = 1.7, 0.5
    rng = np.random.default_rng(batch * 10 + p)
    states = np.stack([uniform_states(n, p, count, rng) for _ in range(batch)])
    top = Topology(np.full((count, count), 3.0))
    params = ModelParams(kappa=kappa, freqs=zero_freqs(count, p), mass=mass)
    f = vector_field(params, top, inertial)
    if inertial:
        got = f(agent_last(states, np.zeros_like(states)))[1]
        scale = kappa / (count * mass)
    else:
        got = f(agent_last(states))[0]
        scale = kappa / count
    pooled = tall(_pooled_sum(top, scale)(agent_last(states)[0]))[:, 0]
    # recursive summation of N terms errs by at most N u times the sum of
    # their magnitudes (u the unit round-off), one more u for each product
    terms = 3.0 * scale * states
    fsum = np.vectorize(math.fsum, signature="(n)->()")
    exact = fsum(np.moveaxis(terms, 1, -1))
    bound = ((count + 1) * np.finfo(float).eps
             * np.add.reduce(np.abs(terms), axis=1))
    assert np.all(np.abs(pooled - exact) <= bound)
    want = per_agent_coupling(states, pooled)
    ulp = np.spacing(np.max(np.abs(want)))
    assert np.max(np.abs(tall(got) - want)) <= 4 * ulp


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("count", [1, 8, 400])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_agent_last_drift_matches_frame_drift(p, count, batch):
    # the monitor's kernel on the agent-last stack against the tall
    # reference on the same frames: the entries of S^T S - I are sums of
    # the same products in another order, so they agree to a few ulp of 1
    rng = np.random.default_rng(p * 1000 + count + batch)
    frames = np.stack([[random_stiefel(5, p, rng) for _ in range(count)]
                       for _ in range(batch)])
    s = frames + 1e-7 * rng.standard_normal(frames.shape)
    got = agent_last_drift(agent_last(s)[0])
    want = frame_drift(s)
    assert got.shape == want.shape == (batch, count)
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(1.0)
    assert np.median(want) > 1e-8  # the perturbation shows, not only round-off


def test_agent_last_drift_is_non_finite_for_non_finite_frames():
    # the integrator's blow-up test relies on this
    s = np.stack([[random_stiefel(4, 2, 3 * b + k) for k in range(3)]
                  for b in range(2)])
    s[0, 1, 2, 0] = np.inf
    s[1, 2, 0, 1] = np.nan
    s[1, 0, 3, 1] = -np.inf
    with np.errstate(invalid="ignore"):
        d = agent_last_drift(agent_last(s)[0])
    assert np.isfinite(d[0, [0, 2]]).all() and np.isfinite(d[1, 1])
    assert not np.isfinite(d[[0, 1, 1], [1, 2, 0]]).any()


@settings(max_examples=40, deadline=None)
@given(
    second=st.booleans(),
    uniform=st.booleans(),
    batch=st.integers(1, 3),
    kappa=st.sampled_from([0.1, 1.0, 30.0]),
    xi_scale=st.sampled_from([0.0, 0.5, 5.0]),
    vel_scale=st.sampled_from([0.1, 1.0, 10.0]),
    mass=st.sampled_from([0.01, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vector_field_commutes_with_left_translation(
    second, uniform, batch, kappa, xi_scale, vel_scale, mass, seed
):
    # S -> Q S is Q applied to every (n, N) block of the agent-last
    # (k, B, p, n, N) stack: f(Q y) = Q f(y) for a fixed orthogonal Q
    rng = np.random.default_rng(seed)
    n_agents, n, p = 4, 4, 2
    states = np.stack([uniform_states(n, p, n_agents, rng) for _ in range(batch)])
    layers = [states]
    if second:
        layers.append(make_tangent_velocity(
            states, rng.standard_normal(states.shape), vel_scale))
    y = agent_last(*layers)
    base = rng.uniform(0.5, 1.5, (n_agents, n_agents))
    top = all_to_all(n_agents) if uniform else Topology((base + base.T) / 2)
    freqs = np.stack([random_skew(p, xi_scale, rng) for _ in range(n_agents)])
    params = ModelParams(kappa=kappa, freqs=freqs, mass=mass if second else 0.0,
                         friction=2.0)
    field = vector_field(params, top, second)
    q = random_stiefel(n, n, rng)
    got = field(q @ y)
    want = q @ field(y)
    # every term is a product of frames (entries at most 1), velocities,
    # rotations and coupling weights: round-off scales with their sizes
    scale = kappa * np.max(top.weights) + params.freq_sup + 1.0
    if second:
        scale = (scale + 2.0 * vel_scale) / mass + vel_scale**2 + vel_scale
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_first_order_kuramoto_hand_case():
    # two unit vectors at angles 0 and pi/2: rates are +-(kappa/2) sin(pi/2)
    states = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
    params = ModelParams(kappa=1.0, freqs=zero_freqs(2, 1))
    got = rhs_first_order(states, params, all_to_all(2))
    npt.assert_allclose(got[0], [[0.0], [0.5]], atol=1e-15)
    npt.assert_allclose(got[1], [[0.5], [0.0]], atol=1e-15)


def test_first_order_consensus_is_drift_only():
    rng = np.random.default_rng(2)
    s = random_stiefel(4, 2, rng)
    states = np.stack([s, s, s])
    xi = random_skew(2, 0.3, rng)
    params = ModelParams(kappa=2.0, freqs=np.stack([xi] * 3))
    got = rhs_first_order(states, params, all_to_all(3))
    npt.assert_allclose(got, states @ xi[None], atol=1e-14)


def test_first_order_field_is_tangent():
    states, _, freqs, top = random_setup(3)
    params = ModelParams(kappa=1.0, freqs=freqs)
    field = rhs_first_order(states, params, top)
    assert np.max(tangency_defect(field, states)) < 1e-13


def test_second_order_matches_brute_force():
    states, vels, freqs, top = random_setup(4, second=True)
    params = ModelParams(kappa=0.9, freqs=freqs, mass=1.3, friction=2.1)
    for topology in (top, UNIFORM_NOT_ONE):
        dstates, accel = rhs_second_order(states, vels, params, topology)
        npt.assert_allclose(dstates, vels)
        want = brute_second_order(
            states, vels, freqs, topology.weights, 0.9, 1.3, 2.1
        )
        npt.assert_allclose(accel, want, atol=1e-13)


def test_second_order_preserves_constraint():
    # at admissible (S, V) the acceleration satisfies
    # A^T S + S^T A + 2 V^T V = 0, so the tangency residual stays put
    states, vels, freqs, top = random_setup(5, second=True)
    params = ModelParams(kappa=1.1, freqs=freqs, mass=0.7, friction=1.4)
    _, accel = rhs_second_order(states, vels, params, top)
    resid = (
        np.swapaxes(accel, -1, -2) @ states
        + np.swapaxes(states, -1, -2) @ accel
        + 2.0 * np.swapaxes(vels, -1, -2) @ vels
    )
    assert np.max(np.linalg.norm(resid, axis=(-2, -1))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    uniform=st.booleans(),
    rotations=st.booleans(),
    count=st.integers(1, 8),
    shape=st.sampled_from([(2, 1), (3, 3), (4, 2), (5, 3)]),
    kappa=st.sampled_from([0.1, 1.0, 30.0]),
    vel_scale=st.sampled_from([0.1, 1.0, 10.0]),
    mass=st.sampled_from([0.01, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inertial_field_propagates_tangency(
    uniform, rotations, count, shape, kappa, vel_scale, mass, seed
):
    # d/dt (S^T V + V^T S) = A^T S + S^T A + 2 V^T V must vanish at every
    # admissible (S, V), so tangency holds along the flow
    rng = np.random.default_rng(seed)
    n, p = shape
    states = uniform_states(n, p, count, rng)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape),
                                 vel_scale)
    if rotations:
        freqs = np.stack([random_skew(p, 0.5, rng) for _ in range(count)])
    else:
        freqs = zero_freqs(count, p)
    base = rng.uniform(0.5, 1.5, (count, count))
    top = all_to_all(count) if uniform else Topology((base + base.T) / 2)
    params = ModelParams(kappa=kappa, freqs=freqs, mass=mass, friction=2.0)
    _, accel = rhs_second_order(states, vels, params, top)
    resid = (np.swapaxes(accel, -1, -2) @ states
             + np.swapaxes(states, -1, -2) @ accel
             + 2.0 * np.swapaxes(vels, -1, -2) @ vels)
    # round-off is relative to the terms that cancel: the force, friction
    # and rotation terms, each divided by m, and V^T V
    v_sup = np.max(np.linalg.norm(vels, axis=(-2, -1)))
    scale = ((kappa * np.max(top.weights) + params.freq_sup + 2.0 * v_sup) / mass
             + v_sup**2 + v_sup + 1.0)
    assert np.max(np.linalg.norm(resid, axis=(-2, -1))) <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(
    count=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
                           400]),
    inertial=st.booleans(),
    rotations=st.booleans(),
    batch=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniform_form_matches_dense_ones(count, inertial, rotations, batch, seed):
    # the scalar form and a dense matrix of ones take the same O(N) branch
    rng = np.random.default_rng(seed)
    n, p = 4, 2
    states = np.stack([uniform_states(n, p, count, rng) for _ in range(batch)])
    layers = [states]
    if inertial:
        layers.append(make_tangent_velocity(
            states, rng.standard_normal(states.shape), 0.5))
    y = agent_last(*layers)
    if rotations:
        freqs = np.stack([random_skew(p, 0.5, rng) for _ in range(count)])
    else:
        freqs = zero_freqs(count, p)
    params = ModelParams(kappa=1.7, freqs=freqs, mass=0.8 if inertial else 0.0)
    uniform, dense = all_to_all(count), Topology(np.ones((count, count)))
    npt.assert_array_equal(vector_field(params, uniform, inertial)(y),
                           vector_field(params, dense, inertial)(y))
    npt.assert_array_equal(reduced_velocity(states[0], params, uniform),
                           reduced_velocity(states[0], params, dense))
    a, b = compute_stats(uniform), compute_stats(dense)
    assert (a.a_min, a.a_max, a.spread, a.gap, a.row_avg_constant) == (
        b.a_min, b.a_max, b.spread, b.gap, b.row_avg_constant)
    npt.assert_array_equal(a.row_avg, b.row_avg)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("inertial", [False, True])
def test_rhs_wrappers_transpose_the_field(inertial, uniform):
    # rhs_first_order and rhs_second_order take and return tall frames: the
    # field on the agent-last stack, turned back, bit for bit
    states, vels, freqs, top = random_setup(18, second=inertial)
    if uniform:
        top = all_to_all(len(states))
    params = ModelParams(kappa=1.3, freqs=freqs, mass=0.7 if inertial else 0.0)
    field = vector_field(params, top, inertial)
    if inertial:
        _, got = rhs_second_order(states, vels, params, top)
        want = field(agent_last(states, vels))[1]
    else:
        got = rhs_first_order(states, params, top)
        want = field(agent_last(states))[0]
    npt.assert_array_equal(got, tall(want))


def test_second_order_requires_mass_and_velocities():
    states, vels, freqs, top = random_setup(6, second=True)
    with pytest.raises(ParameterError):
        rhs_second_order(
            states, vels, ModelParams(kappa=1.0, freqs=freqs), top
        )
    with pytest.raises(ParameterError):
        rhs_second_order(
            states, None,
            ModelParams(kappa=1.0, freqs=freqs, mass=1.0),
            top,
        )


@pytest.mark.parametrize("which", ["states", "velocities"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frames_are_rejected_at_the_boundary(which, bad):
    # integrate failed one step later ("non-finite state at t=0.01; reduce
    # dt"), rhs_second_order returned NaN accelerations and diameter
    # (nan, (0, 1))
    states, vels, freqs, top = random_setup(7, second=True)
    params = ModelParams(kappa=1.0, freqs=freqs, mass=1.0)
    (states if which == "states" else vels)[2, 1, 0] = bad
    match = f"{which} must be finite"
    with pytest.raises(ParameterError, match=match):
        integrate(states, params, top, IntegratorConfig(1e-2, 1.0), vels)
    with pytest.raises(ParameterError, match=match):
        integrate(np.stack([states, states]), params, top,
                  IntegratorConfig(1e-2, 1.0), np.stack([vels, vels]))
    with pytest.raises(ParameterError, match=match):
        rhs_second_order(states, vels, params, top)
    if which == "states":
        for call in (lambda: diameter(states), lambda: g_functional(states),
                     lambda: rhs_first_order(states, params, top),
                     lambda: integrate(states, params, top,
                                       IntegratorConfig(1e-2, 1.0))):
            with pytest.raises(ParameterError, match=match):
                call()


def test_inertial_flow_has_one_tangency_tolerance():
    # integrate allowed 1e-9 max(1, ||V||) and rhs_second_order 1e-6: a
    # relative defect of 1e-7 is now rejected by both
    states, vels, freqs, top = random_setup(7, second=True)
    params = ModelParams(kappa=1.0, freqs=freqs, mass=1.0)
    scale = max(1.0, float(np.linalg.norm(vels)))
    # adding c S adds 2 c I_p to S^T V + V^T S: a defect of 2 c sqrt(2)
    bent = vels + (1e-7 * scale / 2.0 / np.sqrt(2.0)) * states
    defect = float(np.max(tangency_defect(bent, states)))
    assert 0.9e-7 * scale < defect < 1.1e-7 * scale
    with pytest.raises(TangencyError):
        rhs_second_order(states, bent, params, top)
    with pytest.raises(TangencyError):
        integrate(states, params, top, IntegratorConfig(1e-2, 1.0), bent)
    # each member of a batch is held to its own velocities' norm
    with pytest.raises(TangencyError):
        integrate(np.stack([states, states]), params, top,
                  IntegratorConfig(1e-2, 1.0), np.stack([vels, bent]))
    # within the tolerance, both accept
    bent = vels + (1e-11 * scale) * states
    rhs_second_order(states, bent, params, top)
    integrate(states, params, top, IntegratorConfig(1e-2, 0.02), bent)


def test_second_order_rejects_far_from_tangent():
    states, vels, freqs, top = random_setup(7, second=True)
    params = ModelParams(kappa=1.0, freqs=freqs, mass=1.0)
    bad = vels + 0.5 * states  # normal component
    with pytest.raises(TangencyError):
        rhs_second_order(states, bad, params, top)


def test_zero_mass_limit_tracks_first_order():
    # second-order trajectories collapse onto the first-order flow as m -> 0
    rng = np.random.default_rng(8)
    states = uniform_states(4, 2, 4, rng)
    freqs = np.stack([random_skew(2, 0.2, rng) for _ in range(4)])
    top = all_to_all(4)
    p1 = ModelParams(kappa=1.0, freqs=freqs)
    horizon = 1.0
    ref = integrate(
        states, p1, top, IntegratorConfig(1e-3, horizon, 1000)
    )
    errs = []
    for m in (1e-2, 1e-3):
        params = ModelParams(kappa=1.0, freqs=freqs, mass=m, friction=1.0)
        vels = rhs_first_order(states, p1, top)  # slow-manifold start
        dt = min(1e-3, 0.4 * m)
        traj = integrate(
            states, params, top,
            IntegratorConfig(dt, horizon, max(1, int(round(horizon / dt)))),
            vels,
        )
        errs.append(
            np.max(np.abs(traj.states[-1] - ref.states[-1]))
        )
    assert errs[0] < 0.05
    assert errs[1] / errs[0] < 0.3  # roughly linear in m


def test_reduced_velocity_closed_form():
    states, _, freqs, top = random_setup(9)
    params = ModelParams(kappa=1.4, freqs=freqs)
    rv = reduced_velocity(states, params, top)
    full = np.swapaxes(states, -1, -2) @ rhs_first_order(states, params, top)
    npt.assert_allclose(rv, full, atol=1e-13)
    npt.assert_allclose(rv, -np.swapaxes(rv, -1, -2), atol=1e-13)


def test_sphere_field_hand_case():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    got = rhs_sphere(pts, np.zeros((2, 3, 3)), all_to_all(2), kappa=2.0)
    npt.assert_allclose(got[0], [0.0, 1.0, 0.0], atol=1e-15)
    npt.assert_allclose(got[1], [1.0, 0.0, 0.0], atol=1e-15)


def test_sphere_field_matches_frames():
    rng = np.random.default_rng(10)
    pts = uniform_states(3, 1, 6, rng)
    par = ModelParams(kappa=1.3, freqs=zero_freqs(6, 1))
    top = all_to_all(6)
    lhs = rhs_first_order(pts, par, top)[..., 0]
    rhs = rhs_sphere(pts[..., 0], np.zeros((6, 3, 3)), top, 1.3)
    npt.assert_allclose(lhs, rhs, atol=1e-14)


def test_kuramoto_field_sin_sum():
    rng = np.random.default_rng(11)
    angles = rng.uniform(0, 2 * math.pi, 4)
    rates = rng.standard_normal(4)
    base = rng.uniform(0.5, 1.5, (4, 4))
    top = Topology((base + base.T) / 2)
    got = rhs_kuramoto(angles, rates, top, kappa=1.9)
    want = np.array(
        [
            rates[i]
            + 1.9 / 4 * sum(
                top.weights[i, k] * math.sin(angles[k] - angles[i])
                for k in range(4)
            )
            for i in range(4)
        ]
    )
    npt.assert_allclose(got, want, atol=1e-14)


def test_rotation_field_closed_form():
    # R1 = I, R2 = rot(phi): dR1/dt = (kappa/2) [[0, -sin], [sin, 0]]
    phi = 0.8
    rot = np.array(
        [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
    )
    rotations = np.stack([np.eye(2), rot])
    got = rhs_so_n(rotations, np.zeros((2, 2, 2)), all_to_all(2), kappa=3.0)
    s = math.sin(phi)
    npt.assert_allclose(got[0], 1.5 * np.array([[0.0, -s], [s, 0.0]]), atol=1e-15)


def test_rotation_field_matches_frames():
    rng = np.random.default_rng(12)
    rots = uniform_states(3, 3, 5, rng)
    par = ModelParams(kappa=0.7, freqs=zero_freqs(5, 3))
    top = all_to_all(5)
    lhs = rhs_first_order(rots, par, top)
    rhs = rhs_so_n(rots, np.zeros((5, 3, 3)), top, 0.7)
    npt.assert_allclose(lhs, rhs, atol=1e-14)


def test_split_transform():
    rng = np.random.default_rng(13)
    states = uniform_states(4, 2, 3, rng)
    xi = random_skew(2, 0.5, rng)
    npt.assert_allclose(
        split_transform(states, xi, 2.0, order=1),
        states @ exp_skew(xi, 2.0),
        atol=1e-14,
    )
    npt.assert_allclose(
        split_transform(states, xi, 2.0, order=2, friction=4.0),
        states @ exp_skew(xi, 0.5),
        atol=1e-14,
    )
    with pytest.raises(ValueError):
        split_transform(states, xi, 1.0, order=3)


def test_make_tangent_velocity():
    rng = np.random.default_rng(14)
    states = uniform_states(5, 2, 4, rng)
    raw = rng.standard_normal(states.shape)
    v = make_tangent_velocity(states, raw, scale=0.25)
    assert np.max(tangency_defect(v, states)) < 1e-14
    npt.assert_allclose(
        v, 0.25 * make_tangent_velocity(states, raw), atol=1e-15
    )


# every public function that takes frames, called with states s and
# velocities v on a model of three agents of width 2
MODEL3 = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2), mass=1.0)
TAKES_FRAMES = {
    "rhs_first_order": lambda s, v: rhs_first_order(s, MODEL3, all_to_all(3)),
    "rhs_second_order": lambda s, v: rhs_second_order(s, v, MODEL3,
                                                      all_to_all(3)),
    "reduced_velocity": lambda s, v: reduced_velocity(s, MODEL3,
                                                      all_to_all(3)),
    "diameter": lambda s, v: diameter(s),
    "g_functional": lambda s, v: g_functional(s),
    "energy": lambda s, v: energy(s, v, MODEL3, all_to_all(3)),
    "energy_dissipation_rhs": lambda s, v: energy_dissipation_rhs(s, v, MODEL3),
    "integrate": lambda s, v: integrate(s, MODEL3, all_to_all(3),
                                        IntegratorConfig(0.1, 1.0), v),
}
TAKES_VELOCITIES = ("rhs_second_order", "energy", "energy_dissipation_rhs",
                    "integrate")
GOOD = uniform_states(4, 2, 3, np.random.default_rng(15))
# (case, states, velocities, the start of the DimensionError's text)
BAD_FRAMES = [
    ("2-d states", np.zeros((4, 2)), None, "states must be"),
    ("wide frames", np.ones((3, 2, 4)), None, "frames must be tall"),
    ("no agents", np.zeros((0, 4, 2)), None, "states must be"),
]
BAD_VELOCITIES = [
    ("velocities of another shape", GOOD, np.zeros((3, 4, 1)),
     "velocities shape"),
]
BAD_STACKS = [
    ("wide frames in a stack", np.ones((2, 3, 2, 4)), None,
     "frames must be tall"),
    ("no agents in a stack", np.zeros((2, 0, 4, 2)), None, "states must be"),
    ("an empty stack", np.zeros((0, 3, 4, 2)), None, "states must be"),
    ("velocities of one member for a stack", np.stack([GOOD, GOOD]), GOOD,
     "velocities shape"),
    ("a 5-d stack", np.zeros((1, 2, 3, 4, 2)), None, "states must be"),
]


@pytest.mark.parametrize("name, case, states, vels, match", [
    pytest.param(name, *case, id=f"{name}-{case[0]}")
    for name in TAKES_FRAMES
    for case in BAD_FRAMES
    + (BAD_VELOCITIES if name in TAKES_VELOCITIES else [])
    + (BAD_STACKS if name == "integrate" else [])
])
def test_frames_are_checked_at_every_boundary(name, case, states, vels, match):
    with pytest.raises(DimensionError, match=match):
        TAKES_FRAMES[name](states, vels)


def test_model_params_validation():
    freqs = zero_freqs(3, 2)
    nan_freqs = zero_freqs(3, 2)
    nan_freqs[1, 0, 1] = math.nan
    inf_freqs = zero_freqs(3, 2)
    inf_freqs[1, 0, 1], inf_freqs[1, 1, 0] = -math.inf, math.inf
    for bad in (
        dict(kappa=-1.0), dict(kappa=math.nan), dict(kappa=math.inf),
        dict(mass=-0.1), dict(mass=math.nan), dict(mass=math.inf),
        dict(friction=0.0), dict(friction=math.nan), dict(friction=math.inf),
        dict(freqs=np.ones((3, 2, 2))),  # not antisymmetric
        dict(freqs=nan_freqs), dict(freqs=inf_freqs),
    ):
        with pytest.raises(ParameterError):
            ModelParams(**{"kappa": 1.0, "freqs": freqs, **bad})
    with pytest.raises(DimensionError):
        ModelParams(kappa=1.0, freqs=np.zeros((0, 2, 2)))  # no agents
    xi = np.array([[0.0, -0.3], [0.3, 0.0]])
    params = ModelParams(kappa=1.0, freqs=np.stack([xi, 2 * xi, xi]))
    npt.assert_allclose(params.freq_sup, np.linalg.norm(2 * xi))


def test_model_params_need_rotations_of_width_one_or_more():
    # failed with numpy's "zero-size array to reduction operation maximum"
    with pytest.raises(DimensionError, match="^freqs must be .* p >= 1"):
        ModelParams(kappa=1.0, freqs=np.zeros((3, 0, 0)))


def test_freqs_shape_must_match():
    states = uniform_states(4, 2, 3, np.random.default_rng(16))
    params = ModelParams(kappa=1.0, freqs=zero_freqs(2, 2))
    with pytest.raises(DimensionError):
        rhs_first_order(states, params, all_to_all(3))


def test_topology_size_must_match():
    states = uniform_states(4, 2, 3, np.random.default_rng(17))
    params = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2))
    with pytest.raises(DimensionError):
        rhs_first_order(states, params, all_to_all(4))
