import csv
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesync import (
    IntegratorConfig,
    ModelParams,
    Topology,
    all_to_all,
    clustered_states,
    compute_stats,
    diameter,
    energy,
    energy_dissipation_rhs,
    ensemble_gram,
    g_functional,
    gronwall_bound,
    integrate,
    inter_diameter,
    lock_thresholds,
    make_record,
    make_tangent_velocity,
    phase_lock_detector,
    random_skew,
    random_stiefel,
    retract_polar,
    spread_inequality_residuals,
    uniform_states,
    velocity_ceiling,
    write_timeseries,
    zero_freqs,
)
from framesync.diagnostics import (
    _BLOCK,
    _MAX_STRIDE,
    CSV_COLUMNS,
    _centred,
    _pairwise_pass,
    spacings,
)
from framesync.errors import DimensionError, ParameterError
from framesync.integrator import rk4

R23 = math.sqrt(2.0 / 3.0)


def three_angles():
    # unit vectors at 0, 90 and 180 degrees
    a = np.array(
        [[[1.0], [0.0]], [[0.0], [1.0]], [[-1.0], [0.0]]]
    )
    return a


def test_diameter_hand_case():
    d, pair = diameter(three_angles())
    assert d == 2.0
    assert pair == (0, 2)


def test_diameter_tie_breaks_low_pair():
    s = np.array([[[1.0], [0.0]], [[-1.0], [0.0]], [[0.0], [1.0]], [[0.0], [-1.0]]])
    _, pair = diameter(s)
    assert pair == (0, 1)


def test_g_functional_hand_case():
    # squared distances 2, 4, 2 per unordered pair -> ordered sum 16
    assert math.isclose(g_functional(three_angles()), 16.0 / 9.0, rel_tol=1e-15)


def explicit_sq(states):
    diff = states[:, None] - states[None, :]
    return np.sum(diff * diff, axis=(-2, -1))


def first_max_pair(sq):
    """Lexicographically smallest (i, j), i <= j, holding the largest entry."""
    upper = np.where(np.triu(np.ones(sq.shape, dtype=bool)), sq, -1.0)
    return divmod(int(np.argmax(upper)), len(sq))


@settings(max_examples=60, deadline=None)
@given(
    count=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    shape=st.sampled_from([(2, 1), (3, 3), (4, 2), (5, 3)]),
    spread=st.sampled_from([1.0, 1e-3, 1e-9, 1e-12]),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_pass_matches_explicit_differences(count, shape, spread, dense, seed):
    # one block, one block exactly full, and two and three blocks; spreads of
    # 1e-9 and 1e-12 around one random frame are near consensus
    rng = np.random.default_rng(seed)
    n, p = shape
    center = random_stiefel(n, p, rng)
    states = retract_polar(center + spread * rng.standard_normal((count, n, p)))
    if dense:
        w = rng.uniform(0.5, 2.0, (count, count))
        top = Topology(w + w.T)
    else:
        top = all_to_all(count)
    params = ModelParams(kappa=1.3, freqs=zero_freqs(count, p))
    want = explicit_sq(states)
    scale = max(np.max(want), np.finfo(float).tiny)

    d, pair = diameter(states)
    assert abs(d**2 - np.max(want)) <= 1e-10 * scale
    assert pair == first_max_pair(want)
    g = g_functional(states)
    assert abs(g - np.mean(want)) <= 1e-10 * scale
    rec = make_record(0.0, states, None, params, top, 0.0)
    row = dict(zip(CSV_COLUMNS, rec))
    pot = 1.3 / (2 * count**2) * float(np.sum(top.weights * want))
    assert abs(row["L"] - pot) <= 1e-10 * 1.3 * np.max(top.weights) * scale
    assert (row["D"], row["G"]) == (d, g)
    # nothing is carried between calls
    assert diameter(states) == (d, pair)
    assert g_functional(states) == g
    npt.assert_array_equal(make_record(0.0, states, None, params, top, 0.0), rec)


def test_blocked_pass_across_ensemble_sizes():
    # sizes in turn, across the one-block boundary and back, must be exact
    rng = np.random.default_rng(6)
    for count in (5, 40, 5, 1, 3, 3 * _BLOCK + 7, 2):
        states = uniform_states(4, 2, count, rng)
        want = explicit_sq(states)
        d, pair = diameter(states)
        assert abs(d**2 - np.max(want)) <= 1e-12 * max(1.0, np.max(want))
        assert pair == first_max_pair(want)
        npt.assert_allclose(g_functional(states), np.mean(want),
                            rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("count", [2 * _BLOCK, 4 * _BLOCK])
def test_blocked_pass_ties_resolve_to_lowest_pair(count):
    # +e1 and -e1 unit vectors with a power-of-two count: the centroid, the
    # centred vectors and every distance (0 or 4) are exact, so the largest
    # distance is tied in many pairs, in the first block and in later ones
    s = np.zeros((count, 2, 1))
    s[:, 0, 0] = 1.0
    minus = [_BLOCK + 6, _BLOCK + 36, count - 1]
    s[minus, 0, 0] = -1.0
    d, pair = diameter(s)
    assert d == 2.0
    assert pair == (0, _BLOCK + 6)
    assert pair == first_max_pair(explicit_sq(s))


# one row, one pair, a block exactly full, one row past it, and four blocks
# with a short last one
PASS_SIZES = [1, 2, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
EPS = np.finfo(float).eps


def brute_force_sq(c):
    """The (N, N) squared distances of the rows of c, from their differences."""
    diff = c[:, None] - c[None, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def symmetric_weights(count, rng):
    w = rng.uniform(0.5, 2.0, (count, count))
    return w + w.T


def spread_states(count, scale):
    """Frames spread by scale around one frame; at 1e-15 their centred
    vectors are the rounding-level spread of a first-order run's tail."""
    rng = np.random.default_rng(count)
    center = random_stiefel(4, 2, rng)
    return center + scale * rng.standard_normal((count, 4, 2))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-15])
@pytest.mark.parametrize("count", PASS_SIZES)
def test_pairwise_pass_against_brute_force(count, scale):
    c, r = _centred(spread_states(count, scale))
    want = brute_force_sq(c)
    # the cancellation error is relative to the centred norms
    tol = 32 * EPS * max(np.max(r), np.finfo(float).tiny)
    d, pair = _pairwise_pass(c, r)
    assert abs(d**2 - np.max(want)) <= tol
    i, j = pair
    assert i <= j and want[i, j] >= np.max(want) - 2 * tol


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-15, 0.0])
@pytest.mark.parametrize("count", PASS_SIZES)
def test_dense_interaction_energy_against_brute_force(count, scale):
    # one product with the weights against sum_{i,j} a_ij ||c_i - c_j||^2,
    # within the tolerance the pairwise pass's weighted sum was held to:
    # relative to max r_i, each term at most a_ij max r_i. At scale 0 the
    # agents are identical.
    states = spread_states(count, scale)
    c, r = _centred(states)
    w = symmetric_weights(count, np.random.default_rng(count + 1))
    ref = float(np.sum(w * brute_force_sq(c)))
    params = ModelParams(kappa=1.0, freqs=zero_freqs(count, 2))
    row = make_record(0.0, states, None, params, Topology(w), 0.0)
    weighted = 2 * count**2 * row[CSV_COLUMNS.index("L")]
    tol = 32 * EPS * max(np.max(r), np.finfo(float).tiny) * float(np.sum(w))
    assert abs(weighted - ref) <= tol + 1e-13 * ref


@pytest.mark.parametrize("count", PASS_SIZES)
def test_pairwise_pass_of_identical_agents_is_zero(count):
    rng = np.random.default_rng(count)
    states = np.repeat(random_stiefel(4, 2, rng)[None], count, axis=0)
    assert diameter(states) == (0.0, (0, 0))
    assert _pairwise_pass(*_centred(states)) == (0.0, (0, 0))


@pytest.mark.parametrize("count", PASS_SIZES)
def test_pairwise_pass_ties_resolve_to_lowest_pair(count):
    # rows +e1, -e1 and 0: every distance is 0, 1 or 4 and exact, and the
    # largest is tied between every +e1 and every -e1 row
    rng = np.random.default_rng(count)
    c = np.zeros((count, 3))
    c[:, 0] = rng.choice([-1.0, 0.0, 1.0], count)
    want = brute_force_sq(c)
    d, pair = _pairwise_pass(c, np.sum(c * c, axis=1))
    assert d == math.sqrt(np.max(want))
    assert pair == first_max_pair(want)


def test_held_values_survive_later_calls():
    rng = np.random.default_rng(7)
    a = uniform_states(4, 2, 6, rng)
    b = uniform_states(4, 2, 6, rng)
    c = uniform_states(4, 2, 9, rng)
    top = all_to_all(6)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(6, 2))
    d_a = diameter(a)
    g_a = g_functional(a)
    rec_a = make_record(0.0, a, None, params, top, 0.0)
    row_a = rec_a.copy()
    for other in (b, c, b):
        diameter(other)
        g_functional(other)
    assert diameter(b) != d_a
    assert d_a == diameter(a)
    assert g_a == g_functional(a)
    npt.assert_array_equal(rec_a, row_a)
    npt.assert_array_equal(make_record(0.0, a, None, params, top, 0.0),
                           row_a)
    assert math.isclose(d_a[0], math.sqrt(np.max(explicit_sq(a))),
                        rel_tol=1e-12)


def test_inter_diameter():
    rng = np.random.default_rng(2)
    a = uniform_states(4, 2, 3, rng)
    b = uniform_states(4, 2, 3, rng)
    assert inter_diameter(a, a) == 0.0
    got = inter_diameter(a, b)
    want = max(
        np.linalg.norm(a[i].T @ a[j] - b[i].T @ b[j])
        for i in range(3)
        for j in range(3)
    )
    npt.assert_allclose(got, want, rtol=1e-14)


def test_inter_diameter_of_stacks_is_one_per_sample_call_each():
    rng = np.random.default_rng(3)
    a = np.stack([uniform_states(4, 2, 5, rng) for _ in range(6)])
    b = np.stack([uniform_states(4, 2, 5, rng) for _ in range(6)])
    got = inter_diameter(a, b)
    assert got.shape == (6,)
    npt.assert_array_equal(got, [inter_diameter(x, y) for x, y in zip(a, b)])
    assert isinstance(inter_diameter(a[0], b[0]), float)


def test_energy_hand_case():
    states = three_angles()
    vels = make_tangent_velocity(states, np.ones_like(states), 1.0)
    params = ModelParams(
        kappa=2.0, freqs=zero_freqs(3, 1), mass=1.5, friction=1.0
    )
    kin, pot, tot = energy(states, vels, params, all_to_all(3))
    npt.assert_allclose(kin, 1.5 / 3.0 * np.sum(vels**2), rtol=1e-14)
    # sum of ordered squared distances is 16 (see g_functional case)
    npt.assert_allclose(pot, 2.0 / (2 * 9) * 16.0, rtol=1e-14)
    assert tot == kin + pot


def test_interaction_energy_nonuniform_topology():
    rng = np.random.default_rng(13)
    count = 6
    w = rng.uniform(0.5, 2.0, (count, count))
    top = Topology(w + w.T)
    states = uniform_states(4, 2, count, rng)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.5)
    params = ModelParams(
        kappa=1.7, freqs=zero_freqs(count, 2), mass=0.8, friction=1.0
    )
    want = 1.7 / (2 * count**2) * sum(
        top.weights[i, j] * np.sum((states[i] - states[j]) ** 2)
        for i in range(count)
        for j in range(count)
    )
    _, pot, _ = energy(states, vels, params, top)
    npt.assert_allclose(pot, want, rtol=1e-13)
    row = make_record(0.0, states, vels, params, top, 0.0)
    assert row[CSV_COLUMNS.index("L")] == pot


def test_dissipation_matches_energy_derivative():
    # centred difference of recorded energy against the closed-form rate
    rng = np.random.default_rng(3)
    states = clustered_states(4, 2, 5, rng, 0.9)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.4)
    freqs = np.stack([random_skew(2, 0.3, rng) for _ in range(5)])
    params = ModelParams(kappa=1.0, freqs=freqs, mass=1.0, friction=2.0)
    top = all_to_all(5)
    errs = []
    for record_every in (10, 5):
        traj = integrate(
            states, params, top, IntegratorConfig(1e-3, 1.0, record_every),
            vels,
        )
        e = traj.column("E")
        h = traj.times[1] - traj.times[0]
        fd = (e[2:] - e[:-2]) / (2 * h)
        exact = np.array(
            [energy_dissipation_rhs(traj.states[k], traj.velocities[k], params)
             for k in range(1, len(traj.times) - 1)]
        )
        errs.append(np.max(np.abs(fd - exact)))
        assert errs[-1] < 20.0 * h**2
    # centred differences converge at second order in the sample spacing
    assert errs[0] / errs[1] > 3.5


def test_dissipation_negative_without_rotations():
    rng = np.random.default_rng(4)
    states = uniform_states(4, 2, 4, rng)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.5)
    params = ModelParams(
        kappa=1.0, freqs=zero_freqs(4, 2), mass=1.0, friction=2.0
    )
    assert energy_dissipation_rhs(states, vels, params) < 0.0


# --- locking thresholds ------------------------------------------------------


def rotating(n_agents, freq_sup, kappa):
    """A p = 2 model whose every natural rotation has norm freq_sup; on
    all_to_all(n_agents) a_min = a_max = 1 and the gap is 1 / n_agents."""
    xi = np.array([[0.0, -1.0], [1.0, 0.0]]) * (freq_sup / math.sqrt(2.0))
    return ModelParams(kappa=kappa, freqs=np.tile(xi, (n_agents, 1, 1)))


def test_lock_thresholds_zero_freq():
    th = lock_thresholds(rotating(4, 0.0, 1.0), all_to_all(4))
    assert th.alpha == 0.0
    assert th.beta == math.sqrt(2.0)
    assert th.kappa_star == 0.0
    assert th.kappa_ok
    assert th.rate == 2.0 * 1.0 * 0.25


def test_lock_thresholds_double_root():
    # kappa 3 and rotations of norm 2/sqrt(3) give c0 = (4/3) sqrt(2/3),
    # which collapses both roots onto sqrt(2/3)
    th = lock_thresholds(rotating(2, 2.0 / math.sqrt(3.0), 3.0), all_to_all(2))
    npt.assert_allclose([th.alpha, th.beta], [R23, R23], rtol=1e-12)


def test_lock_thresholds_roots_solve_cubic():
    params = rotating(3, 0.1, 2.0)
    th = lock_thresholds(params, all_to_all(3))
    c0 = 2.0 * math.sqrt(2.0) * params.freq_sup / 2.0
    for r in (th.alpha, th.beta):
        assert abs(r**3 - 2.0 * r + c0) < 1e-10
    assert 0.0 < th.alpha < R23 < th.beta < math.sqrt(2.0)
    # strong coupling passes, alpha stays under the gap ceiling
    # gap / (2 a_max sqrt(p)), and the rate is 2 kappa (gap - 2 a_max sqrt(p) alpha)
    assert th.kappa_ok
    assert th.alpha < (1.0 / 3.0) / (2.0 * 1.0 * math.sqrt(2.0))
    assert math.isclose(th.rate, 4.0 * (1.0 / 3.0 - 2.0 * math.sqrt(2.0) * th.alpha),
                        rel_tol=1e-15)


def test_lock_thresholds_weak_coupling_raises():
    with pytest.raises(ParameterError, match="too weak"):
        lock_thresholds(rotating(4, 1.0, 0.1), all_to_all(4))


def test_lock_thresholds_need_positive_coupling():
    with pytest.raises(ParameterError, match="kappa > 0"):
        lock_thresholds(rotating(4, 0.0, 0.0), all_to_all(4))


def test_lock_thresholds_gap_window():
    # weights 1 and 2 on two agents: gap 1 - (1/2)(2 + 1) = -1/2
    two = Topology(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ParameterError, match="admissible window"):
        lock_thresholds(rotating(2, 0.1, 5.0), two)
    # the window (0, 8 p a_max^2) widens with p: uniform weights 0.05 on two
    # agents have gap 0.025, above 8 a_max^2 = 0.02 but below 0.04
    weak = Topology(np.full((2, 2), 0.05))
    with pytest.raises(ParameterError, match="admissible window"):
        lock_thresholds(ModelParams(kappa=1.0, freqs=zero_freqs(2, 1)), weak)
    lock_thresholds(rotating(2, 0.0, 1.0), weak)


def test_lock_thresholds_topology_must_match():
    with pytest.raises(DimensionError, match="topology is for 5 agents"):
        lock_thresholds(rotating(3, 0.1, 2.0), all_to_all(5))


def test_lock_thresholds_kappa_star_boundary():
    # crossing kappa_star flips the sign of the cubic at the gap ceiling
    p, a, gap = 2, 1.0, 1.0 / 3.0
    params = rotating(3, 0.1, 5.0)
    th = lock_thresholds(params, all_to_all(3))
    r = gap / (2.0 * a * math.sqrt(p))
    for kappa, expect_below in ((th.kappa_star * 1.01, True), (th.kappa_star * 0.5, False)):
        c0 = 2.0 * math.sqrt(p) * params.freq_sup / (kappa * a)
        below = r**3 - 2.0 * r + c0 < 0.0
        assert below == expect_below


# --- comparison bound --------------------------------------------------------


def damped_reference(a, b, c, eps0, y0, yprime0, t_grid):
    """RK4 on the equality ODE a y'' + b y' + c y = eps0."""
    dt = t_grid[1] - t_grid[0]
    state = np.array([y0, yprime0])

    def f(s):
        return np.array([s[1], (eps0 - b * s[1] - c * s[0]) / a])

    out = [state[0]]
    for _ in range(len(t_grid) - 1):
        state = rk4(f, state, dt)
        out.append(state[0])
    return np.array(out)


def test_gronwall_overdamped_dominates_equality_ode():
    t = np.linspace(0.0, 20.0, 2001)
    a, b, c, eps0, y0, yp0 = 1.0, 3.0, 2.0, 2.0, 1.0, 0.5
    bound, limsup = gronwall_bound(a, b, c, eps0, y0, yp0, t)
    y = damped_reference(a, b, c, eps0, y0, yp0, t)
    assert np.all(y <= bound + 1e-8)
    assert limsup == eps0 / c == 1.0
    assert y[-1] <= limsup + 1e-6


def test_gronwall_underdamped_dominates_equality_ode():
    t = np.linspace(0.0, 20.0, 2001)
    a, b, c, eps0, y0, yp0 = 1.0, 2.0, 5.0, 1.0, 0.8, 0.0
    bound, limsup = gronwall_bound(a, b, c, eps0, y0, yp0, t)
    y = damped_reference(a, b, c, eps0, y0, yp0, t)
    assert np.all(y <= bound + 1e-8)
    npt.assert_allclose(limsup, 4.0 * a * eps0 / b**2)
    assert y[-1] <= limsup + 1e-6


def test_gronwall_scalar_time():
    bound, _ = gronwall_bound(1.0, 3.0, 2.0, 2.0, 1.0, 0.5, 0.0)
    assert isinstance(bound, float)
    # at t=0 the envelope starts at or above the initial value
    assert bound >= 1.0


def test_gronwall_rejects_critical_damping():
    with pytest.raises(ParameterError):
        gronwall_bound(1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        gronwall_bound(-1.0, 2.0, 5.0, 1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("slot", range(7))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gronwall_rejects_non_finite_input(slot, bad):
    # a, b, c, eps0, y0, yprime0 and t of an overdamped case; each returned
    # NaN when not finite
    args = [1.0, 3.0, 2.0, 2.0, 1.0, 0.5, 1.0]
    args[slot] = bad
    with pytest.raises(ParameterError, match="finite"):
        gronwall_bound(*args)
    if slot == 6:  # one bad time among good ones
        args[6] = np.array([0.0, 1.0, bad])
        with pytest.raises(ParameterError, match="finite"):
            gronwall_bound(*args)


# --- trajectory monitors -----------------------------------------------------


def inertial_run(seed=5, horizon=4.0, record_every=20, freqs_scale=0.0, dt=1e-3):
    rng = np.random.default_rng(seed)
    states = clustered_states(4, 2, 5, rng, 1.0)
    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.3)
    if freqs_scale > 0:
        freqs = np.stack([random_skew(2, freqs_scale, rng) for _ in range(5)])
    else:
        freqs = zero_freqs(5, 2)
    params = ModelParams(kappa=1.0, freqs=freqs, mass=1.0, friction=2.0)
    top = all_to_all(5)
    traj = integrate(states, params, top,
                     IntegratorConfig(dt, horizon, record_every), vels)
    return traj, params, top


def test_spread_inequality_residuals_nonnegative():
    traj, params, top = inertial_run()
    times, resid = spread_inequality_residuals(traj, params, top)
    assert len(times) == len(traj.times) - 2
    assert np.min(resid) > -1e-6


def test_spread_inequality_requires_velocities():
    rng = np.random.default_rng(6)
    states = uniform_states(4, 2, 3, rng)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2))
    traj = integrate(
        states, params, all_to_all(3), IntegratorConfig(1e-2, 0.5, 10)
    )
    params2 = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2), mass=1.0)
    with pytest.raises(ParameterError):
        spread_inequality_residuals(traj, params2, all_to_all(3))


def test_spread_inequality_requires_constant_row_average():
    from framesync import Topology

    traj, params, _ = inertial_run(horizon=0.5)
    uneven = Topology(np.array([[1.0, 2.0, 1.0, 1.0, 1.0],
                                [2.0, 4.0, 1.0, 1.0, 1.0],
                                [1.0, 1.0, 1.0, 1.0, 1.0],
                                [1.0, 1.0, 1.0, 1.0, 1.0],
                                [1.0, 1.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ParameterError):
        spread_inequality_residuals(traj, params, uneven)


def test_velocity_ceiling_bounds_the_velocity_sup():
    traj, params, top = inertial_run()
    # ceiling with zero rotations: kappa a_max sqrt(p) / gamma
    ceiling = velocity_ceiling(params, top)
    npt.assert_allclose(ceiling, math.sqrt(2.0) / 2.0)
    dvel = traj.column("Dvel")
    assert dvel.max() <= max(dvel[0], ceiling) + 1e-8


def test_phase_lock_detector_on_converging_run():
    traj, params, top = inertial_run(horizon=20.0, record_every=50)
    report = phase_lock_detector(traj, window=0.5)
    assert report.locked
    assert report.rho < 1.0
    assert report.deltas[-1] <= 1e-6


def test_phase_lock_detector_grid_validation():
    traj, params, top = inertial_run(horizon=2.0, record_every=50)
    with pytest.raises(ParameterError):
        phase_lock_detector(traj, window=0.033)  # off the grid
    with pytest.raises(ParameterError):
        phase_lock_detector(traj, window=1.5)  # under two windows
    with pytest.raises(ParameterError):
        phase_lock_detector(traj, window=0.5, start_time=0.017)


def test_phase_lock_detector_needs_the_recorded_states():
    rng = np.random.default_rng(5)
    states = clustered_states(4, 2, 5, rng, 1.0)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(5, 2))
    traj = integrate(states, params, all_to_all(5),
                     IntegratorConfig(1e-2, 2.0, 10), keep_states=False)
    with pytest.raises(ParameterError, match="keep_states=True"):
        phase_lock_detector(traj, window=0.5)


@pytest.mark.parametrize("span, spacing, least", [
    (math.nan, 0.1, 0), (math.inf, 0.1, 0), (-math.inf, 0.1, 0),
    (1.0, math.nan, 0), (1.0, math.inf, 0), (0.0, math.inf, 0),
    (1.0, 0.0, 0), (0.0, -0.1, 0), (-1.0, -0.1, 0),
    (-0.1, 0.1, 0),  # -1 steps
    (0.1, 0.1, 2),  # one step of two
    (0.35, 0.1, 0),  # off the grid
    (5e9, 1.0, 2),  # whole, but past the stride whose rounding is known
    (1.0, 1e-310, 2),  # the stride overflows
])
def test_spacings_rejects_a_grid_it_cannot_verify(span, spacing, least):
    with pytest.raises(ParameterError, match="^span "):
        spacings(span, spacing, "span", least)


def test_spacings_counts_whole_steps():
    assert spacings(1.0, 0.1, "horizon", least=2) == 10
    assert spacings(0.3, 0.1, "window", least=2) == 3  # 2.9999999999999996
    assert spacings(0.0, 0.05, "start_time", least=0) == 0
    assert spacings(4e9, 1.0, "horizon", least=2) == 4e9 < _MAX_STRIDE
    # the tolerance is 1e-6 of a step; rounding alone stays under it
    assert spacings(1e6 + 1e-7, 1.0, "horizon") == 10**6
    with pytest.raises(ParameterError):
        spacings(1e6 + 1e-5, 1.0, "horizon")


@pytest.mark.parametrize("window, start_time", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, 0.0),
    (-0.5, 0.0), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
    (0.5, -0.5),  # used to start from the last samples
])
def test_phase_lock_detector_rejects_a_grid_it_cannot_verify(window,
                                                             start_time):
    traj, _, _ = inertial_run(horizon=2.0, record_every=10, dt=1e-2)
    with pytest.raises(ParameterError, match="^(window|start_time) "):
        phase_lock_detector(traj, window, start_time=start_time)


def test_phase_lock_detector_not_locked_when_short():
    traj, params, top = inertial_run(horizon=2.0, record_every=10)
    report = phase_lock_detector(traj, window=0.5)
    # under five windows there is no ratio to fit
    assert not report.locked
    assert math.isnan(report.rho)


@pytest.mark.parametrize("horizon, match", [
    (0.25, "uniformly spaced"),  # samples 0, 0.1, 0.2 and a ragged 0.25
    (0.02, "at least three samples"),  # samples 0 and 0.02
])
def test_monitors_need_three_uniformly_spaced_samples(horizon, match):
    traj, params, top = inertial_run(horizon=horizon, record_every=10, dt=1e-2)
    with pytest.raises(ParameterError, match=match):
        spread_inequality_residuals(traj, params, top)
    with pytest.raises(ParameterError, match=match):
        phase_lock_detector(traj, window=0.1)


def test_phase_lock_detector_on_identical_frames_is_at_the_floor():
    # with no rotations identical frames stay put: every window change is at
    # the numerical floor, so rho is 0 and the run is locked
    frame = random_stiefel(4, 2, np.random.default_rng(8))
    traj = integrate(np.stack([frame] * 4),
                     ModelParams(kappa=1.0, freqs=zero_freqs(4, 2)),
                     all_to_all(4), IntegratorConfig(1e-2, 2.0, 10))
    report = phase_lock_detector(traj, window=0.2)
    assert report.rho == 0.0
    assert report.locked


def test_spread_inequality_applies_to_the_inertial_model():
    traj, params, top = inertial_run(horizon=0.5)
    first_order = ModelParams(kappa=1.0, freqs=params.freqs)
    with pytest.raises(ParameterError, match="inertial model"):
        spread_inequality_residuals(traj, first_order, top)


def test_the_a_priori_bounds_check_the_agent_count():
    # velocity_ceiling returned sqrt(2) for three agents on a five-agent network
    params = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2))
    with pytest.raises(DimensionError, match="topology is for 5 agents"):
        velocity_ceiling(params, all_to_all(5))
    traj, params, _ = inertial_run(horizon=0.5)
    with pytest.raises(DimensionError, match="topology is for 3 agents"):
        spread_inequality_residuals(traj, params, all_to_all(3))


def test_make_record_first_vs_second_order():
    rng = np.random.default_rng(7)
    states = uniform_states(4, 2, 3, rng)
    params = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2))
    rec = dict(zip(CSV_COLUMNS,
                   make_record(0.0, states, None, params, all_to_all(3), 0.0)))
    assert np.isnan([rec["Dvel"], rec["K"], rec["E"]]).all()
    assert rec["D"] > 0 and rec["L"] > 0

    vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.2)
    params2 = ModelParams(kappa=1.0, freqs=zero_freqs(3, 2), mass=2.0)
    rec2 = dict(zip(CSV_COLUMNS,
                    make_record(0.0, states, vels, params2, all_to_all(3), 0.0)))
    assert rec2["E"] == rec2["K"] + rec2["L"]
    npt.assert_allclose(
        rec2["Dvel"], np.linalg.norm(vels, axis=(1, 2)).max(), rtol=1e-14
    )


def test_write_timeseries_roundtrip(tmp_path):
    traj, params, top = inertial_run(horizon=0.5, record_every=100)
    path = tmp_path / "run.csv"
    write_timeseries(path, traj.table)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# framesync-timeseries v1")
    assert lines[1] == "t,D,Dvel,G,K,L,E,maxDrift"
    rows = list(csv.reader(lines[2:]))
    assert len(rows) == len(traj.table)
    # full-precision roundtrip of the recorded diameter
    got = np.array([float(r[1]) for r in rows])
    npt.assert_array_equal(got, traj.column("D"))


def test_write_timeseries_leaves_first_order_velocity_fields_empty(tmp_path):
    states = clustered_states(4, 2, 5, np.random.default_rng(9), 1.0)
    traj = integrate(states, ModelParams(kappa=1.0, freqs=zero_freqs(5, 2)),
                     all_to_all(5), IntegratorConfig(1e-3, 0.2, 100))
    path = tmp_path / "run.csv"
    write_timeseries(path, traj.table)
    header, *rows = csv.reader(path.read_text().splitlines()[1:])
    assert len(rows) == 3
    for row in rows:
        assert len(row) == 8
        fields = dict(zip(header, row))
        assert fields["Dvel"] == fields["K"] == fields["E"] == ""
        assert all(fields[k] for k in ("t", "D", "G", "L", "maxDrift"))


def test_ensemble_gram_shape():
    rng = np.random.default_rng(8)
    gram = ensemble_gram(uniform_states(5, 3, 4, rng))
    assert gram.shape == (4, 4, 3, 3)
    npt.assert_allclose(gram[1, 1], np.eye(3), atol=1e-14)
    stats = compute_stats(all_to_all(4))
    assert stats.a_min == 1.0


def test_ensemble_gram_over_leading_axes_matches_each_sample():
    rng = np.random.default_rng(10)
    stack = np.stack([uniform_states(5, 3, 4, rng) for _ in range(6)])
    stack = stack.reshape(2, 3, 4, 5, 3)
    grams = ensemble_gram(stack)
    assert grams.shape == (2, 3, 4, 4, 3, 3)
    for i in range(2):
        for j in range(3):
            npt.assert_array_equal(grams[i, j], ensemble_gram(stack[i, j]))
