"""The all-to-all path allocates nothing of size N x N, and a table-only run
keeps no sample stack."""
import tracemalloc

import numpy as np

from framesync import (
    IntegratorConfig,
    ModelParams,
    all_to_all,
    clustered_states,
    compute_stats,
    energy,
    integrate,
    make_tangent_velocity,
    rhs_sphere,
    zero_freqs,
)


def test_all_to_all_path_allocates_no_n_by_n_array():
    count, n, p = 1500, 4, 2
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        states = clustered_states(n, p, count, rng, 1.0)
        top = all_to_all(count)
        stats = compute_stats(top)
        params = ModelParams(kappa=2.0, freqs=zero_freqs(count, p))
        traj = integrate(states, params, top,
                         IntegratorConfig(dt=0.02, horizon=0.04, record_every=1))
        vels = make_tangent_velocity(states, rng.standard_normal(states.shape), 0.1)
        inertial = ModelParams(kappa=2.0, freqs=zero_freqs(count, p), mass=1.0)
        kin, pot, _ = energy(states, vels, inertial, top)
        points = states[:, :, 0]
        sphere = rhs_sphere(points, np.zeros((count, n, n)), top, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.gap > 0.0
    assert len(traj.table) >= 2
    assert kin > 0.0 and pot > 0.0
    assert sphere.shape == points.shape
    # one (N, N) float array alone would reach this
    assert peak < count**2 * 8


def test_table_only_run_keeps_no_sample_stack():
    count, n, p = 1500, 4, 2
    config = IntegratorConfig(dt=0.02, horizon=2.0, record_every=2)
    assert config.samples >= 50
    states = clustered_states(n, p, count, np.random.default_rng(1), 1.0)
    params = ModelParams(kappa=2.0, freqs=zero_freqs(count, p))
    top = all_to_all(count)
    tracemalloc.start()
    try:
        traj = integrate(states, params, top, config, keep_states=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (0, count, n, p)
    assert len(traj.table) == config.samples
    # the (S, N, n, p) stack of recorded states alone would reach this
    assert peak < config.samples * states.nbytes
