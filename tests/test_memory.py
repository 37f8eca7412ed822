"""The all-to-all path allocates nothing of size N x N."""
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
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.gap > 0.0
    assert len(traj.table) >= 2
    assert kin > 0.0 and pot > 0.0
    # one (N, N) float array alone would reach this
    assert peak < count**2 * 8
