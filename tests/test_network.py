import numpy as np
import numpy.testing as npt
import pytest

from framesync import DimensionError, Topology, all_to_all, compute_stats
from framesync.errors import ParameterError


def brute_stats(weights):
    """Triple-loop reference for the column spread statistic."""
    n = len(weights)
    spread = 0.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                spread = max(spread, weights[i, k] - weights[j, k])
    a_min, a_max = weights.min(), weights.max()
    gap = a_min - (n - 1) / n * (a_max + spread)
    return a_min, a_max, spread, gap


def test_all_to_all():
    top = all_to_all(4)
    npt.assert_array_equal(top.weights, np.ones((4, 4)))
    assert top.count == 4


def test_topology_rejects_bad_weights():
    with pytest.raises(DimensionError):
        Topology(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Topology(np.array([[1.0, 2.0], [3.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Topology(np.array([[1.0, 0.0], [0.0, 1.0]]))  # zero weight
    with pytest.raises(ValueError):
        Topology(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Topology(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_stats_hand_case():
    top = Topology(np.array([[1.0, 2.0], [2.0, 1.0]]))
    stats = compute_stats(top)
    assert stats.a_min == 1.0
    assert stats.a_max == 2.0
    assert stats.spread == 1.0
    # 1 - (1/2)(2 + 1) = -1/2: outside the admissible window
    npt.assert_allclose(stats.gap, -0.5)
    assert stats.row_avg_constant


def test_stats_all_to_all():
    stats = compute_stats(all_to_all(5))
    assert stats.spread == 0.0
    npt.assert_allclose(stats.gap, 1.0 / 5.0)
    assert stats.row_avg_constant
    npt.assert_allclose(stats.row_avg, np.full(5, 1.0))


def test_stats_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(5):
        base = rng.uniform(0.5, 2.0, (6, 6))
        weights = (base + base.T) / 2
        stats = compute_stats(Topology(weights))
        a_min, a_max, spread, gap = brute_stats(weights)
        npt.assert_allclose(
            [stats.a_min, stats.a_max, stats.spread, stats.gap],
            [a_min, a_max, spread, gap],
            rtol=1e-14,
        )


def test_row_average_not_constant():
    top = Topology(np.array([[1.0, 2.0], [2.0, 4.0]]))
    stats = compute_stats(top)
    assert not stats.row_avg_constant
    npt.assert_allclose(stats.row_avg, [1.5, 3.0])


def test_single_agent_topology():
    stats = compute_stats(Topology(np.array([[2.0]])))
    assert stats.spread == 0.0
    npt.assert_allclose(stats.gap, 2.0)


def test_rejects_non_array():
    with pytest.raises((ParameterError, ValueError, DimensionError)):
        Topology(np.array([1.0, 2.0]))


def test_uniform_form_holds_no_matrix():
    top = all_to_all(6)
    assert top.uniform == 1.0
    assert top.count == 6
    # built anew on each access, so nothing (N, N) is kept
    first = top.weights
    npt.assert_array_equal(first, np.ones((6, 6)))
    assert top.weights is not first
    with pytest.raises(DimensionError):
        all_to_all(0)


def test_dense_form_records_uniform_weights():
    assert Topology(np.full((3, 3), 2.5)).uniform == 2.5
    assert Topology(np.array([[1.0, 2.0], [2.0, 1.0]])).uniform is None
    w = np.full((4, 4), 0.7)
    assert Topology(w).weights is not None
    npt.assert_array_equal(Topology(w).weights, w)


@pytest.mark.parametrize("count", [1, 2, 7, 300])
def test_uniform_form_stats_equal_dense_stats(count):
    a = compute_stats(all_to_all(count))
    b = compute_stats(Topology(np.ones((count, count))))
    assert (a.a_min, a.a_max, a.spread, a.gap, a.row_avg_constant) == (
        b.a_min, b.a_max, b.spread, b.gap, b.row_avg_constant)
    npt.assert_array_equal(a.row_avg, b.row_avg)
