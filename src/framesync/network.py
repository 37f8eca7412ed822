"""Interaction networks: symmetric positive weight matrices and their statistics."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .stiefel import _check_square

__all__ = ["Topology", "TopologyStats", "all_to_all", "compute_stats"]


class Topology:
    """Symmetric all-positive coupling weights a_ik for N agents.

    Every pair interacts (a_ik > 0), so the network is complete; the weights
    encode its heterogeneity. Topology(weights) validates and keeps a dense
    (N, N) matrix. all_to_all builds the uniform form, which stores only N
    and the common weight, so nothing on its path holds an (N, N) array.

    uniform is the common weight a when every a_ik equals it, in either
    form, and None otherwise; the kernels take their O(N) branch from it.
    weights is the dense matrix; for the uniform form it is built anew on
    each access.
    """

    __slots__ = ("_count", "_dense", "_uniform")

    def __init__(self, weights):
        w = _check_square(weights, "weights")
        if w.ndim != 2 or w.shape[0] < 1:
            raise DimensionError(f"weights must be (N, N), N >= 1, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ParameterError("weights must be exactly symmetric")
        if np.any(w <= 0.0):
            raise ParameterError("weights must be strictly positive")
        a = float(w.flat[0])
        self._count = w.shape[0]
        self._dense = w
        self._uniform = a if bool(np.all(w == a)) else None

    @property
    def count(self) -> int:
        return self._count

    @property
    def uniform(self) -> float | None:
        return self._uniform

    @property
    def weights(self) -> np.ndarray:
        if self._dense is None:
            return np.full((self._count, self._count), self._uniform)
        return self._dense

    def __repr__(self) -> str:
        if self._dense is None:
            return f"Topology(count={self._count}, uniform={self._uniform!r})"
        return f"Topology(weights={self._dense!r})"


def all_to_all(n_agents: int) -> Topology:
    """Uniform topology with every weight equal to one, stored as a scalar."""
    if n_agents < 1:
        raise DimensionError(f"need at least one agent, got {n_agents}")
    top = Topology.__new__(Topology)
    top._count, top._dense, top._uniform = n_agents, None, 1.0
    return top


@dataclass(frozen=True)
class TopologyStats:
    """Scalar summaries of a weight matrix used by the contraction estimates.

    spread is the largest discrepancy max_{i,j,k} |a_ik - a_jk| between two
    rows in any column; row_avg[i] is the mean weight (1/N) sum_k a_ik; gap
    is the worst-case contraction margin
    a_min - ((N-1)/N) * (a_max + spread), which is positive only for nearly
    uniform weights.
    """

    a_min: float
    a_max: float
    spread: float
    row_avg: np.ndarray = field(repr=False)
    gap: float
    row_avg_constant: bool


def compute_stats(topology: Topology) -> TopologyStats:
    """Summary statistics of the weights: O(N) for uniform weights, else
    O(N^2) despite the triple quantifier."""
    n = topology.count
    a = topology.uniform
    if a is not None:
        a_min = a_max = a
        spread = 0.0
        row_avg = np.full(n, a)
    else:
        w = topology.weights
        a_min = float(w.min())
        a_max = float(w.max())
        # max over (i,j,k) of |a_ik - a_jk| is the largest column range
        spread = float((w.max(axis=0) - w.min(axis=0)).max())
        row_avg = w.mean(axis=1)
    gap = a_min - (n - 1) / n * (a_max + spread)
    constant = bool(row_avg.max() - row_avg.min() <= 1e-14 * max(1.0, a_max))
    return TopologyStats(
        a_min=a_min,
        a_max=a_max,
        spread=spread,
        row_avg=row_avg,
        gap=float(gap),
        row_avg_constant=constant,
    )
