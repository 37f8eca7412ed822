"""Scalar monitors, analytic thresholds and certificates for simulation runs.

Everything here is read-only: functions consume (N, n, p) state and velocity
arrays or recorded trajectories and produce numbers that the scenario layer
(and the tests) compare against the model's guarantees.

A sample's diagnostics are one make_record row in CSV_COLUMNS order; the
column names are the only names of its quantities.

G needs no pairs. The frames are flattened into vectors c_i centred on their
mean, and the centred vectors sum to zero, so
G = (1/N^2) sum_{i,j} ||S_i - S_j||^2 = (2/N) sum_i r_i with r_i = ||c_i||^2,
O(N). Nor does the interaction energy (_energies): kappa a G / 2 for uniform
weights a, else one product with the weight matrix. _centred gives each
sample's c_i and r_i once, for G, the diameter and the energy.

The pairwise distances ||S_i - S_j||^2 = r_i + r_j - 2 <c_i, c_j> are needed
only for the diameter. They come from one pass (_pairwise_pass) over row
blocks of _BLOCK agents that takes, within a block, only the pairs i <= j and
reduces each block before the next. Each block is one matrix product of
augmented vectors, rows [c_i, r_i, 1] against columns [-2 c_j, 1, r_j],
whose entries are the d_ij themselves. Its one (_BLOCK, N) buffer is
allocated per call, so no (N, N) array is formed and nothing is kept between
calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, _frames
from .errors import DimensionError, ParameterError
from .network import Topology, compute_stats
from .stiefel import _t

__all__ = [
    "CSV_COLUMNS",
    "make_record",
    "write_timeseries",
    "diameter",
    "g_functional",
    "energy",
    "energy_dissipation_rhs",
    "inter_diameter",
    "LockThresholds",
    "lock_thresholds",
    "gronwall_bound",
    "spread_inequality_residuals",
    "VelocityBoundReport",
    "velocity_bound_check",
    "velocity_ceiling",
    "LockReport",
    "phase_lock_detector",
    "spacings",
    "ensemble_gram",
]

CSV_COLUMNS = ("t", "D", "Dvel", "G", "K", "L", "E", "maxDrift")
CSV_VERSION = "framesync-timeseries v1"

# agents per row block of the pairwise pass
_BLOCK = 64


def _centred(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frames as (N, n p) vectors c_i centred on their mean, and their
    squared norms r_i = ||c_i||^2."""
    n = len(states)
    c = states.reshape(n, -1)
    c = c - np.add.reduce(c, axis=0) / n
    return c, np.einsum("ij,ij->i", c, c)


def _spread(c: np.ndarray, r: np.ndarray) -> float:
    """G = (1/N^2) sum_{i,j} ||c_i - c_j||^2 = (2/N) sum_i r_i, O(N).

    The c_i sum to zero only up to the rounding of their mean; subtracting
    ||sum_i c_i||^2 / N (the corrected two-pass sum of squares of Chan, Golub
    and LeVeque, 1983) removes that rounding, which would otherwise swamp G
    near consensus.
    """
    n = len(c)
    s = np.add.reduce(c, axis=0)
    return max(2.0 * (float(np.sum(r)) - float(s @ s) / n) / n, 0.0)


def _pairwise_pass(c: np.ndarray, r: np.ndarray):
    """The squared distances d_ij = ||c_i - c_j||^2, i <= j, of rows c_i with
    squared norms r_i, reduced over row blocks of _BLOCK agents: returns
    (diameter, pair).

    Centred Gram form: the cancellation error of r_i + r_j - 2 <c_i, c_j> is
    relative to the spread around the centroid, not to ||S_i||^2 = p, so it
    stays small near consensus. With rows [c_i, r_i, 1] and columns
    [-2 c_j, 1, r_j] that whole sum is one inner product, so each block is
    one matrix product. Each d_ij is clamped at 0 and d_ii is exactly 0. The
    pair is the lexicographically smallest (i, j), i <= j, among the largest
    d_ij.
    """
    n = len(c)
    r = r[:, None]
    ones = np.ones((n, 1))
    rows = np.concatenate((c, r, ones), axis=1)
    cols = np.concatenate((-2.0 * c, ones, r), axis=1)
    block = min(n, _BLOCK)
    sq_buf = np.empty(block * n)
    on_or_below = np.tri(block, block, dtype=bool)
    best, pair = 0.0, (0, 0)
    for lo in range(0, n, block):
        # rows lo .. hi-1 against the agents lo .. n-1 (column j is lo + j)
        hi, width = min(lo + block, n), n - lo
        sq = sq_buf[: (hi - lo) * width].reshape(hi - lo, width)
        np.matmul(rows[lo:hi], cols[lo:].T, out=sq)
        np.maximum(sq, 0.0, out=sq)
        # the leading square pairs the block with itself: keep i < j only,
        # which also makes d_ii exactly 0
        sq[:, : hi - lo][on_or_below[: hi - lo, : hi - lo]] = 0.0
        flat = int(np.argmax(sq))
        if lo == 0 or sq.flat[flat] > best:
            best = float(sq.flat[flat])
            i, j = divmod(flat, width)
            pair = (lo + i, lo + j)
    return math.sqrt(best), pair


def _energies(c: np.ndarray, r: np.ndarray, g: float, velocities,
              params: ModelParams, topology: Topology):
    """(K, L, E) of centred rows c_i with squared norms r_i and spread g, K
    and E NaN when velocities is None. For dense symmetric weights A,
    sum_{i,j} a_ij ||c_i - c_j||^2 = 2 r.(A 1) - 2 <C, A C>: one product with
    A, its rounding relative to the r_i, clamped at 0."""
    if topology.uniform is not None:
        pot = 0.5 * params.kappa * topology.uniform * g
    else:
        a = topology.weights
        pot = params.kappa / len(c)**2 * max(
            float(r @ a.sum(axis=1)) - float(np.vdot(c, a @ c)), 0.0)
    if velocities is None:
        return math.nan, pot, math.nan
    kin = params.mass / len(velocities) * float(np.sum(velocities**2))
    return kin, pot, kin + pot


def diameter(states) -> tuple[float, tuple[int, int]]:
    """Largest pairwise Frobenius distance among (N, n, p) states and its
    (i, j) pair, i <= j.

    Ties resolve to the lexicographically smallest pair.
    """
    return _pairwise_pass(*_centred(_frames(states)[0]))


def g_functional(states) -> float:
    """Mean squared spread (1/N^2) sum_{i,j} ||S_i - S_j||_F^2 of (N, n, p)
    states."""
    return _spread(*_centred(_frames(states)[0]))


def ensemble_gram(states: np.ndarray) -> np.ndarray:
    """All relative positions S_i^T S_j of (..., N, n, p) states, shape
    (..., N, N, p, p): one Gram per leading index."""
    return np.einsum("...ius,...jut->...ijst", states, states)


def inter_diameter(states_a: np.ndarray, states_b: np.ndarray) -> float:
    """max_{i,j} ||S_i^T S_j - T_i^T T_j||_F between two (N, n, p) states."""
    if states_a.shape != states_b.shape:
        raise DimensionError("ensembles must have identical shapes")
    diff = ensemble_gram(states_a) - ensemble_gram(states_b)
    return float(np.linalg.norm(diff, axis=(-2, -1)).max())


def energy(states, velocities, params: ModelParams, topology: Topology):
    """Kinetic, interaction and total energy of (N, n, p) states moving with
    velocities.

    kinetic = (m/N) sum_i ||V_i||_F^2,
    interaction = (kappa/2N^2) sum_{i,j} a_ij ||S_i - S_j||_F^2.
    """
    states, velocities = _frames(states, velocities)
    if velocities is None:
        raise ParameterError("energy needs velocities")
    c, r = _centred(states)
    return _energies(c, r, _spread(c, r), velocities, params, topology)


def energy_dissipation_rhs(states, velocities, params: ModelParams) -> float:
    """Exact rate of change of the total energy along the inertial flow, at
    (N, n, p) states moving with velocities:

    -(2 gamma / N) sum_i ||V_i||_F^2
    + (1/N) sum_i tr(V_i^T S_i Xi_i - Xi_i S_i^T V_i)
    """
    s, v = _frames(states, velocities)
    if v is None:
        raise ParameterError("dissipation rate needs velocities")
    n, xi = len(s), params.freqs
    fric = -2.0 * params.friction / n * float(np.sum(v * v))
    drive = np.einsum("ist,its->", _t(v) @ s, xi) - np.einsum(
        "ist,its->", xi, _t(s) @ v
    )
    return fric + float(drive) / n


# --- recorded samples -------------------------------------------------------


def make_record(t: float, states: np.ndarray, velocities: np.ndarray | None,
                params: ModelParams, topology: Topology,
                max_drift: float) -> np.ndarray:
    """One diagnostics row, in CSV_COLUMNS order, NaN in Dvel, K and E when
    velocities is None; the centred rows and their norms are computed once."""
    c, r = _centred(states)
    d, _ = _pairwise_pass(c, r)
    g = _spread(c, r)
    kin, pot, tot = _energies(c, r, g, velocities, params, topology)
    vel_sup = math.nan if velocities is None else float(
        np.linalg.norm(velocities, axis=(-2, -1)).max())
    return np.array([t, d, vel_sup, g, kin, pot, tot, max_drift])


def write_timeseries(path, table) -> None:
    """Write diagnostics rows as CSV with a versioned header comment, every
    digit kept and a NaN (a quantity the model lacks) as an empty field."""
    with open(path, "w") as fh:
        fh.write(f"# {CSV_VERSION}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in table.tolist():
            fh.write(",".join("" if math.isnan(v) else format(v, ".17g")
                              for v in row) + "\n")


# --- locking thresholds -----------------------------------------------------

_R_STAR = math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class LockThresholds:
    """Coupling threshold and the trap radii of the locking estimate.

    alpha < beta are the positive roots of r^3 - 2r + c0 with
    c0 = 2 sqrt(p) freq_sup / (kappa a_min): initial spreads below beta
    contract into the trap region below alpha. lambda_bound is the ceiling
    gap / (2 a_max sqrt(p)) that alpha stays under whenever
    kappa > kappa_star.
    """

    kappa_star: float
    alpha: float
    beta: float
    lambda_bound: float
    kappa_ok: bool


def _bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lock_thresholds(
    p: int,
    a_min: float,
    a_max: float,
    gap: float,
    freq_sup: float,
    kappa: float,
) -> LockThresholds:
    """Solve the cubic threshold data for phase locking.

    Raises ParameterError when the gap window 0 < gap < 8 p a_max^2 fails,
    or when kappa is too weak for the cubic to have positive roots
    (f(sqrt(2/3)) >= 0 with f(r) = r^3 - 2r + c0).
    """
    if p < 1:
        raise ParameterError(f"need p >= 1, got {p}")
    # each test is false for NaN
    if not 0 < a_min <= a_max < math.inf:
        raise ParameterError("need finite 0 < a_min <= a_max")
    if not (0 < kappa < math.inf and 0 <= freq_sup < math.inf):
        raise ParameterError("need finite kappa > 0 and freq_sup >= 0")
    window = 8.0 * p * a_max**2
    if not 0.0 < gap < window:
        raise ParameterError(
            f"gap {gap:.6g} outside the admissible window (0, {window:.6g})"
        )
    kappa_star = (
        16.0 * p**2 * a_max**3 * freq_sup / (a_min * (window * gap - gap**3))
    )
    lambda_bound = gap / (2.0 * a_max * math.sqrt(p))
    kappa_ok = kappa > max(
        math.sqrt(6.0 * p) / 9.0 * freq_sup / a_min, kappa_star
    )
    c0 = 2.0 * math.sqrt(p) * freq_sup / (kappa * a_min)
    if freq_sup == 0.0:
        return LockThresholds(kappa_star, 0.0, math.sqrt(2.0), lambda_bound, kappa_ok)
    f = lambda r: r**3 - 2.0 * r + c0
    f_min = f(_R_STAR)
    if f_min > 0.0:
        raise ParameterError(
            f"kappa {kappa:.6g} too weak: cubic minimum {f_min:.3e} > 0, no trap radii"
        )
    if f_min == 0.0:
        return LockThresholds(kappa_star, _R_STAR, _R_STAR, lambda_bound, kappa_ok)
    alpha = _bisect(f, 0.0, _R_STAR)
    beta = _bisect(lambda r: -f(r), _R_STAR, math.sqrt(2.0))
    return LockThresholds(kappa_star, alpha, beta, lambda_bound, kappa_ok)


# --- damped second-order comparison bound -----------------------------------


def gronwall_bound(a, b, c, eps0, y0, yprime0, t):
    """Upper envelope for nonnegative y with a y'' + b y' + c y <= eps0.

    Returns (bound evaluated at t, asymptotic bound). t may be scalar or an
    array. Overdamped (b^2 > 4ac) and underdamped (b^2 < 4ac) coefficients
    are supported; the critically damped boundary is rejected.
    """
    # each test is false for NaN
    if not all(0 < x < math.inf for x in (a, b, c)):
        raise ParameterError("need finite a, b, c > 0")
    if not (0 <= eps0 < math.inf and 0 <= y0 < math.inf
            and abs(yprime0) < math.inf):
        raise ParameterError("need finite eps0 >= 0, y0 >= 0 and yprime0")
    t = np.asarray(t, dtype=float)
    if not np.all((0 <= t) & (t < math.inf)):
        raise ParameterError("t must be finite and nonnegative")
    disc = b * b - 4.0 * a * c
    if disc == 0.0:
        raise ParameterError("critically damped coefficients are not supported")
    if disc > 0.0:
        root = math.sqrt(disc)
        nu1 = (b + root) / (2.0 * a)
        nu2 = (b - root) / (2.0 * a)
        # the envelope's constant shift: take the conservative value eps0
        shift = eps0
        coef = (a / root) * (yprime0 + nu1 * y0 - 2.0 * eps0 / (b - root))
        bound = (
            eps0 / c
            + (y0 + shift / c) * np.exp(-nu1 * t)
            + coef * (np.exp(-nu2 * t) - np.exp(-nu1 * t))
        )
        limsup = eps0 / c
    else:
        sigma = b / (2.0 * a)
        floor = 4.0 * a * eps0 / (b * b)
        bound = floor + (y0 - floor + (sigma * y0 + yprime0 - 2.0 * eps0 / b) * t) * np.exp(
            -sigma * t
        )
        limsup = floor
    if bound.ndim == 0:
        return float(bound), float(limsup)
    return bound, float(limsup)


# --- trajectory monitors ----------------------------------------------------


def _uniform_spacing(times: np.ndarray) -> float:
    gaps = np.diff(times)
    if len(gaps) < 2:
        raise ParameterError("need at least three samples")
    h = float(gaps[0])
    if np.any(np.abs(gaps - h) > 1e-9 * h):
        raise ParameterError("monitor requires uniformly spaced samples")
    return h


def _centered_diff(vals: np.ndarray, h: float) -> np.ndarray:
    """(v[k+1] - v[k-1]) / 2h at the interior samples of a grid of spacing h."""
    return (vals[2:] - vals[:-2]) / (2.0 * h)


def spread_inequality_residuals(trajectory, params: ModelParams, topology: Topology):
    """Residuals of the damped inequality for the mean squared spread G:

    m G'' + gamma G' + 2 kappa xi G
        <= 16 m Dvel^2 + 8 freq_sup + (16 m sqrt(p) freq_sup / gamma) Dvel

    G'' and G' are centred finite differences on the recorded grid, so the
    residuals carry an O(h^2) error; nonnegativity should be asserted up to
    a tolerance of that size. Returns (interior times, rhs - lhs).
    """
    stats = compute_stats(topology)
    if not stats.row_avg_constant:
        raise ParameterError("inequality requires a constant row average")
    if params.mass <= 0:
        raise ParameterError("inequality applies to the inertial model")
    times = trajectory.times
    h = _uniform_spacing(times)
    g = trajectory.column("G")
    dvel = trajectory.column("Dvel")
    if np.isnan(dvel).any():
        raise ParameterError("monitor needs velocity records (second-order run)")
    xi_avg = float(stats.row_avg[0])
    p = trajectory.states.shape[-1]
    gdot = _centered_diff(g, h)
    gddot = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h**2
    lhs = params.mass * gddot + params.friction * gdot
    lhs += 2.0 * params.kappa * xi_avg * g[1:-1]
    v = dvel[1:-1]
    rhs = (
        16.0 * params.mass * v**2
        + 8.0 * params.freq_sup
        + 16.0 * params.mass * math.sqrt(p) * params.freq_sup / params.friction * v
    )
    return times[1:-1], rhs - lhs


@dataclass(frozen=True)
class VelocityBoundReport:
    bound: float
    sup_observed: float


def velocity_ceiling(params: ModelParams, topology: Topology, p: int) -> float:
    """The a-priori velocity ceiling (freq_sup + kappa a_max sqrt(p)) / gamma."""
    a_max = compute_stats(topology).a_max
    return (params.freq_sup + params.kappa * a_max * math.sqrt(p)) / params.friction


def velocity_bound_check(trajectory, params: ModelParams,
                         topology: Topology) -> VelocityBoundReport:
    """The observed sup_t max_i ||V_i(t)||_F and its a-priori bound

    max( max_i ||V_i(0)||_F, (freq_sup + kappa a_max sqrt(p)) / gamma ),
    for the caller to compare with its own tolerance.
    """
    dvel = trajectory.column("Dvel")
    if np.isnan(dvel).any():
        raise ParameterError("velocity bound applies to second-order runs")
    ceiling = velocity_ceiling(params, topology, trajectory.states.shape[-1])
    return VelocityBoundReport(bound=max(float(dvel[0]), ceiling),
                               sup_observed=float(dvel.max()))


@dataclass
class LockReport:
    """Outcome of windowed relative-position differencing.

    deltas[m] is the largest change of any S_i^T S_j across window m. locked
    requires a fitted geometric ratio below one over at least five windows
    and a final delta at most tol.
    """

    locked: bool
    deltas: np.ndarray
    rho: float
    reason: str = ""


# Above this stride the rounding of span / spacing alone, up to
# stride * 2^-52, exceeds the 1e-6 tolerance (about 4.5e9 steps).
_MAX_STRIDE = 1e-6 / np.finfo(float).eps


def spacings(span: float, spacing: float, name: str, least: int = 1) -> int:
    """How many steps of spacing span covers; the one whole-number-of-steps
    test. ParameterError naming the span unless spacing is finite and
    positive and span / spacing is within 1e-6 of a whole number, at least
    least and at most _MAX_STRIDE."""
    # each test is false for NaN; the bound keeps an infinity from round
    stride = span / spacing if 0 < spacing < math.inf else math.nan
    count = round(stride) if abs(stride) <= _MAX_STRIDE else None
    if count is None or abs(stride - count) > 1e-6 or count < least:
        raise ParameterError(
            f"{name} {span:.12g} must be a whole number of steps of "
            f"{spacing:.12g}, at least {least} and at most {_MAX_STRIDE:.3g}")
    return count


def phase_lock_detector(
    trajectory, window: float, tol: float, start_time: float = 0.0
) -> LockReport:
    """Detect convergence of all relative positions S_i^T S_j.

    Samples the recorded Gram matrices at boundaries start_time + m*window,
    forms the per-window sup-change delta(m), and fits a geometric ratio rho
    by least squares on log delta. Requires the trajectory grid to contain
    the boundaries, start_time >= 0, and at least two windows past it.
    """
    times = trajectory.times
    h = _uniform_spacing(times)
    stride = spacings(window, h, "window", least=2)
    start = spacings(start_time, h, "start_time", least=0)
    idx = list(range(start, len(times), stride))
    if len(idx) < 3:
        raise ParameterError("horizon too short: need at least two windows")
    grams = ensemble_gram(trajectory.states[idx])
    deltas = np.linalg.norm(grams[1:] - grams[:-1], axis=(-2, -1)).max(axis=(-2, -1))
    floor = 1e-13
    usable = np.flatnonzero(deltas > floor)
    if len(usable) == 0:
        locked, rho = bool(deltas[-1] <= tol), 0.0
        reason = "all window changes at numerical floor"
    elif len(deltas) < 5:
        locked, rho, reason = False, float("nan"), "fewer than five windows"
    else:
        # fit on the leading clean stretch, before deltas hit the floor
        last = int(usable[-1]) + 1
        ks = np.arange(last, dtype=float)
        logs = np.log(np.maximum(deltas[:last], floor))
        rho = float(np.exp(np.polyfit(ks, logs, 1)[0]))
        locked = rho < 1.0 and deltas[-1] <= tol
        reason = "" if locked else f"rho={rho:.3g}, final delta={deltas[-1]:.3e}"
    return LockReport(locked=locked, deltas=deltas, rho=rho, reason=reason)
