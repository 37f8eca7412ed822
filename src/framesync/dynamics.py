"""Right-hand sides of the frame consensus flows.

First-order model for agent i with frame S_i, natural rotation Xi_i (p x p
antisymmetric) and coupling strength kappa over weights a_ik:

    dS_i/dt = S_i Xi_i
              + (kappa/N) sum_k a_ik [S_k - (S_i S_i^T S_k + S_i S_k^T S_i)/2]

Second-order (inertial) model with mass m and friction gamma:

    m d2S_i/dt2 = -m S_i (dS_i^T dS_i) - gamma dS_i + S_i Xi_i
                  + (m/gamma) (2 dS_i Xi_i - S_i Xi_i S_i^T dS_i
                               + S_i dS_i^T S_i Xi_i)
                  + same coupling sum as first order

Both flows keep S_i^T S_i = I_p invariant; the second-order flow additionally
preserves tangency of the velocity when it holds initially.

The flows are stepped, drift-checked and repaired on one C-contiguous
agent-last stack (k, B, p, n, N), y[l, b, a, j, i] = (S_i)[j, a] of member
b: k = 1 holds the states and k = 2 states and velocities, and B counts the
ensembles stepped together, which share the model (the rhs_* functions step
one ensemble, with no B axis). F_i = S_i^T sits with the agent index as the
last, contiguous axis, so each ensemble's frames are p blocks of shape
(n, N) and every per-agent p x p factor is a (p, p, N) array. With uniform
weights the pooled sum is one GEMV and S_i^T P for all agents p GEMMs; every
other per-agent product is one einsum over N, with no BLAS call per agent
and no transposing copy, and the flow's p x p factors (the coupling's
-sym(S_i^T P), Xi_i, the inertial terms) are summed before one product with
F. _stack is the one conversion from tall frames to the stack; the tall
(k, B, N, n, p) view back is the same self-inverse swap, y.swapaxes(-1, -3).
On the stack vector_field gives the field, agent_last_drift the
orthonormality drift and _repair the snap back to the manifold. Frames
outside the stack are plain tall (N, n, p) arrays, or (B, N, n, p) stacks of
B ensembles where integrate takes a batch; _frames checks them at every
public boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, TangencyError
from .network import Topology
from .stiefel import (
    _check_matrix,
    _check_square,
    _identity,
    _t,
    exp_skew,
    project_tangent,
    skew,
    tangency_defect,
)

__all__ = [
    "ModelParams",
    "zero_freqs",
    "rhs_first_order",
    "rhs_second_order",
    "vector_field",
    "agent_last_drift",
    "reduced_velocity",
    "rhs_sphere",
    "rhs_kuramoto",
    "rhs_so_n",
    "split_transform",
    "make_tangent_velocity",
]


def _frames(batch=False, **arrays):
    """The keyword arrays, in order, as finite float arrays of the first
    one's shape, checked: (N, n, p) with N >= 1 tall frames, or with batch
    also (B, N, n, p), B >= 1 such ensembles. A later array may be None."""
    (key, s), *rest = arrays.items()
    s = _check_matrix(s, key)
    if s.ndim not in ((3, 4) if batch else (3,)) or min(s.shape[:-2]) < 1:
        form = "(N, n, p) or (B, N, n, p)" if batch else "(N, n, p)"
        raise DimensionError(
            f"{key} must be {form} with N >= 1, got shape {s.shape}")
    if s.shape[-2] < s.shape[-1] or s.shape[-1] < 1:
        raise DimensionError(f"frames must be tall, got {s.shape[-2]}x{s.shape[-1]}")
    checked = [s]
    for name, x in rest:
        x = x if x is None else _check_matrix(x, name)
        if x is not None and x.shape != s.shape:
            raise DimensionError(f"{name} shape {x.shape} must match {key} {s.shape}")
        checked.append(x)
    return checked


def _inertial_premise(states, velocities, params: ModelParams):
    """Raise unless the inertial flow applies to the checked (..., N, n, p)
    frames: mass > 0, velocities given, and each ensemble's velocities V
    tangent, with a tangency defect of at most 1e-9 max(1, ||V||_F)."""
    if params.mass <= 0:
        raise ParameterError("second-order flow needs mass > 0")
    if velocities is None:
        raise ParameterError("second-order flow needs velocities")
    defect = tangency_defect(velocities, states).max(axis=-1)
    flat = velocities.reshape(velocities.shape[:-3] + (-1,))
    tol = 1e-9 * np.maximum(1.0, np.linalg.norm(flat, axis=-1))
    if not np.all(defect <= tol):
        raise TangencyError(f"velocity tangency defect {np.max(defect):.3e} "
                            "exceeds 1e-9 max(1, ||V||)")


def zero_freqs(n_agents: int, p: int) -> np.ndarray:
    """All-zero natural rotations, the homogeneous ensemble."""
    return np.zeros((n_agents, p, p))


@dataclass
class ModelParams:
    """Coupling strength, inertia and per-agent natural rotations.

    freqs has shape (N, p, p) and every slice must be antisymmetric. mass is
    ignored by the first-order flow; friction enters only the inertial one.
    freq_sup, the largest Frobenius norm among the natural rotations, is
    computed once from freqs.
    """

    kappa: float
    freqs: np.ndarray
    mass: float = 0.0
    friction: float = 1.0
    freq_sup: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each test is false for NaN, so a non-finite value is rejected
        if not 0 <= self.kappa < np.inf:
            raise ParameterError(
                f"kappa must be finite and nonnegative, got {self.kappa}")
        if not 0 <= self.mass < np.inf:
            raise ParameterError(
                f"mass must be finite and nonnegative, got {self.mass}")
        if not 0 < self.friction < np.inf:
            raise ParameterError(
                f"friction must be finite and positive, got {self.friction}")
        f = _check_square(self.freqs, "freqs")
        if f.ndim != 3 or len(f) < 1:
            raise DimensionError(f"freqs must be (N, p, p), N >= 1, got {f.shape}")
        defect = np.linalg.norm(f + _t(f), axis=(-2, -1)).max()
        if not defect <= 1e-12 * max(1.0, float(np.abs(f).max())):
            raise ParameterError(f"freqs must be antisymmetric (defect {defect:.3e})")
        self.freqs = f
        self.freq_sup = float(np.linalg.norm(f, axis=(-2, -1)).max())


def _check_agents(topology: Topology, n_agents: int, kappa: float):
    """The topology is for n_agents agents, and the coupling kappa is finite."""
    if topology.count != n_agents:
        raise DimensionError(
            f"topology is for {topology.count} agents, ensemble has {n_agents}"
        )
    if not abs(kappa) < np.inf:
        raise ParameterError(f"kappa must be finite, got {kappa}")


def _check_compatible(states: np.ndarray, params: ModelParams,
                      topology: Topology):
    """The model fits the (..., N, n, p) states: N agents of width p."""
    n_agents, width = states.shape[-3], states.shape[-1]
    _check_agents(topology, n_agents, params.kappa)
    if params.freqs.shape[0] != n_agents or params.freqs.shape[1] != width:
        raise DimensionError(
            f"freqs shape {params.freqs.shape} incompatible with "
            f"{n_agents} frames of width {width}"
        )


# Per-agent products on agent-last blocks, (..., r, s, N) by (..., s, c, N)
# or the transposes the names say, each one einsum over all agents: it sums
# products along the long N axis in C, with no call per agent.
_PRODUCT = "...rsN,...scN->...rcN"  # X_i Y_i
_GRAM = "...rcN,...scN->...rsN"  # X_i Y_i^T
_TN_PRODUCT = "...srN,...scN->...rcN"  # X_i^T Y_i
_SQUARES = "...rsN,...rsN->...N"  # ||X_i||_F^2
# a uniform pooled slice (..., p, n, 1) as the (..., 1, p, n) left operand
# of the GEMMs against each (n, N) block of the frames
_POOLED = (Ellipsis, None, slice(None), slice(None), 0)
# np.einsum without its __array_function__ dispatch, which costs about as
# much as the contraction on a few agents; every operand here is an ndarray
_einsum = getattr(np.einsum, "_implementation", np.einsum)


def _stack(states: np.ndarray, velocities: np.ndarray | None = None) -> np.ndarray:
    """(..., N, n, p) states, and velocities, as one new agent-last stack
    (k, ..., p, n, N): k = 1 holds the states, k = 2 states and
    velocities."""
    return np.array([x.swapaxes(-1, -3) for x in (states, velocities)
                     if x is not None])


def agent_last_drift(a):
    """Frobenius norm of S_i^T S_i - I_p for agent-last frames, per agent.

    a holds F_i = S_i^T with the agent axis last, shape (..., p, n, N); the
    result has shape (..., N). It computes what stiefel.frame_drift computes
    on the tall frames, to a few ulp, as two sums over N instead of one Gram
    per agent. A non-finite frame has a non-finite drift.
    """
    gram = _einsum(_GRAM, a, a)
    gram -= _identity(a.shape[-3])[:, :, None]
    return np.sqrt(_einsum(_SQUARES, gram, gram))


def _repair(y: np.ndarray, drifts: np.ndarray, tol: float,
            steps: int) -> np.ndarray:
    """Snap agents whose drift exceeds tol back to the manifold; returns how
    many were touched in each member (drifts has y's agent axes, the last one
    the agent index).

    y is the agent-last (k, B, p, n, N) stack. steps Newton-Schulz steps,
    F <- (3I - F F^T) F / 2, the transpose of X <- X (3I - X^T X) / 2
    (Bjorck and Bowie 1971; Higham 1986), taken as F + (I - F F^T) F / 2, run
    on the whole stack as einsums over N; they converge to the polar factor,
    the frame retract_polar gives. Velocities are re-projected onto the new
    tangent spaces, W <- W - sym(F W^T) F. Only the drifted agents are
    written back. Every agent takes the same arithmetic, so a member's result
    does not depend on the other members.
    """
    bad = drifts > tol
    where = bad[..., None, None, :]
    eye = _identity(y.shape[-3])[:, :, None]
    f = y[0]
    for _ in range(steps):
        half_defect = eye - _einsum(_GRAM, f, f)
        half_defect *= 0.5
        f = f + _einsum(_PRODUCT, half_defect, f)
    np.copyto(y[0], f, where=where)
    if len(y) == 2:
        sym = _einsum(_GRAM, f, y[1])
        sym += sym.swapaxes(-3, -2)
        sym *= 0.5
        np.copyto(y[1], y[1] - _einsum(_PRODUCT, sym, f), where=where)
    return bad.sum(axis=-1)


def _pooled_sum(topology: Topology, scale: float = 1.0):
    """The scaled neighbour sum X -> (scale sum_k a_ik X_k)_i over the last,
    agent, axis.

    X has shape (..., r, c, N); leading axes are independent ensembles. For
    uniform weights a (Topology.uniform) the sum is one GEMV of X against the
    weight vector (scale a, ..., scale a), returned as an O(N) (..., r, c, 1)
    slice that broadcasts against X. Other weights take one product of X,
    seen as (..., r c, N), with the transposed (N, N) matrix.
    """
    n_agents = topology.count
    if topology.uniform is None:
        weights_t = (scale * topology.weights).T.copy()
        return lambda x: (
            x.reshape(*x.shape[:-3], -1, n_agents) @ weights_t
        ).reshape(x.shape)
    w = np.full((n_agents, 1), scale * topology.uniform)
    return lambda x: x @ w


def _coupling(topology: Topology, scale: float):
    """The coupling on agent-last frames a, F_i = S_i^T in a[..., :, :, i],
    as a closure coupling(a, extra=None, out=None) -> Q_i + (H_i + extra_i) F_i.

    scale sum_k a_ik [S_k - (S_i S_i^T S_k + S_i S_k^T S_i)/2], transposed,
    is Q_i + H_i F_i with Q_i = P_i^T for the weighted neighbour sum P_i and
    H_i = -sym(S_i^T P_i). A flow adds its own p x p factors of F as extra
    (agent-last, (..., p, p, N)), so one product serves them all; out
    receives it. With uniform weights every P_i is one P, and S_i^T P for
    all agents is p GEMMs of P^T against the (n, N) blocks of a; other
    weights take the Gram of a against the pooled sums. The product
    (H_i + extra_i) F_i is one einsum.
    """
    pool = _pooled_sum(topology, scale)
    uniform = topology.uniform is not None

    def coupling(a, extra=None, out=None):
        q = pool(a)
        if uniform:
            g = (-0.5 * q)[_POOLED] @ a
        else:
            g = _einsum(_GRAM, a, -0.5 * q)
        h = g + g.swapaxes(-3, -2)
        if extra is not None:
            h += extra
        dy = _einsum(_PRODUCT, h, a, out=out)
        dy += q
        return dy

    return coupling


def vector_field(params: ModelParams, topology: Topology, inertial: bool):
    """The flow as a closure f(y) -> dy/dt on the agent-last stack (see the
    module docstring), built once.

    y and dy/dt are (1, ..., p, n, N), the states, for the first-order flow
    and (2, ..., p, n, N), states and velocities, for the inertial one; y
    must be C-contiguous (see _coupling). Constants are folded in here, so
    the closure validates nothing: check shapes (and mass > 0 for the
    inertial flow) before calling it. The Xi_i terms are skipped when every
    Xi_i is zero.

    The inertial flow runs at 5 and 10 agents in its scenarios, where each
    call's fixed cost outweighs its arithmetic, so its products are merged
    only where that needs no copy: S^T V and V^T V are one einsum of the
    stack against V. Stacking the other factors to merge their products
    would cost more in copies than the calls it saves.
    """
    n_agents = topology.count
    # transposed, S Xi becomes Xi^T F: every Xi term is a p x p factor of F,
    # stored agent-last
    xi_t = (params.freqs.transpose(2, 1, 0).copy()
            if np.any(params.freqs) else None)
    if not inertial:
        # y holds only states, so the field acts on it whole
        coupling = _coupling(topology, params.kappa / n_agents)
        if xi_t is None:
            return coupling
        return lambda y: coupling(y, xi_t)

    m, gamma = params.mass, params.friction
    # the force divided by m: every constant carries the 1/m
    coupling = _coupling(topology, params.kappa / (n_agents * m))
    damping = gamma / m
    if xi_t is not None:
        xi_m, xi_g = xi_t / m, xi_t / gamma
        # friction and 2 V Xi / gamma, transposed, as one p x p factor of V^T
        eye = _identity(params.freqs.shape[-1])[:, :, None]
        drag = (2.0 / gamma) * xi_t - damping * eye

    def second_order(y):
        f, w = y
        # the transpose of the tall flow's factor of S, -V^T V + Xi/m
        # + (S^T V)^T Xi/g - (Xi/g) S^T V, as a factor of F
        if xi_t is None:
            inner = _einsum(_GRAM, w, -w)
        else:
            # S^T V and V^T V as one product of the stack against V
            grams = _einsum(_GRAM, y, w)
            inner = xi_m - grams[1]
            inner += _einsum(_PRODUCT, xi_g, grams[0])
            inner -= _einsum(_TN_PRODUCT, grams[0], xi_g)
        out = np.empty_like(y)
        out[0] = w
        accel = coupling(f, inner, out[1])
        if xi_t is None:
            accel -= damping * w
        else:
            accel += _einsum(_PRODUCT, drag, w)
        return out

    return second_order


def rhs_first_order(states, params: ModelParams, topology: Topology):
    """Time derivative of the (N, n, p) states under the first-order flow,
    shape (N, n, p)."""
    (states,) = _frames(states=states)
    _check_compatible(states, params, topology)
    field = vector_field(params, topology, inertial=False)
    return field(_stack(states))[0].swapaxes(-1, -3)


def rhs_second_order(states, velocities, params: ModelParams,
                     topology: Topology):
    """Velocities and accelerations under the inertial flow, each (N, n, p).

    Requires mass > 0 (use rhs_first_order for the massless model) and
    velocities that satisfy the tangency constraint.
    """
    states, velocities = _frames(states=states, velocities=velocities)
    _check_compatible(states, params, topology)
    _inertial_premise(states, velocities, params)
    field = vector_field(params, topology, inertial=True)
    accel = field(_stack(states, velocities))[1]
    return velocities, accel.swapaxes(-1, -3)


def reduced_velocity(states, params: ModelParams, topology: Topology):
    """S_i^T dS_i/dt of the first-order flow, one antisymmetric p x p per agent:

    Xi_i + (kappa/2N) sum_k a_ik (S_i^T S_k - S_k^T S_i)
    """
    (states,) = _frames(states=states)
    _check_compatible(states, params, topology)
    pooled = _pooled_sum(topology)(states.T).T
    return params.freqs + (params.kappa / len(states)) * skew(_t(states) @ pooled)


def rhs_sphere(points, omegas, topology: Topology, kappa: float):
    """Unit-sphere consensus field: Omega_i x_i + (I - x_i x_i^T) local average.

    points has shape (N, n), omegas (N, n, n) antisymmetric. Uses the same
    kappa/N weighting as the frame model, whose p=1 case it reproduces.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"points must be (N, n), got shape {x.shape}")
    x = _frames(points=x[:, :, None])[0][:, :, 0]  # as p = 1 frames
    w = _check_matrix(omegas, "omegas")
    if w.shape != (x.shape[0], x.shape[1], x.shape[1]):
        raise DimensionError(f"omegas shape {w.shape} incompatible with {x.shape}")
    _check_agents(topology, x.shape[0], kappa)
    pooled = _pooled_sum(topology, kappa / x.shape[0])(x.T).T
    spin = np.einsum("iab,ib->ia", w, x)
    return spin + pooled - x * np.sum(x * pooled, axis=1, keepdims=True)


def rhs_kuramoto(angles, rates, topology: Topology, kappa: float):
    """Classic phase model with kappa/N weighting:

    dtheta_i/dt = nu_i + (kappa/N) sum_j a_ij sin(theta_j - theta_i)
    """
    th = np.asarray(angles, dtype=float)
    nu = np.asarray(rates, dtype=float)
    if th.ndim != 1 or nu.shape != th.shape:
        raise DimensionError("angles and rates must be equal-length vectors")
    th, nu = _check_matrix([th], "angles")[0], _check_matrix([nu], "rates")[0]
    _check_agents(topology, th.shape[0], kappa)
    n_agents = th.shape[0]
    diff = np.sin(th[None, :] - th[:, None])
    # a uniform weight scales each term exactly as the dense matrix would
    w = topology.weights if topology.uniform is None else topology.uniform
    return nu + (kappa / n_agents) * np.sum(w * diff, axis=1)


def rhs_so_n(rotations, omegas, topology: Topology, kappa: float):
    """Consensus field on the rotation group:

    dR_i/dt = Omega_i R_i + (kappa/N) sum_j a_ij R_i skew(R_i^T R_j)
    """
    r, w = _frames(rotations=rotations, omegas=omegas)
    if r.shape[1] != r.shape[2]:
        raise DimensionError(f"rotations must be (N, n, n), got shape {r.shape}")
    _check_agents(topology, r.shape[0], kappa)
    pooled = _pooled_sum(topology)(r.T).T
    return w @ r + (kappa / r.shape[0]) * (r @ skew(_t(r) @ pooled))


def split_transform(states, xi, t: float, order: int, friction: float = 1.0):
    """Right-translate an ensemble by the rotation that absorbs a common Xi.

    For order 1 returns S_i e^{t Xi}; a homogeneous-flow solution translated
    this way solves the flow with common rotation Xi. For order 2 the
    absorbing rotation is e^{(t/gamma) Xi}.
    """
    (s,) = _frames(batch=True, states=states)
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    # false for NaN, so a non-finite friction is rejected
    if order == 2 and not 0 < friction < np.inf:
        raise ParameterError(f"friction must be finite and positive, got {friction}")
    rate = 1.0 if order == 1 else 1.0 / friction
    return s @ exp_skew(xi, rate * t)


def make_tangent_velocity(states, raw, scale: float = 1.0):
    """Admissible velocities: scale * tangent projection of raw, per agent."""
    s = _check_matrix(states, "states")
    r = _check_matrix(raw, "raw")
    if r.shape != s.shape:
        raise DimensionError(f"raw shape {r.shape} must match states {s.shape}")
    if not abs(scale) < np.inf:
        raise ParameterError(f"scale must be finite, got {scale}")
    return scale * project_tangent(r, s)
