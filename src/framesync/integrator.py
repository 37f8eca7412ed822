"""Fixed-step RK4 time stepping with orthonormality repair.

The classical Runge-Kutta step is applied to the raw matrix ODE; nothing
inside a step knows about the manifold. integrate validates its tall
(N, n, p) or (B, N, n, p) arrays once, then steps them as one agent-last
stack (see the dynamics module docstring) through the closure built by
dynamics.vector_field; B counts the ensembles stepped together (B = 1 for a
single (N, n, p) run; several runs that share the model, the topology and
the step differ only in their initial data). A record sample is one copy of
the tall (k, B, N, n, p) view of the stack into the (k, B, S, N, n, p)
samples of the call, plus one diagnostics.make_record row per member in a
(B, S, 8) table; each member's Trajectory holds views of both. A table-only
run (keep_states=False) copies every sample into one (k, B, N, n, p) slot
instead, so it holds no sample stack, and its Trajectories hold empty
(0, N, n, p) states. The loop repeats no validation. At every step whose
worst orthonormality drift exceeds _DRIFT_REPAIR (1e-9), every agent, of any
member, whose drift exceeds it is snapped back to the polar factor of its
frame by dynamics._repair, in as many Newton-Schulz steps as _DRIFT_FAIL
needs, and the run aborts if drift ever passes _DRIFT_FAIL (1e-6). A
non-finite state has a non-finite drift, so the same test catches a blow-up;
only a failed test pays for a finiteness pass, which tells BlowUpError from
DriftError. Velocities can go non-finite while the states stay finite, so
the inertial flow checks them at every step too.

The drift is checked once per chunk of steps: the loop writes a few RK4
steps into consecutive slots of one chunk buffer, allocated once per call,
and runs one agent_last_drift over the slots it filled, where the steps
wrote them. The first step that needs a repair or fails is where the run
goes on from, and the chunk's later steps, taken from the unrepaired state,
are discarded and taken again; the per-sample drift window covers the steps
up to that one. So every array, repair count and error is bit for bit that
of a check after every step, at a fraction of its numpy calls. A chunk is one
step at the start and after each repair, doubles after each clean chunk,
never crosses a sample step, and holds at most _CHUNK_BYTES of states, one
step at least, so a large state is checked after every step in a buffer of
one state. Every operation acts on each member's slice alone, so a member's
result is bit-identical to integrating it by itself. Runs are deterministic:
same inputs, same floating-point result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .dynamics import (
    ModelParams,
    _check_compatible,
    _frames,
    _inertial_premise,
    _repair,
    _stack,
    agent_last_drift,
    vector_field,
)
from .errors import BlowUpError, DriftError, ParameterError
from .network import Topology

__all__ = ["IntegratorConfig", "Trajectory", "rk4", "integrate"]


# drift above _DRIFT_REPAIR is repaired and above _DRIFT_FAIL (below 1, see
# _schulz_steps) aborts; every scenario's max_drift <= 1e-8 check rests on them
_DRIFT_REPAIR = 1e-9
_DRIFT_FAIL = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and record spacing of a run."""

    dt: float
    horizon: float
    record_every: int = 100

    def __post_init__(self):
        # the last of at least two steps lands on the horizon
        diagnostics.spacings(self.horizon, self.dt, "horizon", least=2)
        if (isinstance(self.record_every, bool)
                or not isinstance(self.record_every, (int, np.integer))
                or self.record_every < 1):
            raise ParameterError(
                f"record_every must be an integer >= 1, got {self.record_every!r}")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def samples(self) -> int:
        """Recorded samples, 1 + ceil(steps / record_every)."""
        return 1 + -(-self.steps // self.record_every)


@dataclass
class Trajectory:
    """The recorded samples of a run, as arrays.

    states[k] is the (N, n, p) ensemble at sample k, velocities[k] its
    velocities (velocities is None for a first-order run), and table[k] the
    sample's diagnostics row, columns in diagnostics.CSV_COLUMNS order; all
    read-only. A run restarts from sample k as
    integrate(states[k], ..., velocities[k]). A table-only run
    (keep_states=False) has empty (0, N, n, p) states and velocities.
    """

    states: np.ndarray
    velocities: np.ndarray | None
    table: np.ndarray
    repairs: int = 0

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    def column(self, name: str) -> np.ndarray:
        """One diagnostics column across all samples, NaN where undefined."""
        if name not in diagnostics.CSV_COLUMNS:
            raise ParameterError(f"unknown column {name!r}; the columns are "
                                 f"{', '.join(diagnostics.CSV_COLUMNS)}")
        return self.table[:, diagnostics.CSV_COLUMNS.index(name)]

    @property
    def max_drift(self) -> float:
        return float(self.column("maxDrift").max())


def rk4(f, y: np.ndarray, dt: float, out: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(y) on a plain array, written into
    out (which may be y itself) when given.

    f must return a new array on every call: the step sums the stages into
    the second one in place.
    """
    half = 0.5 * dt
    k1 = f(y)
    k2 = f(y + half * k1)
    k3 = f(y + half * k2)
    k4 = f(y + dt * k3)
    # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), with no temporaries
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    return np.add(k2, y, out=k2 if out is None else out)


def _schulz_steps(bound: float) -> int:
    """Newton-Schulz steps that bring every frame of drift at most bound < 1
    to the manifold, to rounding.

    A step maps each eigenvalue 1 - d of S^T S to one within d^2 (3 + |d|) / 4
    of 1, and the drift, a Frobenius norm, bounds every |d|. Iterating that
    bound from bound until it falls below 2^-53 gives one count for every
    agent, at least 1: 2 steps at bound 1e-6, 3 at 1e-3.
    """
    steps, delta = 0, bound
    while delta >= 2.0**-53:
        delta = delta * delta * (3.0 + delta) / 4.0
        steps += 1
    return max(steps, 1)


# The chunk buffer, which holds one chunk's states until its drift check,
# stays within this many bytes: hundreds of steps at small N, where
# a step's cost is numpy's per-call overhead and one check per chunk saves
# most of the monitor's share, and one step for any state over half of it,
# such as N = 10^4 frames of 4 x 2, so a large run holds no more states than
# a check after every step would.
_CHUNK_BYTES = 1 << 20


def _worst_agent(drifts: np.ndarray) -> int:
    """Index, within its member, of the agent with the largest drift."""
    return int(np.argmax(drifts)) % drifts.shape[-1]


def integrate(
    states,
    params: ModelParams,
    topology: Topology,
    config: IntegratorConfig,
    velocities=None,
    keep_states: bool = True,
) -> Trajectory | list[Trajectory]:
    """Run the flow over the configured horizon: the inertial one when
    velocities are given.

    states is one ensemble (N, n, p), giving one Trajectory, or a stack
    (B, N, n, p) of B ensembles that share params, topology and config,
    giving a list of B Trajectories; velocities has the shape of states.
    The members are stepped together, and each Trajectory is bit-identical
    to integrating its member alone. A drift or blow-up failure in any
    member aborts the whole call.

    Samples are recorded at t=0, every record_every-th step, and at the final
    step. The per-sample max_drift is the largest pre-repair drift seen since
    the previous sample. With keep_states=False only the table is kept: each
    Trajectory's states (and velocities) are empty (0, N, n, p) arrays, and
    no sample stack is allocated.
    """
    states, velocities = _frames(batch=True, states=states, velocities=velocities)
    single = states.ndim == 3
    if single:
        states = states[None]
        velocities = None if velocities is None else velocities[None]
    _check_compatible(states, params, topology)
    y = _stack(states, velocities)
    drifts = agent_last_drift(y[0])
    if np.max(drifts) > _DRIFT_REPAIR:
        raise DriftError(0.0, _worst_agent(drifts), float(np.max(drifts)))
    inertial = velocities is not None
    if inertial:
        _inertial_premise(states, velocities, params)
    f = vector_field(params, topology, inertial)

    dt = config.dt
    n_steps = config.steps
    every = config.record_every
    members = len(states)
    # a table-only run copies every sample into the one slot it keeps: on the
    # strided view itself make_record's sums can round differently
    samples = np.empty((len(y), members, config.samples if keep_states else 1)
                       + states.shape[1:])
    table = np.empty((members, config.samples, len(diagnostics.CSV_COLUMNS)))

    def sample(k, y, window):
        # step k is sample ceil(k / every)
        s = (k + every - 1) // every
        slot = s if keep_states else 0
        samples[:, :, slot] = y.swapaxes(-1, -3)
        for b in range(members):
            table[b, s] = diagnostics.make_record(
                k * dt, samples[0, b, slot],
                samples[1, b, slot] if inertial else None,
                params, topology, float(window[b].max()))

    sample(0, y, drifts)
    repairs = np.zeros(members, dtype=int)
    window = np.zeros_like(drifts)  # per-agent max drift since the last sample
    repair_steps = _schulz_steps(_DRIFT_FAIL)
    longest = max(1, _CHUNK_BYTES // y.nbytes)
    # step i of a chunk goes to slot i; the state a chunk starts from may sit
    # in any slot, and the chunk's first step may overwrite it
    buffer = np.empty((min(longest, every, n_steps),) + y.shape)

    k, length = 0, 1
    # an overflow ends in a non-finite state, reported as BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            # a chunk ends at the next sample step at the latest
            taken = min(length, n_steps - k, every - k % every)
            for i in range(taken):
                y = rk4(f, y, dt, out=buffer[i])
            chunk = buffer[:taken]
            drifts = agent_last_drift(chunk[:, 0])
            worst = drifts.max(axis=(1, 2))
            # the first step that a per-step check would act on; a non-finite
            # drift fails this test too (see the module docstring)
            act = ~(worst <= _DRIFT_REPAIR)
            if inertial:
                act |= ~np.isfinite(chunk[:, 1]).all(axis=(1, 2, 3, 4))
            hits = np.flatnonzero(act)
            j = int(hits[0]) if len(hits) else taken - 1
            # go on from step j: the later ones are discarded
            k += j + 1
            y = chunk[j]
            np.maximum(window, drifts[:j + 1].max(axis=0), out=window)
            if len(hits):
                drifts, worst = drifts[j], float(worst[j])
                if not worst <= _DRIFT_FAIL or (
                        inertial and not np.isfinite(y[1]).all()):
                    if not np.isfinite(y).all():
                        raise BlowUpError(
                            f"non-finite state at t={k * dt:.6g}; reduce dt, or "
                            "bring m, gamma, kappa and the rotations into range")
                    raise DriftError(k * dt, _worst_agent(drifts), worst)
                repairs += _repair(y, drifts, _DRIFT_REPAIR, repair_steps)
                length = 1
            else:
                length = min(2 * length, longest)
            if k % every == 0 or k == n_steps:
                sample(k, y, window)
                window.fill(0.0)

    if not keep_states:
        samples = samples[:, :, :0]
    # every Trajectory is views of these, so no caller may write one
    samples.flags.writeable = table.flags.writeable = False
    trajs = [
        Trajectory(samples[0, b], samples[1, b] if inertial else None,
                   table[b], int(repairs[b]))
        for b in range(members)
    ]
    return trajs[0] if single else trajs
