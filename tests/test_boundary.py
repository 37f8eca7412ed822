"""The library boundary as a property: every function that takes frames,
vectors or a coupling rejects a non-finite entry with ParameterError naming
the argument, and a wrong shape with DimensionError, and never warns.

frame_drift and agent_last_drift pass non-finite frames through on purpose;
their tests are in test_stiefel.py and test_dynamics.py.
"""
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesync import (
    DimensionError,
    IntegratorConfig,
    ModelParams,
    ParameterError,
    all_to_all,
    diameter,
    energy,
    energy_dissipation_rhs,
    ensemble_gram,
    g_functional,
    integrate,
    inter_diameter,
    make_tangent_velocity,
    project_tangent,
    random_skew,
    random_stiefel,
    reduced_velocity,
    retract_polar,
    rhs_first_order,
    rhs_kuramoto,
    rhs_second_order,
    rhs_so_n,
    rhs_sphere,
    split_transform,
    tangency_defect,
)


def world(seed, count, n, p):
    """Valid inputs of every kind for count agents of n x p frames."""
    rng = np.random.default_rng(seed)
    states = np.stack([random_stiefel(n, p, rng) for _ in range(count)])
    raw = rng.standard_normal(states.shape)
    freqs = np.stack([random_skew(p, 0.3, rng) for _ in range(count)])
    spins = np.stack([random_skew(n, 0.3, rng) for _ in range(count)])
    return SimpleNamespace(
        states=states,
        other=np.stack([random_stiefel(n, p, rng) for _ in range(count)]),
        raw=raw,
        velocities=make_tangent_velocity(states, raw, 0.5),
        points=states[:, :, 0].copy(),
        rotations=np.stack([random_stiefel(n, n, rng) for _ in range(count)]),
        spins=spins,
        angles=rng.uniform(-np.pi, np.pi, count),
        rates=rng.standard_normal(count),
        xi=random_skew(p, 1.0, rng),
        first=ModelParams(kappa=1.0, freqs=freqs),
        inertial=ModelParams(kappa=1.0, freqs=freqs, mass=1.0),
        top=all_to_all(count),
    )


def drop_column(x):
    return x[..., :-1]


def drop_agents(x):
    return x[0]


def drop_two_axes(x):
    return x[0, 0]


CONFIG = IntegratorConfig(0.01, 0.02)
# name: (function, its keyword arguments from a world, and the argument and
# the reshaping that make the call's shapes wrong). Every ndarray or float
# argument is one the property poisons.
CASES = {
    "rhs_sphere": (rhs_sphere, lambda w: dict(
        points=w.points, omegas=w.spins, topology=w.top, kappa=1.3),
        ("omegas", drop_column)),
    "rhs_so_n": (rhs_so_n, lambda w: dict(
        rotations=w.rotations, omegas=w.spins, topology=w.top, kappa=0.7),
        ("omegas", drop_column)),
    "rhs_kuramoto": (rhs_kuramoto, lambda w: dict(
        angles=w.angles, rates=w.rates, topology=w.top, kappa=1.9),
        ("rates", drop_column)),
    "split_transform": (split_transform, lambda w: dict(
        states=w.states, xi=w.xi, t=2.0, order=1),
        ("states", drop_agents)),
    "split_transform_inertial": (split_transform, lambda w: dict(
        states=w.states, xi=w.xi, t=2.0, order=2, friction=1.5),
        ("states", drop_agents)),
    "inter_diameter": (inter_diameter, lambda w: dict(
        states_a=w.states, states_b=w.other),
        ("states_b", drop_column)),
    "make_tangent_velocity": (make_tangent_velocity, lambda w: dict(
        states=w.states, raw=w.raw, scale=0.5),
        ("raw", drop_column)),
    "ensemble_gram": (ensemble_gram, lambda w: dict(states=w.states),
                      ("states", drop_agents)),
    "project_tangent": (project_tangent, lambda w: dict(x=w.raw, s=w.states),
                        ("x", drop_column)),
    "tangency_defect": (tangency_defect, lambda w: dict(
        v=w.velocities, s=w.states),
        ("v", drop_column)),
    "retract_polar": (retract_polar, lambda w: dict(x=w.states + 0.1 * w.raw),
                      ("x", drop_two_axes)),
    "rhs_first_order": (rhs_first_order, lambda w: dict(
        states=w.states, params=w.first, topology=w.top),
        ("states", drop_agents)),
    "reduced_velocity": (reduced_velocity, lambda w: dict(
        states=w.states, params=w.first, topology=w.top),
        ("states", drop_agents)),
    "rhs_second_order": (rhs_second_order, lambda w: dict(
        states=w.states, velocities=w.velocities, params=w.inertial,
        topology=w.top),
        ("velocities", drop_column)),
    "integrate": (integrate, lambda w: dict(
        states=w.states, velocities=w.velocities, params=w.inertial,
        topology=w.top, config=CONFIG),
        ("velocities", drop_column)),
    "diameter": (diameter, lambda w: dict(states=w.states),
                 ("states", drop_agents)),
    "g_functional": (g_functional, lambda w: dict(states=w.states),
                     ("states", drop_agents)),
    "energy": (energy, lambda w: dict(
        states=w.states, velocities=w.velocities, params=w.inertial,
        topology=w.top),
        ("velocities", drop_column)),
    "energy_dissipation_rhs": (energy_dissipation_rhs, lambda w: dict(
        states=w.states, velocities=w.velocities, params=w.inertial),
        ("velocities", drop_column)),
}


def poisonable(kwargs):
    return sorted(k for k, v in kwargs.items()
                  if isinstance(v, (np.ndarray, float)))


def call(name, kwargs):
    """The case's function on kwargs, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CASES[name][0](**kwargs)


sizes = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
                  st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), size=sizes, data=st.data(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_one_non_finite_entry_is_a_parameter_error_naming_it(
        name, size, data, bad):
    count, n, p, seed = size
    kwargs = CASES[name][1](world(seed, count, n, min(p, n)))
    call(name, kwargs)  # the valid inputs pass
    # each argument in turn, so a drawn case tries every one
    for arg in poisonable(kwargs):
        value = kwargs[arg]
        if isinstance(value, float):
            value = bad
        else:
            value = value.copy()
            value.flat[data.draw(st.integers(0, value.size - 1), label=arg)] = bad
        with pytest.raises(ParameterError, match=f"^{arg} must be finite"):
            call(name, {**kwargs, arg: value})


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), size=sizes)
def test_a_wrong_shape_is_a_dimension_error(name, size):
    count, n, p, seed = size
    _, build, (arg, reshape) = CASES[name]
    kwargs = build(world(seed, count, n, min(p, n)))
    kwargs[arg] = reshape(kwargs[arg])
    with pytest.raises(DimensionError):
        call(name, kwargs)
