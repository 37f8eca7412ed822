"""Synchronization dynamics for ensembles of orthonormal frames.

Agents carry n-by-p orthonormal frames and relax toward a common frame under
pairwise attraction, optionally with their own steady rotations, inertia,
and friction. The package provides the vector fields, a structure-preserving
integrator, diagnostics for spread/energy/locking, and scripted scenarios
that check the model's guarantees end to end.
"""
from .diagnostics import (
    LockReport,
    LockThresholds,
    diameter,
    energy,
    energy_dissipation_rhs,
    ensemble_gram,
    g_functional,
    gronwall_bound,
    inter_diameter,
    lock_thresholds,
    make_record,
    phase_lock_detector,
    spread_inequality_residuals,
    velocity_bound_check,
    write_timeseries,
)
from .dynamics import (
    ModelParams,
    make_tangent_velocity,
    reduced_velocity,
    rhs_first_order,
    rhs_kuramoto,
    rhs_second_order,
    rhs_so_n,
    rhs_sphere,
    split_transform,
    zero_freqs,
)
from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DriftError,
    FramesyncError,
    ParameterError,
    TangencyError,
)
from .integrator import IntegratorConfig, Trajectory, integrate
from .network import Topology, TopologyStats, all_to_all, compute_stats
from .scenarios import (
    SCENARIOS,
    Check,
    ScenarioConfig,
    ScenarioReport,
    clustered_states,
    resolve_config,
    run_scenario,
    uniform_states,
)
from .stiefel import (
    exp_skew,
    frame_drift,
    project_tangent,
    random_skew,
    random_stiefel,
    retract_polar,
    skew,
    sym,
    tangency_defect,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "Check", "ConfigError", "DegenerateInputError",
    "DimensionError", "DriftError",
    "FramesyncError", "IntegratorConfig", "LockReport", "LockThresholds",
    "ModelParams", "ParameterError", "SCENARIOS", "ScenarioConfig",
    "ScenarioReport", "TangencyError", "Topology", "TopologyStats",
    "Trajectory", "all_to_all", "clustered_states", "compute_stats",
    "diameter", "energy", "energy_dissipation_rhs", "ensemble_gram",
    "exp_skew", "frame_drift", "g_functional", "gronwall_bound",
    "inter_diameter", "integrate", "lock_thresholds", "make_record",
    "make_tangent_velocity", "phase_lock_detector", "project_tangent",
    "random_skew", "random_stiefel", "reduced_velocity", "resolve_config",
    "retract_polar", "rhs_first_order", "rhs_kuramoto", "rhs_second_order",
    "rhs_so_n", "rhs_sphere", "run_scenario", "skew",
    "spread_inequality_residuals", "split_transform", "sym",
    "tangency_defect", "uniform_states", "velocity_bound_check",
    "write_timeseries", "zero_freqs", "__version__",
]
