"""Exception types shared across the package."""


class FramesyncError(Exception):
    """Base class for all package errors."""


class DimensionError(FramesyncError, ValueError):
    """Array shape or size is incompatible with the requested operation."""


class TangencyError(FramesyncError, ValueError):
    """A velocity violates the tangency constraint beyond tolerance."""


class DegenerateInputError(FramesyncError, ValueError):
    """Input is rank-deficient or otherwise has no well-defined result."""


class ParameterError(FramesyncError, ValueError):
    """Model or solver parameters are outside their admissible range."""


class ConfigError(FramesyncError, ValueError):
    """A scenario configuration file is malformed or inconsistent."""


class BlowUpError(FramesyncError, RuntimeError):
    """The numerical solution produced NaN or Inf entries."""


class DriftError(FramesyncError, RuntimeError):
    """Orthonormality drift exceeded the hard failure threshold mid-run."""

    def __init__(self, t: float, agent: int, drift: float):
        self.t = t
        self.agent = agent
        self.drift = drift
        super().__init__(
            f"orthonormality drift {drift:.3e} on agent {agent} at t={t:.6g} "
            "exceeds the failure threshold; reduce dt"
        )
