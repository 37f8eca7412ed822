"""Geometry of orthonormal p-frames in R^n.

A frame is an n x p matrix S with S^T S = I_p. Functions accept stacked
inputs: any leading batch dimensions broadcast, the last two axes are the
matrix. p=1 recovers the unit sphere, p=n the orthogonal group.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError

__all__ = [
    "sym",
    "skew",
    "frame_drift",
    "project_tangent",
    "tangency_defect",
    "retract_polar",
    "random_stiefel",
    "random_skew",
    "exp_skew",
]


def _check_matrix(x, name="x"):
    """x as a float array of at least 2 dimensions with every entry finite:
    the one finiteness test of the package's array inputs."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise DimensionError(f"{name} must have at least 2 dimensions, got {x.ndim}")
    if not np.isfinite(x).all():
        raise ParameterError(f"{name} must be finite")
    return x


def _check_square(x, name="x"):
    x = _check_matrix(x, name)
    if x.shape[-1] != x.shape[-2]:
        raise DimensionError(f"{name} must be square, got {x.shape[-2]}x{x.shape[-1]}")
    return x


def _t(x):
    """Transpose of each matrix in a stacked ndarray."""
    return x.swapaxes(-1, -2)


def sym(x):
    """Symmetric part (X + X^T)/2."""
    x = _check_square(x)
    return 0.5 * (x + _t(x))


def skew(x):
    """Antisymmetric part (X - X^T)/2."""
    x = _check_square(x)
    return 0.5 * (x - _t(x))


@functools.lru_cache(maxsize=None)
def _identity(p: int) -> np.ndarray:
    """The p x p identity, built once per p and read-only."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


def frame_drift(s):
    """Frobenius norm of S^T S - I, per matrix in the batch.

    A non-finite matrix has a non-finite drift, so s skips _check_matrix.
    The integrator's per-step check is dynamics.agent_last_drift.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-2] < s.shape[-1]:
        raise DimensionError(f"s must hold tall frames, got shape {s.shape}")
    return np.linalg.norm(_t(s) @ s - _identity(s.shape[-1]), axis=(-2, -1))


def project_tangent(x, s):
    """Project an ambient matrix X onto the tangent space at the frame S.

    Returns X - S*sym(S^T X). Idempotent; the removed component S*sym(S^T X)
    is normal to the manifold at S.
    """
    x = _check_matrix(x, "x")
    s = _check_matrix(s, "s")
    if x.shape[-2:] != s.shape[-2:]:
        raise DimensionError(f"shape mismatch: x {x.shape[-2:]} vs s {s.shape[-2:]}")
    return x - s @ sym(_t(s) @ x)


def tangency_defect(v, s):
    """Residual ||S^T V + V^T S||_F of the tangency constraint, per matrix."""
    v = _check_matrix(v, "v")
    s = _check_matrix(s, "s")
    if v.shape[-2:] != s.shape[-2:]:
        raise DimensionError(f"shape mismatch: v {v.shape[-2:]} vs s {s.shape[-2:]}")
    m = _t(s) @ v
    return np.linalg.norm(m + _t(m), axis=(-2, -1))


def retract_polar(x):
    """Nearest frame to X in Frobenius norm, via the polar factor of the SVD.

    Requires X to be finite and of full column rank; the smallest singular
    value must exceed 1e-12 or the nearest frame is not unique.
    """
    x = _check_matrix(x, "x")
    n, p = x.shape[-2:]
    if n < p:
        raise DimensionError(f"frame must be tall, got {n}x{p}")
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    if np.min(sv) < 1e-12:
        raise DegenerateInputError(
            f"smallest singular value {float(np.min(sv)):.3e} < 1e-12; "
            "polar retraction undefined"
        )
    return u @ vt


def random_stiefel(n: int, p: int, seed) -> np.ndarray:
    """Draw a random n x p frame, deterministic for a given seed.

    QR of a standard Gaussian matrix with the sign of each diagonal entry
    of R fixed to be positive, which makes the factor unique (and Haar
    distributed for p = n).
    """
    if p < 1 or n < p:
        raise DimensionError(f"need n >= p >= 1, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, p))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    if np.any(d == 0.0):
        raise DegenerateInputError("degenerate Gaussian draw, retry with a new seed")
    return q * np.sign(d)


def random_skew(p: int, scale: float, seed) -> np.ndarray:
    """Random p x p antisymmetric matrix: skew(G) * scale for Gaussian G."""
    if p < 1:
        raise DimensionError(f"need p >= 1, got p={p}")
    if not 0 <= scale < np.inf:
        raise ParameterError(f"scale must be finite and nonnegative, got {scale}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, p))
    return skew(g) * scale


def exp_skew(xi, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t*Xi} of an antisymmetric Xi; result orthogonal."""
    xi = _check_square(xi, "xi")
    if xi.ndim != 2:
        raise DimensionError("exp_skew expects a single matrix")
    defect = np.linalg.norm(xi + xi.T)
    if not defect <= 1e-12 * max(1.0, float(np.linalg.norm(xi))):
        raise ParameterError(f"input is not antisymmetric (defect {defect:.3e})")
    if not abs(t) < np.inf:
        raise ParameterError(f"t must be finite, got {t}")
    import scipy.linalg  # deferred: importing it costs more than the rest of the package

    return scipy.linalg.expm(t * xi)
