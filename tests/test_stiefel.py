import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framesync import (
    DegenerateInputError,
    DimensionError,
    ParameterError,
    exp_skew,
    frame_drift,
    project_tangent,
    random_skew,
    random_stiefel,
    retract_polar,
    skew,
    split_transform,
    sym,
    tangency_defect,
)


def test_sym_skew_hand_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_allclose(sym(m), [[1.0, 2.5], [2.5, 4.0]])
    npt.assert_allclose(skew(m), [[0.0, -0.5], [0.5, 0.0]])
    npt.assert_allclose(sym(m) + skew(m), m)


def test_sym_skew_batch():
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((5, 3, 3))
    s = sym(batch)
    npt.assert_allclose(s, np.swapaxes(s, -1, -2))
    k = skew(batch)
    npt.assert_allclose(k, -np.swapaxes(k, -1, -2))


def test_frame_drift_hand_value():
    s = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert frame_drift(s) == 0.0
    # scale one column: S^T S = diag(1.21, 1), drift = 0.21
    s2 = s.copy()
    s2[:, 0] *= 1.1
    assert math.isclose(frame_drift(s2), 0.21, rel_tol=1e-12)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("count", [1, 8, 400])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_frame_drift_equals_same_buffer_reference(p, count, lead):
    # the reference is the plain product and norm, with one buffer on both
    # sides of the matmul
    rng = np.random.default_rng(p * 1000 + count)
    frames = np.stack([random_stiefel(5, p, rng) for _ in range(count)])
    s = frames + 1e-7 * rng.standard_normal(lead + frames.shape)
    gram = np.swapaxes(s, -1, -2) @ s
    want = np.linalg.norm(gram - np.eye(p), axis=(-2, -1))
    npt.assert_array_equal(frame_drift(s), want)
    # and the same on a tall view of a transposed buffer
    tall_view = np.swapaxes(np.ascontiguousarray(np.swapaxes(s, -1, -2)), -1, -2)
    npt.assert_array_equal(frame_drift(tall_view), want)


def test_frame_drift_is_non_finite_for_non_finite_frames():
    s = np.stack([random_stiefel(4, 2, k) for k in range(3)])
    s[1, 2, 0] = np.inf
    s[2, 0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        d = frame_drift(s)
    assert np.isfinite(d[0])
    assert not np.isfinite(d[1:]).any()


def test_frame_drift_rejects_wide():
    with pytest.raises(DimensionError):
        frame_drift(np.ones((2, 3)))


def test_project_tangent_hand_value():
    s = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    x = np.ones((3, 2))
    expected = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    npt.assert_allclose(project_tangent(x, s), expected)


def test_project_tangent_properties():
    rng = np.random.default_rng(7)
    s = random_stiefel(6, 3, rng)
    x = rng.standard_normal((6, 3))
    v = project_tangent(x, s)
    assert tangency_defect(v, s) < 1e-14
    # idempotent on its own output
    npt.assert_allclose(project_tangent(v, s), v, atol=1e-14)


def test_retract_polar_hand_value():
    x = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    npt.assert_allclose(
        retract_polar(x), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-15
    )


def test_retract_polar_fixes_drift():
    rng = np.random.default_rng(11)
    s = random_stiefel(5, 2, rng)
    noisy = s + 1e-4 * rng.standard_normal(s.shape)
    fixed = retract_polar(noisy)
    assert frame_drift(fixed) < 1e-14
    # retraction moves the point no farther than the perturbation scale
    assert np.linalg.norm(fixed - s) < 1e-3


def test_retract_polar_identity_on_manifold():
    rng = np.random.default_rng(12)
    s = random_stiefel(7, 4, rng)
    npt.assert_allclose(retract_polar(s), s, atol=1e-14)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 3), (4, 2), (6, 3)])
def test_retract_polar_stacked_equals_single_calls(n, p):
    # the batched drift repair and clustered_states rely on this bit for bit
    rng = np.random.default_rng(21)
    x = rng.standard_normal((9, n, p))
    stacked = retract_polar(x)
    npt.assert_array_equal(stacked, np.stack([retract_polar(m) for m in x]))
    v = rng.standard_normal(x.shape)
    npt.assert_array_equal(
        project_tangent(v, stacked),
        np.stack([project_tangent(a, b) for a, b in zip(v, stacked)]),
    )


@settings(max_examples=60, deadline=None)
@given(
    lead=st.sampled_from([(), (3,), (2, 3)]),
    shape=st.sampled_from([(2, 1), (3, 3), (4, 2), (6, 3)]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_retraction_and_projection_are_idempotent(lead, shape, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((*lead, *shape))
    sv = np.linalg.svd(x, compute_uv=False)
    assume(np.min(sv) > 1e-6 * scale)
    s = retract_polar(x)
    # a frame: entries at most 1, so round-off is absolute
    assert np.max(np.abs(retract_polar(s) - s)) <= 1e-14 * shape[1]
    v = project_tangent(rng.standard_normal(x.shape) * scale, s)
    assert np.max(np.abs(project_tangent(v, s) - v)) <= 1e-14 * shape[1] * scale


def test_retract_polar_degenerate():
    with pytest.raises(DegenerateInputError):
        retract_polar(np.zeros((4, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_retract_polar_rejects_a_non_finite_frame(bad):
    # numpy's SVD fails on a NaN entry and returns a frame for an inf one
    x = np.eye(4, 2)
    x[3, 0] = bad
    with pytest.raises(ParameterError, match="finite"):
        retract_polar(x)


@pytest.mark.parametrize("n,p", [(2, 1), (4, 2), (5, 5), (8, 3)])
def test_random_stiefel_on_manifold(n, p):
    s = random_stiefel(n, p, 123)
    assert s.shape == (n, p)
    assert frame_drift(s) < 1e-13


def test_random_stiefel_deterministic():
    npt.assert_array_equal(random_stiefel(4, 2, 5), random_stiefel(4, 2, 5))
    assert not np.array_equal(random_stiefel(4, 2, 5), random_stiefel(4, 2, 6))


def test_random_draws_take_a_seed_or_a_generator():
    # a Generator is used as given, so it draws what its seed would
    npt.assert_array_equal(random_stiefel(4, 2, np.random.default_rng(5)),
                           random_stiefel(4, 2, 5))
    npt.assert_array_equal(random_skew(3, 0.5, np.random.default_rng(5)),
                           random_skew(3, 0.5, 5))
    rng = np.random.default_rng(5)
    random_skew(3, 0.5, rng)
    assert not np.array_equal(random_skew(3, 0.5, rng), random_skew(3, 0.5, 5))


def test_random_stiefel_generator_advances():
    rng = np.random.default_rng(0)
    a = random_stiefel(4, 2, rng)
    b = random_stiefel(4, 2, rng)
    assert not np.array_equal(a, b)


def test_random_skew():
    xi = random_skew(3, 0.5, 9)
    npt.assert_allclose(xi, -xi.T)
    npt.assert_array_equal(random_skew(3, 0.0, 9), np.zeros((3, 3)))
    for scale in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            random_skew(3, scale, 9)


def test_exp_skew_rotation_oracle():
    # 2x2 generator integrates to the plane rotation by w*t
    w = 0.7
    xi = np.array([[0.0, -w], [w, 0.0]])
    for t in (0.0, 0.3, 1.7):
        expected = np.array(
            [
                [math.cos(w * t), -math.sin(w * t)],
                [math.sin(w * t), math.cos(w * t)],
            ]
        )
        npt.assert_allclose(exp_skew(xi, t), expected, atol=1e-15)


def test_exp_skew_orthogonal():
    xi = random_skew(4, 1.3, 21)
    q = exp_skew(xi, 2.0)
    npt.assert_allclose(q.T @ q, np.eye(4), atol=1e-13)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_exp_skew_and_split_transform_reject_a_non_finite_time(t):
    # a NaN time gave NaN frames
    xi = random_skew(2, 0.3, 5)
    with pytest.raises(ParameterError, match="t must be finite"):
        exp_skew(xi, t)
    states = random_stiefel(4, 2, 6)[None]
    with pytest.raises(ParameterError, match="t must be finite"):
        split_transform(states, xi, t, order=1)


def test_exp_skew_rejects_non_skew():
    xi = np.array([[0.0, -math.nan], [math.nan, 0.0]])
    for bad in (np.eye(2), xi):
        with pytest.raises(ParameterError):
            exp_skew(bad)
