import math

import numpy as np
import pytest

from budgetreg.core import (
    BALL_TOL,
    Dataset,
    Predictor,
    Regime,
    norm,
    project_l1_ball,
    project_l2_ball,
    squared_loss,
    stream,
    weight_norm,
)


def test_norm_half_examples():
    assert norm([1.0, 0.0, 0.0], 0.5) == 1.0
    assert norm([0.25, 0.25], 0.5) == pytest.approx(1.0, abs=1e-15)


def test_norm_standard_orders():
    assert norm([3.0, -4.0], 2) == 5.0
    assert norm([3.0, -4.0], 1) == 7.0
    assert norm([3.0, -4.0], math.inf) == 4.0


def test_norm_half_dominates_l1():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(6)
        assert norm(v, 0.5) >= norm(v, 1) - 1e-12


def test_norm_errors():
    with pytest.raises(ValueError, match="zero dimension"):
        norm([], 2)
    with pytest.raises(ValueError, match="unsupported norm order"):
        norm([1.0], 3)


def test_project_l2_ball():
    np.testing.assert_allclose(project_l2_ball([2.0, 0.0], 1.0), [1.0, 0.0])
    inside = np.array([0.3, 0.4])
    np.testing.assert_array_equal(project_l2_ball(inside, 1.0), inside)
    boundary = np.array([0.6, 0.8])
    np.testing.assert_array_equal(project_l2_ball(boundary, 1.0), boundary)
    np.testing.assert_array_equal(project_l2_ball([0.0, 0.0], 0.0), [0.0, 0.0])
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        project_l2_ball(np.array([3.0, 4.0]), -1.0)


def test_project_l2_ball_idempotent_and_contractive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.standard_normal(5) * 3
        v = rng.standard_normal(5) * 3
        pu = project_l2_ball(u, 1.0)
        np.testing.assert_allclose(project_l2_ball(pu, 1.0), pu, atol=1e-15)
        pv = project_l2_ball(v, 1.0)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_project_l1_ball():
    np.testing.assert_allclose(project_l1_ball([2.0, 0.0], 1.0), [1.0, 0.0])
    np.testing.assert_allclose(project_l1_ball([1.0, 1.0], 1.0), [0.5, 0.5])
    inside = np.array([0.3, -0.4])
    np.testing.assert_array_equal(project_l1_ball(inside, 1.0), inside)


def test_project_l1_ball_properties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal(7) * 2
        p = project_l1_ball(v, 1.0)
        assert np.abs(p).sum() <= 1.0 + 1e-12
        np.testing.assert_allclose(project_l1_ball(p, 1.0), p, atol=1e-15)
        # signs never flip under soft thresholding
        assert np.all(p * v >= -1e-15)
    with pytest.raises(ValueError):
        project_l1_ball([1.0], -1.0)


def test_squared_loss():
    assert squared_loss(1.0, 1.0) == 0.0
    assert squared_loss(2.0, 0.0) == 2.0
    assert squared_loss(-1.0, 1.0) == 2.0
    np.testing.assert_allclose(squared_loss(np.array([1.0, 2.0]), np.array([1.0, 0.0])), [0.0, 2.0])


def test_weight_norm_pairs_regimes():
    w = np.array([3.0, -4.0])
    assert weight_norm(w, Regime.L2) == 5.0
    assert weight_norm(w, Regime.LINF) == 7.0


def test_dataset_shape_errors():
    with pytest.raises(ValueError, match="attribute matrix must be 2-dimensional"):
        Dataset(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="zero dimension"):
        Dataset(np.zeros((3, 0)), np.zeros(3))
    with pytest.raises(ValueError, match="target vector length does not match example count"):
        Dataset(np.zeros((3, 2)), np.zeros(4))


def test_dataset_accessors_and_subset():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), np.array([1.0, 2.0, 3.0]), Regime.LINF)
    assert len(ds) == 3
    assert ds.dimension == 2
    sub = ds.subset([2, 0])
    np.testing.assert_array_equal(sub.y, [3.0, 1.0])
    np.testing.assert_array_equal(sub.x, [[0.5, 0.5], [1.0, 0.0]])
    assert sub.regime == Regime.LINF


def test_predictor_predict_and_validate():
    p = Predictor(np.array([1.0, -2.0]), 3.0, Regime.LINF)
    assert p.predict(np.array([0.5, 0.25])) == 0.0
    np.testing.assert_allclose(p.predict(np.array([[1.0, 0.0], [0.0, 1.0]])), [1.0, -2.0])
    p.validate()
    with pytest.raises(ValueError, match="negative norm bound"):
        Predictor(np.zeros(2), -1.0, Regime.L2).validate()
    with pytest.raises(ValueError, match="non-finite weights"):
        Predictor(np.array([np.nan, 0.0]), 1.0, Regime.L2).validate()
    with pytest.raises(ValueError, match="weights outside the certified ball"):
        Predictor(np.array([1.0, 1.0]), 1.0, Regime.L2).validate()
    # boundary within tolerance is fine
    Predictor(np.array([1.0 + BALL_TOL / 2, 0.0]), 1.0, Regime.L2).validate()


def test_stream_draws_what_seed_sequence_draws():
    for seed, entropy in ((7, 7), ((7, 3), (7, 3)), (np.int64(7), np.int64(7))):
        want = np.random.default_rng(np.random.SeedSequence(entropy)).random(4)
        np.testing.assert_array_equal(stream(seed).random(4), want)
    for seed, base in ((7, (7,)), ((7, 3), (7, 3)), (np.int64(7), (7,))):
        want = np.random.default_rng(np.random.SeedSequence(base + (101, 2))).random(4)
        np.testing.assert_array_equal(stream(seed, 101, 2).random(4), want)
    rng = np.random.default_rng(1)
    assert stream(rng) is rng
