import itertools

import numpy as np
import pytest

from budgetreg.core import Regime, norm
from budgetreg.datagen import (
    binary_l2_moments,
    generate_dataset,
    improvement_ratio,
    power_law_means,
    random_target_weights,
)


def test_power_law_means_flat_l2():
    np.testing.assert_allclose(power_law_means(4, 0.0, Regime.L2), [0.5] * 4)


def test_power_law_means_linf_no_rescale():
    np.testing.assert_allclose(power_law_means(2, -1.0, Regime.LINF), [1.0, 0.5])


def test_power_law_means_l2_rescale():
    raw = np.array([1.0, 0.25, 1.0 / 9.0])
    np.testing.assert_allclose(power_law_means(3, -2.0, Regime.L2), raw / np.linalg.norm(raw))


def test_power_law_means_errors_and_shape():
    for alpha in (0.5, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="power-law exponent must be finite and nonpositive"):
            power_law_means(3, alpha, Regime.L2)
    with pytest.raises(ValueError, match="zero dimension"):
        power_law_means(0, -1.0, Regime.L2)
    with pytest.raises(ValueError, match="zero dimension"):
        random_target_weights(0, Regime.L2, 0)
    u = power_law_means(100, -0.5, Regime.LINF)
    assert np.all(np.diff(u) <= 0) and u[0] == 1.0


def test_target_weights_ridge_signs():
    w = random_target_weights(1000, Regime.L2, 0)
    assert set(np.unique(w)) == {-1.0, 1.0}
    assert abs(np.mean(w == 1.0) - 0.5) <= 3 * np.sqrt(0.25 / 1000)


def test_target_weights_lasso_sparsity():
    d = 100_000
    w = random_target_weights(d, Regime.LINF, 1)
    assert set(np.unique(w)) <= {-1.0, 0.0, 1.0}
    zero_frac = np.mean(w == 0.0)
    assert abs(zero_frac - 0.7) <= 3 * np.sqrt(0.7 * 0.3 / d)


def test_target_weights_deterministic():
    np.testing.assert_array_equal(
        random_target_weights(50, Regime.LINF, 7), random_target_weights(50, Regime.LINF, 7)
    )
    assert np.any(random_target_weights(50, Regime.LINF, 7) != random_target_weights(50, Regime.LINF, 8))


def test_generate_dataset_degenerate_means():
    w_star = np.ones(3)
    ds = generate_dataset(np.zeros(3), w_star, 20, Regime.LINF, 0)
    np.testing.assert_array_equal(ds.x, np.zeros((20, 3)))
    np.testing.assert_array_equal(ds.y, np.zeros(20))
    ds = generate_dataset(np.ones(3), w_star, 20, Regime.LINF, 0)
    np.testing.assert_array_equal(ds.x, np.ones((20, 3)))
    np.testing.assert_array_equal(ds.y, np.full(20, 3.0))


def test_generate_dataset_l2_feasible_and_consistent():
    u = power_law_means(6, -1.0, Regime.L2)
    w_star = random_target_weights(6, Regime.L2, 2)
    ds = generate_dataset(u, w_star, 500, Regime.L2, 3)
    assert np.all(np.isfinite(ds.x)) and np.all(np.isfinite(ds.y))
    assert np.all(np.sqrt((ds.x**2).sum(axis=1)) <= 1.0 + 1e-12)
    np.testing.assert_allclose(ds.y, ds.x @ w_star, atol=1e-12)


def test_generate_dataset_linf_mean_match():
    u = power_law_means(5, -0.5, Regime.LINF)
    m = 20_000
    ds = generate_dataset(u, np.zeros(5), m, Regime.LINF, 4)
    se = np.sqrt(u * (1 - u) / m)
    assert np.all(np.abs(ds.x.mean(axis=0) - u) <= 3 * se + 1e-12)


def test_generate_dataset_errors():
    with pytest.raises(ValueError, match="means must lie"):
        generate_dataset(np.array([1.5]), np.array([1.0]), 5, Regime.LINF, 0)
    with pytest.raises(ValueError, match="length does not match"):
        generate_dataset(np.array([0.5]), np.array([1.0, 1.0]), 5, Regime.LINF, 0)
    with pytest.raises(ValueError, match="at least one example"):
        generate_dataset(np.array([0.5]), np.array([1.0]), 0, Regime.LINF, 0)


def test_binary_l2_moments_enumeration_oracle():
    # brute force over all binary outcomes with the 1/max(1, ||x||) rescale
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.random(4) * 0.9
        expected = np.zeros(4)
        for bits in itertools.product((0, 1), repeat=4):
            x = np.array(bits, dtype=float)
            prob = float(np.prod(np.where(x > 0, u, 1 - u)))
            count = x.sum()
            scaled = x / max(1.0, np.sqrt(count))
            expected += prob * scaled**2
        np.testing.assert_allclose(binary_l2_moments(u), expected, atol=1e-12)


def test_binary_l2_moments_monte_carlo_agreement():
    u = power_law_means(4, -1.0, Regime.L2)
    exact = binary_l2_moments(u)
    ds = generate_dataset(u, np.zeros(4), 200_000, Regime.L2, 6)
    emp = (ds.x**2).mean(axis=0)
    se = (ds.x**2).std(axis=0, ddof=1) / np.sqrt(len(ds))
    assert np.all(np.abs(emp - exact) <= 4 * se)


def test_binary_l2_moments_edge_cases():
    np.testing.assert_allclose(binary_l2_moments(np.zeros(3)), np.zeros(3))
    # a lone certain attribute is never shared, so its moment stays 1
    np.testing.assert_allclose(binary_l2_moments(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="means must lie"):
        binary_l2_moments(np.array([-0.1]))


def test_improvement_ratio_values():
    assert improvement_ratio([0.3, 0.3, 0.3], Regime.L2) == pytest.approx(1.0, abs=1e-12)
    assert improvement_ratio([1.0, 0.0, 0.0], Regime.L2) == pytest.approx(1 / 3, abs=1e-15)
    assert improvement_ratio([0.5, 0.25, 0.25], Regime.LINF) == pytest.approx(2 / 3, abs=1e-15)
    assert improvement_ratio([0.2, 0.2], Regime.L2) == pytest.approx(1.0, abs=1e-12)
    assert improvement_ratio([0.7, 0.7, 0.7, 0.7], Regime.LINF) == pytest.approx(1.0, abs=1e-12)


def test_improvement_ratio_scale_invariant():
    rng = np.random.default_rng(7)
    m = rng.random(6) + 0.01
    for regime in (Regime.L2, Regime.LINF):
        assert improvement_ratio(m * 13.7, regime) == pytest.approx(improvement_ratio(m, regime), rel=1e-12)


def test_improvement_ratio_errors():
    with pytest.raises(ValueError, match="degenerate moments"):
        improvement_ratio([0.0, 0.0], Regime.L2)
    with pytest.raises(ValueError, match="'ridge' is not a valid Regime"):
        improvement_ratio([0.5], "ridge")
    with pytest.raises(ValueError, match="zero dimension"):
        improvement_ratio([], Regime.L2)
