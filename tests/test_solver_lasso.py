import math

import numpy as np
import pytest

from budgetreg.core import Dataset, Regime
from budgetreg.datagen import generate_dataset, power_law_means, random_target_weights
from budgetreg.estimator import DELTA_ADA, SolverConfig, estimate_point
from budgetreg.sampling import build_distribution, inner_product_p, sample_index, uniform_distribution
from budgetreg.solver_lasso import (
    EGState,
    aelr_eta,
    eg_state_from_weights,
    eg_update,
    eg_weights,
    gaelr_step,
    lasso_eta_known_moments,
    run_gaelr,
)
from stepping import dense, stream_step


PLAIN = SolverConfig(b=1.0, eta=1.0, q=None)  # no start weights and no AdaGrad: z+ = z- = 1


def linf_dataset(d, m, seed, alpha=-1.0):
    u = power_law_means(d, alpha, Regime.LINF)
    w_star = random_target_weights(d, Regime.LINF, seed)
    return generate_dataset(u, w_star, m, Regime.LINF, seed), w_star


def test_eg_weights_examples():
    state = EGState.initial(3, PLAIN)
    np.testing.assert_allclose(eg_weights(state, 1.0), [0.0, 0.0, 0.0])
    state = EGState(z_plus=np.array([3.0]), z_minus=np.array([1.0]), sum_w=np.zeros(1))
    np.testing.assert_allclose(eg_weights(state, 1.0), [0.5])
    state = EGState(z_plus=np.array([2.0, 1.0]), z_minus=np.array([1.0, 2.0]), sum_w=np.zeros(2))
    np.testing.assert_allclose(eg_weights(state, 2.0), [1 / 3, -1 / 3])


def test_eg_weights_ball_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = EGState(z_plus=rng.random(6) + 1e-3, z_minus=rng.random(6) + 1e-3, sum_w=np.zeros(6))
        assert np.abs(eg_weights(state, 2.5)).sum() <= 2.5 + 1e-9


def test_eg_state_from_weights_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.standard_normal(5)
        w *= 0.8 / np.abs(w).sum()
        state = eg_state_from_weights(w, 1.0)
        np.testing.assert_allclose(eg_weights(state, 1.0), w, atol=1e-12)
    # a boundary seed survives with a hair of shrink
    w = np.array([0.5, -0.5])
    state = eg_state_from_weights(w, 1.0)
    np.testing.assert_allclose(eg_weights(state, 1.0), w, atol=1e-9)


def test_eg_update_hand_trace():
    state = EGState.initial(1, PLAIN)
    eg_update(state, np.array([0]), np.array([math.log(2.0)]), eta=1.0)
    np.testing.assert_allclose(state.z_plus, [0.5], atol=1e-15)
    np.testing.assert_allclose(state.z_minus, [2.0], atol=1e-15)


def test_eg_update_clips_at_inverse_eta():
    s1 = EGState.initial(1, PLAIN)
    eg_update(s1, np.array([0]), np.array([10.0]), eta=0.1)
    s2 = EGState.initial(1, PLAIN)
    eg_update(s2, np.array([0]), np.array([20.0]), eta=0.1)
    np.testing.assert_allclose(s1.z_plus, s2.z_plus)
    np.testing.assert_allclose(s1.z_plus, [math.exp(-1.0)])
    # one rate per index (AdaGrad): each value is clipped at its own 1/eta_i
    s3 = EGState.initial(2, PLAIN)
    eg_update(s3, np.array([0, 1]), np.array([10.0, 0.5]), eta=np.array([0.1, 0.5]))
    np.testing.assert_allclose(s3.z_plus, [math.exp(-1.0), math.exp(-0.25)], rtol=1e-15)
    np.testing.assert_allclose(s3.z_minus, [math.exp(1.0), math.exp(0.25)], rtol=1e-15)


def test_eg_update_off_support_untouched():
    state = EGState.initial(3, PLAIN)
    eg_update(state, np.array([1]), np.array([0.5]), eta=1.0)
    assert state.z_plus[0] == 1.0 and state.z_plus[2] == 1.0
    assert state.z_minus[0] == 1.0 and state.z_minus[2] == 1.0
    assert state.z_plus[1] != 1.0


def test_renormalization_preserves_weights():
    rng = np.random.default_rng(2)
    z_plus, z_minus = rng.random(4) + 0.1, rng.random(4) + 0.1
    a = EGState(z_plus=z_plus.copy(), z_minus=z_minus.copy(), sum_w=np.zeros(4))
    b = EGState(z_plus=z_plus * 1e150, z_minus=z_minus * 1e150, sum_w=np.zeros(4))
    eg_update(b, np.array([0]), np.array([0.0]), eta=1.0)  # triggers the renorm sweep
    np.testing.assert_allclose(eg_weights(a, 1.0), eg_weights(b, 1.0), atol=1e-12)
    assert b.z_plus.max() <= 1.0 + 1e-12


def test_zero_gradient_leaves_state():
    config = SolverConfig(b=1.0, eta=0.5, q=uniform_distribution(2))
    state = EGState.initial(2, config)
    # zero iterate and y=0 give phi=0: no multiplicative change
    stream_step(gaelr_step, state, np.array([1.0, 0.0]), 0.0, config, np.random.default_rng(0))
    np.testing.assert_array_equal(state.z_plus, [1.0, 1.0])
    np.testing.assert_array_equal(state.z_minus, [1.0, 1.0])
    assert state.steps == 1
    assert state.attributes_consumed == 2


def test_zero_iterate_charges_full_budget():
    config = SolverConfig(b=1.0, eta=0.5, q=uniform_distribution(2), n_point=3, n_inner=2)
    state = EGState.initial(2, config)
    stream_step(gaelr_step, state, np.array([1.0, 1.0]), 1.0, config, np.random.default_rng(0))
    assert state.attributes_consumed == 5
    assert state.zero_weight_steps == 1


def test_single_example_returns_zero():
    ds = Dataset(np.array([[1.0, -1.0]]), np.array([0.5]), Regime.LINF)
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(2))
    result = run_gaelr(ds, config, 0)
    np.testing.assert_allclose(result.predictor.weights, [0.0, 0.0])


def test_all_zero_data_returns_zero():
    ds = Dataset(np.zeros((10, 3)), np.zeros(10), Regime.LINF)
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(3))
    result = run_gaelr(ds, config, 1)
    np.testing.assert_array_equal(result.predictor.weights, np.zeros(3))


def test_budget_and_ball_on_synthetic_run():
    ds, _ = linf_dataset(5, 200, seed=3)
    k = 2
    config = SolverConfig(b=2.0, eta=0.05, q=uniform_distribution(5), n_point=k, n_inner=1)
    result = run_gaelr(ds, config, 5)
    assert result.attributes_consumed == 200 * (k + 1)
    assert np.abs(result.predictor.weights).sum() <= 2.0 + 1e-9


def test_regime_checked():
    l2 = Dataset(np.array([[0.5, 0.5]]), np.array([0.0]), Regime.L2)
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(2))
    with pytest.raises(ValueError, match="requires Linf-regime data"):
        run_gaelr(l2, config, 0)
    with pytest.raises(ValueError, match="empty dataset"):
        run_gaelr(Dataset(np.zeros((0, 2)), np.zeros(0), Regime.LINF), config, 0)


def test_sparse_update_matches_dense_loop():
    """Touching only the support of the estimate must replay the dense
    update over all coordinates, where off-support factors are exp(0)."""
    ds, _ = linf_dataset(6, 100, seed=4)
    b, eta, k = 1.5, 0.3, 2
    q = build_distribution(np.arange(1.0, 7.0))
    config = SolverConfig(b=b, eta=eta, q=q, n_point=k, n_inner=1)
    sparse = EGState.initial(6, config)
    dense = EGState.initial(6, config)
    rng_s = np.random.default_rng(21)
    rng_d = np.random.default_rng(21)
    for t in range(len(ds)):
        stream_step(gaelr_step, sparse, ds.x[t], float(ds.y[t]), config, rng_s)

        # dense oracle: same draws, multiplicative update on every coordinate
        w = eg_weights(dense, b)
        dense.sum_w += w
        idx = sample_index(q, rng_d.random(k))
        g_point = np.zeros(6)
        np.add.at(g_point, idx, ds.x[t][idx] / (k * q.probabilities[idx]))
        if np.any(w != 0):
            p = inner_product_p(w, Regime.LINF)
            j = sample_index(p, rng_d.random(1))
            phi = float(np.mean(w[j] / p.probabilities[j] * ds.x[t][j]) - ds.y[t])
        else:
            phi = -float(ds.y[t])
        if phi != 0.0:
            g = np.clip(phi * g_point, -1.0 / eta, 1.0 / eta)
            dense.z_plus *= np.exp(-eta * g)
            dense.z_minus *= np.exp(eta * g)
        dense.steps += 1

        np.testing.assert_allclose(sparse.z_plus, dense.z_plus, atol=1e-12)
        np.testing.assert_allclose(sparse.z_minus, dense.z_minus, atol=1e-12)
        assert np.abs(eg_weights(sparse, b)).sum() <= b + 1e-9


def test_adagrad_sparse_update_matches_dense_replica():
    """AdaGrad EG through gaelr_step replays the reference per-coordinate
    update applied to every coordinate: accumulators, rates
    eta / sqrt(DELTA_ADA + sum g^2) and the clip at 1/eta_i, where
    off-support gradients are 0 and change nothing.  Every iterate stays
    in the L1 ball, and the clip binds on some coordinates."""
    d, b, eta0, k = 6, 1.5, 1.5, 2
    ds, _ = linf_dataset(d, 150, seed=7)
    q = build_distribution(np.arange(1.0, d + 1.0))
    config = SolverConfig(b=b, eta=eta0, q=q, n_point=k, n_inner=1, adagrad=True)
    sparse = EGState.initial(d, config)
    rng_s = np.random.default_rng(31)
    rng_d = np.random.default_rng(31)
    z_plus, z_minus, accum = np.ones(d), np.ones(d), np.zeros(d)
    clipped = 0
    for t in range(len(ds)):
        stream_step(gaelr_step, sparse, ds.x[t], float(ds.y[t]), config, rng_s)
        assert np.abs(eg_weights(sparse, b)).sum() <= b + 1e-9

        # dense replica: same draws, per-coordinate rates on every coordinate
        w = (z_plus - z_minus) * b / (z_plus.sum() + z_minus.sum())
        point = dense(estimate_point(ds.x[t][None], q, rng_d.random(k)[None]), d)[0]
        if np.any(w != 0):
            p = inner_product_p(w, Regime.LINF)
            j = sample_index(p, rng_d.random(1))
            phi = float(np.mean(w[j] / p.probabilities[j] * ds.x[t][j]) - ds.y[t])
        else:
            phi = -float(ds.y[t])
        if phi != 0.0:
            g = phi * point
            accum += g * g
            eta_i = eta0 / np.sqrt(DELTA_ADA + accum)
            clipped += int(np.count_nonzero(np.abs(g) > 1.0 / eta_i))
            g = np.clip(g, -1.0 / eta_i, 1.0 / eta_i)
            z_plus *= np.exp(-eta_i * g)
            z_minus *= np.exp(eta_i * g)
            peak = max(float(z_plus.max()), float(z_minus.max()))
            if peak > 1e100:
                z_plus /= peak
                z_minus /= peak
        np.testing.assert_allclose(sparse.z_plus, z_plus, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sparse.z_minus, z_minus, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sparse.accum, accum, rtol=1e-12, atol=0)
    assert clipped > 0


def test_aelr_eta_branches():
    # G = b sqrt(8 d / k); small m is capped by 1/(2G)
    assert aelr_eta(1, 1, 2, 1.0) == pytest.approx(1 / 8, abs=1e-15)
    assert aelr_eta(10_000, 1, 2, 1.0) == pytest.approx(2 / (4 * 100), abs=1e-15)
    with pytest.raises(ValueError):
        aelr_eta(10, 0, 2, 1.0)


def test_lasso_eta_known_moments_values():
    d = 2
    m = math.log(2 * d)
    assert lasso_eta_known_moments(m, 1, d, 1.0, 0.0) == pytest.approx(1 / (2 * math.sqrt(5)), abs=1e-15)
    assert lasso_eta_known_moments(100 * math.log(4), 1, 2, 0.5, 0.0) == pytest.approx(
        math.sqrt(1 / 500), abs=1e-15
    )
    one = lasso_eta_known_moments(50, 2, 4, 1.0, 0.3)
    two = lasso_eta_known_moments(100, 2, 4, 1.0, 0.3)
    assert two == pytest.approx(one / math.sqrt(2), rel=1e-12)


def test_lasso_eta_known_moments_warns_below_threshold():
    with pytest.warns(UserWarning, match="regret bound is not guaranteed"):
        lasso_eta_known_moments(1, 1, 10, 1.0, 0.0)
    with pytest.raises(ValueError, match="degenerate moments"):
        lasso_eta_known_moments(10, 1, 2, 1.0, -0.1)
