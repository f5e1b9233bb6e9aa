import math

import numpy as np
import pytest

from budgetreg import baselines
from budgetreg.baselines import (
    offline_erm,
    online_lasso_full,
    online_ridge_full,
)
from budgetreg.core import Dataset, Regime
from budgetreg.datagen import generate_dataset, power_law_means, random_target_weights
from budgetreg.estimator import SolverConfig, adagrad_rate, run_pass
from budgetreg.sampling import uniform_distribution
from budgetreg.solver_lasso import EGState, eg_update, eg_weights, run_gaelr
from budgetreg.solver_ridge import RidgeState, run_gaerr


def make_dataset(d, m, seed, regime, alpha=-1.0):
    u = power_law_means(d, alpha, regime)
    w_star = random_target_weights(d, regime, seed)
    return generate_dataset(u, w_star, m, regime, seed)


def reference_ridge_full(dataset, b, eta, adagrad=False):
    """The per-example OGD loop the ridge baseline ran before it became a
    step of run_pass; returns (average, last iterate, projections)."""
    d = dataset.dimension
    w = np.zeros(d)
    sum_w = np.zeros(d)
    accum = np.zeros(d)
    projections = 0
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        sum_w += w
        g = (float(w @ xs[t]) - float(ys[t])) * xs[t]
        rate = adagrad_rate(accum, slice(None), g, eta) if adagrad else eta
        w = w - rate * g
        nrm = math.sqrt(float(np.dot(w, w)))
        if nrm > b:
            w *= b / nrm
            projections += 1
    return sum_w / len(dataset), w, projections


def reference_lasso_full(dataset, b, eta):
    """The per-example EG loop the lasso baseline ran before it became a
    step of run_pass; returns the average iterate."""
    d = dataset.dimension
    state = EGState.initial(d, SolverConfig(b=b, eta=eta, q=None))
    all_idx = np.arange(d)
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        w = eg_weights(state, b)
        state.sum_w += w
        g = (float(w @ xs[t]) - float(ys[t])) * xs[t]
        eg_update(state, all_idx, g, eta)
        state.steps += 1
    return state.sum_w / state.steps


@pytest.mark.parametrize("d, m, seed, b, eta, binds", [
    (6, 120, 1, 3.0, 0.05, False),
    (20, 300, 4, 0.3, 0.5, True),
])
@pytest.mark.parametrize("adagrad", [False, True])
def test_ridge_full_matches_reference_loop(d, m, seed, b, eta, binds, adagrad):
    ds = make_dataset(d, m, seed, Regime.L2)
    average, _, projections = reference_ridge_full(ds, b, eta, adagrad)
    assert (projections > 0) == binds
    result = online_ridge_full(ds, b, eta, adagrad=adagrad)
    np.testing.assert_array_equal(result.predictor.weights, average)
    assert result.attributes_consumed == m * d
    assert result.zero_weight_steps == 0


@pytest.mark.parametrize("d, m, seed, b, eta", [(6, 120, 1, 3.0, 0.05), (20, 300, 4, 0.3, 0.5)])
def test_lasso_full_matches_reference_loop(d, m, seed, b, eta):
    ds = make_dataset(d, m, seed, Regime.LINF)
    result = online_lasso_full(ds, b, eta)
    np.testing.assert_array_equal(result.predictor.weights, reference_lasso_full(ds, b, eta))
    assert result.attributes_consumed == m * d
    assert result.zero_weight_steps == 0


def test_online_ridge_hand_trace():
    ds = Dataset(np.array([[1.0, 0.0]] * 3), np.array([1.0] * 3), Regime.L2)
    result = online_ridge_full(ds, b=10.0, eta=0.5)
    # iterates 0, [0.5, 0] and [0.75, 0]; the average is their mean, 5/12
    np.testing.assert_allclose(result.predictor.weights, [5 / 12, 0.0])
    assert result.attributes_consumed == 3 * 2


def test_online_ridge_projection():
    ds = Dataset(np.array([[1.0], [1.0]]), np.array([5.0, 5.0]), Regime.L2)
    result = online_ridge_full(ds, b=1.0, eta=10.0)
    # the second iterate, 50 before projection, is projected to exactly 1.0
    assert result.predictor.weights[0] == 0.5


def test_online_lasso_first_iterate_zero():
    ds = Dataset(np.array([[1.0, -1.0]]), np.array([1.0]), Regime.LINF)
    result = online_lasso_full(ds, b=1.0, eta=0.2)
    np.testing.assert_allclose(result.predictor.weights, [0.0, 0.0])
    assert result.attributes_consumed == 2


def test_online_baselines_budget_and_ball():
    for fn, regime in ((online_ridge_full, Regime.L2), (online_lasso_full, Regime.LINF)):
        ds = make_dataset(6, 120, 1, regime)
        result = fn(ds, b=3.0, eta=0.05)
        assert result.attributes_consumed == 120 * 6
        result.predictor.validate()


def test_online_baseline_errors():
    l2 = make_dataset(3, 5, 2, Regime.L2)
    linf = make_dataset(3, 5, 2, Regime.LINF)
    with pytest.raises(ValueError, match="requires L2-regime data"):
        online_ridge_full(linf, 1.0, 0.1)
    with pytest.raises(ValueError, match="requires Linf-regime data"):
        online_lasso_full(l2, 1.0, 0.1)
    with pytest.raises(ValueError, match="empty dataset"):
        online_ridge_full(Dataset(np.zeros((0, 3)), np.zeros(0), Regime.L2), 1.0, 0.1)
    with pytest.raises(ValueError, match="must be positive"):
        online_ridge_full(l2, 1.0, 0.0)


def test_erm_matches_least_squares_when_unconstrained():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 4)) / 4
    w0 = np.array([0.5, -0.3, 0.2, 0.1])
    y = x @ w0
    ds = Dataset(x, y, None)
    for regime in (Regime.L2, Regime.LINF):
        result = offline_erm(ds, b=10.0, regime=regime, passes=5000)
        np.testing.assert_allclose(result.predictor.weights, w0, atol=1e-5)
        assert result.attributes_consumed == 100 * 4
        assert result.info["converged"]


def test_erm_constrained_satisfies_optimality():
    """First-order check: at the constrained minimum no feasible direction
    improves, so min over the ball of <g, v> matches <g, w>."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3)) / 3
    y = x @ np.array([3.0, -2.0, 1.0])  # optimum outside the small balls
    ds = Dataset(x, y, None)
    b = 0.5
    for regime in (Regime.L2, Regime.LINF):
        result = offline_erm(ds, b=b, regime=regime, passes=20000)
        w = result.predictor.weights
        g = x.T @ (x @ w - y) / len(ds)
        if regime == Regime.L2:
            assert np.linalg.norm(w) == pytest.approx(b, abs=1e-6)
            best = -b * np.linalg.norm(g)
        else:
            assert np.abs(w).sum() == pytest.approx(b, abs=1e-6)
            best = -b * np.abs(g).max()
        assert float(g @ w) <= best + 1e-6


def test_erm_zero_radius():
    ds = make_dataset(3, 10, 5, Regime.L2)
    result = offline_erm(ds, b=0.0, regime=Regime.L2)
    np.testing.assert_array_equal(result.predictor.weights, np.zeros(3))
    assert result.attributes_consumed == 10 * 3


@pytest.mark.parametrize("b", [math.nan, math.inf, -1.0])
def test_erm_rejects_b_that_is_not_finite_and_nonnegative(b):
    ds = make_dataset(3, 10, 5, Regime.L2)
    with pytest.raises(ValueError, match=f"norm bound b must be finite and nonnegative, got {b}"):
        offline_erm(ds, b=b, regime=Regime.L2)


def test_adagrad_full_budget_and_ball():
    ds = make_dataset(5, 80, 7, Regime.L2)
    result = online_ridge_full(ds, b=2.0, eta=2.0, adagrad=True)
    assert result.attributes_consumed == 80 * 5
    result.predictor.validate()
    norms = []

    def step(state, x, y, config):
        baselines._ridge_full_step(state, x, y, config)
        norms.append(np.linalg.norm(state.w))

    config = SolverConfig(b=2.0, eta=2.0, q=None, initial_w=np.zeros(5), adagrad=True)
    again = run_pass(ds, config, 0, Regime.L2, RidgeState.initial, step)
    np.testing.assert_array_equal(again.predictor.weights, result.predictor.weights)
    assert len(norms) == 80 and max(norms) <= 2.0 + 1e-12
    assert reference_ridge_full(ds, 2.0, 2.0, adagrad=True)[2] > 0  # the ball binds


def test_adagrad_budgeted_budget_charged_fully():
    for run, regime in ((run_gaerr, Regime.L2), (run_gaelr, Regime.LINF)):
        ds = make_dataset(5, 150, 8, regime)
        config = SolverConfig(b=2.0, eta=2.0, q=uniform_distribution(5), n_point=2, n_inner=1, adagrad=True)
        result = run(ds, config, 9)
        assert result.attributes_consumed == 150 * 3
        result.predictor.validate()


def test_adagrad_deterministic():
    ds = make_dataset(4, 60, 10, Regime.LINF)
    config = SolverConfig(b=1.5, eta=1.5, q=uniform_distribution(4), adagrad=True)
    r1 = run_gaelr(ds, config, 11)
    r2 = run_gaelr(ds, config, 11)
    np.testing.assert_array_equal(r1.predictor.weights, r2.predictor.weights)


def test_adagrad_config_errors():
    ds = make_dataset(4, 10, 12, Regime.L2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_gaerr(ds, SolverConfig(b=1.0, eta=1.0, q=uniform_distribution(3), adagrad=True), 0)
    with pytest.raises(ValueError, match="must be positive"):
        online_ridge_full(ds, 1.0, 0.0, adagrad=True)
    linf = make_dataset(4, 10, 12, Regime.LINF)
    with pytest.raises(ValueError, match="requires L2-regime data"):
        run_gaerr(linf, SolverConfig(b=1.0, eta=1.0, q=uniform_distribution(4), adagrad=True), 0)


def test_budgeted_runs_refuse_q_none():
    for run, regime in ((run_gaerr, Regime.L2), (run_gaelr, Regime.LINF)):
        ds = make_dataset(4, 10, 13, regime)
        with pytest.raises(ValueError, match="sampling distribution q"):
            run(ds, SolverConfig(b=1.0, eta=0.1, q=None), 0)


def _run_gaerr(ds, b, eta):
    return run_gaerr(ds, SolverConfig(b=b, eta=eta, q=uniform_distribution(ds.dimension)), 0)


def _run_gaelr(ds, b, eta):
    return run_gaelr(ds, SolverConfig(b=b, eta=eta, q=uniform_distribution(ds.dimension)), 0)


def _online_ridge_adagrad(ds, b, eta):
    return online_ridge_full(ds, b, eta, adagrad=True)


@pytest.mark.parametrize("run, regime", [
    (_run_gaerr, Regime.L2),
    (_run_gaelr, Regime.LINF),
    (online_ridge_full, Regime.L2),
    (_online_ridge_adagrad, Regime.L2),
    (online_lasso_full, Regime.LINF),
])
@pytest.mark.parametrize("key, value", [("b", math.nan), ("b", math.inf), ("eta", math.nan), ("eta", math.inf)])
def test_online_learners_reject_non_finite_b_and_eta(run, regime, key, value):
    ds = make_dataset(4, 10, 14, regime)
    args = {"b": 1.0, "eta": 0.1, key: value}
    name = "norm bound" if key == "b" else "step size"
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        run(ds, **args)
