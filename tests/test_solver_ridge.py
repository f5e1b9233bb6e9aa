import math
import tracemalloc

import numpy as np
import pytest

from budgetreg.baselines import online_lasso_full, online_ridge_full
from budgetreg.core import Dataset, Regime
from budgetreg.datagen import generate_dataset, power_law_means, random_target_weights
from budgetreg.estimator import DELTA_ADA, SolverConfig, estimate_point
from budgetreg.harness import RunContext, train_run
from budgetreg.sampling import build_distribution, inner_product_p, sample_index, uniform_distribution
from budgetreg.solver_ridge import (
    RidgeState,
    aerr_eta,
    default_initial_w,
    gaerr_step,
    ridge_eta_known_moments,
    run_gaerr,
)
from stepping import stream_step


def l2_dataset(d, m, seed, alpha=-1.0):
    u = power_law_means(d, alpha, Regime.L2)
    w_star = random_target_weights(d, Regime.L2, seed)
    return generate_dataset(u, w_star, m, Regime.L2, seed), w_star


def test_default_initial_w():
    w0 = default_initial_w(4, 1.0)
    np.testing.assert_allclose(w0, [0.25] * 4)
    assert np.linalg.norm(w0) == pytest.approx(0.5)


def test_config_validation():
    q = uniform_distribution(2)
    with pytest.raises(ValueError, match="step size must be positive"):
        SolverConfig(b=1.0, eta=0.0, q=q).validate(2)
    with pytest.raises(ValueError, match="norm bound must be positive"):
        SolverConfig(b=0.0, eta=0.1, q=q).validate(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        SolverConfig(b=1.0, eta=0.1, q=q).validate(3)
    with pytest.raises(ValueError, match="need at least one draw per estimate"):
        SolverConfig(b=1.0, eta=0.1, q=q, n_point=0).validate(2)


def test_step_from_zero_iterate():
    # w=0: phi = -y with no inner draw, so the step is +eta*y*x~
    config = SolverConfig(b=1.0, eta=0.5, q=build_distribution([1.0]), initial_w=np.array([0.0]))
    state = RidgeState.initial(1, config)
    rng = np.random.default_rng(0)
    stream_step(gaerr_step, state, np.array([1.0]), 1.0, config, rng)
    np.testing.assert_allclose(state.w, [0.5])
    assert state.zero_weight_steps == 1
    assert state.attributes_consumed == 2
    np.testing.assert_allclose(state.sum_w, [0.0])  # pre-update iterate averaged


def test_step_projects_back_to_ball():
    # w=1, x=1, y=0, eta=3: phi=1, raw step to -2, projected to -1
    config = SolverConfig(b=1.0, eta=3.0, q=build_distribution([1.0]), initial_w=np.array([1.0]))
    state = RidgeState.initial(1, config)
    stream_step(gaerr_step, state, np.array([1.0]), 0.0, config, np.random.default_rng(0))
    np.testing.assert_allclose(state.w, [-1.0])
    assert state.zero_weight_steps == 0
    assert state.attributes_consumed == 2


def test_single_example_returns_initial_iterate():
    ds = Dataset(np.array([[0.5, 0.5]]), np.array([0.3]), Regime.L2)
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(2))
    result = run_gaerr(ds, config, 0)
    np.testing.assert_allclose(result.predictor.weights, default_initial_w(2, 1.0))


def test_budget_charged_every_step():
    ds, _ = l2_dataset(5, 200, seed=1)
    config = SolverConfig(b=2.0, eta=0.05, q=uniform_distribution(5), n_point=2, n_inner=1)
    result = run_gaerr(ds, config, 3)
    assert result.attributes_consumed == 200 * 3
    result.predictor.validate()


def test_empty_and_mismatched_dataset():
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(2))
    with pytest.raises(ValueError, match="empty dataset"):
        run_gaerr(Dataset(np.zeros((0, 2)), np.zeros(0), Regime.L2), config, 0)
    linf = Dataset(np.array([[1.0, 1.0]]), np.array([0.0]), Regime.LINF)
    with pytest.raises(ValueError, match="requires L2-regime data"):
        run_gaerr(linf, config, 0)


def test_budgeted_pass_refuses_a_generator_other_than_pcg64():
    # the pass hands back unused draws with PCG64's advance, counted in draws
    ds = Dataset(np.array([[0.5, 0.5]]), np.array([0.3]), Regime.L2)
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(2))
    with pytest.raises(ValueError, match="a budgeted pass needs a PCG64 generator, got Philox"):
        run_gaerr(ds, config, np.random.Generator(np.random.Philox(0)))


def test_pass_memory_does_not_grow_with_m():
    """A pass holds the draws, point estimates and targets of one block at
    a time: the traced peak of a pass over 20000 rows stays below 2x that
    over 2000 rows, budgeted or full-information (measured: 1.04x for the
    budgeted pass; a pass that lists all its targets at once gives 9.8x)."""
    config = SolverConfig(b=1.0, eta=0.05, q=uniform_distribution(10), n_point=2, n_inner=2)
    runs = {"run_gaerr": lambda ds: run_gaerr(ds, config, 0),
            "online_ridge_full": lambda ds: online_ridge_full(ds, 1.0, 0.05),
            "online_lasso_full": lambda ds: online_lasso_full(ds, 1.0, 0.05)}
    for name, run in runs.items():
        peaks = []
        for m in (2000, 20000):
            rng = np.random.default_rng(0)
            ds = Dataset(rng.uniform(-1.0, 1.0, (m, 10)) / np.sqrt(10), rng.uniform(-1.0, 1.0, m))
            tracemalloc.start()
            try:
                run(ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], (name, peaks)


def test_feasible_after_every_step():
    ds, _ = l2_dataset(4, 300, seed=2)
    b = 1.5
    config = SolverConfig(b=b, eta=0.4, q=uniform_distribution(4))
    state = RidgeState.initial(4, config)
    rng = np.random.default_rng(11)
    for t in range(len(ds)):
        stream_step(gaerr_step, state, ds.x[t], float(ds.y[t]), config, rng)
        assert np.linalg.norm(state.w) <= b + 1e-9


def test_adagrad_step_matches_reference_update():
    """AdaGrad OGD through gaerr_step replays, bit for bit, a reference
    written out per step: unless phi = 0, accumulate g^2 on the estimate's
    support, step by eta / sqrt(DELTA_ADA + sum g^2) * g there, and project
    onto the ball."""
    d, b, eta0, k = 5, 1.2, 1.2, 2
    ds, _ = l2_dataset(d, 200, seed=8)
    q = build_distribution(np.arange(1.0, d + 1.0))
    config = SolverConfig(b=b, eta=eta0, q=q, n_point=k, n_inner=2, adagrad=True)
    state = RidgeState.initial(d, config)
    rng_s = np.random.default_rng(41)
    rng_r = np.random.default_rng(41)
    w, accum = default_initial_w(d, b), np.zeros(d)
    for t in range(len(ds)):
        stream_step(gaerr_step, state, ds.x[t], float(ds.y[t]), config, rng_s)
        assert np.linalg.norm(state.w) <= b + 1e-9

        drawn, values = estimate_point(ds.x[t][None], q, rng_r.random(k)[None])
        indices, first = np.unique(drawn[0], return_index=True)  # the reference updates each coordinate once
        values = values[0][first]
        p = inner_product_p(w, Regime.L2)
        j = sample_index(p, rng_r.random(2))
        phi = float(np.mean(w[j] / p.probabilities[j] * ds.x[t][j]) - ds.y[t])
        if phi != 0.0:
            g = phi * values
            accum[indices] += g * g
            w[indices] -= eta0 / np.sqrt(DELTA_ADA + accum[indices]) * g
            nrm = math.sqrt(float(np.dot(w, w)))
            if nrm > b:
                w *= b / nrm
        np.testing.assert_array_equal(state.w, w)
        np.testing.assert_array_equal(state.accum, accum)


def test_deterministic_given_seed():
    ds, _ = l2_dataset(6, 50, seed=3)
    config = SolverConfig(b=1.0, eta=0.1, q=uniform_distribution(6))
    r1 = run_gaerr(ds, config, 42)
    r2 = run_gaerr(ds, config, 42)
    np.testing.assert_array_equal(r1.predictor.weights, r2.predictor.weights)
    r3 = run_gaerr(ds, config, 43)
    assert np.any(r3.predictor.weights != r1.predictor.weights)


def test_aerr_q_uniform():
    # the aerr algorithm is the budgeted pass with uniform q
    ds, _ = l2_dataset(5, 40, seed=6)
    ctx = RunContext(regime=Regime.L2, b=1.0, n_point=2, n_inner=1)
    via_harness = train_run("aerr", ds, ctx, 0.05, 3)
    direct = run_gaerr(ds, SolverConfig(b=1.0, eta=0.05, q=uniform_distribution(5), n_point=2, n_inner=1), 3)
    np.testing.assert_array_equal(via_harness.predictor.weights, direct.predictor.weights)


def test_aerr_eta_values():
    assert aerr_eta(2, 1, 1, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert aerr_eta(8, 1, 1, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert aerr_eta(100, 4, 50, 1.0) == pytest.approx(0.02, abs=1e-15)
    # the norm bound cancels
    assert aerr_eta(100, 4, 50, 7.3) == aerr_eta(100, 4, 50, 1.0)
    with pytest.raises(ValueError):
        aerr_eta(0, 1, 1, 1.0)
    with pytest.raises(ValueError):
        aerr_eta(10, 1, 1, 0.0)


def test_ridge_eta_known_moments_values():
    assert ridge_eta_known_moments(100, 1, 3.0) == pytest.approx(1 / 20, abs=1e-15)
    assert ridge_eta_known_moments(1, 1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert ridge_eta_known_moments(400, 4, 12.0) == pytest.approx(1 / 40, abs=1e-15)
    with pytest.raises(ValueError, match="degenerate moments"):
        ridge_eta_known_moments(100, 1, -1.0)


def test_equal_moments_recover_uniform_run():
    """With equal second moments the moment-optimal q is uniform, so the
    data-dependent run replays the plain one step for step."""
    ds, _ = l2_dataset(5, 80, seed=4)
    eta = 0.07
    plain = SolverConfig(b=1.0, eta=eta, q=uniform_distribution(5))
    tuned = SolverConfig(b=1.0, eta=eta, q=build_distribution(np.sqrt(np.full(5, 0.2))))
    r1 = run_gaerr(ds, plain, 9)
    r2 = run_gaerr(ds, tuned, 9)
    # the two qs agree only up to rounding (1/5 vs w/(5w)), so the replay
    # is exact in value, not in bits
    np.testing.assert_allclose(r1.predictor.weights, r2.predictor.weights, rtol=0, atol=1e-13)


def test_improved_p_changes_only_inner_draws():
    ds, _ = l2_dataset(5, 60, seed=5)
    moments = np.full(5, 0.2)
    base = SolverConfig(b=1.0, eta=0.05, q=uniform_distribution(5))
    improved = SolverConfig(b=1.0, eta=0.05, q=uniform_distribution(5), moments=moments)
    r1 = run_gaerr(ds, base, 7)
    r2 = run_gaerr(ds, improved, 7)
    # equal moments make the improved weighting proportional to |w|, a
    # different distribution than w^2, so the runs diverge
    assert r1.attributes_consumed == r2.attributes_consumed
    for r in (r1, r2):
        r.predictor.validate()


def test_more_examples_help():
    small, large = [], []
    for seed in range(20):
        ds, w_star = l2_dataset(5, 10_100, seed=100 + seed, alpha=-1.0)
        test = generate_dataset(power_law_means(5, -1.0, Regime.L2), w_star, 500, Regime.L2, 9000 + seed)
        b = float(np.linalg.norm(w_star))
        for m, bucket in ((100, small), (10_000, large)):
            sub = ds.subset(np.arange(m))
            config = SolverConfig(b=b, eta=aerr_eta(m, 1, 5, b), q=uniform_distribution(5))
            w = run_gaerr(sub, config, seed).predictor.weights
            err = float(np.mean((test.x @ w - test.y) ** 2))
            bucket.append(err)
    assert np.mean(large) < np.mean(small)


def test_p_fallbacks_counted_when_a_moment_is_zero_on_the_support():
    """The ridge iterate starts nonzero on every coordinate, so a zero
    moment voids the improved p at every step; the run counts each one."""
    ds, _ = l2_dataset(5, 50, seed=6)
    ds.x[:, 1] = 0.0  # attribute 1 is never observed nonzero: exact moment 0
    moments = np.mean(ds.x**2, axis=0)
    q = uniform_distribution(5)
    dead = run_gaerr(ds, SolverConfig(b=1.0, eta=0.05, q=q, moments=moments), 3)
    assert dead.zero_weight_steps == 0
    assert dead.p_fallbacks == 50
    # a falling-back run draws exactly what the standard p draws
    standard = run_gaerr(ds, SolverConfig(b=1.0, eta=0.05, q=q), 3)
    np.testing.assert_array_equal(dead.predictor.weights, standard.predictor.weights)
    assert standard.p_fallbacks == 0
    alive = SolverConfig(b=1.0, eta=0.05, q=q, moments=moments + 0.1)
    assert run_gaerr(ds, alive, 3).p_fallbacks == 0
    ctx = RunContext(regime=Regime.L2, b=1.0, n_point=2, n_inner=1, moments=moments)
    assert train_run("ddaerr", ds, ctx, 0.05, 3).p_fallbacks == 50
