import contextlib
import math
import multiprocessing
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetreg import baselines, solver_lasso, solver_ridge
from budgetreg.core import B_RANGE, BALL_TOL, Dataset, Regime, stream, weight_norm
from budgetreg.datagen import generate_dataset, power_law_means, random_target_weights
from budgetreg.harness import (
    ALGORITHMS,
    ExperimentConfig,
    RunContext,
    _TAG_CV,
    _TAG_CV_RUN,
    _TAG_CV_SPLIT,
    _WORKER,
    _fold_scores,
    _materialize,
    _pick_eta,
    dataset_moments,
    relative_loss,
    run_experiment,
    split_budget,
    train_grid,
    train_run,
)
from budgetreg.core import Predictor
from budgetreg.estimator import run_pass
from budgetreg.solver_lasso import eg_weights
from budgetreg.solver_ridge import RidgeState


def make_dataset(d, m, seed, regime, alpha=-1.0):
    u = power_law_means(d, alpha, regime)
    w_star = random_target_weights(d, regime, seed)
    return generate_dataset(u, w_star, m, regime, seed)


def make_ctx(regime, b=3.0, n_point=2, n_inner=1, moments=None, **kw):
    return RunContext(regime=regime, b=b, n_point=n_point, n_inner=n_inner, moments=moments, **kw)


def test_split_budget():
    assert split_budget(2) == (1, 1)
    assert split_budget(3) == (2, 1)
    assert split_budget(4) == (2, 2)
    assert split_budget(5) == (2, 3)  # round-half-to-even at 2.5
    assert split_budget(5, fraction=0.8) == (4, 1)
    assert split_budget(2, fraction=0.0) == (1, 1)
    assert split_budget(6, fraction=1.0) == (5, 1)
    with pytest.raises(ValueError, match="budget"):
        split_budget(1)


def test_relative_loss_values():
    test = Dataset(np.array([[1.0]]), np.array([2.0]), Regime.L2)
    zero = Predictor(np.zeros(1), 1.0, Regime.L2)
    assert relative_loss(zero, test) == 1.0
    half = Predictor(np.array([1.0]), 1.0, Regime.L2)
    assert relative_loss(half, test) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="zero-predictor loss undefined"):
        relative_loss(zero, Dataset(np.array([[1.0]]), np.array([0.0]), Regime.L2))


def test_dataset_moments():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 0.5]]), np.zeros(2), Regime.LINF)
    np.testing.assert_allclose(dataset_moments(ds), [0.5, 0.125])
    with pytest.raises(ValueError, match="empty dataset"):
        dataset_moments(Dataset(np.zeros((0, 2)), np.zeros(0)))


def test_stream_keying():
    a = stream(3, 1, 2).random(4)
    b = stream(3, 1, 2).random(4)
    np.testing.assert_array_equal(a, b)
    assert np.any(stream(3, 1, 3).random(4) != a)
    assert np.any(stream((3, 9), 1, 2).random(4) != a)


def test_train_run_budgets():
    ds = make_dataset(5, 40, 0, Regime.L2)
    ctx = make_ctx(Regime.L2, moments=dataset_moments(ds))
    for algo in ("aerr", "ddaerr", "2p-ddaerr", "adagrad-gaerr"):
        result = train_run(algo, ds, ctx, None, stream(0, 1))
        assert result.attributes_consumed == 40 * 3, algo
    assert train_run("ogd-full", ds, ctx, None, stream(0, 2)).attributes_consumed == 40 * 5
    assert train_run("erm", ds, ctx, None, stream(0, 3)).attributes_consumed == 40 * 5


@pytest.mark.filterwarnings("ignore:m below ln")  # lasso's known-moments rate warns on tiny runs
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_train_run_reads_exactly_its_budget_and_stays_in_its_ball(data):
    """Every algorithm, on any data of its regime (zero columns and constant
    targets included), reads k+1 values per example (d for a
    full-information run) and returns a valid predictor; every iterate of
    an online pass stays in the ball too, which a hook on each step of
    run_pass checks."""
    algo = data.draw(st.sampled_from(sorted(ALGORITHMS)))
    regime = ALGORITHMS[algo].regime or data.draw(st.sampled_from(list(Regime)))
    d, budget, m = data.draw(st.integers(1, 30)), data.draw(st.integers(2, 8)), data.draw(st.integers(2, 60))
    n_point, n_inner = split_budget(budget, data.draw(st.floats(0.0, 1.0)))
    live = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    live[data.draw(st.integers(0, d - 1))] = True  # an all-zero pool has no moments to sample by
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, (m, d)) * live
    if regime == Regime.L2:
        x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    y = np.full(m, data.draw(st.floats(-1.0, 1.0))) if data.draw(st.booleans()) else rng.uniform(-1.0, 1.0, m)
    train = Dataset(x, y, regime)
    ctx = make_ctx(regime, b=data.draw(st.floats(0.1, 3.0)), n_point=n_point, n_inner=n_inner,
                   moments=dataset_moments(train))
    iterates = []

    def checked_pass(dataset, config, seed, regime, initial_state, step, table=None):
        def checked_step(state, *args):
            step(state, *args)
            w = state.w if isinstance(state, RidgeState) else eg_weights(state, config.b)
            assert np.all(np.isfinite(w)) and weight_norm(w, regime) <= config.b + BALL_TOL
            iterates.append(state.steps)
        return run_pass(dataset, config, seed, regime, initial_state, checked_step, table)

    with pytest.MonkeyPatch.context() as patch:
        for module in (solver_ridge, solver_lasso, baselines):
            patch.setattr(module, "run_pass", checked_pass)
        result = train_run(algo, train, ctx, None, stream(0))
    assert result.attributes_consumed == m * (budget if ALGORITHMS[algo].budgeted else d)
    result.predictor.validate()
    assert len(iterates) == (0 if algo == "erm" else m)


@pytest.mark.filterwarnings("ignore:m below ln")  # lasso's known-moments rate warns on tiny runs
@pytest.mark.parametrize("b", [1.49e-154, B_RANGE[0], 1e150])
def test_every_algorithm_runs_near_the_edges_of_the_b_range(b):
    """Squared weights at the ball's scale neither underflow to a zero
    p (at the lower edge) nor overflow (at 1e150)."""
    for algo, spec in ALGORITHMS.items():
        for regime in [spec.regime] if spec.regime else list(Regime):
            ds = make_dataset(10, 50, 4, regime)
            ctx = make_ctx(regime, b=b, n_point=2, n_inner=2, moments=dataset_moments(ds))
            w = train_run(algo, ds, ctx, None, stream(5)).predictor.weights
            assert np.all(np.isfinite(w)) and weight_norm(w, regime) <= b * (1 + 1e-9), (algo, regime)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("b", [1.34e154, B_RANGE[1]])
def test_ridge_runs_at_the_top_of_the_b_range_keep_a_nonzero_iterate(b):
    """An iterate whose squared norm overflows is projected onto the ball,
    not scaled to zero (which the next step would see as a zero iterate),
    in a single run and in a lockstep grid alike."""
    ds = make_dataset(10, 50, 4, Regime.L2)
    ctx = make_ctx(Regime.L2, b=b, n_point=2, n_inner=2, moments=dataset_moments(ds))
    for algo in ("aerr", "ddaerr", "2p-ddaerr"):
        rows = train_grid(algo, ds, ctx, [0.4, 0.05], (5,))
        for eta, row in zip([0.4, 0.05], rows):
            one = train_run(algo, ds, ctx, eta, stream(5))
            assert one.zero_weight_steps == 0, (algo, eta)
            one.predictor.validate()
            assert row.predictor.weights.tobytes() == one.predictor.weights.tobytes(), (algo, eta)


def test_train_run_lasso_family():
    ds = make_dataset(5, 40, 1, Regime.LINF)
    ctx = make_ctx(Regime.LINF, moments=dataset_moments(ds))
    for algo in ("aelr", "ddaelr", "2p-ddaelr", "adagrad-gaelr"):
        result = train_run(algo, ds, ctx, None, stream(1, 1))
        assert result.attributes_consumed == 40 * 3, algo
        assert np.abs(result.predictor.weights).sum() <= ctx.b + 1e-9


def test_two_phase_train_run_with_one_point_draw():
    """split_budget(2) leaves one point draw per example: the table holds m1
    draws and eps = d ln(2d/delta) / m1."""
    d, m = 4, 200
    n_point, n_inner = split_budget(2)
    assert (n_point, n_inner) == (1, 1)
    for algo, regime in (("2p-ddaerr", Regime.L2), ("2p-ddaelr", Regime.LINF)):
        ctx = make_ctx(regime, n_point=n_point, n_inner=n_inner)
        result = train_run(algo, make_dataset(d, m, 3, regime), ctx, None, stream(3, 1))
        m1 = math.ceil(ctx.m1_fraction * m)
        assert result.attributes_consumed == m * 2, algo
        assert result.info["moment_table"].counts.sum() == m1, algo
        assert result.info["epsilon"] == pytest.approx(d * math.log(2 * d / ctx.delta) / m1, rel=1e-12), algo


def test_train_run_errors():
    ds = make_dataset(4, 10, 2, Regime.L2)
    ctx = make_ctx(Regime.L2)
    with pytest.raises(ValueError, match="unknown algorithm: sgd"):
        train_run("sgd", ds, ctx, None, 0)
    with pytest.raises(ValueError, match="aelr requires linf data"):
        train_run("aelr", ds, ctx, None, 0)
    with pytest.raises(ValueError, match="needs second-moment estimates"):
        train_run("ddaerr", ds, make_ctx(Regime.L2, moments=None), None, 0)


def test_train_run_deterministic_and_eta_sensitive():
    ds = make_dataset(4, 60, 3, Regime.L2)
    ctx = make_ctx(Regime.L2, moments=dataset_moments(ds))
    r1 = train_run("ddaerr", ds, ctx, 0.05, stream(9, 0))
    r2 = train_run("ddaerr", ds, ctx, 0.05, stream(9, 0))
    np.testing.assert_array_equal(r1.predictor.weights, r2.predictor.weights)
    r3 = train_run("ddaerr", ds, ctx, 0.02, stream(9, 0))
    assert np.any(r3.predictor.weights != r1.predictor.weights)


def fold_blocks(n, folds, seed):
    """The folds' validation indices of the first n examples, as run_experiment splits a CV cell."""
    return np.array_split(stream(seed, _TAG_CV_SPLIT).permutation(n), folds)


def cv_pick(ds, algo, grid, folds, seed, ctx):
    """The step size k-fold validation on all of ds picks, as run_experiment composes it."""
    blocks = fold_blocks(len(ds), folds, seed)
    grid = [float(eta) for eta in grid]
    scores = _fold_scores(ds, blocks, range(folds), algo, ctx, grid, seed)
    return _pick_eta(grid, list(zip(*scores)))


def test_cross_validate_single_and_duplicate_entries():
    ds = make_dataset(4, 50, 4, Regime.L2)
    ctx = make_ctx(Regime.L2, moments=dataset_moments(ds))
    assert cv_pick(ds, "aerr", [0.03], 5, (0,), ctx) == 0.03
    assert cv_pick(ds, "aerr", [0.03, 0.03, 0.03], 5, (0,), ctx) == 0.03
    # duplicated entries score identically, fold by fold
    blocks = fold_blocks(len(ds), 5, (0,))
    for f in range(5):
        scores, = _fold_scores(ds, blocks, [f], "aerr", ctx, [0.03, 0.03, 0.03], (0,))
        assert scores[0] == scores[1] == scores[2]
    assert _pick_eta([0.05, 0.03, 0.03], [[0.2], [0.1], [0.1]]) == 0.03
    for grid in ([0.03], [0.03, 0.03, 0.03]):
        result = run_experiment(small_config(algorithms=["aerr"], prefixes=[50], folds=5, eta_grid=grid, repeats=1))
        assert result.etas == {("aerr", 50): 0.03}


def test_cross_validate_matches_manual_enumeration():
    """The selection must replay the documented recipe: fold split and per
    fold run streams keyed by (seed, fold) only, mean relative loss, ties
    to the smaller step size."""
    ds = make_dataset(4, 45, 5, Regime.L2)
    ctx = make_ctx(Regime.L2, moments=dataset_moments(ds))
    grid = [0.1, 0.01, 0.05]
    folds, seed = 3, 17
    order = stream(seed, _TAG_CV_SPLIT).permutation(len(ds))
    blocks = np.array_split(order, folds)
    scores = []
    for j, eta in enumerate(grid):
        per_fold = []
        for f in range(folds):
            val = ds.subset(blocks[f])
            train_idx = np.concatenate([blocks[g] for g in range(folds) if g != f])
            rng = stream(seed, _TAG_CV_RUN, f)
            result = train_run("aerr", ds.subset(train_idx), ctx, eta, rng)
            per_fold.append(relative_loss(result.predictor, val))
            assert _fold_scores(ds, blocks, [f], "aerr", ctx, grid, (seed,))[0][j] == per_fold[-1]
        scores.append(float(np.mean(per_fold)))
    expected = min(zip(scores, grid))[1]
    assert cv_pick(ds, "aerr", grid, folds, (seed,), ctx) == expected


def test_cross_validate_errors():
    raw = {"algorithms": ["aerr"], "regime": "l2", "prefixes": [30], "k": 2, "dim": 4, "alpha": -1.0,
           "eta_grid": [0.1], "folds": 3}
    with pytest.raises(ValueError, match="eta_grid must be null or a non-empty list"):
        ExperimentConfig.from_dict({**raw, "eta_grid": []})
    with pytest.raises(ValueError, match="at least two folds"):
        ExperimentConfig.from_dict({**raw, "folds": 1})
    with pytest.raises(ValueError, match=r"prefixes must be at least folds \(3\) when step sizes are cross-validated"):
        ExperimentConfig.from_dict({**raw, "prefixes": [2, 30]})
    zeros = Dataset(np.ones((12, 2)) * 0.5, np.zeros(12), Regime.L2)
    blocks = fold_blocks(12, 3, (0,))
    scores = _fold_scores(zeros, blocks, range(3), "aerr", make_ctx(Regime.L2, b=1.0), [0.1, 0.2], (0,))
    assert scores == [[None, None]] * 3


def test_config_round_trip_and_errors():
    raw = {"algorithms": ["aerr"], "regime": "l2", "prefixes": [50], "k": 2, "dim": 5, "alpha": -1.0}
    config = ExperimentConfig.from_dict(raw)
    assert config.regime == Regime.L2
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    with pytest.raises(ValueError, match="invalid config keys: speed"):
        ExperimentConfig.from_dict({**raw, "speed": 1})
    with pytest.raises(ValueError, match="missing config keys: k, regime"):
        ExperimentConfig.from_dict({"algorithms": ["aerr"], "prefixes": [10]})
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig.from_dict({**raw, "algorithms": ["sgd"]})
    with pytest.raises(ValueError, match="aelr requires linf data"):
        ExperimentConfig.from_dict({**raw, "algorithms": ["aelr"]})
    with pytest.raises(ValueError, match="synthetic data needs dim"):
        ExperimentConfig.from_dict({k: v for k, v in raw.items() if k != "dim"})
    with pytest.raises(ValueError, match="prefixes must be positive"):
        ExperimentConfig.from_dict({**raw, "prefixes": [0]})
    for alpha in (math.nan, -math.inf, 0.5):
        with pytest.raises(ValueError, match="finite alpha <= 0"):
            ExperimentConfig.from_dict({**raw, "alpha": alpha})


@pytest.mark.parametrize("key, value", [
    ("eta_grid", [math.nan, 0.1]),
    ("eta_grid", [0.1, math.inf]),
    ("eta_grid", [0.0, 0.1]),
    ("eta_grid", [-0.1]),
    ("b", math.nan),
    ("b", math.inf),
    ("b", 0.0),
    ("b", -1.0),
    # squared weights underflow to zero below the range and step sizes overflow above it
    ("b", 1e-170),
    ("b", 1.49e-154),
    ("b", 1e160),
    ("b", 1.7e308),
    ("b", 10**155),
    ("eta_grid", [10**400]),  # a JSON integer too large for a float
])
def test_config_rejects_step_sizes_and_norm_bounds_that_are_not_finite_and_positive(key, value):
    raw = {"algorithms": ["aerr"], "regime": "l2", "prefixes": [50], "k": 2, "dim": 5, "alpha": -1.0}
    with pytest.raises(ValueError, match=f"{key} (entries )?must be finite and positive"):
        ExperimentConfig.from_dict({**raw, key: value})


@pytest.mark.parametrize("key, value, message", [
    ("delta", 0.0, "delta must lie in"),
    ("delta", 1.0, "delta must lie in"),
    ("delta", 1.5, "delta must lie in"),
    ("delta", math.nan, "delta must lie in"),
    ("epsilon_override", -1.0, "epsilon_override must be"),
    ("epsilon_override", math.nan, "epsilon_override must be"),
    ("epsilon_override", math.inf, "epsilon_override must be"),
    ("epsilon_override", "0.1", "epsilon_override must be"),
    ("epsilon_override", True, "epsilon_override must be"),
    ("improved_p", "false", "improved_p must be true or false"),
    ("improved_p", 0, "improved_p must be true or false"),
    ("improved_p", None, "improved_p must be true or false"),
    ("k", "2", "k must be an integer, got '2'"),
    ("k", 2.0, "k must be an integer, got 2.0"),
    ("k", True, "k must be an integer, got True"),
    ("dim", "5", "dim must be an integer"),
    ("repeats", "3", "repeats must be an integer"),
    ("repeats", None, "repeats must be an integer, got None"),
    ("folds", 3.5, "folds must be an integer, got 3.5"),
    ("seed", None, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"),
    # an integer data is opened as a file descriptor: 0 reads stdin, 2 closes stderr
    *[("data", value, re.escape(f"data must be null or a non-empty CSV path, got {value!r}"))
      for value in (0, 2, 3, True, 12.5, "", ["train.csv"], {"path": "train.csv"})],
    ("alpha", "-1", "alpha must be a number, got '-1'"),
    ("alpha", False, "alpha must be a number, got False"),
    ("budget_split", "0.5", "budget_split must be a number"),
    ("m1_fraction", None, "m1_fraction must be a number, got None"),
    ("test_fraction", "0.2", "test_fraction must be a number"),
    ("delta", "0.5", "delta must be a number"),
    ("delta", None, "delta must be a number"),
    ("b", "1", "b must be a number"),
    ("b", True, "b must be a number"),
    ("prefixes", [20.7], r"prefixes must be a non-empty list of integers, got \[20.7\]"),
    ("prefixes", [True], r"prefixes must be a non-empty list of integers, got \[True\]"),
    ("prefixes", ["20.5"], r"prefixes must be a non-empty list of integers, got \['20.5'\]"),
    ("prefixes", "30", "prefixes must be a non-empty list of integers, got '30'"),
    ("prefixes", [], r"prefixes must be a non-empty list of integers, got \[\]"),
    ("prefixes", [40, 40], r"prefixes must be positive and distinct, got \[40, 40\]"),
    ("prefixes", ["40", 40], r"prefixes must be a non-empty list of integers, got \['40', 40\]"),
    ("eta_grid", [True], r"eta_grid must be null or a non-empty list of numbers, got \[True\]"),
    ("eta_grid", "0.1", "eta_grid must be null or a non-empty list of numbers, got '0.1'"),
    ("eta_grid", [0.1, "fast"], r"eta_grid must be null or a non-empty list of numbers, got \[0.1, 'fast'\]"),
    ("eta_grid", [], r"eta_grid must be null or a non-empty list of numbers, got \[\]"),
    ("budget_split", math.inf, r"budget_split must lie in \[0, 1\], got inf"),
    ("budget_split", math.nan, r"budget_split must lie in \[0, 1\], got nan"),
    ("budget_split", 5.0, r"budget_split must lie in \[0, 1\], got 5.0"),
    ("budget_split", -3.0, r"budget_split must lie in \[0, 1\], got -3.0"),
    ("algorithms", ["2p-ddaerr", "2p-ddaerr"],
     r"algorithms must be a non-empty list of distinct names, got \['2p-ddaerr', '2p-ddaerr'\]"),
    ("algorithms", "aerr", "algorithms must be a non-empty list of distinct names, got 'aerr'"),
    ("algorithms", [], r"algorithms must be a non-empty list of distinct names, got \[\]"),
    ("algorithms", [["aerr"]], "algorithms must be a non-empty list of distinct names"),
    ("prefixes", [1], "prefixes must leave 2p-ddaerr a second phase: its smallest run has 1 example"),
    ("m1_fraction", 0.99, "prefixes must leave 2p-ddaerr a second phase: .* m1_fraction 0.99 gives phase 1 50"),
    ("k", 0, "k must be at least 1"),
    ("repeats", 0, "repeats must be positive"),
    ("test_fraction", 1.0, r"test fraction must lie in \(0, 1\)"),
    ("m1_fraction", 0.0, r"phase-1 fraction must lie in \(0, 1\)"),
    ("seed", -1, "seed must be nonnegative"),
    ("eta_grid", ["0.1"], r"eta_grid must be null or a non-empty list of numbers, got \['0.1'\]"),
    # JSON integers beyond the largest float, which a `< inf` bound lets through to an OverflowError
    pytest.param("b", 10**400, "b must be finite and positive", id="b-beyond-float"),
    pytest.param("alpha", -10**400, "synthetic data needs dim >= 1 and a finite alpha <= 0", id="alpha-beyond-float"),
    pytest.param("epsilon_override", 10**400, "epsilon_override must be null or a finite number >= 0",
                 id="epsilon_override-beyond-float"),
    # counts beyond sys.maxsize: a k or a prefix that large overflows a float in split_budget or _phase1_size
    pytest.param("k", 10**400, f"k must be at most {sys.maxsize}", id="k-beyond-maxsize"),
    pytest.param("prefixes", [50, 10**400], f"prefixes must be at most {sys.maxsize}", id="prefixes-beyond-maxsize"),
    pytest.param("dim", 10**400, f"dim must be at most {sys.maxsize}", id="dim-beyond-maxsize"),
    pytest.param("repeats", 10**400, f"repeats must be at most {sys.maxsize}", id="repeats-beyond-maxsize"),
    pytest.param("k", sys.maxsize + 1, f"k must be at most {sys.maxsize}", id="k-one-beyond-maxsize"),
])
def test_config_rejects_two_phase_settings_out_of_range(key, value, message):
    raw = {"algorithms": ["2p-ddaerr"], "regime": "l2", "prefixes": [50], "k": 2, "dim": 5, "alpha": -1.0}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({**raw, key: value})


# shapes on which some run of the experiment would fail after it started
@pytest.mark.parametrize("overrides, message", [
    ({"algorithms": ["aerr"], "prefixes": [5], "folds": 10}, r"prefixes must be at least folds \(10\)"),
    ({"algorithms": ["erm", "ogd-full"], "prefixes": [40, 9], "folds": 10}, r"prefixes must be at least folds \(10\)"),
    ({"algorithms": ["aerr", "2p-ddaerr"], "prefixes": [2], "folds": 2},
     "prefixes must leave 2p-ddaerr a second phase: its smallest run has 1 example"),
    # the final run of 5 examples has a phase 2; a training fold of 4 has none
    ({"algorithms": ["2p-ddaerr"], "prefixes": [20, 5], "folds": 5, "m1_fraction": 0.8},
     "its smallest run has 4 example.* gives phase 1 4"),
])
def test_config_refuses_prefixes_no_run_can_take(overrides, message):
    raw = {"regime": "l2", "k": 2, "dim": 10, "alpha": -1.0, "eta_grid": [0.1], **overrides}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(raw)


def test_config_accepts_the_smallest_prefixes_a_run_can_take(tmp_path):
    from budgetreg.ingest import write_csv

    x = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 10))
    path = tmp_path / "pool.csv"
    write_csv(path, Dataset(x, 1.5 + x[:, 0]))  # no zero target: every split's relative loss is defined
    raw = {"regime": "l2", "data": str(path), "k": 2, "eta_grid": [0.1], "repeats": 1}
    for overrides in ({"algorithms": ["aerr"], "prefixes": [10], "folds": 10},
                      {"algorithms": ["erm"], "prefixes": [2], "folds": 10},  # erm is never cross-validated
                      {"algorithms": ["2p-ddaerr"], "prefixes": [2], "eta_grid": None},
                      {"algorithms": ["2p-ddaerr"], "prefixes": [4], "folds": 2},
                      {"algorithms": ["2p-ddaerr"], "prefixes": [20], "folds": 10, "m1_fraction": 0.5},
                      {"algorithms": ["2p-ddaerr"], "prefixes": [7], "folds": 5, "m1_fraction": 0.8}):
        result = run_experiment(ExperimentConfig.from_dict({**raw, **overrides}))
        assert len(result.records) == 1


# a synthetic pool of 3 or 5 rows leaves a 1-row test split, whose target is 0 at seed 0
@pytest.mark.parametrize("overrides", [
    {"algorithms": ["erm"], "prefixes": [2]},
    {"algorithms": ["2p-ddaerr"], "prefixes": [2], "eta_grid": None},
    {"algorithms": ["2p-ddaerr"], "prefixes": [4], "folds": 2},
])
def test_run_experiment_refuses_a_test_split_of_zero_targets_before_running(monkeypatch, overrides):
    raw = {"regime": "l2", "k": 2, "dim": 10, "alpha": -1.0, "eta_grid": [0.1], "repeats": 1, **overrides}
    tasks = []
    monkeypatch.setattr("budgetreg.harness._run_task", tasks.append)
    with pytest.raises(ValueError, match=r"test split has only zero targets \(1 example\(s\)\)"):
        run_experiment(ExperimentConfig.from_dict(raw))
    assert tasks == []


def sparse_target_config(tmp_path, **overrides):
    """A 40-row CSV whose targets are 0 but for 6 rows, and a CV config
    over it whose seed leaves the 10-example prefix all zero targets."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (40, 3))
    y = np.zeros(40)
    y[rng.choice(40, 6, replace=False)] = rng.uniform(0.5, 1.0, 6)
    path = tmp_path / "sparse.csv"
    path.write_text("".join(",".join(f"{v:.17g}" for v in (*row, label)) + "\n" for row, label in zip(x, y)))
    raw = {"algorithms": ["aerr", "ogd-full"], "regime": "l2", "prefixes": [10], "k": 2, "data": str(path),
           "folds": 2, "eta_grid": [0.1, 0.2], "repeats": 1, **overrides}
    for seed in range(100):
        config = ExperimentConfig.from_dict({**raw, "seed": seed})
        with contextlib.suppress(ValueError):  # a test split of only zero targets
            if not np.any(_materialize(config)[0].y[:10]):
                return config
    raise AssertionError("no seed leaves the prefix all zero targets")


def test_run_experiment_refuses_a_cv_cell_whose_every_fold_has_only_zero_targets(tmp_path, monkeypatch):
    """No fold of such a cell can score a step size; the cell is named and
    refused before any task runs, not after the CV phase."""
    config = sparse_target_config(tmp_path)
    tasks = []
    monkeypatch.setattr("budgetreg.harness._run_task", tasks.append)
    with pytest.raises(ValueError, match=r"cannot cross-validate aerr at prefix 10: every validation fold "
                                         r"has only zero targets"):
        run_experiment(config)
    assert tasks == []
    monkeypatch.undo()
    config.eta_grid = None  # the same cell with the algorithms' own step sizes runs
    assert len(run_experiment(config).records) == 2


def test_config_accepts_two_phase_settings_in_range():
    raw = {"algorithms": ["2p-ddaerr"], "regime": "l2", "prefixes": [50], "k": 2, "dim": 5, "alpha": -1.0}
    for extra in ({"delta": 0.5}, {"epsilon_override": None}, {"epsilon_override": 0}, {"epsilon_override": 0.25},
                  {"improved_p": False}, {"prefixes": [50, 60], "eta_grid": [1, 0.2], "alpha": -1, "b": 2},
                  {"budget_split": 0.0}, {"budget_split": 1.0}, {"budget_split": 1},
                  {"k": sys.maxsize}, {"prefixes": [50, sys.maxsize]}, {"dim": sys.maxsize}, {"repeats": sys.maxsize},
                  {"b": B_RANGE[0]}, {"b": B_RANGE[1]}):
        ExperimentConfig.from_dict({**raw, **extra})


def small_config(**overrides):
    base = dict(
        algorithms=["aerr", "ddaerr", "ogd-full"],
        regime=Regime.L2,
        prefixes=[30, 60],
        k=2,
        dim=5,
        alpha=-1.0,
        repeats=3,
        folds=2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_shapes_and_budget_parity():
    config = small_config()
    result = run_experiment(config)
    assert len(result.records) == 3 * 2 * 3
    for m in (30, 60):
        budgeted = {
            rec.attributes_observed
            for rec in result.records
            if rec.m == m and ALGORITHMS[rec.algorithm].budgeted
        }
        assert budgeted == {m * 3}
        full = {
            rec.attributes_observed
            for rec in result.records
            if rec.m == m and not ALGORITHMS[rec.algorithm].budgeted
        }
        assert full == {m * 5}
    for curve in result.curves.values():
        xs = [p[0] for p in curve.points]
        assert xs == sorted(xs)
        assert len(curve.points) == 2


def test_run_experiment_refuses_string_prefixes_before_running(monkeypatch):
    """A numeric string is not read as a number (as text, "100" < "9")."""
    tasks = []
    monkeypatch.setattr("budgetreg.harness._run_task", tasks.append)
    with pytest.raises(ValueError, match=r"prefixes must be a non-empty list of integers, got \['9', '100'\]"):
        run_experiment(small_config(algorithms=["ogd-full"], prefixes=["9", "100"], repeats=1))
    assert tasks == []


def test_run_experiment_deterministic_across_workers():
    r1 = run_experiment(small_config(), workers=1)
    r2 = run_experiment(small_config(), workers=2)
    assert [(r.algorithm, r.seed, r.m, r.attributes_observed, r.test_relative_loss) for r in r1.records] == [
        (r.algorithm, r.seed, r.m, r.attributes_observed, r.test_relative_loss) for r in r2.records
    ]
    assert r1.etas == r2.etas


@pytest.mark.parametrize("eta_grid", [None, [0.02, 0.5]])
def test_final_runs_are_scored_after_every_final_run_has_trained(monkeypatch, eta_grid):
    """Final runs train in one phase and are scored in the next, so no test-split
    product runs while another final run trains."""
    import budgetreg.harness as harness

    calls = []

    def logged(kind, fn):
        def wrapper(*args):
            calls.append(kind)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(harness, "train_run", logged("train", harness.train_run))
    monkeypatch.setattr(harness, "relative_loss", logged("score", harness.relative_loss))
    config = small_config(eta_grid=eta_grid)
    result = run_experiment(config)
    finals = len(result.records)
    assert calls[-2 * finals:] == ["train"] * finals + ["score"] * finals
    if eta_grid is None:
        assert len(calls) == 2 * finals
    else:  # the CV fits come first, one task per cell at one worker (its folds have one training
        # length): the budgeted algorithms fit every fold's grid in one lockstep pass, the
        # full-information one through train_run per fold and step size; then each fold is scored
        fits = {"aerr": [], "ddaerr": [], "ogd-full": ["train"] * 2 * config.folds}
        assert calls[:-2 * finals] == [call for algo in config.algorithms for _ in config.prefixes
                                       for call in fits[algo] + ["score"] * 2 * config.folds]


def test_run_experiment_identical_across_worker_counts_with_a_blas_threaded_test_split():
    """A test split of at least 9216 cells (rows x dim) is large enough for
    OpenBLAS to thread its product; records, curves and selected step sizes
    must still not depend on the worker count."""
    config = small_config(algorithms=["aelr", "ddaelr", "2p-ddaelr", "eg-full"], regime=Regime.LINF,
                          prefixes=[200], dim=200, repeats=2, folds=2, eta_grid=[0.1, 1.0], seed=17)
    _, test, _, _ = _materialize(config)
    assert len(test) * test.dimension >= 9216
    runs = [run_experiment(config, workers=w) for w in (1, 2, 3)]
    for run in runs[1:]:
        assert run.records == runs[0].records
        assert run.curves == runs[0].curves
        assert run.etas == runs[0].etas


@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="the patched relative_loss reaches the workers only when they are forked")
def test_final_scoring_runs_in_one_worker_process(monkeypatch, tmp_path):
    """At two workers every final run is scored in one task on one worker,
    so no two BLAS-threaded test-split products share the cores, and none
    runs in the calling process (its helper threads would spin on)."""
    import budgetreg.harness as harness

    config = small_config(algorithms=["aelr", "eg-full"], regime=Regime.LINF, prefixes=[200], dim=200,
                          repeats=2, seed=17)
    _, test, _, _ = _materialize(config)
    assert config.eta_grid is None and len(test) * test.dimension >= 9216
    log = tmp_path / "scoring-pids"

    def logged(predictor, test_set):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return relative_loss(predictor, test_set)

    monkeypatch.setattr(harness, "relative_loss", logged)  # before the pool forks its workers
    result = run_experiment(config, workers=2)
    pids = log.read_text().split()
    assert len(pids) == len(result.records) == 4
    assert len(set(pids)) == 1 and pids[0] != str(os.getpid())


def test_run_experiment_pooled_cv_matches_fold_scores_across_workers():
    """CV fold fits are pool tasks like the final runs: records and chosen
    step sizes must not depend on the worker count, and each chosen step
    size must be what k-fold validation of the same prefix picks with the
    same key."""
    for regime, algos, seed in ((Regime.L2, ["aerr", "ddaerr", "2p-ddaerr"], 5),
                                (Regime.LINF, ["aelr", "2p-ddaelr"], 7)):
        config = small_config(algorithms=algos, regime=regime, prefixes=[30, 45], repeats=2, folds=3,
                              eta_grid=[0.02, 0.1, 0.5, 2.0], seed=seed)
        runs = [run_experiment(config, workers=w) for w in (1, 2, 3)]
        rows = [[(r.algorithm, r.seed, r.m, r.attributes_observed, r.test_relative_loss) for r in run.records]
                for run in runs]
        assert rows[0] == rows[1] == rows[2]
        assert runs[0].etas == runs[1].etas == runs[2].etas
        pool, _, b, moments = _materialize(config)
        ctx = make_ctx(regime, b=b, n_point=2, n_inner=1, moments=moments)
        for ai, algo in enumerate(algos):
            for pi, m in enumerate(config.prefixes):
                direct = cv_pick(pool.subset(np.arange(m)), algo, config.eta_grid, config.folds,
                                 (config.seed, _TAG_CV, ai, pi), ctx)
                assert runs[0].etas[(algo, m)] == direct, (algo, m)


def test_serial_run_experiment_leaves_no_worker_payload(monkeypatch):
    run_experiment(small_config(repeats=1))
    assert _WORKER == {}

    def fail(*args):
        raise RuntimeError("run failed")

    monkeypatch.setattr("budgetreg.harness.train_run", fail)
    with pytest.raises(RuntimeError, match="run failed"):
        run_experiment(small_config(repeats=1))
    assert _WORKER == {}


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs the tasks in this process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("overrides, sizes", [
    ({"repeats": 3}, [3]),
    ({"repeats": 1, "eta_grid": [0.1, 0.2], "folds": 2}, [2]),  # 2 CV fold tasks (each fits the grid), then 1 final run
    ({"repeats": 1}, []),  # a single task runs in this process
])
def test_run_experiment_pool_never_exceeds_the_task_count(monkeypatch, overrides, sizes):
    config = small_config(algorithms=["aerr"], prefixes=[30], **overrides)
    serial = run_experiment(config)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("budgetreg.harness.ProcessPoolExecutor", RecordingPool)
    pooled = run_experiment(config, workers=8)
    assert RecordingPool.sizes == sizes
    assert pooled.records == serial.records and pooled.etas == serial.etas
    assert _WORKER == {}


def test_run_experiment_cv_and_erm_skip():
    config = small_config(algorithms=["aerr", "erm"], prefixes=[40], eta_grid=[0.01, 0.05], repeats=2)
    result = run_experiment(config)
    assert result.etas[("aerr", 40)] in (0.01, 0.05)
    assert result.etas[("erm", 40)] is None


def test_run_experiment_prefix_too_large(tmp_path):
    # synthetic pools are sized to the largest prefix, so only a fixed CSV
    # pool can come up short
    from budgetreg.ingest import write_csv

    ds = make_dataset(4, 50, 7, Regime.L2)
    path = tmp_path / "small.csv"
    write_csv(path, Dataset(ds.x, ds.y))
    with pytest.raises(ValueError, match="prefix exceeds the available training examples"):
        run_experiment(small_config(data=str(path), prefixes=[100]))
    with pytest.raises(ValueError, match="workers must be positive"):
        run_experiment(small_config(data=str(path), prefixes=[10]), workers=0)
    write_csv(path, Dataset(ds.x[:1], ds.y[:1]))
    with pytest.raises(ValueError, match="dataset too small for the test split"):
        run_experiment(small_config(data=str(path), prefixes=[1]))
    for scale in (0.0, 1e-170):  # the default b, max |y| of the pool, is 0 or too small to square
        write_csv(path, Dataset(ds.x, scale * ds.y))
        with pytest.raises(ValueError, match=r"b \(default: max \|y\| of the training pool\) must be finite and positive"):
            run_experiment(small_config(data=str(path), prefixes=[10]))
    # a test split rounded to nothing still takes one example, and the pool grows to keep the largest prefix
    pool, test, _, _ = _materialize(small_config(prefixes=[30, 60], test_fraction=1e-17))
    assert (len(pool), len(test)) == (60, 1)


def test_run_experiment_csv_source(tmp_path):
    from budgetreg.ingest import write_csv

    ds = make_dataset(4, 120, 8, Regime.LINF)
    path = tmp_path / "pool.csv"
    write_csv(path, Dataset(ds.x, ds.y))
    config = small_config(
        algorithms=["aelr", "ddaelr"], regime=Regime.LINF, data=str(path), dim=0,
        prefixes=[40], repeats=2,
    )
    result = run_experiment(config)
    assert len(result.records) == 4
    assert all(rec.attributes_observed == 40 * 3 for rec in result.records)


def test_run_experiment_paired_shuffles():
    """Pool shuffles are keyed by the repeat alone, so a deterministic
    algorithm's records do not depend on what else ran alongside it."""
    joint = run_experiment(small_config(algorithms=["aerr", "erm"], repeats=2))
    alone = run_experiment(small_config(algorithms=["erm"], repeats=2))
    joint_erm = [
        (r.seed, r.m, r.test_relative_loss) for r in joint.records if r.algorithm == "erm"
    ]
    alone_erm = [(r.seed, r.m, r.test_relative_loss) for r in alone.records]
    assert joint_erm == alone_erm
