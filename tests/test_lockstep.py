"""The lockstep pass that cross-validation fits a step-size grid with.

A CV fold trains every step size of the grid on the same fold data and
the same stream, so ``train_grid`` runs the fixed-step budgeted
algorithms as R rows of one pass (AdaGrad's are fit one by one).  Given
several folds of one training length, each with its own examples and
stream, it runs them as the (fold, step size) rows of one pass, and
``run_experiment`` gives each CV cell one task, splitting its folds
into chunks only when there are fewer CV cells than workers.  Each
fold lays its own stream by its own rows' zero iterate: lasso passes
start in a zero run that each fold leaves at its own example.  Each row must be bit for bit the ``train_run`` of its fold at
its step size: the weights, the values read, the zero-iterate steps and
the improved-p fallbacks.  A row that leaves its fold's layout (a zero
iterate beside moving rows) or whose p the rows cannot build is broken
off, and that (fold, step size) run alone is made through ``train_run``.
The rows kernel is internal to ``train_grid``: no module exports it.
``train_grid`` refuses what ``train_run`` refuses, and an empty grid, a
step size that is not a positive finite number, fold orders of unequal
lengths or a Generator key.
"""

import concurrent.futures
import math
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import budgetreg.harness as harness
from budgetreg import estimator, solver_lasso, solver_ridge, two_phase
from budgetreg.core import Dataset, Predictor, Regime, RunResult, l2_norm, stream
from budgetreg.estimator import SolverConfig, run_lockstep
from budgetreg.harness import (ALGORITHMS, ExperimentConfig, RunContext, _fold_scores, dataset_moments, run_experiment,
                               train_grid, train_run)
from budgetreg.sampling import uniform_distribution
from budgetreg.solver_lasso import _RENORM_THRESHOLD, EGState, gaelr_rows_step

BUDGETED = sorted(a for a, spec in ALGORITHMS.items() if spec.budgeted)


def one_fold(algo, train, ctx, etas, key):
    """train_grid on one fold that trains on all of ``train``, in order."""
    return train_grid(algo, train, ctx, etas, [key], [np.arange(len(train))])


def assert_same_runs(algo, train, ctx, etas, key):
    """train_grid's result at each eta is train_run's at that eta, bit for bit."""
    rows = one_fold(algo, train, ctx, etas, key)
    assert len(rows) == len(etas)
    for eta, row in zip(etas, rows):
        one = train_run(algo, train, ctx, eta, stream(key))
        assert row.predictor.weights.tobytes() == one.predictor.weights.tobytes(), (algo, eta)
        assert (row.attributes_consumed, row.zero_weight_steps, row.p_fallbacks) == (
            one.attributes_consumed, one.zero_weight_steps, one.p_fallbacks), (algo, eta)
    return rows


@pytest.mark.filterwarnings("ignore:m below ln")  # lasso's known-moments rate warns on tiny runs
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_lockstep_rows_match_train_run_bit_for_bit(data):
    """Every budgeted algorithm, both two-phase regimes among them, on data
    with zero columns (zero moments: the improved p falls back), zero
    targets and sparse rows (phi = 0 steps, zero-iterate runs), short and
    long inner sums, and a grid that may repeat an entry or hold 1e-300
    (where a lasso row keeps a zero iterate beside moving rows and is
    rerun alone)."""
    algo = data.draw(st.sampled_from(BUDGETED))
    regime = ALGORITHMS[algo].regime
    d, m = data.draw(st.integers(1, 40)), data.draw(st.integers(2, 60))
    n_point, n_inner = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    live = rng.random(d) < data.draw(st.floats(0.2, 1.0))
    live[rng.integers(d)] = True  # an all-zero pool has no moments to sample by
    x = rng.uniform(-1.0, 1.0, (m, d)) * live * (rng.random((m, d)) < data.draw(st.floats(0.1, 1.0)))
    if regime == Regime.L2:
        x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    y = rng.uniform(-1.0, 1.0, m) * (rng.random(m) < data.draw(st.floats(0.0, 1.0)))
    train = Dataset(x, y, regime)
    moments = dataset_moments(train)
    if not moments.any():
        moments[0] = 1.0
    ctx = RunContext(regime=regime, b=data.draw(st.floats(0.1, 5.0)), n_point=n_point, n_inner=n_inner,
                     moments=moments, improved_p=data.draw(st.booleans()),
                     m1_fraction=data.draw(st.floats(0.05, 0.5)),
                     epsilon_override=data.draw(st.sampled_from([None, 0.0, 0.3])))
    etas = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6))
    etas += data.draw(st.sampled_from([[], [etas[0]], [1e-300]]))
    assert_same_runs(algo, train, ctx, etas, (data.draw(st.integers(0, 99)), 7))


@pytest.mark.filterwarnings("ignore:m below ln")
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fold_rows_match_each_folds_train_run_bit_for_bit(data):
    """Every budgeted algorithm cross-validated over 2 to 5 folds of a
    prefix the fold count does not divide, so that the folds have two
    training lengths, each one train_grid call with its folds' orders and
    keys, lasso's included; sparse rows, zero targets and a grid that may
    hold 1e-300.  Each (fold, eta) row is train_run on that fold's
    training set and stream, bit for bit."""
    algo = data.draw(st.sampled_from(BUDGETED))
    spec = ALGORITHMS[algo]
    folds = data.draw(st.integers(2, 5))
    n = folds * data.draw(st.integers(2, 8)) + data.draw(st.integers(1, folds - 1))
    d = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    live = rng.random(d) < data.draw(st.floats(0.2, 1.0))
    live[rng.integers(d)] = True
    x = rng.uniform(-1.0, 1.0, (n, d)) * live * (rng.random((n, d)) < data.draw(st.floats(0.1, 1.0)))
    if spec.regime == Regime.L2:
        x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    y = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < data.draw(st.floats(0.0, 1.0)))
    pool = Dataset(x, y, spec.regime)
    moments = dataset_moments(pool)
    if not moments.any():
        moments[0] = 1.0
    ctx = RunContext(regime=spec.regime, b=data.draw(st.floats(0.1, 5.0)), n_point=data.draw(st.integers(1, 3)),
                     n_inner=data.draw(st.integers(1, 4)), moments=moments, improved_p=data.draw(st.booleans()),
                     m1_fraction=data.draw(st.floats(0.05, 0.5)),
                     epsilon_override=data.draw(st.sampled_from([None, 0.0, 0.3])))
    # 1e-300 alone keeps every lasso iterate zero, so folds agree on zero iterates but may not on zero runs
    etas = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=4))
    etas += data.draw(st.sampled_from([[1e-300]] if not etas else [[], [1e-300]]))
    blocks = np.array_split(rng.permutation(n), folds)
    orders = [np.concatenate([b for g, b in enumerate(blocks) if g != f]) for f in range(folds)]
    assert len({len(order) for order in orders}) == 2
    for length in {len(order) for order in orders}:
        group = [f for f in range(folds) if len(orders[f]) == length]
        keys, group_orders = [(3, f) for f in group], np.array([orders[f] for f in group])
        rows = train_grid(algo, pool, ctx, etas, keys, group_orders)
        assert len(rows) == len(group) * len(etas)
        for i, f in enumerate(group):
            train = pool.subset(orders[f])
            for eta, row in zip(etas, rows[i * len(etas):]):
                one = train_run(algo, train, ctx, eta, stream(keys[i]))
                assert row.predictor.weights.tobytes() == one.predictor.weights.tobytes(), (algo, f, eta)
                assert (row.attributes_consumed, row.zero_weight_steps, row.p_fallbacks) == (
                    one.attributes_consumed, one.zero_weight_steps, one.p_fallbacks), (algo, f, eta)


def test_folds_share_a_pass_through_zero_runs_that_end_at_different_examples():
    """At eta = 1e-300 a lasso iterate stays zero, and a fold's stream lays
    n_point uniforms per example while its examples cannot move the
    iterate (x = 0 here), n_point + n_inner from the first that can.
    Folds share one pass whether their zero runs end at the same example
    or not, each on its own layout, each fold bit for bit its train_run."""
    pool = Dataset(np.array([[0.0], [1.0], [0.5]]), np.array([1.0, 1.0, -1.0]), Regime.LINF)
    ctx = RunContext(regime=Regime.LINF, b=1.0, n_point=1, n_inner=2)
    keys = [(1,), (2,)]
    # first both folds can first move at their third example, then fold 1 at its second and fold 0 at its third
    for orders in (np.array([[0, 0, 1, 2], [0, 0, 2, 1]]), np.array([[0, 0, 1, 2], [0, 1, 1, 2]])):
        configs = [harness._solver_config("aelr", pool, ctx, 1e-300) for _ in keys]
        rows = run_lockstep(pool, orders, configs, keys, Regime.LINF, EGState.initial, gaelr_rows_step)
        for order, key, row in zip(orders, keys, rows):
            one = train_run("aelr", pool.subset(order), ctx, 1e-300, stream(key))
            assert row.predictor.weights.tobytes() == one.predictor.weights.tobytes()
            assert (row.attributes_consumed, row.zero_weight_steps) == (
                one.attributes_consumed, one.zero_weight_steps) == (12, 4)


@pytest.mark.parametrize("algo, passes", [("aerr", [3]), ("2p-ddaerr", [3, 3])])
def test_a_ridge_cell_shares_one_pass(monkeypatch, algo, passes):
    """The folds of a CV task with one training length are the rows of one
    lockstep pass (per phase for two-phase), with the scores of each fold
    fit alone."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (24, 5)) * (rng.random((24, 5)) < 0.5)
    pool = Dataset(x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0), rng.uniform(-1.0, 1.0, 24),
                   Regime.L2)
    ctx = RunContext(regime=Regime.L2, b=2.0, n_point=2, n_inner=2, moments=dataset_moments(pool))
    blocks = np.array_split(rng.permutation(24), 3)
    grid = [0.01, 0.1, 0.5]
    alone = [_fold_scores(pool, blocks, [f], algo, ctx, grid, (4,))[0] for f in range(3)]
    seen = []

    def recorded(dataset, orders, configs, seeds, *args):
        seen.append(len(seeds))
        return run_lockstep(dataset, orders, configs, seeds, *args)

    monkeypatch.setattr(harness, "run_lockstep", recorded)
    assert _fold_scores(pool, blocks, range(3), algo, ctx, grid, (4,)) == alone
    assert seen == passes


@pytest.mark.parametrize("fault, message", [
    ("budget", r"aerr at eta 0\.5, fold 2: read 13 values, expected 12"),
    ("ball", r"aerr at eta 0\.5, fold 2: weights outside the certified ball"),
])
def test_each_fit_of_a_grouped_fold_task_is_checked(monkeypatch, fault, message):
    """A task of three folds fits them in one pass; a fit of the last fold
    that misreads its budget or leaves its ball fails the task, with a
    message naming the algorithm, the step size and that fold."""
    rng = np.random.default_rng(1)
    data = Dataset(rng.uniform(-0.5, 0.5, (9, 3)), rng.uniform(-1.0, 1.0, 9), Regime.L2)
    ctx = RunContext(regime=Regime.L2, b=1.0, n_point=1, n_inner=1, moments=dataset_moments(data))
    blocks = np.array_split(np.arange(9), 3)
    real = harness.train_grid
    calls = []

    def faulty(algo_id, train, ctx, etas, keys, orders):
        calls.append(len(keys))
        results = real(algo_id, train, ctx, etas, keys, orders)
        bad = results[-1]
        if fault == "budget":
            results[-1] = RunResult(bad.predictor, bad.attributes_consumed + 1)
        else:
            results[-1] = RunResult(Predictor(np.full(3, 2.0), 1.0, Regime.L2), bad.attributes_consumed)
        return results

    assert len(_fold_scores(data, blocks, (0, 1, 2), "aerr", ctx, [0.1, 0.5], (0,))) == 3
    monkeypatch.setattr(harness, "train_grid", faulty)
    with pytest.raises(ValueError, match=message):
        _fold_scores(data, blocks, (0, 1, 2), "aerr", ctx, [0.1, 0.5], (0,))
    assert calls == [3]


def test_lockstep_rows_renormalize_eg_one_by_one():
    """A saturating lasso run grows z+ by e per step: the rows whose step is
    clipped pass the renormalization threshold, the others never do."""
    m = 400
    train = Dataset(np.ones((m, 1)), np.ones(m), Regime.LINF)
    etas = [50.0, 0.2, 200.0, 0.05]
    configs = [SolverConfig(b=0.1, eta=eta, q=uniform_distribution(1)) for eta in etas]
    renormalized = []

    def recording_step(state, *args):
        before = state.z_peak.copy()
        gaelr_rows_step(state, *args)
        renormalized.append((before > _RENORM_THRESHOLD / 10) & (state.z_peak == 1.0))

    run_lockstep(train, np.arange(m)[None], configs, [stream(3)], Regime.LINF, EGState.initial, recording_step)
    assert list(np.any(renormalized, axis=0)) == [True, False, True, False]
    ctx = RunContext(regime=Regime.LINF, b=0.1, n_point=1, n_inner=1)
    assert_same_runs("aelr", train, ctx, etas, (3,))


def test_only_the_lasso_row_that_keeps_a_zero_iterate_is_rerun_through_train_run(monkeypatch):
    """At eta = 1e-300, exp(+-eta g) rounds to 1: that row keeps its zero
    iterate while the other moves, so it breaks off the lockstep (None)
    and is rerun on its own, on the same stream key; the other row keeps
    its lockstep result."""
    rng = np.random.default_rng(0)
    train = Dataset(rng.uniform(-1.0, 1.0, (30, 4)), rng.uniform(-1.0, 1.0, 30), Regime.LINF)
    ctx = RunContext(regime=Regime.LINF, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    etas = [1e-300, 0.1]
    for algo in ("aelr", "ddaelr"):
        configs = [harness._solver_config(algo, train, ctx, eta) for eta in etas]
        rows = run_lockstep(train, np.arange(30)[None], configs, [stream((5, 1))], Regime.LINF, EGState.initial,
                            gaelr_rows_step)
        assert rows[0] is None and rows[1] is not None
    reruns = []

    def recorded(algo_id, train, ctx, eta, seed):
        reruns.append((algo_id, eta))
        return train_run(algo_id, train, ctx, eta, seed)

    monkeypatch.setattr(harness, "train_run", recorded)
    for algo in ("aelr", "ddaelr", "2p-ddaelr"):
        rows = one_fold(algo, train, ctx, etas, (5, 1))
        assert not np.any(rows[0].predictor.weights)
    assert reruns == [("aelr", 1e-300), ("ddaelr", 1e-300), ("2p-ddaelr", 1e-300)]
    monkeypatch.undo()
    for algo in ("aelr", "ddaelr", "2p-ddaelr"):
        assert_same_runs(algo, train, ctx, etas, (5, 1))


def test_a_two_phase_lasso_row_broken_in_phase_1_is_refit_whole(monkeypatch):
    """Two 2p-ddaelr folds at [1e-300, 0.05, 0.3]: the 1e-300 row of each
    fold breaks in phase 1, so phase 2 returns None for it and train_grid
    refits that (fold, eta) run, both phases, through train_run; the
    other rows of its fold keep the lockstep through both phases."""
    rng = np.random.default_rng(6)
    pool = Dataset(rng.uniform(-1.0, 1.0, (41, 5)), rng.uniform(-1.0, 1.0, 41), Regime.LINF)
    ctx = RunContext(regime=Regime.LINF, b=2.0, n_point=2, n_inner=2, moments=dataset_moments(pool))
    etas, keys = [1e-300, 0.05, 0.3], [(6, 0), (6, 1)]
    orders = np.array([rng.permutation(41)[:30] for _ in keys])
    passes, reruns = [], []

    def recorded_pass(dataset, orders, configs, seeds, *args):
        rows = run_lockstep(dataset, orders, configs, seeds, *args)
        passes.append([row is not None for row in rows])
        return rows

    def recorded_run(algo_id, train, ctx, eta, seed):
        reruns.append((len(train), eta))
        return train_run(algo_id, train, ctx, eta, seed)

    monkeypatch.setattr(harness, "run_lockstep", recorded_pass)
    monkeypatch.setattr(harness, "train_run", recorded_run)
    rows = train_grid("2p-ddaelr", pool, ctx, etas, keys, orders)
    monkeypatch.undo()
    assert passes == [[False, True, True] * 2] * 2  # phase 1, then phase 2 from the default start
    assert reruns == [(30, 1e-300)] * 2
    for f, key in enumerate(keys):
        train = pool.subset(orders[f])
        for eta, row in zip(etas, rows[f * len(etas):]):
            one = train_run("2p-ddaelr", train, ctx, eta, stream(key))
            assert row.predictor.weights.tobytes() == one.predictor.weights.tobytes(), (f, eta)
            assert (row.attributes_consumed, row.zero_weight_steps, row.p_fallbacks, row.info["phase1_budget"]) == (
                one.attributes_consumed, one.zero_weight_steps, one.p_fallbacks, one.info["phase1_budget"]), (f, eta)


def test_the_cv_of_a_grid_holding_1e_300_reruns_only_its_1e_300_rows():
    """CI's linf config (three folds of 20, grid [1e-300, 0.01, 0.3]): each
    lasso kind makes one CV train_run per fold, for its 1e-300 row, and
    eg-full, a full-information kind, one per (fold, eta)."""
    config = ExperimentConfig.from_dict(
        {"algorithms": ["aelr", "ddaelr", "2p-ddaelr", "eg-full"], "regime": "linf", "prefixes": [30], "k": 4,
         "dim": 8, "alpha": -1.0, "repeats": 2, "folds": 3, "eta_grid": [1e-300, 0.01, 0.3], "seed": 2})
    calls = []
    real = harness.train_run

    def recorded(algo_id, train, ctx, eta, seed):
        if len(train) == 20:  # a CV fold's training set; the final runs train on 30
            calls.append((algo_id, eta))
        return real(algo_id, train, ctx, eta, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "train_run", recorded)
        run_experiment(config)
    lasso = [("aelr", 1e-300)] * 3 + [("ddaelr", 1e-300)] * 3 + [("2p-ddaelr", 1e-300)] * 3
    assert calls == lasso + [("eg-full", eta) for _ in range(3) for eta in config.eta_grid]


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
def test_a_lockstep_grid_refuses_a_generator_other_than_pcg64(bit_generator):
    """The budgeted pass hands unused uniforms back with PCG64's advance,
    which other generators count differently (Philox) or lack (MT19937):
    the lockstep refuses them as a single run does."""
    rng = np.random.default_rng(0)
    train = Dataset(rng.uniform(-1.0, 1.0, (20, 4)), rng.uniform(-1.0, 1.0, 20), Regime.LINF)
    ctx = RunContext(regime=Regime.LINF, b=2.0, n_point=2, n_inner=1)
    configs = [harness._solver_config("aelr", train, ctx, eta) for eta in (0.01, 0.1)]
    name = bit_generator.__name__
    with pytest.raises(ValueError, match=f"a budgeted pass needs a PCG64 generator, got {name}$"):
        run_lockstep(train, np.arange(20)[None], configs, [np.random.Generator(bit_generator(1))], Regime.LINF,
                     EGState.initial, gaelr_rows_step)


@pytest.mark.parametrize("data", ["other regime", "empty"])
@pytest.mark.parametrize("algo", ["aerr", "ddaerr", "2p-ddaerr", "aelr", "ddaelr", "2p-ddaelr", "ogd-full"])
def test_a_grid_refuses_what_train_run_refuses(algo, data):
    """Data of the other regime, and an empty dataset, are refused by the
    lockstep with train_run's message, before any step."""
    regime = ALGORITHMS[algo].regime
    other = Regime.LINF if regime == Regime.L2 else Regime.L2
    rng = np.random.default_rng(6)
    m, data_regime = (0, regime) if data == "empty" else (20, other)
    train = Dataset(rng.uniform(-0.5, 0.5, (m, 3)), rng.uniform(-1.0, 1.0, m), data_regime)
    ctx = RunContext(regime=regime, b=2.0, n_point=2, n_inner=1, moments=np.full(3, 0.1))
    with pytest.raises(ValueError) as single:
        train_run(algo, train, ctx, 0.1, stream((8,)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
        one_fold(algo, train, ctx, [0.1, 0.3], (8,))


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_an_empty_grid_is_refused_for_every_kind(monkeypatch, algo):
    regime = ALGORITHMS[algo].regime or Regime.L2
    rng = np.random.default_rng(7)
    train = Dataset(rng.uniform(-0.5, 0.5, (20, 3)), rng.uniform(-1.0, 1.0, 20), regime)
    ctx = RunContext(regime=regime, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    monkeypatch.setattr(harness, "train_run", None)  # no run may start
    with pytest.raises(ValueError, match=f"^{algo}: empty step-size grid, no run to make$"):
        one_fold(algo, train, ctx, [], (1,))


@pytest.mark.parametrize("etas", [[None, 0.1], [0.1, 0.0], [-0.1], [math.inf], [math.nan], [True], ["0.1"]],
                         ids=["none", "zero", "negative", "inf", "nan", "bool", "str"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_a_grid_refuses_a_step_size_that_is_not_a_positive_finite_number(monkeypatch, algo, etas):
    """Every kind refuses it with one message, before any run."""
    regime = ALGORITHMS[algo].regime or Regime.L2
    rng = np.random.default_rng(7)
    train = Dataset(rng.uniform(-0.5, 0.5, (20, 3)), rng.uniform(-1.0, 1.0, 20), regime)
    ctx = RunContext(regime=regime, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    monkeypatch.setattr(harness, "train_run", None)  # no run may start
    monkeypatch.setattr(harness, "run_lockstep", None)
    message = f"^{algo}: step sizes must be positive, finite numbers, got {re.escape(repr(etas))}$"
    with pytest.raises(ValueError, match=message):
        one_fold(algo, train, ctx, etas, (1,))


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_a_grid_refuses_fold_orders_of_unequal_lengths(monkeypatch, algo):
    """Folds of one call share a pass, so they train on as many examples:
    orders of lengths 10 and 11 are refused, and so is a call with no
    fold, with one message each for every kind, before any run."""
    regime = ALGORITHMS[algo].regime or Regime.L2
    rng = np.random.default_rng(7)
    train = Dataset(rng.uniform(-0.5, 0.5, (20, 3)), rng.uniform(-1.0, 1.0, 20), regime)
    ctx = RunContext(regime=regime, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    monkeypatch.setattr(harness, "train_run", None)
    monkeypatch.setattr(harness, "run_lockstep", None)
    with pytest.raises(ValueError, match=r"^train_grid needs fold orders of one length, got \[10, 11\]$"):
        train_grid(algo, train, ctx, [0.1, 0.3], [(1,), (2,)], [np.arange(10), np.arange(11)])
    with pytest.raises(ValueError, match=r"^train_grid needs one key per fold, got 0 for 0 folds$"):
        train_grid(algo, train, ctx, [0.1, 0.3], [], [])


@pytest.mark.parametrize("algo", ["aerr", "2p-ddaerr"])
def test_a_ridge_chunk_whose_lockstep_breaks_is_fit_through_train_run(monkeypatch, algo):
    """Three folds of two training lengths (16, 17, 17): where every row
    of the lockstep breaks (None), each length's train_grid makes every
    (fold, eta) run through train_run, fold-major, one call each, bit for
    bit the runs of each fold on its own."""
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, (25, 5))
    pool = Dataset(x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0), rng.uniform(-1.0, 1.0, 25),
                   Regime.L2)
    ctx = RunContext(regime=Regime.L2, b=2.0, n_point=2, n_inner=2, moments=dataset_moments(pool))
    blocks = np.array_split(rng.permutation(25), 3)
    grid = [0.01, 0.1, 0.5]
    fits, calls = [], []

    def broken(dataset, orders, configs, *args):
        return [None] * len(configs)

    def recorded_run(algo_id, train, ctx, eta, seed):
        calls.append((len(train), eta))
        return train_run(algo_id, train, ctx, eta, seed)

    real_grid = harness.train_grid

    def recorded_grid(*args):
        fits.extend(real_grid(*args))
        return fits[len(fits) - len(args[3]) * len(args[4]):]

    monkeypatch.setattr(harness, "run_lockstep", broken)
    monkeypatch.setattr(harness, "train_run", recorded_run)
    monkeypatch.setattr(harness, "train_grid", recorded_grid)
    _fold_scores(pool, blocks, (0, 1, 2), algo, ctx, grid, (4,))
    lengths = [25 - len(block) for block in blocks]
    assert lengths == [16, 17, 17]
    assert calls == [(m, eta) for m in lengths for eta in grid]
    for f, block in enumerate(blocks):
        train = pool.subset(np.concatenate([b for g, b in enumerate(blocks) if g != f]))
        for eta, fit in zip(grid, fits[f * len(grid):]):
            one = train_run(algo, train, ctx, eta, stream((4, harness._TAG_CV_RUN, f)))
            assert fit.predictor.weights.tobytes() == one.predictor.weights.tobytes(), (f, eta)
            assert (fit.attributes_consumed, fit.zero_weight_steps, fit.p_fallbacks) == (
                one.attributes_consumed, one.zero_weight_steps, one.p_fallbacks), (f, eta)


@pytest.mark.parametrize("regime, algos, prefixes, workers, sizes", [
    (Regime.L2, ["aerr"], [30], 3, [1, 1, 1]),
    (Regime.LINF, ["2p-ddaelr"], [30], 2, [2, 1]),
    (Regime.LINF, ["aelr", "ddaelr"], [30], 3, [2, 1]),
    (Regime.L2, ["aerr", "2p-ddaerr"], [20, 30], 2, [3]),
    (Regime.LINF, ["aelr", "ddaelr", "2p-ddaelr"], [20, 30], 2, [3]),
    (Regime.L2, ["aerr"], [30], 1, [3]),
], ids=["1-ridge-cell-3-workers", "1-lasso-cell-2-workers", "2-cells-3-workers", "4-ridge-cells-2-workers",
        "6-lasso-cells-2-workers", "1-cell-1-worker"])
def test_a_cv_cell_is_split_into_chunks_of_folds_only_when_there_are_fewer_cells_than_workers(
        monkeypatch, regime, algos, prefixes, workers, sizes):
    """run_experiment gives each CV cell, ridge and lasso alike, one task
    holding all its folds, unless there are fewer CV cells than workers:
    then it splits each cell's folds into min(folds, ceil(workers / cells))
    chunks.  Every fold of every cell is in one task, in order."""
    tasks = []
    real = harness._run_task

    class RecordingExecutor(ProcessPoolExecutor):
        def submit(self, fn, task):
            if fn is harness._run_task and task[5] is not None:
                tasks.append(task)
            return super().submit(fn, task)

    def recorded(task):  # one worker: each task runs in this process
        if task[5] is not None:
            tasks.append(task)
        return real(task)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    if workers == 1:
        monkeypatch.setattr(harness, "_run_task", recorded)
    run_experiment(ExperimentConfig(algorithms=algos, regime=regime, prefixes=prefixes, k=2, dim=4, alpha=-1.0,
                                    repeats=1, folds=3, eta_grid=[0.05, 0.3], seed=2), workers=workers)
    cells = {}
    for _, algo, _, m, _, chunk, _ in tasks:
        cells.setdefault((algo, m), []).append(chunk)
    assert list(cells) == [(algo, m) for algo in algos for m in prefixes]
    for chunks in cells.values():
        assert [f for chunk in chunks for f in chunk] == [0, 1, 2]
        assert [len(chunk) for chunk in chunks] == sizes


@pytest.mark.parametrize("algo", ["aelr", "2p-ddaelr", "adagrad-gaelr", "eg-full"])
def test_a_grid_refuses_a_generator_key(algo):
    """Each step size must start from the same stream, which a Generator,
    consumed by the first run, is not: it is refused before any draw."""
    rng = np.random.default_rng(5)
    train = Dataset(rng.uniform(-1.0, 1.0, (40, 6)), rng.uniform(-1.0, 1.0, 40), Regime.LINF)
    ctx = RunContext(regime=Regime.LINF, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    key = np.random.default_rng(5)
    before = key.bit_generator.state
    with pytest.raises(ValueError, match="every step size starts from the same stream"):
        one_fold(algo, train, ctx, [1e-300, 0.1, 0.3], key)
    assert key.bit_generator.state == before


@pytest.mark.parametrize("algo", ["adagrad-gaerr", "adagrad-gaelr"])
def test_adagrad_grids_are_fit_one_by_one_through_train_run(monkeypatch, algo):
    """The rows kernel serves only the fixed-step learners: a budgeted
    AdaGrad grid makes one train_run per step size."""
    regime = ALGORITHMS[algo].regime
    rng = np.random.default_rng(4)
    train = Dataset(rng.uniform(-0.5, 0.5, (30, 4)), rng.uniform(-1.0, 1.0, 30), regime)
    ctx = RunContext(regime=regime, b=2.0, n_point=2, n_inner=1)
    calls = []

    def recorded(algo_id, train, ctx, eta, seed):
        calls.append(eta)
        return train_run(algo_id, train, ctx, eta, seed)

    monkeypatch.setattr(harness, "train_run", recorded)
    one_fold(algo, train, ctx, [0.5, 2.0], (9,))
    assert calls == [0.5, 2.0]


def test_the_rows_kernel_is_exported_by_no_module():
    rows_api = {"run_lockstep", "draw_rows", "row_norms", "gaerr_rows_step", "gaelr_rows_step", "phases"}
    for module in (estimator, solver_ridge, solver_lasso, two_phase, harness):
        assert not rows_api & set(module.__all__), module.__name__


@pytest.mark.parametrize("fault, message", [
    ("budget", r"aerr at eta 0\.5, fold 1: read 13 values, expected 12"),
    ("ball", r"aerr at eta 0\.5, fold 1: weights outside the certified ball"),
])
def test_each_cv_fit_is_checked_in_its_fold_task(monkeypatch, fault, message):
    """A fit that misreads its budget or leaves its ball fails the fold
    task, with a message naming the algorithm, the step size and the fold."""
    rng = np.random.default_rng(1)
    data = Dataset(rng.uniform(-0.5, 0.5, (9, 3)), rng.uniform(-1.0, 1.0, 9), Regime.L2)
    ctx = RunContext(regime=Regime.L2, b=1.0, n_point=1, n_inner=1, moments=dataset_moments(data))
    blocks = np.array_split(np.arange(9), 3)
    real = harness.train_grid

    def faulty(algo_id, train, ctx, etas, keys, orders):
        results = real(algo_id, train, ctx, etas, keys, orders)
        bad = results[-1]
        if fault == "budget":
            results[-1] = RunResult(bad.predictor, bad.attributes_consumed + 1)
        else:
            results[-1] = RunResult(Predictor(np.full(3, 2.0), 1.0, Regime.L2), bad.attributes_consumed)
        return results

    assert len(_fold_scores(data, blocks, [1], "aerr", ctx, [0.1, 0.5], (0,))[0]) == 2
    monkeypatch.setattr(harness, "train_grid", faulty)
    with pytest.raises(ValueError, match=message):
        _fold_scores(data, blocks, [1], "aerr", ctx, [0.1, 0.5], (0,))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("vecdot", [True, False])
def test_row_norms_have_the_bits_of_l2_norm_per_row(monkeypatch, vecdot):
    """With np.vecdot (numpy >= 2) and without it, rows whose squared norm
    overflows included."""
    monkeypatch.setattr(estimator, "_VECDOT", vecdot and hasattr(np, "vecdot"))
    rng = np.random.default_rng(2)
    for d in (1, 7, 50, 300):
        w = rng.standard_normal((6, d)) * 10.0 ** rng.integers(-5, 5, (6, 1))
        w[0] = 1e154
        assert [l2_norm(row) for row in w] == list(estimator.row_norms(w))
