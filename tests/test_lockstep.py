"""The lockstep pass that cross-validation fits a step-size grid with.

A CV fold trains every step size of the grid on the same fold data and
the same stream, so ``train_grid`` runs the fixed-step budgeted
algorithms as R rows of one pass (AdaGrad's are fit one by one).  Each
row must be bit for bit the ``train_run`` at its step size: the weights,
the values read, the zero-iterate steps and the improved-p fallbacks.
Rows that stop agreeing on a zero iterate are rerun one by one through
``train_run``.  The rows kernel is internal to ``train_grid``: no module
exports it.  ``train_grid`` refuses what ``train_run`` refuses, and an
empty grid or a Generator key.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import budgetreg.harness as harness
from budgetreg import estimator, solver_lasso, solver_ridge, two_phase
from budgetreg.core import Dataset, Predictor, Regime, RunResult, l2_norm, stream
from budgetreg.estimator import LockstepBreak, SolverConfig, run_lockstep
from budgetreg.harness import ALGORITHMS, RunContext, _fold_scores, dataset_moments, train_grid, train_run
from budgetreg.sampling import uniform_distribution
from budgetreg.solver_lasso import _RENORM_THRESHOLD, EGState, gaelr_rows_step

BUDGETED = sorted(a for a, spec in ALGORITHMS.items() if spec.budgeted)


def assert_same_runs(algo, train, ctx, etas, key):
    """train_grid's result at each eta is train_run's at that eta, bit for bit."""
    rows = train_grid(algo, train, ctx, etas, key)
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
    (where lasso rows stop agreeing on a zero iterate and are rerun)."""
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

    run_lockstep(train, configs, stream(3), Regime.LINF, EGState.initial, recording_step)
    assert list(np.any(renormalized, axis=0)) == [True, False, True, False]
    ctx = RunContext(regime=Regime.LINF, b=0.1, n_point=1, n_inner=1)
    assert_same_runs("aelr", train, ctx, etas, (3,))


def test_lasso_rows_that_disagree_on_a_zero_iterate_are_rerun_through_train_run(monkeypatch):
    """At eta = 1e-300, exp(+-eta g) rounds to 1: that row keeps its zero
    iterate while the other moves, so the lockstep breaks off and each
    step size is rerun on its own, on the same stream key."""
    rng = np.random.default_rng(0)
    train = Dataset(rng.uniform(-1.0, 1.0, (30, 4)), rng.uniform(-1.0, 1.0, 30), Regime.LINF)
    ctx = RunContext(regime=Regime.LINF, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    etas = [1e-300, 0.1]
    for algo in ("aelr", "ddaelr"):
        configs = [harness._solver_config(algo, train, ctx, eta) for eta in etas]
        with pytest.raises(LockstepBreak):
            run_lockstep(train, configs, stream((5, 1)), Regime.LINF, EGState.initial, gaelr_rows_step)
    reruns = []

    def recorded(algo_id, train, ctx, eta, seed):
        reruns.append((algo_id, eta))
        return train_run(algo_id, train, ctx, eta, seed)

    monkeypatch.setattr(harness, "train_run", recorded)
    rows = train_grid("aelr", train, ctx, etas, (5, 1))
    assert reruns == [("aelr", 1e-300), ("aelr", 0.1)]
    monkeypatch.undo()
    assert not np.any(rows[0].predictor.weights)
    assert_same_runs("aelr", train, ctx, etas, (5, 1))
    assert_same_runs("2p-ddaelr", train, ctx, etas, (5, 1))


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
        run_lockstep(train, configs, np.random.Generator(bit_generator(1)), Regime.LINF, EGState.initial,
                     gaelr_rows_step)


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
        train_grid(algo, train, ctx, [0.1, 0.3], (8,))


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_an_empty_grid_is_refused_for_every_kind(monkeypatch, algo):
    regime = ALGORITHMS[algo].regime or Regime.L2
    rng = np.random.default_rng(7)
    train = Dataset(rng.uniform(-0.5, 0.5, (20, 3)), rng.uniform(-1.0, 1.0, 20), regime)
    ctx = RunContext(regime=regime, b=2.0, n_point=2, n_inner=1, moments=dataset_moments(train))
    monkeypatch.setattr(harness, "train_run", None)  # no run may start
    with pytest.raises(ValueError, match=f"^{algo}: empty step-size grid, no run to make$"):
        train_grid(algo, train, ctx, [], (1,))


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
        train_grid(algo, train, ctx, [1e-300, 0.1, 0.3], key)
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
    train_grid(algo, train, ctx, [0.5, 2.0], (9,))
    assert calls == [0.5, 2.0]


def test_the_rows_kernel_is_exported_by_no_module():
    rows_api = {"run_lockstep", "draw_rows", "row_norms", "LockstepBreak", "gaerr_rows_step", "gaelr_rows_step",
                "phases"}
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

    def faulty(algo_id, train, ctx, etas, key):
        results = real(algo_id, train, ctx, etas, key)
        bad = results[-1]
        if fault == "budget":
            results[-1] = RunResult(bad.predictor, bad.attributes_consumed + 1)
        else:
            results[-1] = RunResult(Predictor(np.full(3, 2.0), 1.0, Regime.L2), bad.attributes_consumed)
        return results

    assert len(_fold_scores(data, blocks, 1, "aerr", ctx, [0.1, 0.5], (0,))) == 2
    monkeypatch.setattr(harness, "train_grid", faulty)
    with pytest.raises(ValueError, match=message):
        _fold_scores(data, blocks, 1, "aerr", ctx, [0.1, 0.5], (0,))


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
