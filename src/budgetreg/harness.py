"""Experiment orchestration: repeated seeded prefix runs, cross-validated
step sizes, and learning curves in attributes-observed coordinates.

Every run is keyed by (algorithm, prefix, repeat) and every random stream
is derived from the experiment seed plus that key, so the output is a pure
function of the configuration regardless of worker-pool size.
"""

from __future__ import annotations

import functools
import math
import sys
import concurrent.futures  # its ProcessPoolExecutor, and multiprocessing with it, loads on a pool's first use
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .baselines import offline_erm, online_lasso_full, online_ridge_full
from .core import Regime, check_b, norm, squared_loss, stream, weight_norm
from .datagen import generate_dataset, power_law_means, random_target_weights
from .estimator import SolverConfig, run_lockstep
from .ingest import Scaler, load_csv
from .sampling import lasso_optimal_q, ridge_optimal_q, uniform_distribution
from .solver_lasso import EGState, aelr_eta, gaelr_rows_step, lasso_eta_known_moments, run_gaelr
from .solver_ridge import RidgeState, aerr_eta, gaerr_rows_step, ridge_eta_known_moments, run_gaerr
from .two_phase import TwoPhaseConfig, phases, run_two_phase, smoothed_q

__all__ = [
    "ALGORITHMS",
    "AlgoSpec",
    "algorithm_regime",
    "ExperimentConfig",
    "ExperimentResult",
    "LearningCurve",
    "RunContext",
    "RunRecord",
    "dataset_moments",
    "relative_loss",
    "run_experiment",
    "split_budget",
    "train_grid",
    "train_run",
]

# stream tags; every derived seed is (base entropy..., tag, key...)
_TAG_SPLIT = 101
_TAG_SHUFFLE = 102
_TAG_CV_SPLIT = 103
_TAG_CV_RUN = 104
_TAG_RUN = 105
_TAG_CV = 106


def relative_loss(predictor, test_set) -> float:
    """Total squared loss on the test set divided by the zero predictor's."""
    return _relative_losses([predictor], test_set)[0]


def _relative_losses(predictors, test_set):
    """relative_loss of each predictor, the zero predictor's loss taken once."""
    base = float(np.sum(squared_loss(0.0, test_set.y)))
    if base == 0.0:
        raise ValueError("zero-predictor loss undefined")
    return [float(np.sum(squared_loss(test_set.x @ p.weights, test_set.y))) / base for p in predictors]


def dataset_moments(dataset) -> np.ndarray:
    """Exact empirical second moments E[x_i^2] over the given examples."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return np.mean(dataset.x**2, axis=0)


def split_budget(budget: int, fraction: float = 0.5):
    """Split a per-example budget into (point draws, inner-product draws).

    Point draws take round(fraction * budget) with both sides floored at
    one; round-half-to-even decides the exact midpoint.
    """
    if budget < 2:
        raise ValueError("budget must allow one point draw and one inner draw")
    n_point = int(round(fraction * budget))
    n_point = min(max(n_point, 1), budget - 1)
    return n_point, budget - n_point


@dataclass(frozen=True)
class AlgoSpec:
    """Registry entry: norm regime (None = follows the data), the dispatch
    kind, and whether the step is AdaGrad's.  Every kind but the
    full-information ones (full, erm) reads a budget of k+1 values per example."""

    regime: Regime | None
    kind: str
    adagrad: bool = False

    @property
    def budgeted(self):
        return self.kind not in ("full", "erm")


ALGORITHMS = {
    "aerr": AlgoSpec(Regime.L2, "plain"),
    "ddaerr": AlgoSpec(Regime.L2, "moments"),
    "2p-ddaerr": AlgoSpec(Regime.L2, "two_phase"),
    "aelr": AlgoSpec(Regime.LINF, "plain"),
    "ddaelr": AlgoSpec(Regime.LINF, "moments"),
    "2p-ddaelr": AlgoSpec(Regime.LINF, "two_phase"),
    "ogd-full": AlgoSpec(Regime.L2, "full"),
    "eg-full": AlgoSpec(Regime.LINF, "full"),
    "erm": AlgoSpec(None, "erm"),
    "adagrad-ogd-full": AlgoSpec(Regime.L2, "full", adagrad=True),
    "adagrad-gaerr": AlgoSpec(Regime.L2, "plain", adagrad=True),
    "adagrad-gaelr": AlgoSpec(Regime.LINF, "plain", adagrad=True),
}


def algorithm_regime(algo_id, regime):
    """The regime ``algo_id`` runs in on data of ``regime``; refuses an
    unknown algorithm or a regime it does not take."""
    spec = ALGORITHMS.get(algo_id)
    if spec is None:
        raise ValueError(f"unknown algorithm: {algo_id}")
    if spec.regime is not None and spec.regime != regime:
        raise ValueError(f"{algo_id} requires {spec.regime.value} data")
    return Regime(regime)


def _phase1_size(m, m1_fraction):
    """Examples a two-phase run of m examples gives its first phase."""
    return int(math.ceil(m1_fraction * m))


@dataclass
class RunContext:
    """Shared per-experiment inputs for a single training run."""

    regime: Regime
    b: float
    n_point: int
    n_inner: int
    moments: np.ndarray | None = None
    improved_p: bool = True
    m1_fraction: float = 0.1
    delta: float = 0.1
    epsilon_override: float | None = 0.0


def train_run(algo_id, train, ctx, eta, seed):
    """Dispatch one training run; eta=None selects the algorithm's own rate."""
    regime = algorithm_regime(algo_id, ctx.regime)
    spec = ALGORITHMS[algo_id]
    ridge = regime == Regime.L2
    d = train.dimension
    m = len(train)
    if spec.adagrad and eta is None:
        eta = ctx.b  # AdaGrad's eta is a scale, not a step size

    if spec.kind in ("plain", "moments"):
        return (run_gaerr if ridge else run_gaelr)(train, _solver_config(algo_id, train, ctx, eta), seed)

    if spec.kind == "two_phase":
        m1 = _phase1_size(m, ctx.m1_fraction)
        return run_two_phase(train, TwoPhaseConfig(m1, m - m1, ctx, eta), seed)

    if spec.kind == "full":
        if eta is None:
            # scale-free OGD rate; EG rate from the ln(2d) regret bound
            eta = 1.0 / math.sqrt(m) if ridge else math.sqrt(math.log(2 * d) / m) / (2 * ctx.b)
        if ridge:
            return online_ridge_full(train, ctx.b, eta, adagrad=spec.adagrad)
        return online_lasso_full(train, ctx.b, eta)

    return offline_erm(train, ctx.b, regime)


def _solver_config(algo_id, train, ctx, eta):
    """The SolverConfig of a plain or moments run at eta (None: the
    algorithm's own rate; train_run has set AdaGrad's scale)."""
    spec = ALGORITHMS[algo_id]
    ridge = ctx.regime == Regime.L2
    d = train.dimension
    m = len(train)
    k = ctx.n_point
    if spec.kind == "plain":
        if eta is None:
            eta = aerr_eta(m, k, d, ctx.b) if ridge else aelr_eta(m, k, d, ctx.b)
        return SolverConfig(b=ctx.b, eta=eta, q=uniform_distribution(d), n_point=k, n_inner=ctx.n_inner,
                            adagrad=spec.adagrad)
    mom = ctx.moments
    if mom is None:
        raise ValueError(f"{algo_id} needs second-moment estimates")
    if eta is None:
        if ridge:
            eta = ridge_eta_known_moments(m, k, float(norm(mom, 0.5)))
        else:
            eta = lasso_eta_known_moments(m, k, d, ctx.b, float(norm(mom, 1)))
    q = ridge_optimal_q(mom) if ridge else lasso_optimal_q(mom)
    return SolverConfig(b=ctx.b, eta=eta, q=q, n_point=k, n_inner=ctx.n_inner,
                        moments=mom if ctx.improved_p else None)


# each regime's fixed-step solver in lockstep rows: its state builder and rows step
_ROWS = {Regime.L2: (RidgeState.initial, gaerr_rows_step), Regime.LINF: (EGState.initial, gaelr_rows_step)}


def train_grid(algo_id, train, ctx, etas, keys, orders):
    """train_run at each step size of ``etas`` (a non-empty list of
    positive, finite numbers, as a CV grid holds) on each of F folds,
    fold-major: fold f's runs train on train.subset(orders[f]), each on a
    fresh stream(keys[f]), ``orders`` holding F index arrays of one length.

    The fixed-step budgeted kinds make all of them in one lockstep pass
    (estimator.run_lockstep, per phase for two_phase.phases), bit for bit
    the train_run results, refusals included; a (fold, eta) run whose row
    breaks off the lockstep is made alone through train_run.  The AdaGrad
    and full-information kinds make each run through train_run.  Which
    folds share a call is the caller's to choose.
    """
    regime = algorithm_regime(algo_id, ctx.regime)
    if len(etas) == 0:
        raise ValueError(f"{algo_id}: empty step-size grid, no run to make")
    if not all(_of_kind(eta, (int, float)) and 0 < eta <= sys.float_info.max for eta in etas):
        raise ValueError(f"{algo_id}: step sizes must be positive, finite numbers, got {list(etas)!r}")
    if any(isinstance(k, np.random.Generator) for k in keys):  # one generator is one stream, used up by one run
        raise ValueError("train_grid needs a seed key, not a Generator: every step size starts from the same stream")
    if len(orders) != len(keys) or not keys:
        raise ValueError(f"train_grid needs one key per fold, got {len(keys)} for {len(orders)} folds")
    lengths = sorted({len(order) for order in orders})
    if len(lengths) > 1:
        raise ValueError(f"train_grid needs fold orders of one length, got {lengths}")
    orders = np.asarray(orders)
    spec = ALGORITHMS[algo_id]
    runs = ([None] * (len(keys) * len(etas)) if not spec.budgeted or spec.adagrad
            else _lockstep(algo_id, regime, train, ctx, etas, keys, orders))
    fold = functools.cache(lambda f: train.subset(orders[f]))  # one training copy per fold that needs one
    return [train_run(algo_id, fold(i // len(etas)), ctx, etas[i % len(etas)], stream(keys[i // len(etas)]))
            if run is None else run for i, run in enumerate(runs)]


def _lockstep(algo_id, regime, train, ctx, etas, keys, orders):
    """The runs of train_grid in one lockstep pass (per phase for
    two-phase) of a fixed-step budgeted kind; None for a broken row."""
    def solve(dataset, orders, configs, rngs, tables=None):
        return run_lockstep(dataset, orders, configs, rngs, regime, *_ROWS[regime], tables)

    if ALGORITHMS[algo_id].kind == "two_phase":
        m = orders.shape[1]
        m1 = _phase1_size(m, ctx.m1_fraction)
        return phases(train, TwoPhaseConfig(m1, m - m1, ctx), keys, etas, solve, orders)
    config = _solver_config(algo_id, train, ctx, etas[0])
    return solve(train, orders, [replace(config, eta=eta) for _ in keys for eta in etas], keys)


def _fold_scores(dataset, blocks, folds, algorithm, ctx, eta_grid, key):
    """Validation relative losses of each fold f of ``folds`` at every eta
    of the grid, ``blocks`` being the folds' validation indices, split
    from the first n >= folds examples by the (key, _TAG_CV_SPLIT) stream
    alone; None for each when the fold's validation targets are all zero
    (the fold is skipped).

    Fold data and fold run streams depend only on (key, fold), never on
    eta, so the grids of the folds of one training length are one
    train_grid call and duplicated grid entries score identically.  Each
    fit is checked in its task: it must read exactly its budget, and its
    predictor must be valid.
    """
    scores = {f: [None] * len(eta_grid) for f in folds}
    by_length = {}
    for f in folds:
        if np.any(dataset.y[blocks[f]] != 0):
            order = np.concatenate([b for g, b in enumerate(blocks) if g != f])
            by_length.setdefault(len(order), []).append((f, order))
    per_example = ctx.n_point + ctx.n_inner if ALGORITHMS[algorithm].budgeted else dataset.dimension
    for m, group in by_length.items():
        results = iter(train_grid(algorithm, dataset, ctx, eta_grid, [(*key, _TAG_CV_RUN, f) for f, _ in group],
                                  np.array([order for _, order in group])))
        for f, _ in group:
            fits = [next(results) for _ in eta_grid]
            for eta, result in zip(eta_grid, fits):
                try:
                    if result.attributes_consumed != m * per_example:
                        raise ValueError(f"read {result.attributes_consumed} values, expected {m * per_example}")
                    result.predictor.validate()
                except ValueError as exc:
                    raise ValueError(f"{algorithm} at eta {eta}, fold {f}: {exc}") from None
            scores[f] = _relative_losses([result.predictor for result in fits], dataset.subset(blocks[f]))
    return [scores[f] for f in folds]


def _pick_eta(eta_grid, scores):
    """The candidate with the smallest mean fold score (ties: smaller eta,
    then earlier entry); ``scores[j]`` holds candidate j's fold scores, at
    least one of which is not None."""
    return min((float(np.mean([v for v in per_fold if v is not None])), float(eta), j)
               for j, (eta, per_fold) in enumerate(zip(eta_grid, scores)))[1]


@dataclass
class ExperimentConfig:
    """Flat experiment description; every field round-trips through JSON."""

    algorithms: list
    regime: Regime
    prefixes: list
    k: int
    data: str | None = None  # CSV path; None means synthetic generation
    dim: int = 0
    alpha: float = 0.0
    budget_split: float = 0.5
    repeats: int = 100
    folds: int = 10
    eta_grid: list | None = None
    m1_fraction: float = RunContext.m1_fraction
    test_fraction: float = 0.2
    seed: int = 0
    b: float | None = None
    delta: float = RunContext.delta
    epsilon_override: float | None = RunContext.epsilon_override
    improved_p: bool = RunContext.improved_p

    _INTEGERS = ("k", "dim", "repeats", "folds", "seed")
    _REALS = ("alpha", "budget_split", "m1_fraction", "test_fraction", "delta", "b")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("invalid config keys: " + ", ".join(unknown))
        missing = sorted(f.name for f in fields(cls) if f.default is MISSING and f.name not in raw)
        if missing:
            raise ValueError("missing config keys: " + ", ".join(missing))
        kwargs = dict(raw)
        kwargs["regime"] = Regime(kwargs["regime"])
        config = cls(**kwargs)
        config.validate()
        return config

    def to_dict(self) -> dict:
        return {f.name: (self.regime.value if f.name == "regime" else getattr(self, f.name))
                for f in fields(self)}

    def validate(self):
        for key in self._INTEGERS:
            value = getattr(self, key)
            if not _of_kind(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            # a larger count overflows a float (split_budget, _phase1_size), a list or an array
            if key in ("k", "dim", "repeats") and value > sys.maxsize:
                raise ValueError(f"{key} must be at most {sys.maxsize}")
        for key in self._REALS:
            value = getattr(self, key)
            if not (key == "b" and value is None) and not _of_kind(value, (int, float)):
                raise ValueError(f"{key} must be a number, got {value!r}")
        algos = self.algorithms
        if (not isinstance(algos, (list, tuple)) or not algos or not all(isinstance(a, str) for a in algos)
                or len(set(algos)) < len(algos)):
            raise ValueError(f"algorithms must be a non-empty list of distinct names, got {algos!r}")
        for algo in algos:
            algorithm_regime(algo, self.regime)
        prefixes = _entries("prefixes", self.prefixes, int, "a non-empty list of integers")
        if min(prefixes) < 1 or len(set(prefixes)) < len(prefixes):
            raise ValueError(f"prefixes must be positive and distinct, got {self.prefixes!r}")
        if max(prefixes) > sys.maxsize:
            raise ValueError(f"prefixes must be at most {sys.maxsize}")
        if not 0.0 <= self.budget_split <= 1.0:
            raise ValueError(f"budget_split must lie in [0, 1], got {self.budget_split!r}")
        if any(ALGORITHMS[a].budgeted for a in algos):
            if self.k < 1:
                raise ValueError("k must be at least 1")
        if self.data is not None and (not isinstance(self.data, str) or not self.data):
            raise ValueError(f"data must be null or a non-empty CSV path, got {self.data!r}")
        if self.data is None and (self.dim < 1 or not -sys.float_info.max <= self.alpha <= 0):
            raise ValueError("synthetic data needs dim >= 1 and a finite alpha <= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        if self.folds < 2:
            raise ValueError("need at least two folds")
        if self.eta_grid is not None:
            grid = _entries("eta_grid", self.eta_grid, (int, float), "null or a non-empty list of numbers")
            if not all(0 < eta <= sys.float_info.max for eta in grid):  # nor an int too large for a float
                raise ValueError("eta_grid entries must be finite and positive")
        if self.b is not None:
            check_b(self.b)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test fraction must lie in (0, 1)")
        if not 0.0 < self.m1_fraction < 1.0:
            raise ValueError("phase-1 fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        eps = self.epsilon_override
        if eps is not None and (not _of_kind(eps, (int, float)) or not 0 <= eps <= sys.float_info.max):
            raise ValueError("epsilon_override must be null or a finite number >= 0")
        if not isinstance(self.improved_p, bool):
            raise ValueError("improved_p must be true or false")
        cv = self.eta_grid is not None and any(ALGORITHMS[a].kind != "erm" for a in algos)
        smallest = min(prefixes)
        if cv and smallest < self.folds:
            raise ValueError(f"prefixes must be at least folds ({self.folds}) when step sizes are "
                             f"cross-validated, got {smallest}")
        # a CV training fold leaves out the largest of the folds' validation blocks
        run = smallest - math.ceil(smallest / self.folds) if cv else smallest
        m1 = _phase1_size(run, self.m1_fraction)
        for algo in algos:
            if ALGORITHMS[algo].kind == "two_phase" and run - m1 < 1:
                raise ValueError(f"prefixes must leave {algo} a second phase: its smallest run has {run} "
                                 f"example(s) and m1_fraction {self.m1_fraction} gives phase 1 {m1}")


def _of_kind(value, kinds):
    """An instance of ``kinds`` but not a bool: JSON's true and false load as bools, which are ints."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _entries(key, value, kinds, what):
    """``value`` when it is a non-empty list (or tuple) of ``kinds`` entries, never booleans."""
    if isinstance(value, (list, tuple)) and value and all(_of_kind(v, kinds) for v in value):
        return value
    raise ValueError(f"{key} must be {what}, got {value!r}")


@dataclass
class RunRecord:
    algorithm: str
    seed: int  # repeat index
    m: int
    attributes_observed: int
    test_relative_loss: float


@dataclass
class LearningCurve:
    """Per-algorithm aggregate: (attributes observed, mean, std) points."""

    algorithm: str
    points: list = field(default_factory=list)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    curves: dict
    records: list
    etas: dict  # (algorithm, prefix) -> step size used (None = auto)


def _materialize(config):
    """Build the fixed (pool, test, B, moments) tuple from the config.

    The split permutation, the generated data, and the scaling all depend
    only on the seed, so every run of the experiment sees the same bytes.
    The parsed or generated table is freed once the split has copied its
    rows, so the scaled copies and the moments' temporary never sit beside it.
    """
    def test_size(total):
        return max(1, int(round(config.test_fraction * total)))

    b_floor = 0.0
    if config.data is not None:
        raw = load_csv(config.data)
    else:
        need = max(config.prefixes)
        total = int(math.ceil(need / (1.0 - config.test_fraction)))
        while total - test_size(total) < need:
            total += 1
        u = power_law_means(config.dim, config.alpha, config.regime)
        w_star = random_target_weights(config.dim, config.regime, config.seed)
        raw = generate_dataset(u, w_star, total, config.regime, config.seed)
        # max|y| <= ||w*|| whenever ||x|| <= 1, so the max is a formality
        b_floor = weight_norm(w_star, config.regime)
    n_test = test_size(len(raw))
    if len(raw) - n_test < 1:
        raise ValueError("dataset too small for the test split")
    perm = stream(config.seed, _TAG_SPLIT).permutation(len(raw))
    pool = raw.subset(perm[n_test:])
    test = raw.subset(perm[:n_test])
    del raw
    if config.data is not None:
        scaler = Scaler(config.regime).fit(pool)
        pool = scaler.transform(pool)
        test = scaler.transform(test)
    b = config.b
    if b is None:
        b = check_b(float(max(b_floor, np.abs(pool.y).max())), "b (default: max |y| of the training pool)")
    if not np.any(test.y != 0):
        raise ValueError(f"test split has only zero targets ({n_test} example(s)): relative loss is undefined")
    return pool, test, b, dataset_moments(pool)


# worker-side payload, installed once per process by the pool initializer
_WORKER: dict = {}


def _init_worker(payload):
    _WORKER["payload"] = payload


def _run_task(task):
    """The scores of a chunk of CV folds over the whole grid, one list per
    fold, when ``folds`` is set, else the (attributes consumed, predictor)
    of each final run of a chunk of repeats, scored later by ``_score_task``."""
    algo_index, algo_id, prefix_index, m, eta, folds, repeats = task
    payload = _WORKER["payload"]
    pool, ctx, seed = payload["pool"], payload["ctx"], payload["seed"]
    if folds is not None:
        blocks = payload["cv_blocks"][algo_index, prefix_index]
        return _fold_scores(pool, blocks, folds, algo_id, ctx, payload["eta_grid"],
                            (seed, _TAG_CV, algo_index, prefix_index))
    runs, shuffles = [], payload["shuffles"]  # this process's repeat -> first max(prefixes) of its shuffle
    for repeat in repeats:
        if repeat not in shuffles:
            shuffles[repeat] = stream(seed, _TAG_SHUFFLE, repeat).permutation(len(pool))[:payload["max_prefix"]].copy()
        train = pool.subset(shuffles[repeat][:m])
        result = train_run(algo_id, train, ctx, eta, stream(seed, _TAG_RUN, algo_index, prefix_index, repeat))
        runs.append((int(result.attributes_consumed), result.predictor))
    return runs


def _score_task(predictors):
    """The final runs' test relative losses, in order."""
    return [relative_loss(predictor, _WORKER["payload"]["test"]) for predictor in predictors]


def _chunks(n, parts):
    """range(n) cut into ``parts`` consecutive ranges, the first n % parts of them one longer."""
    size, extra = divmod(n, parts)
    return [range(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra)) for i in range(parts)]


def run_experiment(config, workers: int = 1, on_start=None) -> ExperimentResult:
    """Run every (algorithm, prefix, repeat) cell and aggregate curves.

    Prefixes reuse one per-repeat pool shuffle, so at a fixed repeat all
    algorithms and all prefixes see nested slices of the same ordering
    (paired comparisons).  Step sizes come from one cross-validation per
    (algorithm, prefix) on the unshuffled pool prefix, or from each
    algorithm's own rate when no grid is configured.  Every CV task (a
    cell's folds; a chunk of them when there are fewer CV cells than
    workers) is submitted at once; then, cell by cell, the cell's step size
    is picked from its fold scores and its final runs are submitted as
    min(repeats, workers) chunks of repeats, so idle workers train the
    cells already decided while CV goes on.  Once every final run is back,
    one task on one worker scores them all, so the test-split products,
    which threaded BLAS splits across helper threads, have every core: none
    runs beside training or beside another worker's product.  With one
    worker each task runs in this process as it is submitted.  A failed
    task cancels the queued ones and its error is raised.
    The worker count is an execution detail and never affects the result.
    ``on_start``, when given, is called with the pool size (the worker
    count, capped at the most tasks a stage has) once every input has
    been checked, just before the first run.
    """
    config.validate()
    if workers < 1:
        raise ValueError("workers must be positive")
    pool, test, b, moments = _materialize(config)
    if max(config.prefixes) > len(pool):
        raise ValueError("prefix exceeds the available training examples")
    eps = config.epsilon_override
    if eps is not None and any(ALGORITHMS[a].kind == "two_phase" for a in config.algorithms):
        try:  # A = 0 is the least moment table: a width that overflows it overflows every table
            smoothed_q(np.zeros(pool.dimension), eps, config.regime)
        except ValueError as exc:
            raise ValueError(f"epsilon_override: {exc}") from None
    n_point, n_inner = (1, 1)
    if any(ALGORITHMS[a].budgeted for a in config.algorithms):
        n_point, n_inner = split_budget(config.k + 1, config.budget_split)
    ctx = RunContext(
        regime=config.regime, b=b, n_point=n_point, n_inner=n_inner,
        moments=moments, improved_p=config.improved_p,
        m1_fraction=config.m1_fraction, delta=config.delta,
        epsilon_override=config.epsilon_override,
    )
    cells = [(ai, algo, pi, m) for ai, algo in enumerate(config.algorithms)
             for pi, m in enumerate(config.prefixes)]
    cv_cells = [c for c in cells if config.eta_grid is not None and ALGORITHMS[c[1]].kind != "erm"]
    # a CV task fits a cell's folds, those of one training length in one train_grid pass; a cell's
    # folds are split only so that fewer CV cells than workers still give every worker a task
    per_cell = min(config.folds, -(-workers // max(1, len(cv_cells))))
    cv_tasks = [(ai, algo, pi, m, None, chunk, None) for ai, algo, pi, m in cv_cells
                for chunk in _chunks(config.folds, per_cell)]
    # a forked pool starts all its workers at the first task, however few the tasks
    workers = min(workers, max(len(cv_tasks), len(cells) * config.repeats))

    # each CV cell's fold split, derived once for all of its fold tasks
    cv_blocks = {(ai, pi): np.array_split(stream((config.seed, _TAG_CV, ai, pi), _TAG_CV_SPLIT).permutation(m),
                                          config.folds) for ai, _, pi, m in cv_cells}
    for ai, algo, pi, m in cv_cells:
        if not any(np.any(pool.y[block] != 0) for block in cv_blocks[ai, pi]):
            raise ValueError(f"cannot cross-validate {algo} at prefix {m}: every validation fold has only "
                             f"zero targets, so no step size can be scored")
    if on_start is not None:
        on_start(workers)
    eta_grid = None if config.eta_grid is None else [float(eta) for eta in config.eta_grid]
    payload = {"pool": pool, "test": test, "ctx": ctx, "seed": config.seed, "cv_blocks": cv_blocks,
               "eta_grid": eta_grid, "max_prefix": max(config.prefixes), "shuffles": {}}
    pool_exec = (concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                                        initargs=(payload,)) if workers > 1 else None)

    def submit(fn, task):
        if pool_exec is not None:
            return pool_exec.submit(fn, task)
        done = concurrent.futures.Future()  # one worker: the task runs here, now
        done.set_result(fn(task))
        return done

    try:
        if pool_exec is None:
            _init_worker(payload)
        cv = {}
        for task in cv_tasks:
            cv.setdefault(task[:4], []).append(submit(_run_task, task))
        etas, finals = {}, []
        for ai, algo, pi, m in cells:
            scores = [fold for chunk in cv.get((ai, algo, pi, m), ()) for fold in chunk.result()]
            eta = etas[(algo, m)] = _pick_eta(eta_grid, list(zip(*scores))) if scores else None
            finals += [submit(_run_task, (ai, algo, pi, m, eta, None, chunk))
                       for chunk in _chunks(config.repeats, min(config.repeats, workers))]
        attrs, predictors = zip(*(run for chunk in finals for run in chunk.result()))
        losses = submit(_score_task, predictors).result()  # one task: one worker
    finally:
        if pool_exec is not None:
            pool_exec.shutdown(cancel_futures=True)  # after a failed task, run none of those queued
        _WORKER.clear()  # a serial run installed its payload in this process

    runs = [(algo, r, m) for _, algo, _, m in cells for r in range(config.repeats)]
    records = [RunRecord(*run, a, rel) for run, a, rel in zip(runs, attrs, losses)]
    # tasks run cell by cell in (algorithm, prefix) order, repeats innermost
    curves = {}
    for ai, algo in enumerate(config.algorithms):
        points = []
        for pi in range(len(config.prefixes)):
            start = (ai * len(config.prefixes) + pi) * config.repeats
            cell = records[start:start + config.repeats]
            losses = np.array([rec.test_relative_loss for rec in cell])
            std = float(np.std(losses, ddof=1)) if len(losses) > 1 else 0.0
            points.append((cell[0].attributes_observed, float(np.mean(losses)), std))
        points.sort(key=lambda p: p[0])
        curves[algo] = LearningCurve(algo, points)
    return ExperimentResult(config, curves, records, etas)
