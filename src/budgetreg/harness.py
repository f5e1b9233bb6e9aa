"""Experiment orchestration: repeated seeded prefix runs, cross-validated
step sizes, and learning curves in attributes-observed coordinates.

Every run is keyed by (algorithm, prefix, repeat) and every random stream
is derived from the experiment seed plus that key, so the output is a pure
function of the configuration regardless of worker-pool size.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import offline_erm, online_lasso_full, online_ridge_full
from .core import Regime, norm, squared_loss, weight_norm
from .datagen import generate_dataset, power_law_means, random_target_weights
from .estimator import SolverConfig
from .ingest import Scaler, load_csv
from .sampling import lasso_optimal_q, ridge_optimal_q, uniform_distribution
from .solver_lasso import aelr_eta, lasso_eta_known_moments, run_gaelr
from .solver_ridge import aerr_eta, ridge_eta_known_moments, run_gaerr
from .two_phase import TwoPhaseConfig, run_two_phase

__all__ = [
    "ALGORITHMS",
    "AlgoSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "LearningCurve",
    "RunContext",
    "RunRecord",
    "cross_validate",
    "dataset_moments",
    "relative_loss",
    "run_experiment",
    "split_budget",
    "train_run",
]

# stream tags; every derived seed is (base entropy..., tag, key...)
_TAG_SPLIT = 101
_TAG_SHUFFLE = 102
_TAG_CV_SPLIT = 103
_TAG_CV_RUN = 104
_TAG_RUN = 105
_TAG_CV = 106


def _stream(seed, *tags):
    base = tuple(int(s) for s in seed) if isinstance(seed, tuple) else (int(seed),)
    return np.random.default_rng(np.random.SeedSequence(base + tags))


def relative_loss(predictor, test_set) -> float:
    """Total squared loss on the test set divided by the zero predictor's."""
    base = float(np.sum(squared_loss(0.0, test_set.y)))
    if base == 0.0:
        raise ValueError("zero-predictor loss undefined")
    preds = test_set.x @ predictor.weights
    return float(np.sum(squared_loss(preds, test_set.y))) / base


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
    """Registry entry: norm regime (None = follows the data), budget use,
    and the dispatch kind."""

    regime: Regime | None
    budgeted: bool
    kind: str


ALGORITHMS = {
    "aerr": AlgoSpec(Regime.L2, True, "plain"),
    "ddaerr": AlgoSpec(Regime.L2, True, "moments"),
    "2p-ddaerr": AlgoSpec(Regime.L2, True, "two_phase"),
    "aelr": AlgoSpec(Regime.LINF, True, "plain"),
    "ddaelr": AlgoSpec(Regime.LINF, True, "moments"),
    "2p-ddaelr": AlgoSpec(Regime.LINF, True, "two_phase"),
    "ogd-full": AlgoSpec(Regime.L2, False, "full"),
    "eg-full": AlgoSpec(Regime.LINF, False, "full"),
    "erm": AlgoSpec(None, False, "erm"),
    "adagrad-ogd-full": AlgoSpec(Regime.L2, False, "adagrad"),
    "adagrad-gaerr": AlgoSpec(Regime.L2, True, "adagrad"),
    "adagrad-gaelr": AlgoSpec(Regime.LINF, True, "adagrad"),
}


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
    spec = ALGORITHMS.get(algo_id)
    if spec is None:
        raise ValueError(f"unknown algorithm: {algo_id}")
    regime = spec.regime if spec.regime is not None else ctx.regime
    if regime != ctx.regime:
        raise ValueError(f"{algo_id} requires {regime.value} data")
    ridge = regime == Regime.L2
    d = train.dimension
    m = len(train)
    k, n_inner = ctx.n_point, ctx.n_inner
    solve = run_gaerr if ridge else run_gaelr

    if spec.kind == "plain":
        if eta is None:
            eta = aerr_eta(m, k, d, ctx.b) if ridge else aelr_eta(m, k, d, ctx.b)
        cfg = SolverConfig(b=ctx.b, eta=eta, q=uniform_distribution(d), n_point=k, n_inner=n_inner)
        return solve(train, cfg, seed)

    if spec.kind == "moments":
        mom = ctx.moments
        if mom is None:
            raise ValueError(f"{algo_id} needs second-moment estimates")
        if eta is None:
            if ridge:
                eta = ridge_eta_known_moments(m, k, float(norm(mom, 0.5)))
            else:
                eta = lasso_eta_known_moments(m, k, d, ctx.b, float(norm(mom, 1)))
        q = ridge_optimal_q(mom) if ridge else lasso_optimal_q(mom)
        cfg = SolverConfig(b=ctx.b, eta=eta, q=q, n_point=k, n_inner=n_inner,
                           moments=mom if ctx.improved_p else None)
        return solve(train, cfg, seed)

    if spec.kind == "two_phase":
        m1 = int(math.ceil(ctx.m1_fraction * m))
        cfg = TwoPhaseConfig(
            m1=m1, m2=m - m1, b=ctx.b, k=k, regime=regime, delta=ctx.delta,
            eta=eta, n_inner=n_inner, improved_p=ctx.improved_p,
            epsilon_override=ctx.epsilon_override,
        )
        return run_two_phase(train, cfg, seed)

    if spec.kind == "full":
        if eta is None:
            # scale-free OGD rate; EG rate from the ln(2d) regret bound
            eta = 1.0 / math.sqrt(m) if ridge else math.sqrt(math.log(2 * d) / m) / (2 * ctx.b)
        if ridge:
            return online_ridge_full(train, ctx.b, eta)
        return online_lasso_full(train, ctx.b, eta)

    if spec.kind == "erm":
        return offline_erm(train, ctx.b, regime)

    # adagrad family: rates scaled by b by default; uniform q, standard inner-product p
    eta = ctx.b if eta is None else eta
    if not spec.budgeted:
        return online_ridge_full(train, ctx.b, eta, adagrad=True)
    cfg = SolverConfig(b=ctx.b, eta=eta, q=uniform_distribution(d), n_point=k, n_inner=n_inner, adagrad=True)
    return solve(train, cfg, seed)


def cross_validate(dataset, algorithm, eta_grid, folds, seed, ctx):
    """Pick the step size by k-fold validation; ties go to the smaller eta.

    Fold data and fold run streams depend only on (seed, fold), never on
    the candidate, so duplicated grid entries score identically and the
    first one wins.  Folds whose validation targets are all zero carry no
    defined relative loss and are skipped.
    """
    if eta_grid is None or len(eta_grid) == 0:
        raise ValueError("empty step-size grid")
    if folds < 2:
        raise ValueError("need at least two folds")
    scores = [[_fold_score(dataset, len(dataset), folds, f, algorithm, ctx, float(eta), seed)
               for f in range(folds)] for eta in eta_grid]
    return _pick_eta(eta_grid, scores)


def _fold_score(dataset, n, folds, f, algorithm, ctx, eta, seed):
    """Validation relative loss of the fold-f run at eta, the folds split
    from the first n examples by the (seed) stream alone; None when the
    fold's validation targets are all zero (the fold is skipped)."""
    if n < folds:
        raise ValueError("fewer examples than folds")
    blocks = np.array_split(_stream(seed, _TAG_CV_SPLIT).permutation(n), folds)
    val = dataset.subset(blocks[f])
    if not np.any(val.y != 0):
        return None
    train_idx = np.concatenate([blocks[g] for g in range(folds) if g != f])
    result = train_run(algorithm, dataset.subset(train_idx), ctx, eta, _stream(seed, _TAG_CV_RUN, f))
    return relative_loss(result.predictor, val)


def _pick_eta(eta_grid, scores):
    """The candidate with the smallest mean fold score (ties: smaller eta,
    then earlier entry); ``scores[j]`` holds candidate j's fold scores."""
    keys = []
    for j, (eta, per_fold) in enumerate(zip(eta_grid, scores)):
        per_fold = [v for v in per_fold if v is not None]
        if not per_fold:
            raise ValueError("zero-predictor loss undefined")
        keys.append((float(np.mean(per_fold)), float(eta), j))
    return min(keys)[1]


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
    m1_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0
    b: float | None = None
    delta: float = 0.1
    epsilon_override: float | None = 0.0
    improved_p: bool = True

    _REQUIRED = ("algorithms", "regime", "prefixes", "k")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("invalid config keys: " + ", ".join(unknown))
        missing = sorted(k for k in cls._REQUIRED if k not in raw)
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
        if not self.algorithms:
            raise ValueError("no algorithms configured")
        for algo in self.algorithms:
            spec = ALGORITHMS.get(algo)
            if spec is None:
                raise ValueError(f"unknown algorithm: {algo}")
            if spec.regime is not None and spec.regime != self.regime:
                raise ValueError(f"{algo} requires {spec.regime.value} data")
        if not self.prefixes or any(int(m) < 1 for m in self.prefixes):
            raise ValueError("prefixes must be positive")
        budgeted = any(ALGORITHMS[a].budgeted for a in self.algorithms)
        if budgeted and self.k < 1:
            raise ValueError("k must be at least 1")
        if budgeted:
            split_budget(self.k + 1, self.budget_split)
        if self.data is None and (self.dim < 1 or not -math.inf < self.alpha <= 0):
            raise ValueError("synthetic data needs dim >= 1 and a finite alpha <= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        if self.folds < 2:
            raise ValueError("need at least two folds")
        if self.eta_grid is not None and len(self.eta_grid) == 0:
            raise ValueError("empty step-size grid")
        if self.eta_grid is not None and not all(0 < float(eta) < math.inf for eta in self.eta_grid):
            raise ValueError("eta_grid entries must be finite and positive")
        if self.b is not None and not 0 < self.b < math.inf:
            raise ValueError("b must be finite and positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test fraction must lie in (0, 1)")
        if not 0.0 < self.m1_fraction < 1.0:
            raise ValueError("phase-1 fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        eps = self.epsilon_override
        if eps is not None and (isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0 <= eps < math.inf):
            raise ValueError("epsilon_override must be null or a finite number >= 0")
        if not isinstance(self.improved_p, bool):
            raise ValueError("improved_p must be true or false")


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
    """
    if config.data is not None:
        raw = load_csv(config.data)
        total = len(raw)
        test_size = max(1, int(round(config.test_fraction * total)))
        if total - test_size < 1:
            raise ValueError("dataset too small for the test split")
        perm = _stream(config.seed, _TAG_SPLIT).permutation(total)
        pool_raw = raw.subset(perm[test_size:])
        scaler = Scaler(config.regime).fit(pool_raw)
        pool = scaler.transform(pool_raw)
        test = scaler.transform(raw.subset(perm[:test_size]))
        b = config.b if config.b is not None else float(np.abs(pool.y).max())
    else:
        need = int(max(config.prefixes))
        total = int(math.ceil(need / (1.0 - config.test_fraction)))
        while total - max(1, int(round(config.test_fraction * total))) < need:
            total += 1
        test_size = max(1, int(round(config.test_fraction * total)))
        u = power_law_means(config.dim, config.alpha, config.regime)
        w_star = random_target_weights(config.dim, config.regime, config.seed)
        full = generate_dataset(u, w_star, total, config.regime, config.seed)
        perm = _stream(config.seed, _TAG_SPLIT).permutation(total)
        pool = full.subset(perm[test_size:])
        test = full.subset(perm[:test_size])
        if config.b is not None:
            b = config.b
        else:
            # max|y| <= ||w*|| whenever ||x|| <= 1, so the max is a formality
            b = float(max(weight_norm(w_star, config.regime), np.abs(pool.y).max()))
    if b <= 0:
        raise ValueError("norm bound must be positive")
    return pool, test, b, dataset_moments(pool)


# worker-side payload, installed once per process by the pool initializer
_WORKER: dict = {}


def _init_worker(payload):
    _WORKER["payload"] = payload


def _run_task(task):
    """One training run: a CV fold's score when ``fold`` is set, else a final run."""
    algo_index, algo_id, prefix_index, m, eta, fold, repeat = task
    payload = _WORKER["payload"]
    pool, test, ctx, seed = payload["pool"], payload["test"], payload["ctx"], payload["seed"]
    if fold is not None:
        cv_seed = (seed, _TAG_CV, algo_index, prefix_index)
        return _fold_score(pool, m, payload["folds"], fold, algo_id, ctx, eta, cv_seed)
    order = _stream(seed, _TAG_SHUFFLE, repeat).permutation(len(pool))
    train = pool.subset(order[:m])
    rng = _stream(seed, _TAG_RUN, algo_index, prefix_index, repeat)
    result = train_run(algo_id, train, ctx, eta, rng)
    return int(result.attributes_consumed), relative_loss(result.predictor, test)


def _map_tasks(pool_exec, workers, tasks):
    """Run the tasks in order, in the worker pool when there is one."""
    if workers == 1:
        return [_run_task(t) for t in tasks]
    return list(pool_exec.map(_run_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def run_experiment(config, workers: int = 1) -> ExperimentResult:
    """Run every (algorithm, prefix, repeat) cell and aggregate curves.

    Prefixes reuse one per-repeat pool shuffle, so at a fixed repeat all
    algorithms and all prefixes see nested slices of the same ordering
    (paired comparisons).  Step sizes come from one cross-validation per
    (algorithm, prefix) on the unshuffled pool prefix, or from each
    algorithm's own rate when no grid is configured.  CV fold fits, then
    final runs, are tasks for the same workers.  The worker count is an
    execution detail and never affects the result.
    """
    config.validate()
    if workers < 1:
        raise ValueError("workers must be positive")
    pool, test, b, moments = _materialize(config)
    if int(max(config.prefixes)) > len(pool):
        raise ValueError("prefix exceeds the available training examples")
    n_point, n_inner = (1, 1)
    if any(ALGORITHMS[a].budgeted for a in config.algorithms):
        n_point, n_inner = split_budget(config.k + 1, config.budget_split)
    ctx = RunContext(
        regime=config.regime, b=b, n_point=n_point, n_inner=n_inner,
        moments=moments, improved_p=config.improved_p,
        m1_fraction=config.m1_fraction, delta=config.delta,
        epsilon_override=config.epsilon_override,
    )
    cells = [(ai, algo, pi, int(m)) for ai, algo in enumerate(config.algorithms)
             for pi, m in enumerate(config.prefixes)]
    cv_cells = [c for c in cells if config.eta_grid is not None and ALGORITHMS[c[1]].kind != "erm"]
    cv_tasks = [(ai, algo, pi, m, float(eta), f, None) for ai, algo, pi, m in cv_cells
                for eta in config.eta_grid for f in range(config.folds)]

    payload = {"pool": pool, "test": test, "ctx": ctx, "seed": config.seed, "folds": config.folds}
    pool_exec = (ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(payload,))
                 if workers > 1 else contextlib.nullcontext())
    with pool_exec:
        if workers == 1:
            _init_worker(payload)
        scores = iter(_map_tasks(pool_exec, workers, cv_tasks))
        etas = {(algo, m): None for _, algo, _, m in cells}
        for _, algo, _, m in cv_cells:
            etas[(algo, m)] = _pick_eta(config.eta_grid, [[next(scores) for _ in range(config.folds)]
                                                          for _ in config.eta_grid])
        tasks = [(ai, algo, pi, m, etas[(algo, m)], None, r) for ai, algo, pi, m in cells
                 for r in range(config.repeats)]
        raw = _map_tasks(pool_exec, workers, tasks)

    records = [
        RunRecord(algorithm=task[1], seed=task[6], m=task[3],
                  attributes_observed=attrs, test_relative_loss=rel)
        for task, (attrs, rel) in zip(tasks, raw)
    ]
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
