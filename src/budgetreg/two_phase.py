"""Two-phase solvers: estimate attribute moments first, then exploit them.

Phase 1 spends a (k+1)-per-example budget on uniformly sampled attribute
values and turns them into empirical second-moment estimates A.  Phase 2
runs the ridge or lasso solver on the remaining examples with sampling
probabilities built from A, smoothed by a confidence width eps so that
badly underestimated attributes still get probability mass.  A practical
variant runs the uniform-sampling solver during phase 1 (reusing the same
draws for the moment table) and starts phase 2 from its output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Regime, RunResult, norm
from .estimator import SolverConfig, estimate_from_indices
from .sampling import apply_floor, build_distribution, sample_index, uniform_distribution
from .solver_lasso import (
    EGState,
    aelr_eta,
    gaelr_step,
    lasso_eta_two_phase,
    run_gaelr,
)
from .solver_ridge import RidgeState, aerr_eta, gaerr_step, run_gaerr

__all__ = [
    "MomentTable",
    "SmoothingParams",
    "TwoPhaseConfig",
    "estimate_moments",
    "epsilon",
    "smoothed_q",
    "estimate_half_norm",
    "ridge_eta_two_phase",
    "run_two_phase",
]


@dataclass
class MomentTable:
    """Per-attribute draw counts, sums of squares, and their ratios A."""

    counts: np.ndarray
    square_sums: np.ndarray
    A: np.ndarray
    m1: int

    @classmethod
    def zeros(cls, d):
        return cls(np.zeros(d, dtype=int), np.zeros(d), np.zeros(d), 0)


@dataclass
class SmoothingParams:
    epsilon: float
    delta: float
    capped: bool = False


def _finalize_table(counts, square_sums, m1):
    a = np.zeros_like(square_sums)
    seen = counts > 0
    a[seen] = square_sums[seen] / counts[seen]
    return MomentTable(counts, square_sums, a, m1)


def estimate_moments(dataset, k, seed):
    """Uniform-sampling moment table over a dataset (a phase-1 slice).

    Each example contributes k+1 independent uniform index draws; A[i] is
    the mean of the squared values observed at index i (0 if never drawn).
    """
    if k < 1:
        raise ValueError("k must be positive")
    m1 = len(dataset)
    d = dataset.dimension
    counts = np.zeros(d, dtype=int)
    square_sums = np.zeros(d)
    if m1 == 0:
        return _finalize_table(counts, square_sums, 0)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(np.random.SeedSequence(seed))
    uniform = uniform_distribution(d)
    xs = dataset.x
    for t in range(m1):
        idx = sample_index(uniform, rng.random(k + 1))
        np.add.at(counts, idx, 1)
        np.add.at(square_sums, idx, xs[t, idx] ** 2)
    return _finalize_table(counts, square_sums, m1)


def _as_regime(regime):
    if isinstance(regime, Regime):
        return regime
    return {"ridge": Regime.L2, "lasso": Regime.LINF}[regime]


def epsilon(d, delta, k, m1, regime):
    """Confidence width d ln(2d/delta) / ((k+1) m1); capped at 1 for lasso."""
    if d < 1:
        raise ValueError("zero dimension")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be positive")
    regime = _as_regime(regime)
    if m1 == 0:
        if regime == Regime.L2:
            raise ValueError("no phase-1 data")
        return SmoothingParams(1.0, delta, capped=True)
    raw = d * math.log(2 * d / delta) / ((k + 1.0) * m1)
    if regime == Regime.LINF and raw > 1.0:
        return SmoothingParams(1.0, delta, capped=True)
    return SmoothingParams(raw, delta, capped=False)


def smoothed_q(a, eps, regime, q_floor=0.0):
    """Sampling distribution from smoothed moment estimates.

    Ridge weights sqrt(A + 13 eps / 6); lasso uses A + 13 eps / 6 as is.
    A configured floor lifts zero-probability coordinates; when the whole
    table is zero it degrades gracefully to the uniform distribution.
    """
    a = np.asarray(a, dtype=float)
    if eps < 0:
        raise ValueError("negative smoothing width")
    shifted = a + 13.0 * eps / 6.0
    if not np.any(shifted > 0):
        if q_floor > 0:
            return uniform_distribution(a.size)
        raise ValueError("degenerate smoothed distribution")
    weights = np.sqrt(shifted) if _as_regime(regime) == Regime.L2 else shifted
    dist = build_distribution(weights)
    if q_floor > 0:
        dist = apply_floor(dist, q_floor)
    return dist


def estimate_half_norm(a, eps):
    """H = ||2A + (10/3) eps||_{1/2}, an upper confidence bound for ||E[x^2]||_{1/2}."""
    a = np.asarray(a, dtype=float)
    return norm(2.0 * a + 10.0 * eps / 3.0, 0.5)


def ridge_eta_two_phase(m1, m2, k, d, delta, h, epsilon=None):
    """Second-phase step size: the better of the moment-free and moment-aware rates.

    max(sqrt(k/(6 d m2)), sqrt(k / (m2 (2H + 2 sqrt(5/3) d sqrt(H) sqrt(eps) + k))))
    with eps = d ln(2d/delta) / ((k+1) m1).  Pass epsilon to bypass the
    recomputation.
    """
    if m2 < 1 or k < 1 or d < 1:
        raise ValueError("m2, k, d must be positive")
    if h < 0:
        raise ValueError("negative half-norm estimate")
    if epsilon is None:
        if m1 == 0:
            raise ValueError("no phase-1 data")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        epsilon = d * math.log(2 * d / delta) / ((k + 1.0) * m1)
    bracket = 2.0 * h + 2.0 * math.sqrt(5.0 / 3.0) * d * math.sqrt(h) * math.sqrt(epsilon) + k
    return max(math.sqrt(k / (6.0 * d * m2)), math.sqrt(k / (m2 * bracket)))


@dataclass
class TwoPhaseConfig:
    m1: int
    m2: int
    b: float
    k: int
    regime: Regime
    delta: float = 0.1
    eta: float | None = None  # None: phase-specific defaults
    n_inner: int = 1
    p_mode: str = "standard"
    phase1_mode: str = "pure_estimation"  # or "uniform_solver_warm_start"
    epsilon_override: float | None = None  # replaces eps in smoothed_q only
    q_floor: float = 0.0

    def validate(self):
        if self.m2 < 1:
            raise ValueError("empty second phase")
        if self.m1 < 0:
            raise ValueError("negative phase-1 size")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.b <= 0:
            raise ValueError("norm bound must be positive")
        if self.phase1_mode not in ("pure_estimation", "uniform_solver_warm_start"):
            raise ValueError(f"unknown phase1_mode {self.phase1_mode!r}")


def _phase1_warm_start(dataset, config, rng):
    """Uniform-q solver over the phase-1 slice, feeding the moment table.

    The k point-estimation draws of each step are shared with the moment
    table; the inner-product draw follows p(w) and stays out of the
    moment statistics.  The table adds each raw draw with np.add.at,
    duplicates included (count * x^2 would round differently), so this
    loop draws the indices itself instead of going through run_pass.
    """
    d = dataset.dimension
    m1 = len(dataset)
    counts = np.zeros(d, dtype=int)
    square_sums = np.zeros(d)
    if m1 == 0:
        return _finalize_table(counts, square_sums, 0), None, 0, 0, 0
    uniform = uniform_distribution(d)
    ridge = config.regime == Regime.L2
    eta1 = config.eta
    if eta1 is None:
        eta1 = aerr_eta(m1, config.k, d, config.b) if ridge else aelr_eta(m1, config.k, d, config.b)
    cfg = SolverConfig(b=config.b, eta=eta1, q=uniform, n_point=config.k, n_inner=config.n_inner)
    state = (RidgeState if ridge else EGState).initial(d, cfg)
    step = gaerr_step if ridge else gaelr_step
    xs, ys = dataset.x, dataset.y
    for t in range(m1):
        idx = sample_index(uniform, rng.random(config.k))
        np.add.at(counts, idx, 1)
        np.add.at(square_sums, idx, xs[t, idx] ** 2)
        est = estimate_from_indices(xs[t], uniform, idx)
        step(state, xs[t], float(ys[t]), cfg, rng, point_estimate=est)
    table = _finalize_table(counts, square_sums, m1)
    w_start = state.sum_w / state.steps
    return table, w_start, state.attributes_consumed, state.zero_weight_steps, state.p_fallbacks


def run_two_phase(dataset, config, seed):
    """Both phases on one dataset prefix: first m1 examples feed the moment
    table (and, in warm-start mode, a uniform-sampling run whose averaged
    output seeds phase 2), the next m2 examples get the smoothed solver.

    epsilon_override only reshapes the sampling distribution; step sizes
    always use the theoretical width.
    """
    config.validate()
    ridge = config.regime == Regime.L2
    if dataset.regime is not None and dataset.regime != config.regime:
        raise ValueError("dataset regime does not match configuration")
    if config.m1 + config.m2 > len(dataset):
        raise ValueError("phase sizes exceed the dataset")
    if ridge and config.m1 == 0:
        raise ValueError("no phase-1 data")
    d = dataset.dimension
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(np.random.SeedSequence(seed))

    # per-example budget: k point draws plus n_inner inner-product draws
    budget = config.k + config.n_inner
    phase1 = dataset.subset(np.arange(config.m1))
    phase1_consumed = budget * config.m1
    zero_steps_1 = fallbacks_1 = 0
    w_start = None
    if config.phase1_mode == "uniform_solver_warm_start":
        table, w_start, phase1_consumed, zero_steps_1, fallbacks_1 = _phase1_warm_start(phase1, config, rng)
        if w_start is not None and not np.any(w_start != 0):
            w_start = None
    else:
        table = estimate_moments(phase1, budget - 1, rng)

    smoothing = epsilon(d, config.delta, budget - 1, config.m1, config.regime)
    eps_for_q = smoothing.epsilon if config.epsilon_override is None else config.epsilon_override
    q2 = smoothed_q(table.A, eps_for_q, config.regime, config.q_floor)

    eta2 = config.eta
    half_norm = None
    if ridge:
        half_norm = estimate_half_norm(table.A, smoothing.epsilon)
        if eta2 is None:
            eta2 = ridge_eta_two_phase(
                config.m1, config.m2, config.k, d, config.delta, half_norm, epsilon=smoothing.epsilon
            )
    elif eta2 is None:
        eta2 = lasso_eta_two_phase(
            config.m1, config.m2, config.k, d, config.delta, table.A, config.b, epsilon=smoothing.epsilon
        )

    phase2 = dataset.subset(np.arange(config.m1, config.m1 + config.m2))
    moments = table.A if config.p_mode == "improved" else None
    cfg2 = SolverConfig(
        b=config.b, eta=eta2, q=q2, n_point=config.k, n_inner=config.n_inner,
        p_mode=config.p_mode, moments=moments, initial_w=w_start,
    )
    result = (run_gaerr if ridge else run_gaelr)(phase2, cfg2, rng)

    diagnostics = {
        "m1": config.m1,
        "m2": config.m2,
        "epsilon": smoothing.epsilon,
        "epsilon_capped": smoothing.capped,
        "epsilon_for_q": eps_for_q,
        "eta": eta2,
        "phase1_mode": config.phase1_mode,
        "phase1_budget": phase1_consumed,
        "phase2_budget": result.attributes_consumed,
        "moment_table": table,
        "smoothed_q": q2.probabilities,
    }
    if half_norm is not None:
        diagnostics["half_norm_estimate"] = half_norm
    return RunResult(
        result.predictor,
        phase1_consumed + result.attributes_consumed,
        zero_steps_1 + result.zero_weight_steps,
        diagnostics,
        fallbacks_1 + result.p_fallbacks,
    )
