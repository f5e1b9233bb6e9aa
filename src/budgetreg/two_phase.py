"""Two-phase solvers: estimate attribute moments first, then exploit them.

Phase 1 runs the uniform-sampling solver and tables its k point draws per
example into empirical second-moment estimates A (its inner-product draws
follow the iterate and stay out of A).  Phase 2 runs the ridge or lasso
solver on the remaining examples, starting from phase 1's averaged output,
with sampling probabilities built from A smoothed by a confidence width
eps, so that badly underestimated attributes still get probability mass.
eps counts the draws the table holds; it also sets phase 2's step size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Regime, RunResult, check_step_inputs, norm, stream
from .estimator import SolverConfig
from .sampling import AttributeDistribution, build_distribution, uniform_distribution
from .solver_lasso import aelr_eta, run_gaelr
from .solver_ridge import aerr_eta, run_gaerr

__all__ = [
    "MomentTable",
    "TwoPhaseConfig",
    "epsilon",
    "smoothed_q",
    "estimate_half_norm",
    "ridge_eta_two_phase",
    "lasso_eta_two_phase",
    "run_two_phase",
]


# tiny floor keeps zero-count coordinates reachable under the practical
# epsilon = 0 override
_Q_FLOOR = 1e-9


class MomentTable:
    """Per-attribute draw counts and sums of squares over m1 examples."""

    def __init__(self, d):
        self.counts = np.zeros(d, dtype=int)
        self.square_sums = np.zeros(d)
        self.m1 = 0

    def add(self, indices, x):
        """Table a block of examples: row r of ``indices`` holds the draws
        made on row r of ``x``, each tabled on its own (count * x^2 for a
        duplicate would round differently), in row order."""
        np.add.at(self.counts, indices, 1)
        np.add.at(self.square_sums, indices, np.take_along_axis(x, indices, axis=1) ** 2)
        self.m1 += len(indices)

    @property
    def A(self):
        """Mean observed square per attribute; 0 where never drawn."""
        a = np.zeros_like(self.square_sums)
        seen = self.counts > 0
        a[seen] = self.square_sums[seen] / self.counts[seen]
        return a


def epsilon(d, delta, draws, m1, regime):
    """Confidence width d ln(2d/delta) / (draws m1); capped at 1 for lasso.

    ``draws`` is the number of attribute values tabled per phase-1 example
    (the warm start's k point draws) and ``m1`` the number of phase-1
    examples; both must be positive.
    """
    if d < 1:
        raise ValueError("zero dimension")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if draws < 1 or m1 < 1:
        raise ValueError("draws and m1 must be positive")
    raw = d * math.log(2 * d / delta) / (draws * m1)
    return min(raw, 1.0) if regime == Regime.LINF else raw


def smoothed_q(a, eps, regime):
    """Sampling distribution from smoothed moment estimates.

    Ridge weights sqrt(A + 13 eps / 6); lasso uses A + 13 eps / 6 as is.
    The result is mixed with a tiny uniform floor, (1 - d f) q + f, so
    zero-count attributes stay reachable under eps = 0; an all-zero table
    at eps = 0 gives the uniform distribution.
    """
    a = np.asarray(a, dtype=float)
    if not 0.0 <= eps < math.inf:
        raise ValueError("negative smoothing width" if eps < 0 else f"smoothing width must be finite, got {eps}")
    shifted = a + 13.0 * eps / 6.0
    if not np.any(shifted > 0):
        return uniform_distribution(a.size)
    weights = np.sqrt(shifted) if regime == Regime.L2 else shifted
    q = build_distribution(weights).probabilities
    return AttributeDistribution((1.0 - a.size * _Q_FLOOR) * q + _Q_FLOOR)


def estimate_half_norm(a, eps):
    """H = ||2A + (10/3) eps||_{1/2}, an upper confidence bound for ||E[x^2]||_{1/2}."""
    a = np.asarray(a, dtype=float)
    return norm(2.0 * a + 10.0 * eps / 3.0, 0.5)


def ridge_eta_two_phase(m2, k, d, h, eps):
    """Second-phase ridge step size: the better of the moment-free and moment-aware rates.

    max(sqrt(k/(6 d m2)), sqrt(k / (m2 (2H + 2 sqrt(5/3) d sqrt(H) sqrt(eps) + k))))
    with H the half-norm estimate and eps the width ``epsilon`` gives the
    phase-1 table.
    """
    check_step_inputs("m2, k, d", m2, k, d)
    if h < 0:
        raise ValueError("negative half-norm estimate")
    bracket = 2.0 * h + 2.0 * math.sqrt(5.0 / 3.0) * d * math.sqrt(h) * math.sqrt(eps) + k
    return max(math.sqrt(k / (6.0 * d * m2)), math.sqrt(k / (m2 * bracket)))


def lasso_eta_two_phase(m2, k, d, a, b, eps):
    """Second-phase lasso step size from the phase-1 moment estimates A.

    eta = sqrt(k ln(2d) / (20 b^2 m2 (8 ||A||_1 + 20 d eps + k))) with eps
    the (capped) width ``epsilon`` gives the phase-1 table.
    """
    check_step_inputs("m2, k, d", m2, k, d, b=b)
    a1 = float(np.abs(np.asarray(a, dtype=float)).sum())
    bracket = 8.0 * a1 + 20.0 * d * eps + k
    return math.sqrt(k * math.log(2 * d) / (20.0 * b * b * m2 * bracket))


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
    improved_p: bool = False  # phase 2's inner-product p weighted by the table's A
    epsilon_override: float | None = None  # replaces eps in smoothed_q only

    def validate(self):
        if self.m2 < 1:
            raise ValueError("empty second phase")
        if self.m1 < 1:
            raise ValueError("empty first phase")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.b <= 0:
            raise ValueError("norm bound must be positive")


def run_two_phase(dataset, config, seed):
    """Both phases on one dataset prefix: the first m1 >= 1 examples feed
    the moment table and a uniform-sampling run whose averaged output seeds
    phase 2, the next m2 examples get the smoothed solver.

    epsilon_override only reshapes the sampling distribution; step sizes
    always use the theoretical width.
    """
    config.validate()
    ridge = config.regime == Regime.L2
    if config.m1 + config.m2 > len(dataset):
        raise ValueError("phase sizes exceed the dataset")
    d = dataset.dimension
    rng = stream(seed)
    solve = run_gaerr if ridge else run_gaelr

    eta1 = config.eta
    if eta1 is None:
        eta1 = (aerr_eta if ridge else aelr_eta)(config.m1, config.k, d, config.b)
    cfg1 = SolverConfig(b=config.b, eta=eta1, q=uniform_distribution(d), n_point=config.k, n_inner=config.n_inner)
    table = MomentTable(d)
    phase1 = solve(dataset.subset(np.arange(config.m1)), cfg1, rng, table)
    w_start = phase1.predictor.weights if np.any(phase1.predictor.weights != 0) else None
    a = table.A

    # the table holds the k point draws of each phase-1 example
    eps = epsilon(d, config.delta, config.k, config.m1, config.regime)
    eps_for_q = eps if config.epsilon_override is None else config.epsilon_override
    q2 = smoothed_q(a, eps_for_q, config.regime)

    eta2 = config.eta
    half_norm = None
    if ridge:
        half_norm = estimate_half_norm(a, eps)
        if eta2 is None:
            eta2 = ridge_eta_two_phase(config.m2, config.k, d, half_norm, eps)
    elif eta2 is None:
        eta2 = lasso_eta_two_phase(config.m2, config.k, d, a, config.b, eps)

    phase2 = dataset.subset(np.arange(config.m1, config.m1 + config.m2))
    cfg2 = SolverConfig(
        b=config.b, eta=eta2, q=q2, n_point=config.k, n_inner=config.n_inner,
        moments=a if config.improved_p else None, initial_w=w_start,
    )
    result = solve(phase2, cfg2, rng)

    diagnostics = {
        "m1": config.m1,
        "m2": config.m2,
        "epsilon": eps,
        "epsilon_for_q": eps_for_q,
        "eta": eta2,
        "phase1_budget": phase1.attributes_consumed,
        "phase2_budget": result.attributes_consumed,
        "moment_table": table,
        "smoothed_q": q2.probabilities,
    }
    if half_norm is not None:
        diagnostics["half_norm_estimate"] = half_norm
    return RunResult(
        result.predictor,
        phase1.attributes_consumed + result.attributes_consumed,
        phase1.zero_weight_steps + result.zero_weight_steps,
        diagnostics,
        phase1.p_fallbacks + result.p_fallbacks,
    )
