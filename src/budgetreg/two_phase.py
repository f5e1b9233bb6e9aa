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
    at eps = 0 gives the uniform distribution.  A width whose weights sum
    past the float range is refused.
    """
    a = np.asarray(a, dtype=float)
    if not 0.0 <= eps < math.inf:
        raise ValueError("negative smoothing width" if eps < 0 else f"smoothing width must be finite, got {eps}")
    with np.errstate(over="ignore"):
        shifted = a + 13.0 * eps / 6.0
        weights = np.sqrt(shifted) if regime == Regime.L2 else shifted
        if np.add.reduce(weights) == math.inf:
            raise ValueError(f"smoothing width {eps!r} overflows: the sampling weights of {a.size} attributes "
                             f"sum past the float range")
    if not np.any(shifted > 0):
        return uniform_distribution(a.size)
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
    ctx: object  # the run's harness.RunContext (not imported: harness imports this module)
    eta: float | None = None  # None: phase-specific defaults

    def validate(self):
        if self.m2 < 1:
            raise ValueError("empty second phase")
        if self.m1 < 1:
            raise ValueError("empty first phase")


def run_two_phase(dataset, config, seed):
    """Both phases on one dataset prefix: the first m1 >= 1 examples feed
    the moment table and a uniform-sampling run whose averaged output seeds
    phase 2, the next m2 examples get the smoothed solver.

    epsilon_override only reshapes the sampling distribution; step sizes
    always use the theoretical width.
    """
    run = run_gaerr if config.ctx.regime == Regime.L2 else run_gaelr

    def solve(dataset, orders, configs, rngs, tables=None):
        return [run(dataset.subset(orders[0]), configs[0], rngs[0], None if tables is None else tables[0])]

    return phases(dataset, config, [seed], [config.eta], solve, np.arange(len(dataset))[None])[0]


def phases(dataset, config, seeds, etas, solve, orders):
    """The two phases of the runs at each of ``etas`` (None: the
    phase-specific rates) on each of F = len(seeds) folds, fold-major:
    fold f trains on the examples orders[f] of the dataset, an (F, m)
    index array, on the one stream of seeds[f], with its own moment
    table, q and moments.  ``solve(dataset, orders, configs, rngs,
    tables=None)`` runs one pass per config, fold f's on the examples
    orders[f] and the generator rngs[f], and returns their RunResults.  In
    lockstep (harness.train_grid) the rows of a fold share its phase-1
    point draws: one table per fold.  A run whose row breaks off the
    lockstep (None) in either phase is None, to be made whole on its own."""
    config.validate()
    ctx = config.ctx
    m1, m2, b, k, regime = config.m1, config.m2, ctx.b, ctx.n_point, ctx.regime
    ridge = regime == Regime.L2
    if m1 + m2 > orders.shape[1]:
        raise ValueError("phase sizes exceed the dataset")
    d = dataset.dimension
    rngs = [stream(seed) for seed in seeds]

    q1 = uniform_distribution(d)
    cfg1 = [SolverConfig(b=b, eta=(aerr_eta if ridge else aelr_eta)(m1, k, d, b) if eta is None else eta,
                         q=q1, n_point=k, n_inner=ctx.n_inner) for _ in rngs for eta in etas]
    tables = [MomentTable(d) for _ in rngs]
    phase1 = solve(dataset, orders[:, :m1], cfg1, rngs, tables)

    # each table holds the k point draws of each phase-1 example of its fold
    eps = epsilon(d, ctx.delta, k, m1, regime)
    eps_for_q = eps if ctx.epsilon_override is None else ctx.epsilon_override
    folds, cfg2 = [], []
    for f, table in enumerate(tables):
        a = table.A
        q2 = smoothed_q(a, eps_for_q, regime)
        half_norm = estimate_half_norm(a, eps) if ridge else None
        folds.append((table, q2, half_norm))
        for e, eta in enumerate(etas):
            if eta is None:
                eta = (ridge_eta_two_phase(m2, k, d, half_norm, eps) if ridge
                       else lasso_eta_two_phase(m2, k, d, a, b, eps))
            first = phase1[f * len(etas) + e]
            w1 = None if first is None else first.predictor.weights
            cfg2.append(SolverConfig(b=b, eta=eta, q=q2, n_point=k, n_inner=ctx.n_inner,
                                     moments=a if ctx.improved_p else None,
                                     initial_w=w1 if w1 is not None and np.any(w1 != 0) else None))
    phase2 = solve(dataset, orders[:, m1:m1 + m2], cfg2, rngs)

    results = []
    for row, (config2, first, second) in enumerate(zip(cfg2, phase1, phase2)):
        if first is None or second is None:
            results.append(None)
            continue
        table, q2, half_norm = folds[row // len(etas)]
        diagnostics = {
            "m1": m1,
            "m2": m2,
            "epsilon": eps,
            "epsilon_for_q": eps_for_q,
            "eta": config2.eta,
            "phase1_budget": first.attributes_consumed,
            "phase2_budget": second.attributes_consumed,
            "moment_table": table,
            "smoothed_q": q2.probabilities,
        }
        if half_norm is not None:
            diagnostics["half_norm_estimate"] = half_norm
        results.append(RunResult(
            second.predictor,
            first.attributes_consumed + second.attributes_consumed,
            first.zero_weight_steps + second.zero_weight_steps,
            diagnostics,
            first.p_fallbacks + second.p_fallbacks,
        ))
    return results
