"""Unbiased sparse estimates and the budgeted pass that consumes them.

A gradient step observes n_point sampled attribute values to build the
sparse point estimate x~ and (unless the iterate is zero) n_inner more to
estimate phi = <w, x> - y.  The implied gradient estimate phi * x~ is
unbiased for (<w, x> - y) x whenever q covers the support of x and p
covers the support of w.  All randomness is injected as uniform draws in
[0, 1), so callers control determinism.

The ridge and lasso solvers share everything here: one config, one
draw of x~ and phi per step, one step rule (fixed eta or AdaGrad), and
one single-pass loop.  Only the geometry of the update is theirs.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import Predictor, RunResult
from .sampling import (
    AttributeDistribution,
    improved_inner_product_p,
    inner_product_p,
    moment_roots,
    sample_index,
)

__all__ = [
    "DELTA_ADA",
    "SparseEstimate",
    "SolverConfig",
    "estimate_point",
    "estimate_from_indices",
    "estimate_phi",
    "draw_step",
    "adagrad_rate",
    "run_pass",
]

DELTA_ADA = 1e-8  # stabilizer under the adaptive square root


@dataclass
class SparseEstimate:
    """Sparse vector as parallel (indices, values) arrays; duplicates merged."""

    indices: np.ndarray
    values: np.ndarray
    dimension: int

    def to_dense(self):
        out = np.zeros(self.dimension)
        out[self.indices] = self.values
        return out


@dataclass
class SolverConfig:
    """One budgeted pass of the ridge (OGD) or lasso (EG) solver.

    With ``adagrad`` the step on coordinate i is eta / sqrt(DELTA_ADA +
    sum of its squared gradient estimates), so ``eta`` is a scale, not a
    step size.
    """

    b: float
    eta: float
    q: AttributeDistribution | None  # None: no sampling, every attribute is read
    n_point: int = 1
    n_inner: int = 1
    moments: np.ndarray | None = None  # weighting for the improved p; None: standard p
    initial_w: np.ndarray | None = None
    adagrad: bool = False
    root_moments: np.ndarray | None = field(default=None, init=False, repr=False)  # set by validate

    def validate(self, d):
        if not 0 < self.b < math.inf:
            raise ValueError("norm bound must be positive and finite")
        if not 0 < self.eta < math.inf:
            raise ValueError("step size must be positive and finite")
        if self.n_point < 1 or self.n_inner < 1:
            raise ValueError("need at least one draw per estimate")
        if self.q is not None and self.q.dimension != d:
            raise ValueError("sampling distribution dimension mismatch")
        self.root_moments = None if self.moments is None else moment_roots(self.moments, d)

    def require_q(self):
        if self.q is None:
            raise ValueError("a budgeted solver needs a sampling distribution q, got q=None")


def estimate_from_indices(x, q, indices):
    """Build the point estimate from already-drawn indices.

    The estimate is (1/k) sum_r x[i_r] e_{i_r} / q_{i_r}; repeated draws
    merge by summation: counts * x / (k q) at the sorted distinct indices.
    """
    drawn = np.asarray(indices, dtype=np.intp).ravel().tolist()
    k = len(drawn)
    if k == 0:
        raise ValueError("need at least one draw")
    distinct = sorted(set(drawn))
    uniq = np.array(distinct, dtype=np.intp)
    values = x[uniq]  # a count of 1 leaves x exact, so only duplicates multiply
    if uniq.size < k:
        counts = Counter(drawn)
        values = np.array([counts[i] for i in distinct]) * values
    return SparseEstimate(uniq, values / (k * q.probabilities[uniq]), len(x))


def estimate_point(x, q, draws):
    """Sparse unbiased estimate of x from len(draws) sampled attributes.

    Each draw observes one attribute value; observing a zero still
    consumes budget.  Unbiasedness needs q_i > 0 wherever x_i != 0.
    """
    draws = np.atleast_1d(np.asarray(draws, dtype=float))
    idx = sample_index(q, draws)
    return estimate_from_indices(x, q, idx)


def estimate_phi(x, y, w, p, draws):
    """Unbiased estimate of <w, x> - y from len(draws) attributes j ~ p.

    phi = mean_r(w_j / p_j * x_j) - y; averaging independent draws keeps
    it unbiased and lowers its variance.  Needs p_j > 0 wherever
    w_j != 0, so a zero iterate (no such p) is the caller's to handle.
    """
    j = sample_index(p, draws)
    return float((w[j] / p.probabilities[j] * x[j]).mean() - y)


def draw_step(state, w, x, y, config, rng, regime, point_estimate=None):
    """The shared part of one budgeted step; returns (point estimate, phi).

    The pre-update iterate w enters the running average and defines p.
    An externally built point estimate (draws shared with a moment table)
    replaces the internal one when supplied.  The full per-example budget
    is charged even on the zero-iterate path, where phi = -y costs no
    observation; zero_weight_steps records how often the inner-product
    draw was skipped.
    """
    state.sum_w += w
    if point_estimate is None:
        point_estimate = estimate_point(x, config.q, rng.random(config.n_point))
    if w.any():
        if config.root_moments is not None:
            p = improved_inner_product_p(w, config.root_moments, regime)
            state.p_fallbacks += p.fallback
        else:
            p = inner_product_p(w, regime)
        phi = estimate_phi(x, y, w, p, rng.random(config.n_inner))
    else:
        phi = -float(y)
        state.zero_weight_steps += 1
    state.steps += 1
    state.attributes_consumed += config.n_point + config.n_inner
    return point_estimate, phi


def adagrad_rate(accum, indices, g, eta):
    """AdaGrad step rule: add g^2 to the accumulator at ``indices`` and
    return the per-coordinate rates eta / sqrt(DELTA_ADA + accumulated g^2)
    there.  Accumulators change only where the gradient estimate lives."""
    accum[indices] += g * g
    return eta / np.sqrt(DELTA_ADA + accum[indices])


def run_pass(dataset, config, seed, regime, initial_state, step):
    """Single ordered pass over the dataset; returns the averaged predictor.

    ``initial_state(d, config)`` builds the solver's state and
    ``step(state, x, y, config, rng)`` takes one budgeted step on it.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.regime is not None and dataset.regime != regime:
        raise ValueError(f"solver requires {regime.value.capitalize()}-regime data")
    d = dataset.dimension
    config.validate(d)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(np.random.SeedSequence(seed))
    state = initial_state(d, config)
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        step(state, xs[t], float(ys[t]), config, rng)
    predictor = Predictor(state.sum_w / state.steps, config.b, regime)
    return RunResult(predictor, state.attributes_consumed, state.zero_weight_steps, p_fallbacks=state.p_fallbacks)
