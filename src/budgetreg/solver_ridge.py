"""Attribute-budgeted ridge regression by projected online gradient descent.

Each step builds an unbiased gradient estimate from a handful of sampled
attribute values, takes a gradient step, and projects back onto the L2
ball of radius b.  The returned predictor is the average of the visited
iterates.  With uniform q this is the no-prior-knowledge baseline (AERR);
with q proportional to sqrt(E[x^2]) it is the data-dependent variant
(DDAERR); with ``SolverConfig.adagrad`` the step is per coordinate
(AdaGrad).  The estimates, the budget and the pass are shared with the
lasso solver (``estimator``); only the projected update lives here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Regime, check_step_inputs, l2_norm
from .estimator import PassState, adagrad_rate, draw_rows, draw_step, row_norms, run_pass

__all__ = [
    "RidgeState",
    "default_initial_w",
    "gaerr_step",
    "run_gaerr",
    "aerr_eta",
    "ridge_eta_known_moments",
]


def default_initial_w(d, b):
    """Nonzero start well inside the ball: (b / (2 sqrt(d))) * ones."""
    return np.full(d, b / (2.0 * math.sqrt(d)))


@dataclass
class RidgeState(PassState):
    w: np.ndarray

    @classmethod
    def initial(cls, d, config):
        w0 = config.initial_w
        w0 = default_initial_w(d, config.b) if w0 is None else np.asarray(w0, dtype=float).copy()
        return cls(w=w0, sum_w=np.zeros(d), accum=np.zeros(d) if config.adagrad else None)

    def zero_entries(self):  # where the iterate is zero
        return self.w == 0


def l2_step(state, indices, phi, values, config):
    """Step along -phi * values at ``indices``, then project onto the L2 ball of radius b."""
    w = state.w
    # the two rules round differently on purpose: rate * (phi x~) per
    # coordinate, (eta phi) * x~ for the fixed step; the fixed-seed
    # fingerprints pin both
    if config.adagrad:
        g = phi * values
        w[indices] -= adagrad_rate(state.accum, indices, g, config.eta) * g
    else:
        w[indices] -= config.eta * phi * values
    nrm = l2_norm(w)
    if nrm > config.b:
        w *= config.b / nrm


def gaerr_step(state, x, y, config, indices, values, inner):
    """One budgeted OGD step; mutates and returns the state.

    draw_step averages the pre-update iterate, charges the budget and
    draws phi from the uniforms ``inner``; l2_step moves along -phi x~,
    with x~ the point estimate (``values`` at the k sorted draws
    ``indices``; a repeated draw writes its coordinate the same value
    twice), and projects back onto the L2 ball of radius b.
    """
    phi = draw_step(state, state.w, x, y, config, inner, Regime.L2)
    if phi != 0.0:
        l2_step(state, indices, phi, values, config)
    return state


def run_gaerr(dataset, config, seed, table=None):
    """Single ordered pass over the dataset; returns the averaged predictor (``table``: see run_pass)."""
    config.require_q()
    return run_pass(dataset, config, seed, Regime.L2, RidgeState.initial, gaerr_step, table)


def gaerr_rows_step(state, x, y, config, indices, values, inner):
    """Fixed-step gaerr_step for every row of a lockstep state (see run_lockstep),
    each on its own example: the rows whose phi is nonzero step along
    their point estimate (``values`` at the flat state indices
    ``indices``, one row each, in gaerr_step's layout) and are projected,
    as l2_step steps and projects each run."""
    phi = draw_rows(state, state.w, x, y, config, inner, Regime.L2)
    moving = phi.nonzero()[0]
    if moving.size:
        rows = slice(None) if moving.size == len(phi) else moving
        w = state.w
        w.reshape(-1)[indices[rows]] -= (state.eta[rows] * phi[rows])[:, None] * values[rows]
        norms = row_norms(w[rows])
        over = norms > config.b
        if over.any():
            w[moving[over]] *= (config.b / norms[over])[:, None]
    return state


def aerr_eta(m, k, d, b):
    """Step size 2b/(G sqrt(m)) with the gradient bound G = b sqrt(8d/k).

    The norm bound cancels: eta = sqrt(k / (2 d m)).
    """
    check_step_inputs("m, k, d", m, k, d, b=b)
    return math.sqrt(k / (2.0 * d * m))


def ridge_eta_known_moments(m, k, half_norm):
    """eta = 1 / sqrt(m (||E[x^2]||_{1/2} / k + 1)) for the moment-aware solver."""
    check_step_inputs("m, k", m, k)
    if half_norm < 0:
        raise ValueError("degenerate moments")
    return 1.0 / math.sqrt(m * (half_norm / k + 1.0))
