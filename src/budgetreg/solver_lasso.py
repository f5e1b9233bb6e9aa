"""Attribute-budgeted lasso regression by exponentiated gradient.

The iterate lives implicitly in two positive vectors z+ and z-; the
weight vector is their scaled difference on the L1 ball of radius b.
Gradient estimates are clipped at 1/eta before entering the exponent, so
each multiplicative factor stays in [1/e, e] and the z entries remain
positive.  Updates touch only the support of the sparse gradient
estimate: all other coordinates would be multiplied by exp(0) = 1.  With
``SolverConfig.adagrad`` each coordinate has its own rate and clip
(AdaGrad).  The estimates, the budget and the pass are shared with the
ridge solver (``estimator``); only the EG geometry lives here.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Regime, check_step_inputs, float_vector
from .estimator import PassState, adagrad_rate, draw_rows, draw_step, run_pass

__all__ = [
    "EGState",
    "eg_weights",
    "eg_state_from_weights",
    "eg_update",
    "gaelr_step",
    "run_gaelr",
    "aelr_eta",
    "lasso_eta_known_moments",
]

_RENORM_THRESHOLD = 1e100
_GROWTH = math.e * (1.0 + 1e-12)  # covers e (1 + 2^-52) and the rounding of the bound itself


@dataclass
class EGState(PassState):
    z_plus: np.ndarray
    z_minus: np.ndarray
    # an upper bound on every z entry; unknown (inf) until eg_update first scans them
    z_peak: float = field(default=math.inf, init=False, repr=False)

    @classmethod
    def initial(cls, d, config):
        if config.initial_w is not None:
            state = eg_state_from_weights(config.initial_w, config.b)
        else:
            state = cls(z_plus=np.ones(d), z_minus=np.ones(d), sum_w=np.zeros(d))
        if config.adagrad:
            state.accum = np.zeros(d)
        return state


def eg_weights(state, b):
    """w = (z+ - z-) * b / (||z+||_1 + ||z-||_1); z entries are positive."""
    z_plus, z_minus = state.z_plus, state.z_minus
    scale = b / (np.add.reduce(z_plus) + np.add.reduce(z_minus))
    return (z_plus - z_minus) * scale


def eg_state_from_weights(w, b):
    """State whose derived weight vector equals w (needs ||w||_1 < b).

    z+ = max(w, 0) + gamma and z- = max(-w, 0) + gamma with the slack
    gamma = (b - ||w||_1) / (2d) spread evenly; then ||z+||_1 + ||z-||_1
    = b and the scaled difference reproduces w exactly.  A seed sitting
    on the ball boundary gets a hair of slack instead, shrinking it by a
    negligible factor.
    """
    w = float_vector(w)
    d = w.size
    l1 = float(np.abs(w).sum())
    gamma = (b - l1) / (2.0 * d)
    if gamma <= 0:
        gamma = 1e-12 * b / (2.0 * d)
    return EGState(
        z_plus=np.maximum(w, 0.0) + gamma,
        z_minus=np.maximum(-w, 0.0) + gamma,
        sum_w=np.zeros(d),
    )


def _eg_scale(z_plus, z_minus, at, g, eta):
    """z+ *= exp(-eta g), z- *= exp(eta g) at ``at``, g clipped at 1/eta of
    its own coordinate: |eta g| <= 1 up to rounding, so no factor exceeds
    e (1 + 2^-52), the _GROWTH a z_peak bound allows per update.  (Only an
    infinite estimate, where 1/eta overflows, escapes the clip; the
    weights then hold NaN and the next step fails either way.)"""
    bound = 1.0 / eta
    step = eta * np.minimum(np.maximum(g, -bound), bound)  # -(eta g) has the bits of (-eta) g
    z_plus[at] *= np.exp(-step)
    z_minus[at] *= np.exp(step)


def eg_update(state, indices, values, eta):
    """Clipped multiplicative update on the gradient estimate's support.

    ``eta`` is a scalar or one rate per index (AdaGrad).  Off-support
    coordinates are untouched; both z vectors are rescaled by the same
    factor if an entry overflows the renormalization threshold (the
    derived weights are invariant to common rescaling).  The search over
    all 2d entries runs only when ``state.z_peak``, their bound, passes it.
    """
    z_plus, z_minus = state.z_plus, state.z_minus
    _eg_scale(z_plus, z_minus, indices, values, eta)
    state.z_peak *= _GROWTH
    if state.z_peak > _RENORM_THRESHOLD:
        peak = max(float(z_plus.max()), float(z_minus.max()))
        if peak > _RENORM_THRESHOLD:
            z_plus /= peak
            z_minus /= peak
            peak = 1.0
        state.z_peak = peak
    return state


def gaelr_step(state, x, y, config, indices, values, inner):
    """One budgeted EG step; mutates and returns the state.

    draw_step averages the pre-update weight vector (which also defines
    the inner-product distribution), charges the budget and draws phi
    from the uniforms ``inner``; this step applies the clipped
    multiplicative update to phi x~, with x~ the point estimate
    (``values`` at ``indices``).
    """
    w = eg_weights(state, config.b)
    phi = draw_step(state, w, x, y, config, inner, Regime.LINF)
    if phi != 0.0:
        g = phi * values
        eta = adagrad_rate(state.accum, indices, g, config.eta) if config.adagrad else config.eta
        eg_update(state, indices, g, eta)
    return state


def run_gaelr(dataset, config, seed, table=None):
    """Single ordered pass over the dataset; returns the averaged predictor (``table``: see run_pass)."""
    config.require_q()
    return run_pass(dataset, config, seed, Regime.LINF, EGState.initial, gaelr_step, table)


def gaelr_rows_step(state, x, y, config, indices, values, inner):
    """Fixed-step gaelr_step for every row of a lockstep state (see run_lockstep),
    each on its own example: the rows whose phi is nonzero get
    eg_update's clipped multiplicative update on their point estimate
    (``values`` at the flat state indices ``indices``, one row each),
    each with its own z_peak and renormalization."""
    z_plus, z_minus = state.z_plus, state.z_minus
    scale = config.b / (np.add.reduce(z_plus, axis=1) + np.add.reduce(z_minus, axis=1))
    phi = draw_rows(state, (z_plus - z_minus) * scale[:, None], x, y, config, inner, Regime.LINF)
    moving = phi.nonzero()[0]
    if moving.size:
        rows = slice(None) if moving.size == len(phi) else moving
        _eg_scale(z_plus.reshape(-1), z_minus.reshape(-1), indices[rows], phi[rows, None] * values[rows],
                  state.eta[rows, None])
        peaks = state.z_peak
        peaks[rows] *= _GROWTH
        if peaks[rows].max() > _RENORM_THRESHOLD:
            check = moving[peaks[moving] > _RENORM_THRESHOLD]
            peak = np.maximum(z_plus[check].max(axis=1), z_minus[check].max(axis=1))
            big = peak > _RENORM_THRESHOLD
            if big.any():
                z_plus[check[big]] /= peak[big, None]
                z_minus[check[big]] /= peak[big, None]
                peak[big] = 1.0
            peaks[check] = peak
    return state


def aelr_eta(m, k, d, b):
    """Step size 2b/(G sqrt(m)) with G = b sqrt(8d/k), capped at 1/(2G).

    The cap is the admissibility requirement of the clipped update; the
    norm bound cancels in the first branch.
    """
    check_step_inputs("m, k, d", m, k, d, b=b)
    g = b * math.sqrt(8.0 * d / k)
    return min(2.0 * b / (g * math.sqrt(m)), 1.0 / (2.0 * g))


def lasso_eta_known_moments(m, k, d, b, l1_moment):
    """eta = (1/(2b)) sqrt(ln(2d) / (5 m (||E[x^2]||_1 / k + 1))).

    The accompanying bound needs m >= ln(2d); smaller m only voids the
    guarantee, so the run proceeds under a warning.
    """
    check_step_inputs("m, k, d", m, k, d, b=b)
    if l1_moment < 0:
        raise ValueError("degenerate moments")
    if m < math.log(2 * d):
        warnings.warn("m below ln(2d): the regret bound is not guaranteed", stacklevel=2)
    return math.sqrt(math.log(2 * d) / (5.0 * m * (l1_moment / k + 1.0))) / (2.0 * b)

