"""Synthetic binary datasets with power-law attribute moments.

Attribute i is Bernoulli with mean u_i = i**alpha (alpha <= 0), scaled so
the mean vector fits the regime ball.  In the L2 regime every realized
vector is additionally rescaled into the unit ball, so the effective
second moments differ from u; ``binary_l2_moments`` computes them by quadrature.
"""

import numpy as np

from .core import Dataset, Regime, float_vector, norm, stream
from .sampling import checked_moments

__all__ = [
    "power_law_means",
    "random_target_weights",
    "generate_dataset",
    "binary_l2_moments",
    "improvement_ratio",
]

_STREAM_WEIGHTS = 1
_STREAM_EXAMPLES = 2
# Gauss-Legendre nodes of binary_l2_moments, exact up to rounding for d <= 128.  Measured at
# alpha in {0, -1, -2}: within 3e-13 relative of the exact convolution it replaced at d <= 5000,
# and within 2e-12 of a 1024-node rule up to d = 1e5, where 32 nodes drift to 2e-5.
_L2_NODES = 64


def power_law_means(d, alpha, regime):
    """Attribute means u_i = i**alpha, scaled into the regime's unit ball.

    alpha must be finite and <= 0 so every raw mean lies in (0, 1].
    """
    if d <= 0:
        raise ValueError("zero dimension")
    if not -np.inf < alpha <= 0:
        raise ValueError("power-law exponent must be finite and nonpositive")
    regime = Regime(regime)
    u = np.arange(1, d + 1, dtype=float) ** alpha
    scale = norm(u, 2) if regime == Regime.L2 else norm(u, float("inf"))
    if scale > 1.0:
        u = u / scale
    return u


def random_target_weights(d, regime, seed):
    """Draw the ground-truth weights: dense +-1 for ridge, sparse for lasso.

    Lasso entries are +1 or -1 with probability 0.15 each and 0 otherwise.
    """
    if d <= 0:
        raise ValueError("zero dimension")
    regime = Regime(regime)
    rng = stream(seed, _STREAM_WEIGHTS)
    if regime == Regime.L2:
        return np.where(rng.random(d) < 0.5, 1.0, -1.0)
    r = rng.random(d)
    return np.where(r < 0.15, 1.0, np.where(r < 0.30, -1.0, 0.0))


def _checked_means(u):
    """u as a float vector, refusing a NaN entry or one outside [0, 1]."""
    u = float_vector(u)
    if not np.all((u >= 0) & (u <= 1)):
        raise ValueError("means must not be NaN" if np.isnan(u).any() else "means must lie in [0, 1]")
    return u


def generate_dataset(u, w_star, m, regime, seed):
    """Generate m examples with Bernoulli(u) attributes and targets <w*, x>.

    L2 regime: each realized vector is rescaled by 1/max(1, ||x||_2) so it
    lies in the unit ball; targets are computed from the stored vector.
    """
    u = _checked_means(u)
    w_star = np.asarray(w_star, dtype=float)
    if w_star.shape != u.shape:
        raise ValueError("weight vector length does not match means")
    if not np.all(np.isfinite(w_star)):
        raise ValueError("target weights must be finite")
    if m <= 0:
        raise ValueError("need at least one example")
    regime = Regime(regime)
    rng = stream(seed, _STREAM_EXAMPLES)
    x = (rng.random((m, u.size)) < u).astype(float)
    if regime == Regime.L2:
        norms = np.sqrt(x.sum(axis=1))  # x is 0/1, so x * x is x: no (m, d) square
        x *= (1.0 / np.maximum(1.0, norms))[:, None]
    y = x @ w_star
    return Dataset(x, y, regime)


def binary_l2_moments(u):
    """Second moments E[x_i^2] of the rescaled binary construction.

    With independent x_i ~ Bernoulli(u_i) and the vector rescaled by
    1/max(1, ||x||_2), the squared entry is x_i / (number of ones), so
    E[x_i^2] = u_i E[1 / (1 + N_i)], N_i the count of ones among the other
    coordinates; as E[1 / (1 + N)] = int_0^1 E[t^N] dt, that is
    u_i int_0^1 prod_{l != i} (1 - u_l + u_l t) dt.  The integrand has
    degree d - 1, so the Gauss-Legendre rule of _L2_NODES nodes is exact up
    to rounding for d <= 2 * _L2_NODES; beyond, it approximates (see there).
    """
    u = _checked_means(u)
    from numpy.polynomial.legendre import leggauss  # not at import: it costs `import budgetreg` ~4 ms

    nodes, weights = leggauss(_L2_NODES)
    log_f = np.log1p(np.outer(u, (nodes - 1.0) / 2.0))  # log(1 - u_l (1 - t_g)), t_g = (1 + node_g) / 2
    rest = np.exp(log_f.sum(axis=0) - log_f)  # prod over l != i, per node
    return u * (rest @ weights) / 2.0


def improvement_ratio(moments, regime):
    """Variance-improvement ratio of moment-optimal over uniform sampling.

    Regime.L2 (ridge): ||m||_{1/2} / (d * ||m||_1).
    Regime.LINF (lasso): ||m||_1 / (d * ||m||_inf).
    Values lie in (0, 1]; small values mean uneven moments and large gains.
    """
    m = checked_moments(moments)
    regime = Regime(regime)
    d = m.size
    if regime == Regime.L2:
        return norm(m, 0.5) / (d * norm(m, 1))
    return norm(m, 1) / (d * norm(m, float("inf")))
