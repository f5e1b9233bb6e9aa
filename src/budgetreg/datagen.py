"""Synthetic binary datasets with power-law attribute moments.

Attribute i is Bernoulli with mean u_i = i**alpha (alpha <= 0), scaled so
the mean vector fits the regime ball.  In the L2 regime every realized
vector is additionally rescaled into the unit ball, so the effective
second moments differ from u; ``binary_l2_moments`` computes them exactly.
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
    w = np.zeros(d)
    w[r < 0.15] = 1.0
    w[(r >= 0.15) & (r < 0.30)] = -1.0
    return w


def generate_dataset(u, w_star, m, regime, seed):
    """Generate m examples with Bernoulli(u) attributes and targets <w*, x>.

    L2 regime: each realized vector is rescaled by 1/max(1, ||x||_2) so it
    lies in the unit ball; targets are computed from the stored vector.
    """
    u = float_vector(u)
    w_star = np.asarray(w_star, dtype=float)
    if np.any(u < 0) or np.any(u > 1):
        raise ValueError("means must lie in [0, 1]")
    if w_star.shape != u.shape:
        raise ValueError("weight vector length does not match means")
    if m <= 0:
        raise ValueError("need at least one example")
    regime = Regime(regime)
    rng = stream(seed, _STREAM_EXAMPLES)
    x = (rng.random((m, u.size)) < u).astype(float)
    if regime == Regime.L2:
        norms = np.sqrt((x * x).sum(axis=1))
        x *= (1.0 / np.maximum(1.0, norms))[:, None]
    y = x @ w_star
    return Dataset(x, y, regime)


def binary_l2_moments(u):
    """Exact second moments E[x_i^2] of the rescaled binary construction.

    With independent x_i ~ Bernoulli(u_i) and the vector rescaled by
    1/max(1, ||x||_2), the squared entry is x_i / (number of ones), so
    E[x_i^2] = u_i * E[1 / (1 + N_i)] with N_i the count of ones among the
    other coordinates.  The Poisson-binomial count distributions are built
    by prefix/suffix convolution, which keeps the computation exact.
    """
    u = float_vector(u)
    d = u.size
    if np.any(u < 0) or np.any(u > 1):
        raise ValueError("means must lie in [0, 1]")

    prefix = np.zeros((d + 1, d + 1))
    prefix[0, 0] = 1.0
    for i in range(d):
        row = prefix[i, : i + 1]
        prefix[i + 1, : i + 1] = row * (1.0 - u[i])
        prefix[i + 1, 1 : i + 2] += row * u[i]
    suffix = np.zeros((d + 2, d + 1))
    suffix[d + 1, 0] = 1.0
    for i in range(d, 0, -1):
        row = suffix[i + 1, : d - i + 1]
        suffix[i, : d - i + 1] = row * (1.0 - u[i - 1])
        suffix[i, 1 : d - i + 2] += row * u[i - 1]

    # Truncate the count support where the total mass tail is negligible.
    tail = 1.0 - np.cumsum(prefix[d])
    cut = int(np.searchsorted(-tail, -1e-15) + 1)
    cut = min(max(cut, 1), d)
    inv = 1.0 / (1.0 + np.arange(2 * cut + 1, dtype=float))

    out = np.zeros(d)
    for i in range(d):
        if u[i] == 0.0:
            continue
        rest = np.convolve(prefix[i, : cut + 1], suffix[i + 2, : cut + 1])
        out[i] = u[i] * float(rest @ inv[: rest.size])
    return out


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
