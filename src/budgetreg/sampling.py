"""Attribute sampling distributions and inverse-CDF index draws.

The point-estimation distribution q controls which attributes of a
training example are observed; the inner-product distribution p controls
the single extra observation used to estimate <w, x>.  Moment-optimal
choices of q are what separate the data-dependent solvers from the
uniform baselines.
"""

import numpy as np

from .core import Regime, float_vector

__all__ = [
    "AttributeDistribution",
    "build_distribution",
    "uniform_distribution",
    "sample_index",
    "checked_moments",
    "ridge_optimal_q",
    "lasso_optimal_q",
    "inner_product_p",
    "improved_inner_product_p",
    "moment_roots",
]

_SUM_TOL = 1e-9


class AttributeDistribution:
    """A probability vector over attribute indices with its cumulative table.

    ``cumulative[i]`` is sum(probabilities[: i + 1]); draws resolve by
    binary search, and zero-probability indices are never returned.
    ``fallback`` marks an improved inner-product p that fell back.
    """

    __slots__ = ("probabilities", "cumulative", "fallback")

    def __init__(self, probabilities):
        p = float_vector(probabilities)
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("invalid weights")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError("invalid weights: probabilities must sum to 1")
        self._fill(p)

    def _fill(self, p):
        self.probabilities = p
        self.cumulative = np.add.accumulate(p)
        self.fallback = False
        return self

    @property
    def dimension(self):
        return int(self.probabilities.size)

    def __repr__(self):
        return f"AttributeDistribution({self.probabilities!r})"


def build_distribution(weights):
    """Normalize nonnegative weights into an AttributeDistribution; the
    caller's array is left as it is."""
    w = float_vector(weights)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("invalid weights")
    return _trusted(w.copy())


def uniform_distribution(d):
    if d <= 0:
        raise ValueError("zero dimension")
    return _trusted(np.ones(d))


def sample_index(dist, u):
    """Map an array of uniform draws in [0, 1) to indices by inverse CDF.

    Returns, per draw, the smallest index whose cumulative mass strictly
    exceeds u, in an array of the draws' shape.  Zero-probability indices
    are never returned: searching with side="right" lands on one only past
    the end of the table, which resolves to the last index with mass.
    """
    c = dist.cumulative
    idx = c.searchsorted(u, side="right")
    # only a draw >= c[-1] lands past the end, and none in [0, 1) does when c[-1] >= 1
    if c[-1] < 1.0 and idx.item(idx.argmax()) == c.size:
        np.minimum(idx, c.searchsorted(c[-1]), out=idx)
    return idx


def checked_moments(moments):
    """Moments as a float array, refusing an empty, negative, non-finite or all-zero vector."""
    m = float_vector(moments)
    if np.any(m < 0) or not np.any(m > 0) or not np.all(np.isfinite(m)):
        raise ValueError("degenerate moments")
    return m


def ridge_optimal_q(moments):
    """q_i proportional to sqrt(E[x_i^2]): minimizes sum_i m_i / q_i.

    At the optimum the objective equals ||m||_{1/2}.
    """
    return build_distribution(np.sqrt(checked_moments(moments)))


def lasso_optimal_q(moments):
    """q_i proportional to E[x_i^2]: minimizes max_i m_i / q_i.

    At the optimum every ratio m_i / q_i equals ||m||_1.
    """
    return build_distribution(checked_moments(moments))


def _trusted(weights, rescale=False):
    """AttributeDistribution of weights / sum without re-validation: the
    weights are nonnegative; with ``rescale``, finite weights whose sum
    overflows are first scaled by their maximum; a zero or infinite sum is
    refused (weights / an infinite sum would be all zeros)."""
    total = np.add.reduce(weights)
    if rescale and total == np.inf:
        weights /= weights.max()
        total = np.add.reduce(weights)
    if not 0.0 < total < np.inf:
        raise ValueError("invalid weights: all weights are zero" if total == 0.0
                         else "invalid weights: probabilities must sum to 1")
    weights /= total
    return AttributeDistribution.__new__(AttributeDistribution)._fill(weights)


def inner_product_p(w, regime):
    """Inner-product sampling weights from the current iterate.

    Ridge: p_j = w_j^2 / ||w||_2^2.  Lasso: p_j = |w_j| / ||w||_1.
    The w = 0 case is the caller's to handle (solvers short-circuit it).
    """
    w = float_vector(w)
    if regime is not Regime.L2 and regime is not Regime.LINF:
        regime = Regime(regime)
    # the squares of an iterate near the top of the b range can sum past the float range
    return _trusted(w * w if regime is Regime.L2 else np.abs(w), rescale=True)


def improved_inner_product_p(w, root_moments, regime, nonzeros=None):
    """Variance-reducing alternative: p_j proportional to sqrt(w_j^2 E[x_j^2]).

    Identical formula for both regimes; an empirical refinement with no
    accompanying bound.  Unbiasedness of the inner-product estimate needs
    p positive wherever w is nonzero, so a zero moment estimate on the
    support (possible with estimated moments) voids the weighting and the
    standard distribution is used instead (``fallback`` is then set).
    ``root_moments`` is moment_roots(E[x^2]), computed once per run;
    ``nonzeros``, when given, is np.count_nonzero(w), which a caller that
    has counted need not have counted again.
    """
    w = float_vector(w)
    weights = np.abs(w)
    weights *= root_moments
    if nonzeros is None:
        nonzeros = np.count_nonzero(w)
    if np.count_nonzero(weights) != nonzeros:
        p = inner_product_p(w, regime)
        p.fallback = True
        return p
    return _trusted(weights)


def moment_roots(moments, d):
    """sqrt(moments), refusing a length other than d or a negative or
    non-finite entry."""
    m = np.asarray(moments, dtype=float)
    if m.shape != (d,):
        raise ValueError("invalid weights: moment vector length mismatch")
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise ValueError("degenerate moments")
    return np.sqrt(m)
