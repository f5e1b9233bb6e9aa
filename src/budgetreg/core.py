"""Shared numeric primitives and the dataset/predictor model.

Conventions used across the package: attribute vectors live in the unit
ball of the data norm (L2 for the ridge setting, Linf for the lasso
setting), weight vectors live in the ball of radius ``b`` of the paired
norm (L2 and L1 respectively), and all ball checks use an absolute
tolerance of ``BALL_TOL``.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BALL_TOL",
    "Regime",
    "norm",
    "project_l2_ball",
    "project_l1_ball",
    "squared_loss",
    "Dataset",
    "Predictor",
    "RunResult",
    "weight_norm",
    "stream",
]

BALL_TOL = 1e-9


class Regime(str, Enum):
    """Data-norm regime: L2 pairs with an L2 weight ball, LINF with an L1 ball."""

    L2 = "l2"
    LINF = "linf"


def stream(seed, *tags):
    """The random stream of ``seed`` (an int or a tuple of ints) keyed by
    ``tags``: default_rng(SeedSequence((*seed, *tags))).  A Generator is
    returned unchanged, so a caller can hand a run the stream it holds."""
    if isinstance(seed, np.random.Generator):
        return seed
    base = seed if isinstance(seed, tuple) else (seed,)
    return np.random.default_rng(np.random.SeedSequence(base + tags))


def float_vector(v):
    """``v`` as a float array, refusing an empty one."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("zero dimension")
    return v


def check_step_inputs(names, *sizes, b=None):
    """Refuse a step-size rule's sizes below 1 (``names`` lists them for
    the message) and, when one is given, a norm bound b <= 0."""
    if any(size < 1 for size in sizes):
        raise ValueError(f"{names} must be positive")
    if b is not None and b <= 0:
        raise ValueError("norm bound must be positive")


def norm(v, p):
    """Norm of ``v`` of order ``p`` in {1/2, 1, 2, inf}.

    The 1/2 "norm" is (sum_i sqrt(|v_i|))**2; it is not subadditive but
    is the quantity the ridge sampling bounds are expressed in.
    """
    v = float_vector(v)
    if p == 0.5:
        return float(np.sqrt(np.abs(v)).sum() ** 2)
    if p == 1:
        return float(np.abs(v).sum())
    if p == 2:
        return float(np.sqrt(np.dot(v, v)))
    if p == math.inf:
        return float(np.abs(v).max())
    raise ValueError(f"unsupported norm order {p!r}")


def project_l2_ball(v, b):
    """Euclidean projection of v onto the L2 ball of radius b."""
    v = np.asarray(v, dtype=float)
    if b < 0:
        raise ValueError("radius must be nonnegative")
    nrm = math.sqrt(float(np.dot(v, v)))
    if nrm <= b:
        return v.copy()
    return v * (b / nrm)


def project_l1_ball(v, b):
    """Euclidean projection of v onto the L1 ball of radius b.

    Sort-based soft thresholding; O(d log d).
    """
    v = np.asarray(v, dtype=float)
    if b < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= b:
        return v.copy()
    if b == 0.0:
        return np.zeros_like(v)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = np.nonzero(u * j > css - b)[0][-1]
    theta = (css[rho] - b) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def squared_loss(prediction, target):
    """One-half squared error."""
    diff = prediction - target
    return 0.5 * diff * diff


def weight_norm(w, regime):
    """Norm of a weight vector under the ball paired with the data regime."""
    return norm(w, 2) if regime == Regime.L2 else norm(w, 1)


class Dataset:
    """An ordered collection of examples sharing one dimension and regime.

    Stored internally as a dense (m, d) matrix plus a target vector;
    ``regime`` may be None for raw, not-yet-normalized data.
    """

    def __init__(self, x, y, regime=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError("attribute matrix must be 2-dimensional")
        if x.shape[1] == 0:
            raise ValueError("zero dimension")
        if y.shape != (x.shape[0],):
            raise ValueError("target vector length does not match example count")
        self.x = x
        self.y = y
        self.regime = Regime(regime) if regime is not None else None

    @property
    def dimension(self):
        return self.x.shape[1]

    def __len__(self):
        return self.x.shape[0]

    def subset(self, indices):
        return Dataset(self.x[indices], self.y[indices], self.regime)


@dataclass
class Predictor:
    """A linear predictor with its weight-ball certificate."""

    weights: np.ndarray
    norm_bound: float
    regime: Regime

    def predict(self, x):
        return np.asarray(x, dtype=float) @ self.weights

    def validate(self, tol=BALL_TOL):
        if self.norm_bound < 0:
            raise ValueError("negative norm bound")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weights")
        if weight_norm(self.weights, self.regime) > self.norm_bound + tol:
            raise ValueError("weights outside the certified ball")


@dataclass
class RunResult:
    """Outcome of one training run: the predictor plus exact budget accounting."""

    predictor: Predictor
    attributes_consumed: int
    zero_weight_steps: int = 0
    info: dict = field(default_factory=dict)
    p_fallbacks: int = 0  # steps where the improved inner-product p fell back to the standard one
