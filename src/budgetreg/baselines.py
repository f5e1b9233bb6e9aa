"""Full-information baselines.

Online ridge (with a fixed or an AdaGrad step) and lasso with exact
gradients, and a multi-pass projected descent for the offline empirical
risk minimizer.  Every baseline observes all d attributes of each
training example, so its budget is m*d.
"""

import math

import numpy as np

from .core import (
    Predictor,
    Regime,
    RunResult,
    project_l1_ball,
    project_l2_ball,
)
from .estimator import adagrad_rate
from .solver_lasso import EGState, eg_update, eg_weights

__all__ = [
    "online_ridge_full",
    "online_lasso_full",
    "offline_erm",
]

_GRAD_TOL = 1e-8


def online_ridge_full(dataset, b, eta, adagrad=False):
    """Projected OGD on exact gradients; the full-information ridge baseline.

    Starts at zero (no sampling ever divides by the weights here) and
    returns the average of the visited iterates.  With ``adagrad`` the
    step is per coordinate, eta / sqrt(DELTA_ADA + sum of squared
    gradients), as in the budgeted solvers.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.regime is not None and dataset.regime != Regime.L2:
        raise ValueError("ridge baseline requires L2-regime data")
    if b <= 0 or eta <= 0:
        raise ValueError("b and eta must be positive")
    d = dataset.dimension
    w = np.zeros(d)
    sum_w = np.zeros(d)
    accum = np.zeros(d)
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        sum_w += w
        g = (float(w @ xs[t]) - float(ys[t])) * xs[t]
        rate = adagrad_rate(accum, slice(None), g, eta) if adagrad else eta
        w = w - rate * g
        nrm = math.sqrt(float(np.dot(w, w)))
        if nrm > b:
            w *= b / nrm
    predictor = Predictor(sum_w / len(dataset), b, Regime.L2)
    return RunResult(predictor, len(dataset) * d, 0, {"final_w": w})


def online_lasso_full(dataset, b, eta):
    """Exponentiated gradient on exact gradients; the full-information lasso baseline."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.regime is not None and dataset.regime != Regime.LINF:
        raise ValueError("lasso baseline requires Linf-regime data")
    if b <= 0 or eta <= 0:
        raise ValueError("b and eta must be positive")
    d = dataset.dimension
    state = EGState.initial(d)
    all_idx = np.arange(d)
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        w = eg_weights(state, b)
        state.sum_w += w
        g = (float(w @ xs[t]) - float(ys[t])) * xs[t]
        eg_update(state, all_idx, g, eta)
        state.steps += 1
    predictor = Predictor(state.sum_w / state.steps, b, Regime.LINF)
    return RunResult(predictor, len(dataset) * d, 0, {"final_w": eg_weights(state, b)})


def offline_erm(dataset, b, regime, passes=1000):
    """Multi-pass projected full-batch descent on the empirical risk.

    One code path serves both ball constraints; the step is 1/L
    with L the curvature of the empirical risk, and iteration stops when
    the projected gradient mapping drops below tolerance.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if passes < 1:
        raise ValueError("need at least one pass")
    if b < 0:
        raise ValueError("norm bound must be nonnegative")
    d = dataset.dimension
    m = len(dataset)
    project = project_l2_ball if regime == Regime.L2 else project_l1_ball
    xs, ys = dataset.x, dataset.y
    w = np.zeros(d)
    if b == 0:
        return RunResult(Predictor(w, 0.0, regime), m * d, 0, {"passes_used": 0, "converged": True})
    lipschitz = float(np.linalg.eigvalsh(xs.T @ xs)[-1]) / m
    if lipschitz <= 0:
        return RunResult(Predictor(w, b, regime), m * d, 0, {"passes_used": 0, "converged": True})
    used, converged = 0, False
    eta = 1.0 / lipschitz
    for t in range(passes):
        g = xs.T @ (xs @ w - ys) / m
        w_next = project(w - eta * g, b)
        used = t + 1
        if float(np.linalg.norm(w - w_next)) / eta <= _GRAD_TOL:
            w = w_next
            converged = True
            break
        w = w_next
    return RunResult(Predictor(w, b, regime), m * d, 0, {"passes_used": used, "converged": converged})
