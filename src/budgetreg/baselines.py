"""Full-information baselines.

Online ridge (with a fixed or an AdaGrad step) and lasso with exact
gradients, and a multi-pass projected descent for the offline empirical
risk minimizer.  Every baseline observes all d attributes of each
training example, so its budget is m*d.  The online baselines are steps
of ``estimator.run_pass`` with ``q=None`` (no draws, so the seed is a
fixed 0) that feed the exact gradient to the budgeted solvers' updates.
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
from .estimator import SolverConfig, run_pass
from .solver_lasso import EGState, eg_update, eg_weights
from .solver_ridge import RidgeState, l2_step

__all__ = [
    "online_ridge_full",
    "online_lasso_full",
    "offline_erm",
]

_GRAD_TOL = 1e-8


def _ridge_full_step(state, x, y, config):
    state.charge(state.w, x.size)
    # gradient as values, phi = 1: eta * g rounds as the ogd-full fingerprint pins
    l2_step(state, slice(None), 1.0, (float(state.w @ x) - y) * x, config)


def _lasso_full_step(state, x, y, config):
    w = eg_weights(state, config.b)
    state.charge(w, x.size)
    eg_update(state, slice(None), (float(w @ x) - y) * x, config.eta)


def online_ridge_full(dataset, b, eta, adagrad=False):
    """Projected OGD on exact gradients; the full-information ridge baseline.

    Starts at zero (no sampling ever divides by the weights here) and
    returns the average of the visited iterates.  With ``adagrad`` the
    step is per coordinate, eta / sqrt(DELTA_ADA + sum of squared
    gradients), as in the budgeted solvers.
    """
    config = SolverConfig(b=b, eta=eta, q=None, initial_w=np.zeros(dataset.dimension), adagrad=adagrad)
    return run_pass(dataset, config, 0, Regime.L2, RidgeState.initial, _ridge_full_step)


def online_lasso_full(dataset, b, eta):
    """Exponentiated gradient on exact gradients; the full-information lasso baseline."""
    config = SolverConfig(b=b, eta=eta, q=None)
    return run_pass(dataset, config, 0, Regime.LINF, EGState.initial, _lasso_full_step)


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
    if not 0 <= b < math.inf:
        raise ValueError(f"norm bound b must be finite and nonnegative, got {b!r}")
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
