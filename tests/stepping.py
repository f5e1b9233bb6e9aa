"""Test helpers: one budgeted step fed from a generator, and dense estimates.

``run_pass`` builds a block's point estimates before its steps and lays
each example's uniforms as n_point point draws, then n_inner inner-product
draws.  ``stream_step`` does the same for a single step, so tests that
drive a solver step by step consume the stream as a whole pass does.
"""

import numpy as np

from budgetreg.estimator import estimate_point


def stream_step(step, state, x, y, config, rng):
    """One step of ``step`` on (x, y), its draws taken from ``rng``.

    A zero-iterate step uses no inner-product draws, so they are handed
    back to the generator, as run_pass does.
    """
    u = rng.random(config.n_point + config.n_inner)
    _, indices, values, _ = estimate_point(x[None], config.q, u[None, :config.n_point])
    zero_steps = state.zero_weight_steps
    step(state, x, y, config, indices, values, u[config.n_point:])
    if state.zero_weight_steps != zero_steps:
        rng.bit_generator.advance(-config.n_inner)
    return state


def dense(block, d):
    """The (rows, d) dense form of an estimate_point block."""
    _, indices, values, bounds = block
    out = np.zeros((len(bounds) - 1, d))
    out[np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)), indices] = values
    return out
