"""Unbiased sparse estimates and the budgeted pass that consumes them.

A gradient step observes n_point sampled attribute values to build the
sparse point estimate x~ and (unless the iterate is zero) n_inner more to
estimate phi = <w, x> - y.  The implied gradient estimate phi * x~ is
unbiased for (<w, x> - y) x whenever q covers the support of x and p
covers the support of w.  All randomness is injected as uniform draws in
[0, 1), so callers control determinism.

The ridge and lasso solvers share everything here: one config, the
point estimates of a block of examples built before its steps, one
draw of phi per step, one step rule (fixed eta or AdaGrad), and one
single-pass loop.  Only the geometry of the update is theirs.

``run_lockstep``, internal to ``harness.train_grid``, runs R fixed-step
passes at once as the rows of an (R, d) state: the passes of F folds,
each fold on its own examples and its own stream, at the step sizes and
starts of its rows.  The rows of a fold share its uniforms and point
estimates, and every per-step numpy call serves all R rows.
"""

import copy
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import Predictor, RunResult, Regime, l2_norm, stream
from .sampling import (
    AttributeDistribution,
    improved_inner_product_p,
    inner_product_p,
    moment_roots,
    sample_index,
)

__all__ = [
    "DELTA_ADA",
    "PassState",
    "SolverConfig",
    "estimate_point",
    "estimate_phi",
    "draw_step",
    "adagrad_rate",
    "run_pass",
]

DELTA_ADA = 1e-8  # stabilizer under the adaptive square root
_BLOCK_ROWS = 1024  # most examples whose point estimates are built at once
_VECDOT = hasattr(np, "vecdot")


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


@dataclass(kw_only=True)
class PassState:
    """The counters every pass keeps; a solver's state adds its iterate."""

    sum_w: np.ndarray
    steps: int = 0
    attributes_consumed: int = 0
    zero_weight_steps: int = 0
    p_fallbacks: int = 0  # improved-p steps that fell back to the standard p
    accum: np.ndarray | None = None  # AdaGrad squared-gradient sums

    def charge(self, w, config):
        """Average in the pre-update iterate w; charge the full budget, so m steps read m(k+1) values."""
        self.sum_w += w
        self.steps += 1
        self.attributes_consumed += config.n_point + config.n_inner


def estimate_point(x, q, draws):
    """Sparse unbiased estimates of a block of examples, one row of draws each.

    Row r of ``x`` (r, d) gets (1/k) sum_s x[r, i_s] e_{i_s} / q_{i_s}
    over the k indices i_s ~ q that row r of ``draws`` (r, k) resolves
    to.  Repeated draws merge by summation: count * x / (k q) at the
    sorted distinct indices (a count of 1 leaves x exact).  Each draw
    observes one attribute value; observing a zero still consumes budget.
    Unbiasedness needs q_i > 0 wherever x_i != 0.

    Returns (drawn, indices, values, bounds): ``drawn`` holds each row's
    k drawn indices, sorted, and row r's estimate is
    indices[bounds[r]:bounds[r + 1]] with its values at the same slice.
    """
    drawn = sample_index(q, draws)
    drawn.sort(axis=1)
    k = drawn.shape[1]
    flat = drawn.ravel()
    keep = _run_starts(drawn).nonzero()[0]
    counts = np.concatenate((keep[1:], [flat.size])) - keep
    indices = flat[keep]
    values = counts * x[keep // k, indices] / (k * q.probabilities[indices])
    bounds = keep.searchsorted(np.arange(0, flat.size + 1, k))
    return drawn, indices, values, bounds


def _run_starts(drawn):
    """For each entry of the sorted rows of ``drawn``, flattened: whether it
    starts a run of equal indices in its row."""
    flat = drawn.ravel()
    first = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::drawn.shape[1]] = True
    return first


def estimate_phi(x, y, w, p, draws):
    """Unbiased estimate of <w, x> - y from len(draws) attributes j ~ p.

    phi = mean_r(w_j / p_j * x_j) - y; averaging independent draws keeps
    it unbiased and lowers its variance.  Needs p_j > 0 wherever
    w_j != 0, so a zero iterate (no such p) is the caller's to handle.
    """
    j = sample_index(p, draws)
    if j.size < 8:  # numpy's add.reduce adds fewer than 8 terms left to right from +0.0, as this loop does
        total = 0.0
        for i in j.tolist():
            total += w.item(i) / p.probabilities.item(i) * x.item(i)
    else:
        total = np.add.reduce(w[j] / p.probabilities[j] * x[j])
    return float(total / j.size - y)


def draw_step(state, w, x, y, config, inner, regime):
    """The shared part of one budgeted step; returns phi.

    The pre-update iterate w enters the running average and defines p,
    from which the n_inner uniforms ``inner`` draw phi's attributes.  The
    full per-example budget is charged even on the zero-iterate path,
    where phi = -y costs no observation and ``inner`` is left unused;
    zero_weight_steps records how often that happened.
    """
    state.charge(w, config)
    if np.count_nonzero(w):
        if config.root_moments is not None:
            p = improved_inner_product_p(w, config.root_moments, regime)
            state.p_fallbacks += p.fallback
        else:
            p = inner_product_p(w, regime)
        phi = estimate_phi(x, y, w, p, inner)
    else:
        phi = -float(y)
        state.zero_weight_steps += 1
    return phi


def adagrad_rate(accum, indices, g, eta):
    """AdaGrad step rule: add g^2 to the accumulator at ``indices`` and
    return the per-coordinate rates eta / sqrt(DELTA_ADA + accumulated g^2)
    there.  Accumulators change only where the gradient estimate lives."""
    accum[indices] += g * g
    return eta / np.sqrt(DELTA_ADA + accum[indices])


def run_pass(dataset, config, seed, regime, initial_state, step, table=None):
    """Single ordered pass over the dataset; returns the averaged predictor.

    ``initial_state(d, config)`` builds the solver's state.  With
    ``config.q`` None every attribute is read and ``step(state, x, y,
    config)`` takes one step; otherwise ``step(state, x, y, config,
    indices, values, inner)`` takes one budgeted step from a prebuilt
    point estimate and its n_inner inner-product uniforms.  ``table``,
    when given, gets ``table.add(drawn, x)`` for the point draws of every
    example the pass consumed.
    """
    state, = _initial_states(dataset, [config], regime, initial_state)
    if config.q is None:
        xs, ys = dataset.x, dataset.y
        # targets are listed a block at a time, not one Python float per example of the pass
        for start in range(0, len(ys), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            for x, y in zip(xs[start:stop], ys[start:stop].tolist()):
                step(state, x, y, config)
    else:
        _budgeted_pass(state, dataset.x, dataset.y, None, [config], [stream(seed)], step,
                       None if table is None else [table])
    predictor = Predictor(state.sum_w / state.steps, config.b, regime)
    return RunResult(predictor, state.attributes_consumed, state.zero_weight_steps, p_fallbacks=state.p_fallbacks)


def _initial_states(dataset, configs, regime, initial_state):
    """The set-up of every pass, one run's or a lockstep's: refuse empty
    data or data of another regime, validate each config, build its state."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.regime is not None and dataset.regime != regime:
        raise ValueError(f"solver requires {regime.value.capitalize()}-regime data")
    d = dataset.dimension
    for config in configs:
        config.validate(d)
    return [initial_state(d, config) for config in configs]


class LockstepBreak(Exception):
    """The rows of a lockstep pass stopped agreeing on which steps have a
    zero iterate (or on a p that can be built), so they no longer read
    their streams alike; each run has to be made on its own."""


def _budgeted_pass(state, xs, ys, orders, configs, rngs, step, tables, fold_of_row=None):
    """Steps over the examples of F = len(rngs) folds in lockstep, drawing
    each block's uniforms at once: fold f reads the examples orders[f] of
    (xs, ys) in that order (``orders`` None: all of them, F = 1), samples
    its point estimates by configs[f].q, draws from rngs[f] and, when
    ``tables`` is given, tables its point draws in tables[f].

    On each stream, example t reads its n_point point uniforms and then,
    unless its iterate is zero, its n_inner inner-product uniforms.  A
    block lays n_point + n_inner uniforms per example, row-major, which
    is that order exactly as long as no step has a zero iterate.  A
    zero-iterate step ends its block, and the uniforms the pass did not
    use are handed back with ``advance``, so each generator ends where a
    per-step draw would leave it.  A zero-iterate step that cannot move
    the iterate (y = 0, or every point value is 0) leaves it zero for the
    next example, so the next block lays n_point uniforms per example and
    ends at the first example that can move it.  The folds step together,
    so they must agree on which steps have a zero iterate (the rows step
    raises LockstepBreak where they do not) and on which zero steps leave
    it zero (LockstepBreak here).

    With ``fold_of_row`` None the pass is one run's: step(state, x, y,
    config, indices, values, inner) takes one example, estimate_point's
    indices and values for it, and its inner uniforms.  Otherwise row r
    of the (R, d) state is a run of fold fold_of_row[r]: ``x`` holds the
    folds' examples (F, d), and y, indices, values and inner one row per
    state row, ``indices`` the flat state index of each of the row's k
    sorted point draws, repeats kept, and ``values`` the merged estimate
    at each, so that a repeat writes its index the same value twice.
    """
    for rng in rngs:
        if not isinstance(rng.bit_generator, np.random.PCG64):  # only PCG64's advance steps back one double each
            raise ValueError(f"a budgeted pass needs a PCG64 generator, got {type(rng.bit_generator).__name__}")
    k, n_inner = configs[0].n_point, configs[0].n_inner
    m = len(ys) if orders is None else orders.shape[1]
    span = max(1, _BLOCK_ROWS // len(rngs))  # examples of each fold in a block
    start, zero_run = 0, False
    while start < m:
        stop = min(start + span, m)
        width = k if zero_run else k + n_inner
        picks = [slice(start, stop)] if orders is None else orders[:, start:stop]
        xb, yb = [xs[i] for i in picks], [ys[i] for i in picks]
        u = [rng.random((stop - start) * width).reshape(stop - start, width) for rng in rngs]
        points = [estimate_point(x, config.q, draws[:, :k]) for x, config, draws in zip(xb, configs, u)]
        rows = stop - start
        if zero_run:  # the iterates stay zero up to the first example that can move one
            movers = np.logical_or.reduce(_movers(points, yb))
            rows = int(movers.argmax()) + 1 if movers.any() else rows
        if fold_of_row is None:
            (_, point_at, point_values, bounds), = points
            bounds = bounds.tolist()
            examples = ((x, y, point_at[lo:hi], point_values[lo:hi], inner) for x, y, lo, hi, inner
                        in zip(xb[0][:rows], yb[0].tolist(), bounds, bounds[1:], u[0][:, k:]))
        else:  # each row gets its fold's example, draws and uniforms
            def per_row(arrays):  # (rows, R, ...): state row r's entry from its fold's array
                return np.array(arrays)[fold_of_row, :rows].swapaxes(0, 1)

            merged = [estimate[np.cumsum(_run_starts(drawn)) - 1].reshape(drawn.shape)
                      for drawn, _, estimate, _ in points]
            at = per_row([point[0] for point in points]) + np.arange(len(fold_of_row))[:, None] * xs.shape[1]
            examples = zip(np.stack(xb, axis=1)[:rows], per_row(yb), at, per_row(merged),
                           per_row([draws[:, k:] for draws in u]))
        zero_steps = state.zero_weight_steps
        for used, (x, y, indices, values, inner) in enumerate(examples, start=1):
            step(state, x, y, configs[0], indices, values, inner)
            if state.zero_weight_steps != zero_steps and not zero_run:
                break
        zero = state.zero_weight_steps != zero_steps
        unused = (stop - start - used) * width + (n_inner if zero and not zero_run else 0)
        if unused:
            for rng in rngs:
                rng.bit_generator.advance(-unused)
        if tables is not None:
            for table, x, point in zip(tables, xb, points):
                table.add(point[0][:used], x[:used])
        start += used
        stuck = {not moves[used - 1] for moves in _movers(points, yb)} if zero else {False}
        if len(stuck) > 1:  # one fold's iterate stays zero while another's may move
            raise LockstepBreak
        zero_run, = stuck


def _movers(points, yb):
    """Per fold, the examples of a block that can move a zero iterate:
    y != 0 and a nonzero point value."""
    return [np.logical_or.reduceat(values != 0, bounds[:-1]) & (y != 0)
            for (_, _, values, bounds), y in zip(points, yb)]


def draw_rows(state, w, x, y, config, inner, regime):
    """draw_step for the R runs of a lockstep pass, one row of ``w`` each;
    returns phi, one per row.

    Row r steps on its fold's example, row state.fold_starts[r] // d of
    ``x`` (F, d), with its own target y[r] and uniforms inner[r].  Every
    row builds its own p from its own iterate (the improved-p fallback is
    decided per row) and resolves its uniforms against it, with the
    operations of the one-run step applied row-wise, so each row's phi
    has the bits of that run's.  The rows must agree on a zero iterate:
    all of them or none.
    """
    state.charge(w, config)
    if state.root_moments is None:
        weights = w * w if regime is Regime.L2 else np.abs(w)
    else:
        weights = np.abs(w)
        weights *= state.root_moments
        if np.count_nonzero(weights) != np.count_nonzero(w):  # some row falls back to the standard p
            fallback = ((weights == 0) & (w != 0)).any(axis=1)
            weights = np.where(fallback[:, None], w * w if regime is Regime.L2 else np.abs(w), weights)
            state.p_fallbacks += fallback
    total = np.add.reduce(weights, axis=1, keepdims=True)
    if not total.min() > 0.0:  # a zero iterate; or a zero or NaN total, which the one-run p refuses
        if np.count_nonzero(w):
            raise LockstepBreak
        state.zero_weight_steps += 1
        return -y
    p = weights / total
    c = np.add.accumulate(p, axis=1)
    # searchsorted(c, u, side="right") per row and draw: the first entry above u
    above = c[:, None, :] > inner[:, :, None]
    j = above.argmax(axis=2)
    found = above[:, :, -1]
    if not found.all():  # past a total that rounds below 1: the last index with mass
        if not c[:, -1].min() > 0.5:  # an infinite total, which the one-run p rescales or refuses
            raise LockstepBreak
        j = np.where(found, j, np.count_nonzero(c < c[:, -1:], axis=1)[:, None])
    flat = j + state.row_starts
    terms = w.take(flat) / p.take(flat) * x.take(j + state.fold_starts)
    # add.reduce starts at +0.0 and adds fewer than 8 terms left to right (pairwise from 8 on), as estimate_phi
    return np.add.reduce(terms, axis=1) / j.shape[1] - y


def row_norms(w):
    """l2_norm of each row of ``w``, bit for bit: np.vecdot (numpy >= 2)
    dots each row as np.dot does, and older numpy dots row by row."""
    square = np.vecdot(w, w) if _VECDOT else np.array([np.dot(row, row) for row in w])
    norms = np.sqrt(square)
    for i in np.flatnonzero(square == math.inf):
        norms[i] = l2_norm(w[i])
    return norms


def run_lockstep(dataset, configs, seeds, regime, initial_state, step, tables=None, orders=None):
    """run_pass for the R = len(configs) runs of F = len(seeds) folds in
    lockstep, fold-major: the R / F runs of fold f train on the examples
    orders[f] of the dataset (``orders`` None: all of them, F = 1) on the
    one stream of seeds[f], and tables[f], when given, tables that fold's
    point draws.  Returns their RunResults, bit for bit those of run_pass.

    Precondition, which harness.train_grid meets by building every config
    from one RunContext: the configs are fixed-step (not AdaGrad) and
    share b and the draw split; the runs of a fold differ only in eta and
    initial_w, and sample by their fold's first q and moments, unchecked.
    Each run's state from ``initial_state`` becomes a row of one state
    whose arrays (and floats) are stacked, with the step sizes in
    ``state.eta``; ``step`` updates all rows at once.  A row that draws
    phi = 0 skips its whole update.  The rows of a fold share its
    uniforms and point estimates, which is each run's own draw as long as
    they agree on which steps have a zero iterate, and the folds step
    together: LockstepBreak is raised where the rows do not agree.
    """
    runs = _initial_states(dataset, configs, regime, initial_state)
    state = copy.copy(runs[0])
    for name in (f.name for f in fields(state)):
        if isinstance(getattr(state, name), (np.ndarray, float)):
            setattr(state, name, np.array([getattr(run, name) for run in runs]))
    per_fold = len(configs) // len(seeds)
    fold = np.arange(len(configs)) // per_fold
    state.eta = np.array([config.eta for config in configs])
    state.row_starts = np.arange(len(configs))[:, None] * dataset.dimension  # flat index of each row's first entry
    state.fold_starts = fold[:, None] * dataset.dimension  # flat index of its fold's example in a step's x
    state.root_moments = None if configs[0].root_moments is None else np.array([c.root_moments for c in configs])
    state.p_fallbacks = np.zeros(len(configs), dtype=int)
    _budgeted_pass(state, dataset.x, dataset.y, orders, configs[::per_fold], [stream(seed) for seed in seeds],
                   step, tables, fold)
    config = configs[0]
    return [RunResult(Predictor(sum_w / state.steps, config.b, regime), state.attributes_consumed,
                      state.zero_weight_steps, p_fallbacks=int(fallbacks))
            for sum_w, fallbacks in zip(state.sum_w, state.p_fallbacks)]
