"""Unbiased sparse estimates and the budgeted pass that consumes them.

A gradient step observes n_point sampled attribute values to build the
sparse point estimate x~ and (unless the iterate is zero) n_inner more to
estimate phi = <w, x> - y.  The implied gradient estimate phi * x~ is
unbiased for (<w, x> - y) x whenever q covers the support of x and p
covers the support of w.  All randomness is injected as uniform draws in
[0, 1), so callers control determinism.

The ridge and lasso solvers share everything here: one config, the
point estimates of a block of examples built before its steps (k sorted
draws per example, repeats kept, each with its merged value: the one
layout both the one-run step and the rows step read), one draw of phi
per step, one step rule (fixed eta or AdaGrad), and one single-pass
loop.  Only the geometry of the update is theirs.

``run_lockstep``, internal to ``harness.train_grid``, runs R fixed-step
passes at once as the rows of an (R, d) state: the passes of F folds,
each fold on its own examples and its own stream, at the step sizes and
starts of its rows.  The rows of a fold share its uniforms and point
estimates, laid by the fold's own zero runs, and every per-step numpy
call serves all R rows; a row that leaves its fold's layout breaks off.
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
    """The counters every pass keeps; a solver's state adds its iterate and zero_entries()."""

    sum_w: np.ndarray
    steps: int = 0
    attributes_consumed: int = 0
    zero_weight_steps: int = 0
    p_fallbacks: int = 0  # improved-p steps that fell back to the standard p
    accum: np.ndarray | None = None  # AdaGrad squared-gradient sums

    def charge(self, w, values):
        """Average in the pre-update iterate w; charge the values read (budgeted: m steps read m(k+1))."""
        self.sum_w += w
        self.steps += 1
        self.attributes_consumed += values


def estimate_point(x, q, draws):
    """Sparse unbiased estimates of a block of examples, one row of draws each.

    Row r of ``x`` (r, d) gets (1/k) sum_s x[r, i_s] e_{i_s} / q_{i_s}
    over the k indices i_s ~ q that row r of ``draws`` (r, k) resolves
    to.  Repeated draws merge by summation: count * x / (k q) at each
    draw of an index (a count of 1 leaves x exact).  Each draw observes
    one attribute value; observing a zero still consumes budget.
    Unbiasedness needs q_i > 0 wherever x_i != 0.

    Returns (drawn, values), both (r, k): row r's k drawn indices, sorted,
    repeats kept, and the merged estimate at each, so that equal draws
    carry the same value and a fancy-indexed update such as w[drawn[r]]
    -= values[r] writes each coordinate once.
    """
    drawn = sample_index(q, draws)
    drawn.sort(axis=1)
    k = drawn.shape[1]
    flat = drawn.ravel()
    starts = np.empty(flat.size, dtype=bool)  # where a run of equal indices starts in its row
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::k] = True
    keep = starts.nonzero()[0]
    runs = np.concatenate((keep[1:], [flat.size])) - keep
    counts = runs.repeat(runs).reshape(drawn.shape)  # each draw's count: the length of its run
    return drawn, counts * x[np.arange(len(drawn))[:, None], drawn] / (k * q.probabilities[drawn])


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
    state.charge(w, config.n_point + config.n_inner)
    nonzeros = np.count_nonzero(w)
    if nonzeros:
        if config.root_moments is not None:
            p = improved_inner_product_p(w, config.root_moments, regime, nonzeros)
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


def _budgeted_pass(state, xs, ys, orders, configs, rngs, step, tables, fold_of_row=None):
    """Steps over the examples of F = len(rngs) folds in lockstep, drawing
    a block of uniforms at once: fold f reads the examples orders[f] of
    (xs, ys) in that order (``orders`` None: all of them, one run), samples
    its point estimates by configs[f].q, draws from rngs[f] and, when
    ``tables`` is given, tables its point draws in tables[f].

    On each stream, example t reads its n_point point uniforms and then,
    unless its iterate is zero, its n_inner inner-product uniforms.  Each
    fold lays its blocks by its own rows' state: n_point + n_inner uniforms
    per example, row-major, while they are nonzero, and n_point in a zero
    run, where a zero iterate stays zero up to the first example that can
    move it (y != 0 and a nonzero point value); a pass whose rows start at
    a zero iterate (state.zero_entries()) starts in one.  The folds step until
    the first example where a fold's layout changes (a zero-iterate step
    out of a zero run, or a zero run's first mover) or a block runs out.
    A fold keeps the rest of its block while its layout holds; else it
    hands the uniforms it did not use back with ``advance``, so its
    generator ends where a per-step draw would leave it.

    Both branches read estimate_point's (drawn, values) layout: k sorted
    draws per example, repeats kept, each with the merged estimate, so a
    repeat writes its index the same value twice.  With ``fold_of_row``
    None the pass is one run's: step(state, x, y, config, indices,
    values, inner) takes one example, its drawn indices and values, and
    its inner uniforms.  Otherwise row r of the (R, d) state is a run of
    fold fold_of_row[r]: ``x`` holds the folds' examples (F, d), and y,
    indices, values and inner one row per state row, ``indices`` its
    fold's draws offset to flat state indices.  Either step rebinds
    state.zero_weight_steps (an int, or an (F, R / F) array by fold) when
    a fold steps at a zero iterate.
    """
    for rng in rngs:
        if not isinstance(rng.bit_generator, np.random.PCG64):  # only PCG64's advance steps back one double each
            raise ValueError(f"a budgeted pass needs a PCG64 generator, got {type(rng.bit_generator).__name__}")
    k, n_inner = configs[0].n_point, configs[0].n_inner
    m = len(ys) if orders is None else orders.shape[1]
    span = max(1, _BLOCK_ROWS // len(rngs))  # examples of each fold in a block

    def by_fold(rows):  # per fold, whether any of its rows is set
        return np.reshape(rows, (len(rngs), -1)).any(axis=1).tolist()

    def lay(f):  # fold f's next block from example start on, in its layout: x, y, point draws and values, inner, movers
        stop = min(start + span, m)
        pick = slice(start, stop) if orders is None else orders[f, start:stop]
        x, y, width = xs[pick], ys[pick], k if zero_run[f] else k + n_inner
        u = rngs[f].random((stop - start) * width).reshape(stop - start, width)
        drawn, values = estimate_point(x, configs[f].q, u[:, :k])
        inner = u[:, k:] if width > k else np.zeros((stop - start, n_inner))  # zeros, which a zero run does not read
        # movers: the examples that can move a zero iterate, y != 0 and a nonzero point value
        return [x, y, drawn, values, inner, (values != 0).any(axis=1) & (y != 0)]

    start, zero_run = 0, state.zero_entries().reshape(len(rngs), -1).all(axis=1).tolist()
    blocks = [None] * len(rngs)
    while start < m:
        blocks = [lay(f) if block is None else block for f, block in enumerate(blocks)]
        rows = min([len(block[0]) for block in blocks])
        if any(zero_run):
            first = np.logical_or.reduce([block[5][:rows] for block, z in zip(blocks, zero_run) if z])
            rows = int(first.argmax()) + 1 if first.any() else rows
        if fold_of_row is None:
            x, y, drawn, values, inner, _ = blocks[0]
            examples = zip(x[:rows], y[:rows].tolist(), drawn, values, inner)
        else:  # each row gets its fold's example, draws and uniforms
            def per_row(i):  # (rows, R, ...): state row r's entry from its fold's array
                return np.array([block[i][:rows] for block in blocks])[fold_of_row].swapaxes(0, 1)

            examples = zip(np.stack([block[0][:rows] for block in blocks], axis=1), per_row(1),
                           per_row(2) + state.row_starts, per_row(3), per_row(4))
        counts = zero_steps = state.zero_weight_steps
        zero = [False] * len(rngs)  # per fold, a zero-iterate step out of a zero run, which reads no inner uniforms
        for used, (x, y, indices, values, inner) in enumerate(examples, start=1):
            step(state, x, y, configs[0], indices, values, inner)
            if state.zero_weight_steps is not zero_steps:  # rebound: some fold stepped at a zero iterate
                zero_steps = state.zero_weight_steps
                zero = [stepped and not run for stepped, run in zip(by_fold(zero_steps - counts), zero_run)]
                if any(zero):  # that fold's layout changed
                    break
        last = [block[5][used - 1] for block in blocks]  # whether each fold's last example was a mover
        for f, block in enumerate(blocks):
            if tables is not None:
                tables[f].add(block[2][:used], block[0][:used])
            left = len(block[0]) - used
            blocks[f] = [part[used:] for part in block] if left else None
            if zero[f] or zero_run[f] and last[f]:  # the rest of its block is laid out wrong: hand it back
                rngs[f].bit_generator.advance(-left * (k if zero_run[f] else k + n_inner) - (n_inner if zero[f] else 0))
                blocks[f] = None
        start += used
        # a zero step that cannot move the iterate leaves it zero for the next example
        zero_run = [(run or skipped) and not moves for run, skipped, moves in zip(zero_run, zero, last)]


def draw_rows(state, w, x, y, config, inner, regime):
    """draw_step for the R runs of a lockstep pass, one row of ``w`` each;
    returns phi, one per row.

    Row r steps on its fold's example, row state.fold_starts[r] // d of
    ``x`` (F, d), with its own target y[r] and uniforms inner[r].  Every
    row builds its own p from its own iterate (the improved-p fallback is
    decided per row) and resolves its uniforms against it, with the
    operations of the one-run step applied row-wise, so each row's phi
    has the bits of that run's.  A fold whose live rows all have a zero
    iterate takes the zero-iterate step, phi = -y, and counts it per row.
    A row that can no longer follow its fold's stream is marked in
    state.broken and frozen at phi = 0: a zero row in a fold that also has
    nonzero live rows, or a row whose p total underflows or overflows
    (which the one-run p refuses or rescales).
    """
    state.charge(w, config.n_point + config.n_inner)
    if state.root_moments is None:
        weights = w * w if regime is Regime.L2 else np.abs(w)
    else:
        weights = np.abs(w)
        weights *= state.root_moments
        if np.count_nonzero(weights) != np.count_nonzero(w):  # some row falls back to the standard p
            fallback = ((weights == 0) & (w != 0)).any(axis=1)
            weights = np.where(fallback[:, None], w * w if regime is Regime.L2 else np.abs(w), weights)
            state.p_fallbacks += fallback
    if state.broken is not None:
        weights[state.broken.ravel()] = 1.0  # a frozen row draws from the uniform p; its phi is discarded
    total = np.add.reduce(weights, axis=1, keepdims=True)
    if not total.min() > 0.0:  # a live row at a zero iterate, or with a zero or NaN total
        shape = state.zero_weight_steps.shape
        idle = ~(total > 0.0).reshape(shape)
        zero = idle & ~w.any(axis=1).reshape(shape)
        drawing = ~idle if state.broken is None else ~idle & ~state.broken  # the live rows that have a p
        stepped = zero & ~drawing.any(axis=1, keepdims=True)
        _freeze(state, idle & ~stepped)
        state.zero_weight_steps = state.zero_weight_steps + stepped  # rebound, which tells the pass
        weights[idle.ravel()] = 1.0  # a zero row's terms are then 0, so its phi is -y
        total = np.add.reduce(weights, axis=1, keepdims=True)
    p = weights / total
    c = np.add.accumulate(p, axis=1)
    # searchsorted(c, u, side="right") per row and draw: the first entry above u
    above = c[:, None, :] > inner[:, :, None]
    j = above.argmax(axis=2)
    found = above[:, :, -1]
    if not found.all():  # past a total that rounds below 1: the last index with mass
        # an infinite total, which the one-run p rescales or refuses; p = 1 keeps the discarded phi finite
        p[_freeze(state, ~(c[:, -1] > 0.5))] = 1.0
        j = np.where(found, j, np.count_nonzero(c < c[:, -1:], axis=1)[:, None])
    flat = j + state.row_starts
    terms = w.take(flat) / p.take(flat) * x.take(j + state.fold_starts)
    # add.reduce starts at +0.0 and adds fewer than 8 terms left to right (pairwise from 8 on), as estimate_phi
    phi = np.add.reduce(terms, axis=1) / j.shape[1] - y
    if state.broken is not None:
        phi[state.broken.ravel()] = 0.0
    return phi


def _freeze(state, rows):  # mark rows (one flag per row) broken in a lockstep state; returns them
    if rows.any():  # state.broken stays None, which skips the masking, while every row is live
        marked = rows.reshape(state.zero_weight_steps.shape)
        state.broken = marked if state.broken is None else state.broken | marked
    return rows


def row_norms(w):
    """l2_norm of each row of ``w``, bit for bit: np.vecdot (numpy >= 2)
    dots each row as np.dot does, and older numpy dots row by row."""
    square = np.vecdot(w, w) if _VECDOT else np.array([np.dot(row, row) for row in w])
    norms = np.sqrt(square)
    if square.max() == math.inf:  # l2_norm scales the rows whose squared norm overflows
        for i in np.flatnonzero(square == math.inf):
            norms[i] = l2_norm(w[i])
    return norms


def run_lockstep(dataset, orders, configs, seeds, regime, initial_state, step, tables=None):
    """run_pass for the R = len(configs) runs of F = len(seeds) folds in
    lockstep, fold-major: the R / F runs of fold f train on the examples
    orders[f] of the dataset, an (F, m) index array, on the one stream of
    seeds[f], and tables[f], when given, tables that fold's point draws.
    Returns their RunResults, bit for bit those of run_pass on
    dataset.subset(orders[f]).

    Precondition, which harness.train_grid meets by building every config
    from one RunContext: the configs are fixed-step (not AdaGrad) and
    share b and the draw split; the runs of a fold differ only in eta and
    initial_w, and sample by their fold's first q and moments, unchecked.
    Each run's state from ``initial_state`` becomes a row of one state
    whose arrays (and floats) are stacked, with the step sizes in
    ``state.eta``; ``step`` updates all rows at once.  A row that draws
    phi = 0 skips its whole update.  The rows of a fold share its
    uniforms and point estimates (estimate_point's layout, as in the one
    run's pass), which is each run's own draw as long as it agrees with
    the fold's live rows on which steps have a zero iterate; the folds
    step together, each on its own layout.  A row that leaves its fold's
    layout, or whose p the rows cannot build, is broken (see draw_rows):
    its result is None, for the caller to make on its own.
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
    state.zero_weight_steps = np.zeros((len(seeds), per_fold), dtype=int)  # per row, by fold
    state.broken = None  # the same shape once a row breaks
    _budgeted_pass(state, dataset.x, dataset.y, orders, configs[::per_fold], [stream(seed) for seed in seeds],
                   step, tables, fold)
    broken = np.zeros(len(configs), dtype=bool) if state.broken is None else state.broken.flat
    return [None if lost else RunResult(Predictor(sum_w / state.steps, configs[0].b, regime), state.attributes_consumed,
                                        int(zero_steps), p_fallbacks=int(fallbacks))
            for sum_w, zero_steps, fallbacks, lost in zip(state.sum_w, state.zero_weight_steps.flat, state.p_fallbacks,
                                                          broken)]
