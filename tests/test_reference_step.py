"""The budgeted step and pass, pinned bit for bit to the implementation
they replaced.

The step path was made cheaper (fewer numpy calls, ufuncs called
directly, the EG threshold checked against a running bound on the z
entries, short inner-product sums added in Python), and the pass now
builds the point estimates of a block of examples before its steps,
drawing the block's uniforms at once and handing back the ones a
zero-iterate step leaves unused; a run of examples that cannot move a
zero iterate is laid n_point uniforms per example.  No result changed.
The helpers below are the earlier per-step implementation, kept as the
reference: a hypothesis property drives both through the same draws and
requires identical iterates, averages, AdaGrad sums and counters after
every step, and identical results from a whole pass; whole passes given
a Generator across the block size (sparse rows behind a zero iterate
among them) must also leave it where the reference per-step loop leaves
it, and so must the two-phase solver.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from budgetreg import estimator
from budgetreg.core import Dataset, Predictor, Regime, RunResult
from budgetreg.estimator import _BLOCK_ROWS, DELTA_ADA, SolverConfig, estimate_point
from budgetreg.harness import RunContext
from budgetreg.sampling import build_distribution, uniform_distribution
from budgetreg.solver_lasso import EGState, gaelr_step, run_gaelr
from budgetreg.solver_ridge import RidgeState, gaerr_step, run_gaerr
from budgetreg.two_phase import TwoPhaseConfig, run_two_phase, smoothed_q

BELOW_ONE = float(np.nextafter(1.0, 0.0))  # the largest draw in [0, 1)


# ---- the reference step ----------------------------------------------------

@dataclass
class SparseEstimate:
    indices: np.ndarray
    values: np.ndarray
    dimension: int


class RefDistribution:
    __slots__ = ("probabilities", "cumulative", "_last", "fallback")

    def __init__(self, p):
        self.probabilities = p
        self.cumulative = c = np.cumsum(p)
        self._last = int(c.searchsorted(c[-1]))
        self.fallback = False


def ref_trusted(weights):
    total = weights.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("invalid weights: all weights are zero" if total == 0.0
                         else "invalid weights: probabilities must sum to 1")
    weights /= total
    return RefDistribution(weights)


def ref_sample_index(dist, u):
    idx = dist.cumulative.searchsorted(u, side="right")
    return np.minimum(idx, dist._last, out=idx)


def ref_inner_product_p(w, regime):
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise ValueError("zero dimension")
    return ref_trusted(w * w if Regime(regime) == Regime.L2 else np.abs(w))


def ref_improved_inner_product_p(w, root_moments, regime):
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise ValueError("zero dimension")
    weights = np.abs(w) * root_moments
    if np.count_nonzero(weights) != np.count_nonzero(w):
        p = ref_inner_product_p(w, regime)
        p.fallback = True
        return p
    return ref_trusted(weights)


def ref_estimate_from_indices(x, q, indices):
    drawn = np.asarray(indices, dtype=np.intp).ravel().tolist()
    k = len(drawn)
    if k == 0:
        raise ValueError("need at least one draw")
    distinct = sorted(set(drawn))
    uniq = np.array(distinct, dtype=np.intp)
    values = x[uniq]
    if uniq.size < k:
        counts = Counter(drawn)
        values = np.array([counts[i] for i in distinct]) * values
    return SparseEstimate(uniq, values / (k * q.probabilities[uniq]), len(x))


def ref_estimate_phi(x, y, w, p, draws):
    j = ref_sample_index(p, draws)
    return float((w[j] / p.probabilities[j] * x[j]).mean() - y)


def ref_draw_step(state, w, x, y, config, rng, regime, ref_q, point_estimate=None):
    state.sum_w += w
    if point_estimate is None:
        point_estimate = ref_estimate_from_indices(x, ref_q, ref_sample_index(ref_q, rng.random(config.n_point)))
    if w.any():
        if config.root_moments is not None:
            p = ref_improved_inner_product_p(w, config.root_moments, regime)
            state.p_fallbacks += p.fallback
        else:
            p = ref_inner_product_p(w, regime)
        phi = ref_estimate_phi(x, y, w, p, rng.random(config.n_inner))
    else:
        phi = -float(y)
        state.zero_weight_steps += 1
    state.steps += 1
    state.attributes_consumed += config.n_point + config.n_inner
    return point_estimate, phi


def ref_adagrad_rate(accum, indices, g, eta):
    accum[indices] += g * g
    return eta / np.sqrt(DELTA_ADA + accum[indices])


def ref_gaerr_step(state, x, y, config, rng, ref_q, point_estimate=None):
    est, phi = ref_draw_step(state, state.w, x, y, config, rng, Regime.L2, ref_q, point_estimate)
    if phi != 0.0:
        w = state.w
        if config.adagrad:
            g = phi * est.values
            w[est.indices] -= ref_adagrad_rate(state.accum, est.indices, g, config.eta) * g
        else:
            w[est.indices] -= config.eta * phi * est.values
        nrm = math.sqrt(float(np.dot(w, w)))
        if nrm > config.b:
            w *= config.b / nrm
    return state


def ref_eg_weights(state, b):
    scale = b / (state.z_plus.sum() + state.z_minus.sum())
    return (state.z_plus - state.z_minus) * scale


def ref_eg_update(state, indices, values, eta):
    g = np.clip(values, -1.0 / eta, 1.0 / eta)
    state.z_plus[indices] *= np.exp(-eta * g)
    state.z_minus[indices] *= np.exp(eta * g)
    peak = max(float(state.z_plus.max()), float(state.z_minus.max()))
    if peak > 1e100:
        state.z_plus /= peak
        state.z_minus /= peak
    return state


def ref_gaelr_step(state, x, y, config, rng, ref_q, point_estimate=None):
    w = ref_eg_weights(state, config.b)
    est, phi = ref_draw_step(state, w, x, y, config, rng, Regime.LINF, ref_q, point_estimate)
    if phi != 0.0:
        g = phi * est.values
        eta = ref_adagrad_rate(state.accum, est.indices, g, config.eta) if config.adagrad else config.eta
        ref_eg_update(state, est.indices, g, eta)
    return state


def ref_run_pass(dataset, config, seed, regime, initial_state, step):
    d = dataset.dimension
    config.validate(d)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(np.random.SeedSequence(seed))
    state = initial_state(d, config)
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        step(state, xs[t], float(ys[t]), config, rng)
    predictor = Predictor(state.sum_w / state.steps, config.b, regime)
    return RunResult(predictor, state.attributes_consumed, state.zero_weight_steps, p_fallbacks=state.p_fallbacks)


# ---- the property ----------------------------------------------------------

class CycledDraws:
    """Stands in for a Generator: hands out the given uniforms in a cycle.
    ``advance`` moves the position, as PCG64's advance moves a stream."""

    def __init__(self, draws):
        self.draws = draws
        self.pos = 0

    def random(self, n):
        out = [self.draws[(self.pos + i) % len(self.draws)] for i in range(n)]
        self.pos += n
        return np.array(out)

    def advance(self, delta):
        self.pos += delta


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


STATE_FIELDS = {Regime.L2: ("w",), Regime.LINF: ("z_plus", "z_minus")}
COUNTERS = ("steps", "attributes_consumed", "zero_weight_steps", "p_fallbacks")


def assert_same_state(live, ref, regime, t):
    for name in STATE_FIELDS[regime] + ("sum_w", "accum"):
        assert same_bits(getattr(live, name), getattr(ref, name)), (t, name)
    for name in COUNTERS:
        assert getattr(live, name) == getattr(ref, name), (t, name)


def outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is a case, not a failure
            return call(), None
    except ValueError as exc:
        return None, str(exc)


@st.composite
def step_cases(draw):
    regime = draw(st.sampled_from([Regime.L2, Regime.LINF]))
    d = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    x = draw(arrays(float, (m, d), elements=cell))
    y = draw(arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(-2.0, 2.0))))
    if draw(st.booleans()):
        q = uniform_distribution(d)
    else:
        weights = draw(arrays(float, d, elements=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 10.0))))
        weights[draw(st.integers(0, d - 1))] = 1.0
        q = build_distribution(weights)
    p_kind = draw(st.sampled_from(["standard", "improved", "fallback"]))
    moments = None
    if p_kind != "standard":
        moments = draw(arrays(float, d, elements=st.floats(1e-3, 2.0)))
        if p_kind == "fallback":
            moments[draw(st.integers(0, d - 1))] = 0.0
    b = draw(st.one_of(st.sampled_from([1.0, 6e99, 1e101, 1e102]), st.floats(0.1, 10.0)))
    start = draw(st.sampled_from(["default", "zero", "drawn"]))
    initial_w = None
    if start == "zero":
        initial_w = np.zeros(d)
    elif start == "drawn":
        scale = draw(st.sampled_from([1.0, b / 4]))
        initial_w = draw(arrays(float, d, elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))) * scale
    config = SolverConfig(
        b=b, eta=draw(st.sampled_from([0.01, 0.5, 2.0, 50.0])), q=q,
        n_point=draw(st.integers(1, 4)), n_inner=draw(st.integers(1, 10)),
        moments=moments, initial_w=initial_w, adagrad=draw(st.booleans()))
    draws = draw(st.lists(st.one_of(st.sampled_from([0.0, BELOW_ONE]), st.floats(0.0, 1.0, exclude_max=True)),
                          min_size=1, max_size=40))
    return regime, x, y, config, draws, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def example_case(regime, d, m, *, b=1.0, eta=0.5, n_point=2, n_inner=1, moments=None,
                 initial_w=None, adagrad=False, draws=(0.3, 0.7, BELOW_ONE), external=False, x_value=None):
    rng = np.random.default_rng(d * 100 + m)
    x = rng.uniform(-1.0, 1.0, (m, d)) if x_value is None else np.full((m, d), x_value)
    y = rng.uniform(-1.0, 1.0, m)
    config = SolverConfig(b=b, eta=eta, q=uniform_distribution(d), n_point=n_point, n_inner=n_inner,
                          moments=moments, initial_w=initial_w, adagrad=adagrad)
    return regime, x, y, config, list(draws), external, 7


@settings(max_examples=400, deadline=None)
@given(step_cases())
# draws past the top of a table whose cumulative mass ends below 1 (d = 6)
@example(example_case(Regime.L2, 6, 8, n_point=3, n_inner=2))
@example(example_case(Regime.LINF, 7, 8, n_point=3, n_inner=2, adagrad=True))
# both sides of numpy's 8-term summation switch
@example(example_case(Regime.L2, 5, 6, n_inner=7, moments=np.arange(1.0, 6.0)))
@example(example_case(Regime.LINF, 5, 6, n_inner=9, moments=np.array([1.0, 0.0, 2.0, 0.5, 1.0])))
# duplicate point draws
@example(example_case(Regime.L2, 3, 5, n_point=4, draws=(0.1, 0.2, 0.1, 0.9, 0.5), external=True))
# EG entries above the renormalization threshold at the start, on an
# untouched coordinate only, and crossing it during the pass
@example(example_case(Regime.LINF, 3, 6, b=1e102, initial_w=np.array([0.1, -0.2, 0.0])))
@example(example_case(Regime.LINF, 4, 6, b=1e102, initial_w=np.array([9.9e101, 0.0, 0.0, 0.0]),
                      draws=(0.6, 0.9, 0.4, 0.7)))
@example(example_case(Regime.LINF, 1, 12, b=6e99, eta=50.0, initial_w=np.zeros(1)))
# z- (then z+) of coordinate 1 grows past the threshold while the other shrinks
@example(example_case(Regime.LINF, 2, 4, b=1.5e100, eta=50.0, n_point=1, initial_w=np.array([0.7e100, 0.0]),
                      draws=(0.75,), x_value=0.5))
@example(example_case(Regime.LINF, 2, 4, b=1.5e100, eta=50.0, n_point=1, initial_w=np.array([-0.7e100, 0.0]),
                      draws=(0.75,), x_value=0.5))
def test_lean_step_matches_reference_step(case):
    """Every step of the live ridge and lasso solvers leaves the same bits
    as the reference step, given the same draws; so does a whole pass,
    which also leaves its Generator where the reference leaves it."""
    regime, x, y, config, draws, external, seed = case
    d = x.shape[1]
    config.validate(d)
    initial, step, ref_step, run = {
        Regime.L2: (RidgeState.initial, gaerr_step, ref_gaerr_step, run_gaerr),
        Regime.LINF: (EGState.initial, gaelr_step, ref_gaelr_step, run_gaelr),
    }[regime]
    ref_q = RefDistribution(config.q.probabilities)
    live, ref = initial(d, config), initial(d, config)
    live_rng, ref_rng = CycledDraws(draws), CycledDraws(draws)
    for t in range(len(y)):
        drawn, indices, values, _ = estimate_point(x[t][None], config.q, live_rng.random(config.n_point)[None])
        live_est = SparseEstimate(indices, values, d)
        ref_est = None
        if external:  # the point draws shared with a moment table, as the two-phase warm start makes them
            ref_idx = ref_sample_index(ref_q, ref_rng.random(config.n_point))
            ref_est = ref_estimate_from_indices(x[t], ref_q, ref_idx)
            assert same_bits(live_est.indices, ref_est.indices) and same_bits(live_est.values, ref_est.values)
            assert same_bits(drawn[0], np.sort(ref_idx))
        inner = live_rng.random(config.n_inner)
        zero_steps = live.zero_weight_steps
        _, live_error = outcome(lambda: step(live, x[t], float(y[t]), config, indices, values, inner))
        if live.zero_weight_steps != zero_steps:
            live_rng.advance(-config.n_inner)
        _, ref_error = outcome(lambda: ref_step(ref, x[t], float(y[t]), config, ref_rng, ref_q, ref_est))
        assert live_error == ref_error, t
        if live_error:
            return
        assert_same_state(live, ref, regime, t)

    dataset = Dataset(x, y)
    got, got_error = outcome(lambda: run(dataset, config, seed))
    want, want_error = outcome(lambda: ref_run_pass(
        dataset, config, seed, regime, initial, lambda s, xt, yt, c, r: ref_step(s, xt, yt, c, r, ref_q)))
    assert got_error == want_error
    if got_error is None:
        assert same_bits(got.predictor.weights, want.predictor.weights)
        assert (got.attributes_consumed, got.zero_weight_steps, got.p_fallbacks) == \
            (want.attributes_consumed, want.zero_weight_steps, want.p_fallbacks)
    assert_same_pass(dataset, config, regime, seed)


# ---- whole passes given a Generator ----------------------------------------

PASSES = {
    Regime.L2: (RidgeState.initial, ref_gaerr_step, run_gaerr),
    Regime.LINF: (EGState.initial, ref_gaelr_step, run_gaelr),
}


def assert_same_pass(dataset, config, regime, seed):
    """A whole pass given a Generator ends with the reference per-step
    loop's weights and counters, or its error, and leaves the Generator at
    the same next draw; returns the live result."""
    initial, ref_step, run = PASSES[regime]
    ref_q = RefDistribution(config.q.probabilities)
    live_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_error = outcome(lambda: run(dataset, config, live_rng))
    want, want_error = outcome(lambda: ref_run_pass(
        dataset, config, ref_rng, regime, initial, lambda s, xt, yt, c, r: ref_step(s, xt, yt, c, r, ref_q)))
    assert got_error == want_error
    if got_error is None:
        assert same_bits(got.predictor.weights, want.predictor.weights)
        assert (got.attributes_consumed, got.zero_weight_steps, got.p_fallbacks) == \
            (want.attributes_consumed, want.zero_weight_steps, want.p_fallbacks)
        assert same_bits(live_rng.random(3), ref_rng.random(3))
    return got


def level_targets(rng, m, up, down, away=False):
    """Targets that move a one-attribute iterate between zero and one
    level: from zero, y = up moves it there (y = 0 stays); from there,
    y = down brings it back."""
    y = np.empty(m)
    for t in range(m):
        y[t] = down if away else rng.choice([0.0, up])
        away = y[t] == up
    return y


def returning_case(regime, m, n_point, n_inner, seed):
    """Every example is e_0, so an update moves only w_0, by exact steps:
    the iterate returns to exactly zero again and again, in the middle of
    a block.  Ridge starts at zero, samples q = (1/2, 1/4, 1/4) and sees y
    in {0, 1}.  Lasso samples only attribute 0, so x~ = e_0; its update is
    clipped at |eta g| = 1, and exp(1) exp(-1) is exactly 1, so y = 10
    from zero (or y = 0, which stays there) followed by y = -10 brings
    z+ and z- back level."""
    rng = np.random.default_rng(seed)
    x = np.zeros((m, 3))
    x[:, 0] = 1.0
    if regime is Regime.L2:
        y = rng.integers(0, 2, m).astype(float)
        config = SolverConfig(b=10.0, eta=0.5, q=build_distribution([2.0, 1.0, 1.0]), n_point=n_point,
                              n_inner=n_inner, initial_w=np.zeros(3))
    else:
        y = level_targets(rng, m, 10.0, -10.0)
        config = SolverConfig(b=1.0, eta=0.5, q=build_distribution([1.0, 0.0, 0.0]), n_point=n_point,
                              n_inner=n_inner)
    return Dataset(x, y), config


def random_case(regime, m, n_point, n_inner, seed):
    """Random rows over d <= 4 attributes (repeated point draws are
    common), y = 0 on the first rows and on a tenth of the rest, and a
    random q; the improved p and AdaGrad on some seeds."""
    rng = np.random.default_rng(seed)
    d = 1 + seed % 4
    x = rng.uniform(-1.0, 1.0, (m, d))
    y = rng.uniform(-1.0, 1.0, m)
    y[:5] = 0.0
    y[rng.random(m) < 0.1] = 0.0
    config = SolverConfig(b=1.0, eta=0.3, q=build_distribution(rng.uniform(0.1, 1.0, d)), n_point=n_point,
                          n_inner=n_inner, moments=rng.uniform(0.1, 1.0, d) if seed % 2 else None,
                          adagrad=seed % 3 == 0)
    return Dataset(x, y), config


def sparse_rows(rng, m, d):
    """Rows whose entries are mostly 0, so that most point values are 0;
    y = 0 on the first _BLOCK_ROWS + 30 rows and on a tenth of the rest,
    and the 20 rows after those leading zeros are all zero with y != 0."""
    x = rng.uniform(-1.0, 1.0, (m, d)) * (rng.random((m, d)) < 0.2)
    y = rng.uniform(-1.0, 1.0, m)
    y[rng.random(m) < 0.1] = 0.0
    lead = _BLOCK_ROWS + 30
    y[:lead] = 0.0
    x[lead:lead + 20] = 0.0
    return x, y


def sparse_case(regime, m, n_point, n_inner, seed):
    """A zero iterate through examples that cannot move it: sparse_rows on
    six attributes, a random q, the improved p on odd seeds; ridge starts
    at zero."""
    rng = np.random.default_rng(seed)
    d = 6
    x, y = sparse_rows(rng, m, d)
    config = SolverConfig(b=1.0, eta=0.3, q=build_distribution(rng.uniform(0.1, 1.0, d)), n_point=n_point,
                          n_inner=n_inner, moments=rng.uniform(0.1, 1.0, d) if seed % 2 else None,
                          initial_w=np.zeros(d) if regime is Regime.L2 else None)
    return Dataset(x, y), config


# (rows, n_point, n_inner): both sides of the block size, 1 to 4 point and 1 to 10 inner draws
SHAPES = ((1, 2, 3), (_BLOCK_ROWS - 1, 1, 1), (_BLOCK_ROWS, 2, 10), (_BLOCK_ROWS + 1, 4, 2),
          (2 * _BLOCK_ROWS + 1, 3, 7))


@pytest.mark.parametrize("m, n_point, n_inner", SHAPES)
@pytest.mark.parametrize("regime", [Regime.L2, Regime.LINF])
@pytest.mark.parametrize("make_case", [returning_case, random_case])
def test_pass_across_blocks_matches_reference_loop(make_case, regime, m, n_point, n_inner):
    seed = m + n_point + n_inner
    dataset, config = make_case(regime, m, n_point, n_inner, seed)
    got = assert_same_pass(dataset, config, regime, seed)
    if make_case is returning_case and m > 1:
        assert got.zero_weight_steps > 10  # zero iterates throughout the pass, not only at its start


@pytest.mark.parametrize("n_point, n_inner", [(1, 1), (2, 3), (4, 7)])
@pytest.mark.parametrize("regime", [Regime.L2, Regime.LINF])
def test_zero_run_across_blocks_matches_reference_loop(regime, n_point, n_inner):
    """A run of examples that cannot move a zero iterate (y = 0, or only
    0 point values) is laid n_point uniforms per example, past the block
    size; the pass still matches the reference loop and its next draw."""
    seed = n_point + n_inner
    dataset, config = sparse_case(regime, 2 * _BLOCK_ROWS + 1, n_point, n_inner, seed)
    got = assert_same_pass(dataset, config, regime, seed)
    assert got.zero_weight_steps > _BLOCK_ROWS + 50


def test_leading_zero_targets_take_one_block(monkeypatch):
    """A lasso pass whose first 50 targets are 0 builds its point estimates
    in 3 blocks: the first step, the zero run up to the first example that
    moves the iterate, and the rest (it was one block per example)."""
    blocks = []

    def counting(x, q, draws):
        blocks.append(len(x))
        return estimate_point(x, q, draws)

    monkeypatch.setattr(estimator, "estimate_point", counting)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1.0, 1.0, (500, 6)), rng.uniform(-1.0, 1.0, 500)
    y[:50] = 0.0
    config = SolverConfig(b=1.0, eta=0.3, q=uniform_distribution(6), n_point=2, n_inner=3)
    got = run_gaelr(Dataset(x, y), config, 7)
    assert got.zero_weight_steps >= 51
    assert len(blocks) <= 3


TWO_PHASE_M1 = _BLOCK_ROWS + 76


def assert_same_two_phase(x, y, regime, eta):
    """run_two_phase on the first TWO_PHASE_M1 examples as phase 1 and the
    rest as phase 2 equals the reference phases; returns the reference
    phase 1's result."""
    m1, m2, k, n_inner, eps = TWO_PHASE_M1, len(y) - TWO_PHASE_M1, 3, 2, 0.01
    d = x.shape[1]
    ctx = RunContext(regime=regime, b=1.0, n_point=k, n_inner=n_inner, improved_p=True, epsilon_override=eps)
    config = TwoPhaseConfig(m1=m1, m2=m2, ctx=ctx, eta=eta)
    live_rng = np.random.default_rng(5)
    got = run_two_phase(Dataset(x, y), config, live_rng)
    initial, ref_step, _ = PASSES[regime]
    ref_rng = np.random.default_rng(5)
    uniform = uniform_distribution(d)
    ref_q1 = RefDistribution(uniform.probabilities)
    counts, sums = np.zeros(d, dtype=int), np.zeros(d)

    def phase1_step(state, xt, yt, c, r):
        idx = ref_sample_index(ref_q1, r.random(c.n_point))
        np.add.at(counts, idx, 1)
        np.add.at(sums, idx, xt[idx] ** 2)
        ref_step(state, xt, yt, c, r, ref_q1, ref_estimate_from_indices(xt, ref_q1, idx))

    cfg1 = SolverConfig(b=1.0, eta=eta, q=uniform, n_point=k, n_inner=n_inner)
    phase1 = ref_run_pass(Dataset(x[:m1], y[:m1]), cfg1, ref_rng, regime, initial, phase1_step)
    a = np.zeros(d)
    a[counts > 0] = sums[counts > 0] / counts[counts > 0]
    q2 = smoothed_q(a, eps, regime)
    w1 = phase1.predictor.weights
    cfg2 = SolverConfig(b=1.0, eta=eta, q=q2, n_point=k, n_inner=n_inner, moments=a,
                        initial_w=w1 if np.any(w1 != 0) else None)
    ref_q2 = RefDistribution(q2.probabilities)
    phase2 = ref_run_pass(Dataset(x[m1:], y[m1:]), cfg2, ref_rng, regime, initial,
                          lambda s, xt, yt, c, r: ref_step(s, xt, yt, c, r, ref_q2))

    table = got.info["moment_table"]
    assert table.m1 == m1
    assert same_bits(table.counts, counts) and same_bits(table.square_sums, sums)
    assert same_bits(got.info["smoothed_q"], q2.probabilities)
    assert same_bits(got.predictor.weights, phase2.predictor.weights)
    assert got.info["phase1_budget"] == phase1.attributes_consumed
    assert got.zero_weight_steps == phase1.zero_weight_steps + phase2.zero_weight_steps
    assert same_bits(live_rng.random(3), ref_rng.random(3))
    return phase1


@pytest.mark.parametrize("returning", [False, True])
@pytest.mark.parametrize("regime", [Regime.L2, Regime.LINF])
def test_two_phase_matches_reference_phases(regime, returning):
    """run_two_phase against the reference per-step loop: phase 1 tables
    each step's raw point draws before the step, phase 2 samples from
    the smoothed table and starts at phase 1's average, and both draw
    from one Generator, which ends at the same next draw.  With
    ``returning`` there is one attribute, and the phase-1 iterate returns
    to exactly zero in the middle of its blocks (ridge starts at b/2 and
    steps by eta phi = 1/2; lasso as in returning_case)."""
    rng = np.random.default_rng(11)
    m = TWO_PHASE_M1 + 300
    if returning:
        x = np.ones((m, 1))
        y = level_targets(rng, m, 1.0, -0.5, away=True) if regime is Regime.L2 else \
            level_targets(rng, m, 10.0, -10.0)
    else:
        x = rng.uniform(-1.0, 1.0, (m, 5))
        y = rng.uniform(-1.0, 1.0, m)
        y[:3] = 0.0
    phase1 = assert_same_two_phase(x, y, regime, 0.5 if returning else 0.2)
    if returning:
        assert phase1.zero_weight_steps > 10


def test_two_phase_zero_run_matches_reference_phases():
    """Lasso run_two_phase on sparse_rows: phase 1's iterate starts at zero
    (ridge's starts inside the ball) and stays there past the block size
    and through examples with y != 0 but only 0 point values, and its
    moment table still gets every consumed example's draws."""
    x, y = sparse_rows(np.random.default_rng(13), TWO_PHASE_M1 + 300, 6)
    phase1 = assert_same_two_phase(x, y, Regime.LINF, 0.2)
    assert phase1.zero_weight_steps > _BLOCK_ROWS + 30
