"""The budgeted step, pinned bit for bit to the implementation it replaced.

The step path was made cheaper (fewer numpy calls, ufuncs called
directly, the EG threshold checked on the updated entries only) without
changing a result.  The helpers below are that earlier implementation,
kept as the reference: a hypothesis property drives both through the
same draws and requires identical iterates, averages, AdaGrad sums and
counters after every step, and identical results from a whole pass.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from budgetreg.core import Dataset, Predictor, Regime, RunResult
from budgetreg.estimator import DELTA_ADA, SolverConfig, SparseEstimate, estimate_from_indices
from budgetreg.sampling import build_distribution, sample_index, uniform_distribution
from budgetreg.solver_lasso import EGState, gaelr_step, run_gaelr
from budgetreg.solver_ridge import RidgeState, gaerr_step, run_gaerr

BELOW_ONE = float(np.nextafter(1.0, 0.0))  # the largest draw in [0, 1)


# ---- the reference step ----------------------------------------------------

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
        raise ValueError("zero weight vector" if total == 0.0 else "invalid weights")
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
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = initial_state(d, config)
    xs, ys = dataset.x, dataset.y
    for t in range(len(dataset)):
        step(state, xs[t], float(ys[t]), config, rng)
    predictor = Predictor(state.sum_w / state.steps, config.b, regime)
    return RunResult(predictor, state.attributes_consumed, state.zero_weight_steps, p_fallbacks=state.p_fallbacks)


# ---- the property ----------------------------------------------------------

class CycledDraws:
    """Stands in for a Generator: hands out the given uniforms in a cycle."""

    def __init__(self, draws):
        self.draws = draws
        self.pos = 0

    def random(self, n):
        out = [self.draws[(self.pos + i) % len(self.draws)] for i in range(n)]
        self.pos += n
        return np.array(out)


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
    as the reference step, given the same draws; so does a whole pass."""
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
        live_est = ref_est = None
        if external:  # the point draws shared with a moment table, as the two-phase warm start makes them
            idx = sample_index(config.q, live_rng.random(config.n_point))
            live_est = estimate_from_indices(x[t], config.q, idx)
            ref_idx = ref_sample_index(ref_q, ref_rng.random(config.n_point))
            ref_est = ref_estimate_from_indices(x[t], ref_q, ref_idx)
            assert same_bits(live_est.indices, ref_est.indices) and same_bits(live_est.values, ref_est.values)
        _, live_error = outcome(lambda: step(live, x[t], float(y[t]), config, live_rng, point_estimate=live_est))
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
