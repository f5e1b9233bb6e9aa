import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetreg.core import Regime, norm
from budgetreg.sampling import (
    AttributeDistribution,
    build_distribution,
    improved_inner_product_p,
    inner_product_p,
    lasso_optimal_q,
    moment_roots,
    ridge_optimal_q,
    sample_index,
    uniform_distribution,
)


def random_simplex(d, rng):
    v = rng.exponential(size=d)
    return v / v.sum()


def test_build_distribution_examples():
    np.testing.assert_allclose(build_distribution([1.0, 1.0, 1.0, 1.0]).probabilities, [0.25] * 4)
    np.testing.assert_allclose(build_distribution([2.0, 0.0, 0.0]).probabilities, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(build_distribution([1.0, 3.0]).probabilities, [0.25, 0.75])


def test_build_distribution_errors():
    with pytest.raises(ValueError, match="invalid weights"):
        build_distribution([1.0, -1.0])
    with pytest.raises(ValueError, match="invalid weights"):
        build_distribution([0.0, 0.0])
    with pytest.raises(ValueError, match="invalid weights"):
        build_distribution([np.inf, 1.0])
    with pytest.raises(ValueError, match="zero dimension"):
        build_distribution([])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="invalid weights: probabilities must sum to 1"):
        build_distribution([1e308, 1e308])


def test_builders_leave_the_callers_weights_unchanged():
    for build in (build_distribution, ridge_optimal_q, lasso_optimal_q):
        w = np.array([0.5, 0.25, 2.0])
        build(w)
        np.testing.assert_array_equal(w, [0.5, 0.25, 2.0])


def test_attribute_distribution_checks_sum():
    with pytest.raises(ValueError, match="invalid weights"):
        AttributeDistribution([0.5, 0.4])
    with pytest.raises(ValueError, match="invalid weights"):
        AttributeDistribution([-0.5, 1.5])
    d = AttributeDistribution([0.5, 0.5])
    assert d.dimension == 2
    np.testing.assert_allclose(d.cumulative, [0.5, 1.0])


def test_uniform_distribution():
    np.testing.assert_allclose(uniform_distribution(4).probabilities, [0.25] * 4)
    with pytest.raises(ValueError, match="zero dimension"):
        uniform_distribution(0)


def test_sample_index_examples():
    np.testing.assert_array_equal(sample_index(uniform_distribution(4), np.array([0.10])), [0])
    np.testing.assert_array_equal(sample_index(build_distribution([1.0, 0.0, 0.0]), np.array([0.99])), [0])
    np.testing.assert_array_equal(sample_index(build_distribution([1.0, 3.0]), np.array([0.5])), [1])


def test_sample_index_segment_edges():
    q = build_distribution([1.0, 3.0])
    # cumulative = [0.25, 1.0]; the right boundary belongs to the next index
    np.testing.assert_array_equal(sample_index(q, np.array([0.0, 0.25 - 1e-12, 0.25, 1.0 - 1e-16])), [0, 0, 1, 1])


def test_sample_index_never_returns_zero_mass():
    q = build_distribution([1.0, 0.0, 1.0])
    draws = np.linspace(0.0, 1.0 - 1e-12, 2001)
    idx = sample_index(q, draws)
    assert set(np.unique(idx)) <= {0, 2}
    # array draws keep their shape
    assert idx.shape == draws.shape


def test_sample_index_frequencies_match():
    q = build_distribution([0.2, 0.5, 0.3])
    rng = np.random.default_rng(7)
    n = 1_000_000
    idx = sample_index(q, rng.random(n))
    freq = np.bincount(idx, minlength=3) / n
    se = np.sqrt(q.probabilities * (1 - q.probabilities) / n)
    assert np.all(np.abs(freq - q.probabilities) <= 3 * se)


def test_ridge_optimal_q_examples():
    np.testing.assert_allclose(
        ridge_optimal_q([0.64, 0.04, 0.04]).probabilities, [2 / 3, 1 / 6, 1 / 6], atol=1e-15
    )
    np.testing.assert_allclose(ridge_optimal_q([0.3, 0.3, 0.3]).probabilities, [1 / 3] * 3)


def test_lasso_optimal_q_examples():
    np.testing.assert_allclose(lasso_optimal_q([0.5, 0.25, 0.25]).probabilities, [0.5, 0.25, 0.25])
    np.testing.assert_allclose(lasso_optimal_q([2.0, 2.0]).probabilities, [0.5, 0.5])


def test_optimal_q_rejects_degenerate_moments():
    for fn in (ridge_optimal_q, lasso_optimal_q):
        with pytest.raises(ValueError, match="degenerate moments"):
            fn([0.1, -0.1])
        with pytest.raises(ValueError, match="degenerate moments"):
            fn([0.0, 0.0])
        for bad in ([np.inf, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="degenerate moments"):
                fn(bad)
        with pytest.raises(ValueError, match="zero dimension"):
            fn([])


def test_ridge_q_minimizes_weighted_inverse_sum():
    """At q* the objective sum_i m_i/q_i equals ||m||_{1/2} and no simplex
    point does better."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.random(3) + 0.01
        q = ridge_optimal_q(m)
        opt = float(np.sum(m / q.probabilities))
        assert opt == pytest.approx(norm(m, 0.5), rel=1e-12)
        uni = uniform_distribution(3)
        assert np.sum(m / uni.probabilities) >= opt - 1e-9
        for _ in range(200):
            cand = random_simplex(3, rng)
            assert np.sum(m / cand) >= opt - 1e-9


def test_lasso_q_minimizes_worst_ratio():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.random(3) + 0.01
        q = lasso_optimal_q(m)
        ratios = m / q.probabilities
        opt = float(ratios.max())
        assert opt == pytest.approx(norm(m, 1), rel=1e-12)
        np.testing.assert_allclose(ratios, opt)
        for _ in range(200):
            cand = random_simplex(3, rng)
            assert np.max(m / cand) >= opt - 1e-9


def test_inner_product_p_examples():
    np.testing.assert_allclose(inner_product_p([1.0, 1.0], Regime.L2).probabilities, [0.5, 0.5])
    np.testing.assert_allclose(inner_product_p([3.0, 4.0], Regime.L2).probabilities, [9 / 25, 16 / 25])
    np.testing.assert_allclose(inner_product_p([1.0, -3.0], Regime.LINF).probabilities, [0.25, 0.75])


def test_inner_product_p_zero_weight_error():
    for regime in (Regime.L2, Regime.LINF):
        with pytest.raises(ValueError, match="invalid weights: all weights are zero"):
            inner_product_p([0.0, 0.0], regime)
    with pytest.raises(ValueError, match="zero dimension"):
        inner_product_p([], Regime.L2)


def test_improved_inner_product_p_examples():
    np.testing.assert_allclose(
        improved_inner_product_p([1.0, 1.0], moment_roots([4.0, 1.0], 2), Regime.L2).probabilities,
        [2 / 3, 1 / 3],
    )
    np.testing.assert_allclose(
        improved_inner_product_p([2.0, 1.0], moment_roots([1.0, 4.0], 2), Regime.L2).probabilities,
        [0.5, 0.5],
    )


def test_improved_inner_product_p_falls_back_on_dead_support():
    # a zero moment estimate on the support would break unbiasedness
    p = improved_inner_product_p([1.0, 1.0], moment_roots([1.0, 0.0], 2), Regime.L2)
    np.testing.assert_allclose(p.probabilities, inner_product_p([1.0, 1.0], Regime.L2).probabilities)
    p = improved_inner_product_p([1.0, -3.0], moment_roots([0.0, 0.0], 2), Regime.LINF)
    np.testing.assert_allclose(p.probabilities, [0.25, 0.75])


def test_improved_inner_product_p_with_a_given_count_equals_its_own_count():
    """A caller's np.count_nonzero(w) gives the p and fallback of the call
    that counts for itself, an underflowing |w_i| * sqrt(E[x_i^2]) included."""
    cases = [
        ([1.0, 1.0], [4.0, 1.0]),
        ([1.0, 0.0, -2.0], [1.0, 1.0, 0.0]),  # a zero moment on the support: fallback
        ([0.0, 3.0], [0.0, 1.0]),  # a zero moment off the support: no fallback
        ([1e-200, 1.0], [1e-300, 1.0]),  # 1e-200 * 1e-150 underflows to 0 though neither factor is 0
    ]
    for w, moments in cases:
        roots = moment_roots(moments, len(w))
        for regime in (Regime.L2, Regime.LINF):
            own = improved_inner_product_p(w, roots, regime)
            given = improved_inner_product_p(w, roots, regime, np.count_nonzero(w))
            assert given.fallback == own.fallback
            assert given.probabilities.tobytes() == own.probabilities.tobytes()
            assert given.cumulative.tobytes() == own.cumulative.tobytes()
    assert improved_inner_product_p([1e-200, 1.0], moment_roots([1e-300, 1.0], 2), Regime.L2, 2).fallback


def test_improved_inner_product_p_errors():
    with pytest.raises(ValueError, match="invalid weights: all weights are zero"):
        improved_inner_product_p([0.0], moment_roots([1.0], 1), Regime.L2)
    with pytest.raises(ValueError, match="zero dimension"):
        improved_inner_product_p([], np.zeros(0), Regime.L2)
    with pytest.raises(ValueError, match="moment vector length mismatch"):
        moment_roots([1.0], 2)
    for bad in ([-1.0], [np.nan], [np.inf]):
        with pytest.raises(ValueError, match="degenerate moments"):
            moment_roots(bad, 1)


@st.composite
def p_inputs(draw):
    """An iterate with runs of zeros (trailing ones included), moments
    that may be zero on or off its support, a regime and a p mode."""
    d = draw(st.integers(1, 10))
    magnitude = st.floats(1e-3, 10.0)
    w = np.array([draw(st.sampled_from([0.0, 0.0, 1.0, -1.0])) * draw(magnitude) for _ in range(d)])
    w = np.concatenate([w, np.zeros(draw(st.integers(0, 3)))])
    if not w.any():
        w[draw(st.integers(0, w.size - 1))] = draw(magnitude)
    moments = np.array([draw(st.sampled_from([0.0, 1.0, 1.0])) * draw(st.floats(1e-3, 2.0)) for _ in w])
    regime = draw(st.sampled_from([Regime.L2, Regime.LINF]))
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
    return w, moments, regime, draw(st.booleans()), u


@settings(max_examples=300, deadline=None)
@given(p_inputs())
def test_step_p_equals_validated_distribution(case):
    """The per-step p builders skip re-validation; their p must still be
    bit for bit the validated distribution of the same weights, and draws
    from it (past the top of the table included) must match."""
    w, moments, regime, improved, u = case
    standard = w * w if regime == Regime.L2 else np.abs(w)
    falls_back = improved and bool(np.any((w != 0) & (moments == 0)))
    roots = moment_roots(moments, w.size)
    if improved and not falls_back:
        weights = np.abs(w) * np.sqrt(moments)
        p = improved_inner_product_p(w, roots, regime)
    else:
        weights = standard
        p = improved_inner_product_p(w, roots, regime) if improved else inner_product_p(w, regime)
    assert p.fallback == falls_back
    ref = AttributeDistribution(weights / weights.sum())
    assert p.probabilities.tobytes() == ref.probabilities.tobytes()
    assert p.cumulative.tobytes() == ref.cumulative.tobytes()
    draws = np.array(u + [np.nextafter(1.0, 0.0)] + [c for c in ref.cumulative if c < 1.0])
    got = sample_index(p, draws)
    np.testing.assert_array_equal(got, sample_index(ref, draws))
    # oracle: the first index whose cumulative mass exceeds u, or past the
    # top of the table the last index with mass
    last = int(np.flatnonzero(ref.probabilities)[-1])
    for ui, gi in zip(draws, got):
        above = np.flatnonzero(ref.cumulative > ui)
        assert gi == (above[0] if above.size else last)
        assert sample_index(p, np.array([ui]))[0] == gi
        assert ref.probabilities[gi] > 0
