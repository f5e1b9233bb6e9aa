"""Exact enumeration oracles for the sparse estimates.

Every uniform draw in [0, 1) maps to an index through the inverse CDF, so
expectations over the estimator's randomness are finite sums: enumerate
index combinations, weight each by its probability, and feed the solver
the midpoint of the matching CDF segment.  The gradient enumerations run
estimate_point, which builds a pass's point estimates a block at a
time, and draw_step, the draw every solver step makes, with a scripted
stream of those midpoints in place of the solver's generator.
"""

import itertools

import numpy as np
import pytest

from budgetreg.core import Regime, norm
from budgetreg.estimator import (
    SolverConfig,
    draw_step,
    estimate_phi,
    estimate_point,
)
from budgetreg.sampling import build_distribution, inner_product_p, uniform_distribution
from budgetreg.solver_ridge import RidgeState
from stepping import dense

BELOW_ONE = float(np.nextafter(1.0, 0.0))  # the largest draw in [0, 1)


def draw_for(dist, i):
    """Uniform draw placed mid-segment so sample_index returns i."""
    left = dist.cumulative[i - 1] if i > 0 else 0.0
    return left + dist.probabilities[i] / 2.0


def support(dist):
    return [i for i in range(dist.dimension) if dist.probabilities[i] > 0]


class ScriptedDraws:
    """Stands in for a solver's Generator: hands out fixed draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, n):
        out, self.draws = self.draws[:n], self.draws[n:]
        return np.array(out)


def fresh_state(d):
    return RidgeState(w=np.zeros(d), sum_w=np.zeros(d))


def enumerate_gradient(x, y, w, q, k, n_inner=1):
    """E[g~] and E[phi~] over every draw combination of one ridge step."""
    config = SolverConfig(b=1.0, eta=1.0, q=q, n_point=k, n_inner=n_inner)
    mean_g = np.zeros(len(x))
    mean_phi = 0.0
    if np.any(w != 0):
        p = inner_product_p(w, Regime.L2)
        inner = list(itertools.product(support(p), repeat=n_inner))
    else:
        inner = [()]  # a zero iterate draws no inner-product attribute
    for combo in itertools.product(support(q), repeat=k):
        wq = float(np.prod([q.probabilities[i] for i in combo]))
        us = [draw_for(q, i) for i in combo]
        for js in inner:
            weight = wq * float(np.prod([p.probabilities[j] for j in js]))
            rng = ScriptedDraws(us + [draw_for(p, j) for j in js])
            point = dense(estimate_point(x[None], q, rng.random(k)[None]), len(x))[0]
            phi = draw_step(fresh_state(len(x)), w, x, y, config, rng.random(len(js)), Regime.L2)
            assert rng.draws == []
            mean_g += weight * phi * point
            mean_phi += weight * phi
    return mean_g, mean_phi


def test_estimate_point_single_attribute():
    q = build_distribution([1.0])
    drawn, values = block = estimate_point(np.array([[0.5]]), q, np.array([[0.1, 0.5, 0.9]]))
    np.testing.assert_array_equal(drawn, [[0, 0, 0]])
    np.testing.assert_allclose(values, [[0.5, 0.5, 0.5]])
    np.testing.assert_allclose(dense(block, 1), [[0.5]])


def test_estimate_point_degenerate_q():
    q = build_distribution([1.0, 0.0])
    drawn, values = estimate_point(np.array([[0.3, 0.0]]), q, np.array([[0.7]]))
    np.testing.assert_array_equal(drawn, [[0]])
    np.testing.assert_allclose(values, [[0.3]])


def test_estimate_point_merges_duplicates():
    """Rows with and without repeated draws in one block: each row keeps
    its draws sorted, repeats included, and every draw of an index
    carries the merged estimate count * x / (k q)."""
    q = uniform_distribution(2)
    x = np.array([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
    draws = np.array([[0.1, 0.2, 0.9], [0.9, 0.1, 0.6], [0.7, 0.8, 0.6]])
    drawn, values = estimate_point(x, q, draws)
    np.testing.assert_array_equal(drawn, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    np.testing.assert_allclose(values, [[4 / 3, 4 / 3, 4 / 3], [2.0, 20 / 3, 20 / 3], [22.0, 22.0, 22.0]])


def test_estimate_point_matches_unique_formula_enumeration():
    """Every index tuple of k <= 4 draws over d = 4, all in one block per k
    and each alone in a block of one row: each row holds its draws sorted
    and, at every draw of an index, counts * x / (k q) of np.unique, bit
    for bit, so equal draws carry bit-identical values."""
    x = np.array([0.3, -1.7, 1.0 / 3.0, 2.9e-3])
    q = build_distribution([1.0, 3.0, 7.0, 11.0])
    for k in range(1, 5):
        combos = list(itertools.product(range(4), repeat=k))
        draws = np.array([[draw_for(q, i) for i in combo] for combo in combos])
        rows = np.tile(x, (len(combos), 1)) * np.arange(1, len(combos) + 1)[:, None]
        drawn, values = estimate_point(rows, q, draws)
        assert drawn.dtype == np.intp and drawn.shape == values.shape == (len(combos), k)
        for r, combo in enumerate(combos):
            idx = np.array(combo, dtype=np.intp)
            uniq, counts = np.unique(idx, return_counts=True)
            expected = np.repeat(counts * rows[r][uniq] / (k * q.probabilities[uniq]), counts)
            assert drawn[r].tobytes() == np.sort(idx).tobytes(), combo
            assert values[r].tobytes() == expected.tobytes(), combo
            alone_drawn, alone_values = estimate_point(rows[r:r + 1], q, draws[r:r + 1])
            assert alone_drawn.tobytes() == drawn[r].tobytes() and alone_values.tobytes() == expected.tobytes(), combo


def test_estimate_point_draws_past_the_top_of_the_table():
    """Uniform q over 6 attributes sums to just below 1; a draw at or above
    that sum resolves to the last attribute, alone and next to other rows."""
    q = uniform_distribution(6)
    assert q.cumulative[-1] <= BELOW_ONE < 1.0
    x = np.arange(1.0, 19.0).reshape(3, 6)
    draws = np.array([[BELOW_ONE, 0.0], [BELOW_ONE, BELOW_ONE], [0.5, 0.99]])
    drawn, values = estimate_point(x, q, draws)
    np.testing.assert_array_equal(drawn, [[0, 5], [5, 5], [3, 5]])
    merged = 2 * 12.0 / (2 * q.probabilities[5])
    np.testing.assert_array_equal(values, [[1.0 / (2 * q.probabilities[0]), 6.0 / (2 * q.probabilities[5])],
                                           [merged, merged],
                                           [16.0 / (2 * q.probabilities[3]), 18.0 / (2 * q.probabilities[5])]])


def test_estimate_point_unbiased_enumeration():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        for k in (1, 2):
            for _ in range(10):
                x = rng.standard_normal(d)
                q = build_distribution(rng.random(d) + 0.05)
                mean = np.zeros(d)
                for combo in itertools.product(range(d), repeat=k):
                    w = float(np.prod([q.probabilities[i] for i in combo]))
                    us = np.array([draw_for(q, i) for i in combo])
                    mean += w * dense(estimate_point(x[None], q, us[None]), d)[0]
                np.testing.assert_allclose(mean, x, atol=1e-12)


def test_estimate_inner_product_zero_weight():
    # a zero iterate gives phi = -y exactly and leaves the inner draw
    # unused, but the step is still charged n_point + n_inner
    q = build_distribution([1.0])
    state = fresh_state(1)
    config = SolverConfig(b=1.0, eta=1.0, q=q, n_point=1, n_inner=1)
    phi = draw_step(state, np.array([0.0]), np.array([1.0]), 2.0, config, np.array([np.nan]), Regime.L2)
    assert phi == -2.0
    assert state.zero_weight_steps == 1 and state.attributes_consumed == 2


def test_estimate_inner_product_single_attribute():
    p = build_distribution([1.0])
    phi = estimate_phi(np.array([0.8]), 0.0, np.array([0.5]), p, np.array([0.3]))
    assert phi == pytest.approx(0.4)


def test_estimate_inner_product_unbiased():
    w = np.array([0.5, 1.0])
    x = np.array([0.6, 0.4])
    p = inner_product_p(w, Regime.L2)
    mean = sum(
        p.probabilities[j] * estimate_phi(x, 0.0, w, p, np.array([draw_for(p, j)]))
        for j in support(p)
    )
    assert mean == pytest.approx(0.7, abs=1e-12)
    # two averaged draws stay unbiased
    mean = sum(
        p.probabilities[i] * p.probabilities[j]
        * estimate_phi(x, 0.0, w, p, np.array([draw_for(p, i), draw_for(p, j)]))
        for i in support(p) for j in support(p)
    )
    assert mean == pytest.approx(0.7, abs=1e-12)


def test_gradient_estimate_budget():
    q = uniform_distribution(2)
    x, y = np.array([0.5, 0.5]), 0.2
    config = SolverConfig(b=1.0, eta=1.0, q=q, n_point=3, n_inner=1)
    for w, zero_steps in ((np.array([1.0, 0.0]), 0), (np.array([0.0, 0.0]), 1)):
        state = fresh_state(2)
        phi = draw_step(state, w, x, y, config, np.array([0.2]), Regime.L2)
        assert state.attributes_consumed == 4
        assert state.steps == 1 and state.zero_weight_steps == zero_steps
        np.testing.assert_array_equal(state.sum_w, w)
    assert phi == -0.2


def test_gradient_estimate_unbiased_enumeration():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3):
        for k in (1, 2):
            for n_inner in (1, 2):
                for _ in range(5):
                    x = rng.standard_normal(d)
                    y = float(rng.standard_normal())
                    w = rng.standard_normal(d)
                    q = build_distribution(rng.random(d) + 0.05)
                    mean_g, mean_phi = enumerate_gradient(x, y, w, q, k, n_inner)
                    expected = (float(w @ x) - y) * x
                    np.testing.assert_allclose(mean_g, expected, atol=1e-12)
                    assert mean_phi == pytest.approx(float(w @ x) - y, abs=1e-12)


def test_gradient_estimate_zero_weight_enumeration():
    x = np.array([0.3, -0.2])
    q = build_distribution([0.4, 0.6])
    mean_g, mean_phi = enumerate_gradient(x, 1.5, np.zeros(2), q, 2)
    np.testing.assert_allclose(mean_g, -1.5 * x, atol=1e-12)
    assert mean_phi == pytest.approx(-1.5)


def test_point_estimate_second_moment_formula():
    # single draw: E||x~||^2 = sum_i x_i^2 / q_i
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(3)
        q = build_distribution(rng.random(3) + 0.05)
        second = sum(
            q.probabilities[i] * float(np.sum(dense(estimate_point(x[None], q, np.array([[draw_for(q, i)]])), 3) ** 2))
            for i in range(3)
        )
        assert second == pytest.approx(float(np.sum(x**2 / q.probabilities)), rel=1e-12)


def test_point_estimate_variance_decomposition():
    # k averaged draws: E||x~||^2 = (1/k) E||x~_r||^2 + ((k-1)/k) ||x||^2
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for k in (1, 2):
            for _ in range(5):
                x = rng.standard_normal(d)
                q = build_distribution(rng.random(d) + 0.05)
                second = 0.0
                for combo in itertools.product(range(d), repeat=k):
                    wgt = float(np.prod([q.probabilities[i] for i in combo]))
                    us = np.array([draw_for(q, i) for i in combo])
                    second += wgt * float(np.sum(dense(estimate_point(x[None], q, us[None]), d) ** 2))
                single = float(np.sum(x**2 / q.probabilities))
                expected = single / k + (k - 1) / k * float(np.sum(x**2))
                assert second == pytest.approx(expected, abs=1e-12, rel=1e-12)


def test_phi_second_moment_bounded():
    # ||w|| <= B, ||x|| <= 1, |y| <= B give E[phi~^2] <= 4 B^2 under the
    # regime-matched sampling distribution
    rng = np.random.default_rng(9)
    b = 2.0
    for regime in (Regime.L2, Regime.LINF):
        for _ in range(50):
            w = rng.standard_normal(4)
            w *= b * rng.random() / norm(w, 2 if regime == Regime.L2 else 1)
            x = rng.standard_normal(4)
            x *= rng.random() / norm(x, 2 if regime == Regime.L2 else np.inf)
            y = float(b * (2 * rng.random() - 1))
            p = inner_product_p(w, regime)
            second = sum(
                p.probabilities[j] * estimate_phi(x, y, w, p, np.array([draw_for(p, j)])) ** 2
                for j in support(p)
            )
            assert second <= 4 * b * b + 1e-9
