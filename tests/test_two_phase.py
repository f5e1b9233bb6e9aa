import dataclasses
import math

import numpy as np
import pytest

from budgetreg.core import Dataset, Regime, norm
from budgetreg.datagen import generate_dataset, power_law_means, random_target_weights
from budgetreg.harness import RunContext
from budgetreg.sampling import sample_index, uniform_distribution
from budgetreg.solver_ridge import default_initial_w
from budgetreg.two_phase import (
    MomentTable,
    TwoPhaseConfig,
    epsilon,
    estimate_half_norm,
    lasso_eta_two_phase,
    ridge_eta_two_phase,
    run_two_phase,
    smoothed_q,
)


def two_phase_config(m1, m2, b, k, regime, eta=None, n_inner=1, improved_p=False, epsilon_override=None):
    """A TwoPhaseConfig whose RunContext takes the standard p and the
    theoretical eps for q unless told otherwise."""
    ctx = RunContext(regime=regime, b=b, n_point=k, n_inner=n_inner, improved_p=improved_p,
                     epsilon_override=epsilon_override)
    return TwoPhaseConfig(m1, m2, ctx, eta)


def make_dataset(d, m, seed, regime, alpha=-1.0):
    u = power_law_means(d, alpha, regime)
    w_star = random_target_weights(d, regime, seed)
    return generate_dataset(u, w_star, m, regime, seed)


def test_estimate_moments_constant_ones():
    table = MomentTable(4)
    table.add(np.tile(np.arange(4), (30, 1)), np.ones((30, 4)))
    assert (table.counts > 0).all()
    np.testing.assert_allclose(table.A, np.ones(4))
    assert table.counts.sum() == 30 * 4
    assert table.m1 == 30


def test_estimate_moments_single_attribute():
    # repeated draws of one index are tabled one by one
    x = np.array([[0.2], [0.4], [0.6]])
    table = MomentTable(1)
    table.add(np.zeros((3, 3), dtype=int), x)
    assert table.counts[0] == 3 * 3
    assert table.A[0] == pytest.approx(float(np.mean(x**2)))


def test_estimate_moments_constant_example():
    # every observation of a coordinate sees the same square, so A is exact
    rng = np.random.default_rng(2)
    uniform = uniform_distribution(2)
    table = MomentTable(2)
    table.add(sample_index(uniform, rng.random((200, 2))), np.tile([0.6, 0.3], (200, 1)))
    assert np.all(table.counts > 0)
    np.testing.assert_allclose(table.A, [0.36, 0.09], atol=1e-12)


def test_estimate_moments_empty_and_errors():
    table = MomentTable(3)
    np.testing.assert_array_equal(table.A, np.zeros(3))
    assert table.m1 == 0


def test_epsilon_values():
    eps = epsilon(10, 0.1, 5, 100, Regime.L2)
    assert eps == pytest.approx(10 * math.log(200) / 500, abs=1e-15)
    assert eps == pytest.approx(0.105966, abs=1e-6)


def test_epsilon_cap_and_errors():
    assert epsilon(10, 0.1, 2, 7, Regime.LINF) == 1.0  # raw width 3.78
    assert epsilon(10, 0.1, 2, 7, Regime.L2) == pytest.approx(10 * math.log(200) / 14)
    for regime in (Regime.L2, Regime.LINF):
        with pytest.raises(ValueError, match="draws and m1 must be positive"):
            epsilon(10, 0.1, 5, 0, regime)
    with pytest.raises(ValueError, match="delta must lie"):
        epsilon(10, 1.5, 5, 100, Regime.L2)
    with pytest.raises(ValueError, match="draws and m1 must be positive"):
        epsilon(10, 0.1, 0, 100, Regime.L2)
    with pytest.raises(ValueError, match="zero dimension"):
        epsilon(0, 0.1, 5, 100, Regime.L2)


def test_epsilon_scaling_law():
    base = epsilon(8, 0.05, 4, 50, Regime.L2)
    assert epsilon(8, 0.05, 4, 200, Regime.L2) == pytest.approx(base / 4, rel=1e-12)


def test_smoothed_q_uniform_under_pure_smoothing():
    q = smoothed_q(np.zeros(5), 0.3, Regime.L2)
    np.testing.assert_allclose(q.probabilities, [0.2] * 5)
    q = smoothed_q(np.zeros(4), 1.0, Regime.LINF)
    np.testing.assert_allclose(q.probabilities, [0.25] * 4)


def test_smoothed_q_ridge_square_root_weights():
    q = smoothed_q(np.array([0.36, 0.01]), 0.0, Regime.L2)
    np.testing.assert_allclose(q.probabilities, [6 / 7, 1 / 7], atol=1e-15)


def test_smoothed_q_lasso_direct_weights():
    # shift 13 eps / 6 = 0.5
    q = smoothed_q(np.array([0.3, 0.1]), 3 / 13, Regime.LINF)
    np.testing.assert_allclose(q.probabilities, [4 / 7, 3 / 7], atol=1e-15)


def test_smoothed_q_degenerate():
    # an all-zero table without smoothing degrades to uniform
    q = smoothed_q(np.zeros(3), 0.0, Regime.L2)
    np.testing.assert_allclose(q.probabilities, [1 / 3] * 3)
    with pytest.raises(ValueError, match="negative smoothing width"):
        smoothed_q(np.ones(3), -0.1, Regime.L2)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="smoothing width must be finite"):
            smoothed_q(np.ones(3), eps, Regime.L2)


def test_smoothed_q_floor_lifts_zeros():
    # (1 - d f) q + f with the floor f = 1e-9
    for regime in (Regime.L2, Regime.LINF):
        q = smoothed_q(np.array([1.0, 0.0]), 0.0, regime)
        np.testing.assert_array_equal(q.probabilities, [(1.0 - 2e-9) * 1.0 + 1e-9, 1e-9])
        assert q.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
    q = smoothed_q(np.array([0.36, 0.09, 0.0]), 0.0, Regime.L2)
    np.testing.assert_allclose(q.probabilities, [(1 - 3e-9) * 2 / 3 + 1e-9, (1 - 3e-9) / 3 + 1e-9, 1e-9],
                               rtol=1e-15, atol=0)


def test_estimate_half_norm_values():
    assert estimate_half_norm(np.array([0.5, 0.5]), 0.1) == pytest.approx(16 / 3, abs=1e-12)
    assert estimate_half_norm(np.zeros(4), 0.0) == 0.0


def test_ridge_eta_two_phase_values():
    assert ridge_eta_two_phase(1, 6, 1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="negative half-norm estimate"):
        ridge_eta_two_phase(1, 6, 1, -1.0, 0.0)
    # a huge half norm hands the choice to the moment-free branch
    k, d, m2 = 2, 5, 50
    assert ridge_eta_two_phase(m2, k, d, 1e9, 5 * math.log(100) / 30) == pytest.approx(
        math.sqrt(k / (6 * d * m2)), abs=1e-15
    )
    # vanishing width recovers the known-half-norm rate when it is better
    h = 0.04
    expected = max(math.sqrt(k / (6 * d * m2)), math.sqrt(k / (m2 * (2 * h + k))))
    assert ridge_eta_two_phase(m2, k, d, h, 0.0) == pytest.approx(expected, abs=1e-15)


def test_ridge_eta_two_phase_max_of_branches():
    k, d, m2, delta = 3, 4, 25, 0.1
    for m1, h in ((5, 0.2), (500, 1.3), (2, 7.0)):
        eps = d * math.log(2 * d / delta) / (k * m1)
        bracket = 2 * h + 2 * math.sqrt(5 / 3) * d * math.sqrt(h) * math.sqrt(eps) + k
        expected = max(math.sqrt(k / (6 * d * m2)), math.sqrt(k / (m2 * bracket)))
        assert ridge_eta_two_phase(m2, k, d, h, eps) == pytest.approx(expected, abs=1e-15)


def test_lasso_eta_two_phase_forms():
    k, d, b, m2 = 2, 3, 1.5, 40
    # epsilon at its cap with an empty table
    expected = math.sqrt(k * math.log(2 * d) / (20 * b * b * m2 * (20 * d + k)))
    assert lasso_eta_two_phase(m2, k, d, np.zeros(d), b, 1.0) == pytest.approx(expected, abs=1e-15)
    # a vanishing width gives the known-moments form with A in place of E[x^2]
    a = np.array([0.2, 0.1, 0.05])
    limit = math.sqrt(k * math.log(2 * d) / (20 * b * b * m2 * (8 * a.sum() + k)))
    assert lasso_eta_two_phase(m2, k, d, a, b, epsilon(d, 0.1, k, 10**12, Regime.LINF)) == pytest.approx(
        limit, rel=1e-6
    )
    assert lasso_eta_two_phase(m2, k, d, a, b, 0.0) == pytest.approx(limit, abs=1e-15)
    with pytest.raises(ValueError, match="norm bound must be positive"):
        lasso_eta_two_phase(m2, k, d, a, 0.0, 0.1)


def test_two_phase_budget_per_phase():
    for regime in (Regime.L2, Regime.LINF):
        ds = make_dataset(6, 300, 7, regime)
        k = 2
        config = two_phase_config(m1=100, m2=200, b=3.0, k=k, regime=regime)
        result = run_two_phase(ds, config, 11)
        assert result.info["phase1_budget"] == 100 * (k + 1)
        assert result.info["phase2_budget"] == 200 * (k + 1)
        assert result.attributes_consumed == 300 * (k + 1)
        result.predictor.validate()


def test_two_phase_budget_warm_start_mode():
    for regime in (Regime.L2, Regime.LINF):
        ds = make_dataset(6, 300, 8, regime)
        k = 3
        config = two_phase_config(m1=60, m2=240, b=3.0, k=k, regime=regime)
        result = run_two_phase(ds, config, 12)
        assert result.attributes_consumed == 300 * (k + 1)
        result.predictor.validate()


def test_two_phase_budget_wider_inner_split():
    ds = make_dataset(6, 100, 9, Regime.L2)
    config = two_phase_config(m1=40, m2=60, b=3.0, k=2, regime=Regime.L2, n_inner=3)
    result = run_two_phase(ds, config, 13)
    assert result.attributes_consumed == 100 * (2 + 3)


def test_two_phase_config_errors():
    ds = make_dataset(4, 50, 10, Regime.L2)
    with pytest.raises(ValueError, match="empty second phase"):
        run_two_phase(ds, two_phase_config(m1=10, m2=0, b=1.0, k=1, regime=Regime.L2), 0)
    with pytest.raises(ValueError, match="empty first phase"):
        run_two_phase(ds, two_phase_config(m1=0, m2=10, b=1.0, k=1, regime=Regime.L2), 0)
    with pytest.raises(ValueError, match="empty first phase"):
        run_two_phase(ds, two_phase_config(m1=-1, m2=10, b=1.0, k=1, regime=Regime.L2), 0)
    with pytest.raises(ValueError, match="phase sizes exceed the dataset"):
        run_two_phase(ds, two_phase_config(m1=40, m2=20, b=1.0, k=1, regime=Regime.L2), 0)
    linf = make_dataset(4, 50, 10, Regime.LINF)
    with pytest.raises(ValueError, match="requires L2-regime data"):
        run_two_phase(linf, two_phase_config(m1=10, m2=10, b=1.0, k=1, regime=Regime.L2), 0)


def test_two_phase_refuses_empty_phase1():
    """The harness always gives phase 1 at least one example; an empty
    phase 1 is refused in both regimes before any draw."""
    for regime in (Regime.L2, Regime.LINF):
        ds = make_dataset(5, 80, 14, regime)
        config = two_phase_config(m1=0, m2=80, b=2.0, k=1, regime=regime)
        with pytest.raises(ValueError, match="empty first phase"):
            config.validate()
        with pytest.raises(ValueError, match="empty first phase"):
            run_two_phase(ds, config, 3)


# k and b are refused by phase 1's step-size rule (eta unset) or its solver config (eta set)
@pytest.mark.parametrize("regime", [Regime.L2, Regime.LINF])
@pytest.mark.parametrize("eta, k, b, message", [
    (None, 0, 2.0, "m, k, d must be positive"),
    (None, 1, 0.0, "norm bound must be positive"),
    (None, 1, -1.0, "norm bound must be positive"),
    (None, 1, math.nan, "norm bound must be positive and finite"),
    (0.1, 0, 2.0, "need at least one draw per estimate"),
    (0.1, 1, 0.0, "norm bound must be positive and finite"),
    (0.1, 1, -1.0, "norm bound must be positive and finite"),
    (0.1, 1, math.nan, "norm bound must be positive and finite"),
])
def test_two_phase_refuses_k_and_b_before_any_draw(regime, eta, k, b, message):
    ds = make_dataset(5, 80, 14, regime)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        run_two_phase(ds, two_phase_config(m1=20, m2=60, b=b, k=k, regime=regime, eta=eta), rng)
    assert rng.bit_generator.state == before


def test_two_phase_epsilon_override_only_reshapes_q():
    ds = make_dataset(5, 200, 15, Regime.L2)
    base = two_phase_config(m1=50, m2=150, b=3.0, k=2, regime=Regime.L2, epsilon_override=None)
    override = two_phase_config(m1=50, m2=150, b=3.0, k=2, regime=Regime.L2, epsilon_override=0.0)
    r1 = run_two_phase(ds, base, 4)
    r2 = run_two_phase(ds, override, 4)
    assert r1.info["eta"] == r2.info["eta"]
    assert r1.info["epsilon"] == r2.info["epsilon"]
    assert r1.info["epsilon_for_q"] != r2.info["epsilon_for_q"]
    assert np.any(r1.info["smoothed_q"] != r2.info["smoothed_q"])


def test_warm_start_seeds_second_phase():
    # m2=1 makes the returned average equal the phase-2 starting iterate
    ds = make_dataset(4, 41, 16, Regime.L2)
    config = two_phase_config(m1=40, m2=1, b=2.0, k=2, regime=Regime.L2)
    result = run_two_phase(ds, config, 6)
    default = default_initial_w(4, 2.0)
    assert np.any(result.predictor.weights != default)
    assert np.linalg.norm(result.predictor.weights) <= 2.0 + 1e-9


def test_warm_start_zero_average_falls_back():
    # zero targets freeze the phase-1 EG solver at zero; a zero average
    # cannot seed the multiplicative state and the fresh start is used
    x = np.tile([0.4, 0.2, 0.1], (31, 1))
    ds = Dataset(x, np.zeros(31), Regime.LINF)
    config = two_phase_config(m1=30, m2=1, b=2.0, k=1, regime=Regime.LINF)
    result = run_two_phase(ds, config, 7)
    np.testing.assert_array_equal(result.predictor.weights, np.zeros(3))


def test_warm_start_tables_only_point_draws():
    """The moment table holds the k point draws of each phase-1 example;
    the inner-product draws follow p(w) and are never tabled."""
    for regime in (Regime.L2, Regime.LINF):
        ds = make_dataset(5, 100, 17, regime)
        m1, k, n_inner = 30, 2, 3
        config = two_phase_config(m1=m1, m2=70, b=2.0, k=k, regime=regime, n_inner=n_inner)
        result = run_two_phase(ds, config, 8)
        table = result.info["moment_table"]
        assert table.m1 == m1
        assert table.counts.sum() == m1 * k
        assert result.info["phase1_budget"] == m1 * (k + n_inner)


def test_epsilon_counts_the_tabled_point_draws():
    """eps = d ln(2d/delta) / (k m1) counts the k point draws the table
    holds per example, not the k + n_inner draws phase 1 reads, and the
    step size and q of phase 2 use that eps."""
    d, m1, m2, k, n_inner, delta, b = 10, 200, 50, 2, 3, 0.1, 2.0
    by_hand = d * math.log(2 * d / delta) / (k * m1)
    assert by_hand == pytest.approx(0.1325, abs=1e-4)
    for regime in (Regime.L2, Regime.LINF):
        ds = make_dataset(d, m1 + m2, 19, regime)
        config = two_phase_config(m1=m1, m2=m2, b=b, k=k, regime=regime, n_inner=n_inner, epsilon_override=None)
        info = run_two_phase(ds, config, 10).info
        eps, a = info["epsilon"], info["moment_table"].A
        assert eps == pytest.approx(by_hand, rel=1e-12)
        if regime == Regime.L2:
            assert info["half_norm_estimate"] == estimate_half_norm(a, eps)
            assert info["eta"] == ridge_eta_two_phase(m2, k, d, info["half_norm_estimate"], eps)
        else:
            assert info["eta"] == lasso_eta_two_phase(m2, k, d, a, b, eps)
        np.testing.assert_array_equal(info["smoothed_q"], smoothed_q(a, eps, regime).probabilities)


def test_two_phase_deterministic():
    ds = make_dataset(5, 100, 18, Regime.L2)
    config = two_phase_config(m1=20, m2=80, b=2.0, k=2, regime=Regime.L2)
    r1 = run_two_phase(ds, config, 9)
    r2 = run_two_phase(ds, config, 9)
    np.testing.assert_array_equal(r1.predictor.weights, r2.predictor.weights)


def test_half_norm_upper_bounds_with_high_probability():
    # small-scale check of the one-sided confidence property on the warm
    # start's tables; the full sandwich lives in the acceptance suite
    d, m1, n_point, delta = 5, 100, 4, 0.1
    u = power_law_means(d, -1.0, Regime.LINF)
    truth = norm(u, 0.5)  # binary entries keep E[x^2] = u in the Linf regime
    eps = d * math.log(2 * d / delta) / (n_point * m1)
    config = two_phase_config(m1=m1, m2=1, b=1.0, k=n_point, regime=Regime.LINF, n_inner=1)
    hits = 0
    runs = 200
    for r in range(runs):
        ds = generate_dataset(u, np.zeros(d), m1 + 1, Regime.LINF, 1000 + r)
        result = run_two_phase(ds, config, 2000 + r)
        assert result.info["epsilon"] == pytest.approx(eps, rel=1e-12)
        if estimate_half_norm(result.info["moment_table"].A, eps) >= truth:
            hits += 1
    assert hits / runs >= 0.88


def test_two_phase_p_fallbacks_add_up_both_phases():
    """A zero moment estimate on w's support makes every phase-2 step fall
    back; the warm-start phase uses the standard p and adds none."""
    ds = make_dataset(4, 100, 17, Regime.L2)
    ds.x[:, 2] = 0.0
    config = two_phase_config(
        m1=20, m2=80, b=2.0, k=2, regime=Regime.L2, improved_p=True, epsilon_override=0.0,
    )
    result = run_two_phase(ds, config, 4)
    assert result.info["moment_table"].A[2] == 0.0
    assert result.p_fallbacks == 80
    standard = run_two_phase(ds, dataclasses.replace(config, ctx=dataclasses.replace(config.ctx, improved_p=False)), 4)
    assert standard.p_fallbacks == 0
