"""Acceptance checks, one test per numbered criterion.

Each test is the pass/fail line for its criterion; the body prints the
measured numbers so a failure is self-explanatory.  Oracles are exhaustive
enumerations, grid searches, or Monte Carlo counts with stated tolerances,
never values copied from the implementation under test.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from budgetreg.core import Dataset, Regime, norm, weight_norm
from budgetreg.datagen import (
    binary_l2_moments,
    generate_dataset,
    improvement_ratio,
    power_law_means,
    random_target_weights,
)
from budgetreg.estimator import SolverConfig, estimate_phi, estimate_point
from budgetreg.harness import ExperimentConfig, RunContext, dataset_moments, run_experiment, split_budget, train_run
from budgetreg.ingest import load_csv, normalize
from budgetreg.sampling import (
    build_distribution,
    inner_product_p,
    lasso_optimal_q,
    ridge_optimal_q,
    sample_index,
    uniform_distribution,
)
from budgetreg.solver_lasso import EGState, aelr_eta, eg_weights, gaelr_step, lasso_eta_known_moments
from budgetreg.solver_ridge import RidgeState, aerr_eta, gaerr_step, ridge_eta_known_moments
from budgetreg.two_phase import (
    TwoPhaseConfig,
    epsilon,
    estimate_half_norm,
    lasso_eta_two_phase,
    ridge_eta_two_phase,
    run_two_phase,
)
from stepping import dense, stream_step


def _power_sum(d, e):
    """sum_{i<=d} i**e: an exact Fraction for integer e, else a correctly
    rounded math.fsum of the float terms."""
    if e == int(e):
        return sum(Fraction(1, i ** int(-e)) for i in range(1, d + 1))
    return math.fsum(i**e for i in range(1, d + 1))


def _ratio_oracle(d, alpha, kind):
    """Closed-form ratio for the power-law profile u_i = i**alpha (u_1 = 1 is
    the maximum; the uniform rescale cancels): ridge (sum i^(alpha/2))^2 /
    (d sum i^alpha), lasso sum i^alpha / d.  Independent of budgetreg."""
    if kind == "ridge":
        return float(_power_sum(d, alpha / 2) ** 2 / (d * _power_sum(d, alpha)))
    return float(_power_sum(d, alpha) / d)


def test_criterion_01_improvement_ratio_reproduction():
    """d=500 power-law moment profiles reproduce the reference ratio table
    within 10% relative (exactly for the flat alpha=0 profile), in <1s.

    Each cell is also checked to rel 1e-12 against _ratio_oracle, which
    evaluates the definitions of the README and of improvement_ratio in
    exact rational arithmetic (math.fsum where a term is irrational), not
    by calling the implementation.  The table holds two significant
    figures of those closed forms.  Its ridge alpha=-2 entry was 0.05,
    12% off the exact H_500^2 / (500 * sum_{i<=500} i^-2) = 0.05617, while
    the other seven entries agree with their closed forms within 3%; it is
    corrected to 0.056 and the 10% band is unchanged.
    """
    reference = {
        ("ridge", 0.0): 1.0, ("ridge", -0.5): 0.91, ("ridge", -1.0): 0.55,
        ("ridge", -2.0): 0.056,  # H_500^2 / (500 * sum i^-2) = 0.0561707...
        ("lasso", 0.0): 1.0, ("lasso", -0.5): 0.086, ("lasso", -1.0): 0.014, ("lasso", -2.0): 0.0033,
    }
    oracle = {(kind, alpha): _ratio_oracle(500, alpha, kind) for kind, alpha in reference}
    start = time.perf_counter()
    rows, failures = [], []
    for (kind, alpha), expected in reference.items():
        u = power_law_means(500, alpha, Regime.LINF)  # unit-max profile; rho is scale-invariant
        regime = Regime.L2 if kind == "ridge" else Regime.LINF
        value = improvement_ratio(u, regime)
        # invariance to the ball normalization, so the profile choice is immaterial
        assert value == pytest.approx(improvement_ratio(power_law_means(500, alpha, Regime.L2), regime), rel=1e-12)
        exact = oracle[(kind, alpha)]
        if alpha == 0.0:
            ok = value == expected
            rel = abs(value - expected)
        else:
            rel = abs(value - expected) / expected
            ok = rel <= 0.10
        ok_exact = value == pytest.approx(exact, rel=1e-12, abs=0.0)
        rows.append(
            f"{kind:5s} alpha={alpha:+.1f}  computed={value:.6g}  exact={exact:.6g}  reference={expected:g}  "
            f"rel_err={rel:.2%}  {'ok' if ok else 'OUT OF BAND'}{'' if ok_exact else '  OFF ORACLE'}"
        )
        if not (ok and ok_exact):
            failures.append(rows[-1])
    elapsed = time.perf_counter() - start
    print("\n".join(rows))
    print(f"elapsed: {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, "ratio outside the reference band or off the exact oracle:\n" + "\n".join(failures)


def _mid_draw(dist, i):
    """Uniform draw placed mid-segment so sample_index must return i."""
    cum = float(np.cumsum(dist.probabilities)[i])
    return cum - float(dist.probabilities[i]) / 2.0


def _random_instance(rng, d):
    x = rng.integers(-4, 5, d) / 4.0
    y = float(rng.integers(-4, 5)) / 4.0
    w = rng.integers(-4, 5, d) / 4.0
    q = build_distribution(rng.integers(1, 10, d).astype(float))
    p = build_distribution(rng.integers(1, 10, d).astype(float))
    return x, y, w, q, p


def test_criterion_02_gradient_unbiasedness_enumeration():
    """Exhaustive enumeration of every (point-draw combo, inner draw) shows
    E[g~] = (<w,x> - y) x to 1e-12 for 50 random rational instances per
    (d, k) in {1,2,3} x {1,2}.  g~ = phi x~ is built by estimate_point and
    estimate_phi, the two estimators every solver step calls."""
    rng = np.random.default_rng(20)
    worst = 0.0
    for d, k in itertools.product((1, 2, 3), (1, 2)):
        for _ in range(50):
            x, y, w, q, p = _random_instance(rng, d)
            acc = np.zeros(d)
            for combo in itertools.product(range(d), repeat=k):
                wq = float(np.prod(q.probabilities[list(combo)]))
                point = dense(estimate_point(x[None], q, np.array([[_mid_draw(q, i) for i in combo]])), d)[0]
                for j in range(d):
                    phi = estimate_phi(x, y, w, p, np.array([_mid_draw(p, j)]))
                    acc += wq * float(p.probabilities[j]) * phi * point
            expected = (float(w @ x) - y) * x
            worst = max(worst, float(np.abs(acc - expected).max()))
            np.testing.assert_allclose(acc, expected, rtol=0, atol=1e-12)
    print(f"300 instances enumerated; worst componentwise error {worst:.3e}")


def test_criterion_03_conditional_variance_identity():
    """The same enumeration verifies E||x~||^2 = (1/k) E||x~_r||^2
    + ((k-1)/k)||x||^2 to 1e-12."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for d, k in itertools.product((1, 2, 3), (1, 2)):
        for _ in range(50):
            x, _, _, q, _ = _random_instance(rng, d)
            acc = 0.0
            for combo in itertools.product(range(d), repeat=k):
                wq = float(np.prod(q.probabilities[list(combo)]))
                point = dense(estimate_point(x[None], q, np.array([[_mid_draw(q, i) for i in combo]])), d)[0]
                acc += wq * float(point @ point)
            single = float(np.sum(x**2 / q.probabilities))
            rhs = single / k + (k - 1) / k * float(x @ x)
            worst = max(worst, abs(acc - rhs))
            assert acc == pytest.approx(rhs, abs=1e-12)
    print(f"300 instances enumerated; worst identity error {worst:.3e}")


def test_criterion_04_sampling_optimality_grid():
    """A 1e-3 simplex grid at d=3 never beats the closed-form q*, whose
    objective equals the matching moment norm."""
    g = np.arange(1, 1000, dtype=float) / 1000.0
    q1, q2 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    keep = q1 + q2 <= 0.999 + 1e-12
    q1, q2 = q1[keep], q2[keep]
    q3 = 1.0 - q1 - q2
    rng = np.random.default_rng(22)
    ridge_gap = lasso_gap = np.inf
    for _ in range(20):
        m = rng.uniform(0.05, 1.0, 3)
        ridge_vals = m[0] / q1 + m[1] / q2 + m[2] / q3
        ridge_closed = float(np.sum(m / ridge_optimal_q(m).probabilities))
        assert ridge_closed <= float(ridge_vals.min())
        assert ridge_closed == pytest.approx(float(norm(m, 0.5)), rel=1e-12)
        ridge_gap = min(ridge_gap, float(ridge_vals.min()) - ridge_closed)

        lasso_vals = np.maximum(np.maximum(m[0] / q1, m[1] / q2), m[2] / q3)
        lasso_closed = float(np.max(m / lasso_optimal_q(m).probabilities))
        assert lasso_closed <= float(lasso_vals.min())
        assert lasso_closed == pytest.approx(float(norm(m, 1)), rel=1e-12)
        lasso_gap = min(lasso_gap, float(lasso_vals.min()) - lasso_closed)
    print(f"{q1.size} grid points; smallest grid-vs-closed-form margins: ridge {ridge_gap:.3e}, lasso {lasso_gap:.3e}")


def test_criterion_05_confidence_sandwich_monte_carlo():
    """Over 1000 moment tables built by the two-phase warm start (d=10,
    m1=200, 5 uniform point draws tabled per example, eps=0.0530) the
    two-sided moment sandwich holds jointly for all attributes, and H
    upper-bounds the true half-norm, each in >=88% of runs."""
    d, delta, n_point, m1, runs = 10, 0.1, 5, 200, 1000
    u = power_law_means(d, -1.0, Regime.L2)
    w_star = random_target_weights(d, Regime.L2, 0)
    mom = binary_l2_moments(u)
    eps = d * math.log(2 * d / delta) / (n_point * m1)
    assert eps == pytest.approx(0.0530, abs=1e-4)
    ctx = RunContext(regime=Regime.L2, b=weight_norm(w_star, Regime.L2), n_point=n_point, n_inner=1,
                     improved_p=False, epsilon_override=None)
    config = TwoPhaseConfig(m1=m1, m2=1, ctx=ctx)
    upper = 2.0 * mom + 7.0 * eps / 6.0
    lower = 0.5 * mom - 5.0 * eps / 3.0
    true_half = float(norm(mom, 0.5))

    start = time.perf_counter()
    sandwich_hits = h_hits = 0
    for run in range(runs):
        data = generate_dataset(u, w_star, m1 + 1, Regime.L2, run)
        result = run_two_phase(data, config, (run, 5))
        table = result.info["moment_table"]
        assert table.m1 == m1 and table.counts.sum() == m1 * n_point
        assert result.info["epsilon"] == pytest.approx(eps, rel=1e-12)
        if np.all(table.A <= upper) and np.all(table.A >= lower):
            sandwich_hits += 1
        if estimate_half_norm(table.A, eps) >= true_half:
            h_hits += 1
    elapsed = time.perf_counter() - start
    print(f"sandwich rate {sandwich_hits / runs:.1%}, H-bound rate {h_hits / runs:.1%}, elapsed {elapsed:.1f}s (eps={eps:.4f})")
    assert elapsed < 60.0
    assert sandwich_hits / runs >= 0.88
    assert h_hits / runs >= 0.88


def test_criterion_06_feasibility_and_sparse_dense_equivalence():
    """Every iterate stays inside its weight ball at every step, and the
    sparse EG update matches a dense all-coordinates reimplementation."""
    rng = np.random.default_rng(23)

    b = 0.8
    x = rng.normal(size=(250, 8))
    x /= np.maximum(1.0, np.sqrt((x * x).sum(axis=1)))[:, None]
    y = rng.normal(size=250)
    config = SolverConfig(b=b, eta=0.4, q=build_distribution(rng.uniform(0.5, 1.5, 8)), n_point=2, n_inner=2)
    state = RidgeState.initial(8, config)
    step_rng = np.random.default_rng(np.random.SeedSequence((60, 0)))
    for t in range(250):
        stream_step(gaerr_step, state, x[t], float(y[t]), config, step_rng)
        assert float(norm(state.w, 2)) <= b + 1e-9

    d, b, eta, n_point = 12, 1.2, 0.7, 3
    xl = rng.uniform(-1.0, 1.0, (150, d))
    yl = rng.normal(size=150)
    q = build_distribution(rng.uniform(0.5, 1.5, d))
    cfg = SolverConfig(b=b, eta=eta, q=q, n_point=n_point, n_inner=1)
    sparse = EGState.initial(d, cfg)
    rng_sparse = np.random.default_rng(np.random.SeedSequence((61, 0)))
    rng_dense = np.random.default_rng(np.random.SeedSequence((61, 0)))
    z_plus, z_minus = np.ones(d), np.ones(d)
    for t in range(150):
        stream_step(gaelr_step, sparse, xl[t], float(yl[t]), cfg, rng_sparse)
        assert float(norm(eg_weights(sparse, b), 1)) <= b + 1e-9

        # dense replica: same draws, updates applied to every coordinate
        w = (z_plus - z_minus) * b / (z_plus.sum() + z_minus.sum())
        point = dense(estimate_point(xl[t][None], q, rng_dense.random(n_point)[None]), d)[0]
        if np.any(w != 0):
            p = inner_product_p(w, Regime.LINF)
            j = sample_index(p, rng_dense.random(1))
            phi = float(np.mean(w[j] / p.probabilities[j] * xl[t][j]) - yl[t])
        else:
            phi = -float(yl[t])
        if phi != 0.0:
            grad = np.clip(phi * point, -1.0 / eta, 1.0 / eta)
            z_plus *= np.exp(-eta * grad)
            z_minus *= np.exp(eta * grad)
            peak = max(float(z_plus.max()), float(z_minus.max()))
            if peak > 1e100:
                z_plus /= peak
                z_minus /= peak
        np.testing.assert_allclose(sparse.z_plus, z_plus, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sparse.z_minus, z_minus, rtol=1e-12, atol=0)
    print("250 ridge + 150 lasso steps feasible; sparse and dense EG states agree to 1e-12")


def _curve_mean(result, algo):
    return result.curves[algo].points[0][1]


def test_criterion_07_learning_curve_ordering():
    """Scaled-down comparative runs (d=50, alpha=-2, k+1=5, m=2000, 20
    repeats, CV-tuned step sizes): the moment-aware solvers beat uniform
    sampling, and the two-phase ridge variant is no worse than uniform."""
    start = time.perf_counter()
    ridge = run_experiment(ExperimentConfig(
        algorithms=["aerr", "ddaerr", "2p-ddaerr"], regime=Regime.L2,
        prefixes=[2000], k=4, dim=50, alpha=-2.0, repeats=20, folds=10,
        eta_grid=[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4], seed=0,
    ))
    lasso = run_experiment(ExperimentConfig(
        algorithms=["aelr", "ddaelr"], regime=Regime.LINF,
        prefixes=[2000], k=4, dim=50, alpha=-2.0, repeats=20, folds=10,
        eta_grid=[1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3], seed=1,
    ))
    elapsed = time.perf_counter() - start

    means = {algo: _curve_mean(ridge, algo) for algo in ("aerr", "ddaerr", "2p-ddaerr")}
    means.update({algo: _curve_mean(lasso, algo) for algo in ("aelr", "ddaelr")})
    for algo, mean in means.items():
        print(f"{algo:10s} mean relative loss {mean:.5f}")
    print(f"selected etas: {ridge.etas | lasso.etas}")
    print(f"elapsed: {elapsed:.1f}s")
    assert elapsed < 600.0
    assert means["ddaerr"] < means["aerr"]
    assert means["2p-ddaerr"] < means["aerr"]
    assert means["ddaelr"] < means["aelr"]


@pytest.mark.skipif("BUDGETREG_MNIST_CSV" not in os.environ,
                    reason="set BUDGETREG_MNIST_CSV to a 3-vs-5 digits CSV to enable")
def test_criterion_07_mnist_ratios_optional():
    raw = load_csv(os.environ["BUDGETREG_MNIST_CSV"])
    rho_ridge = improvement_ratio(dataset_moments(normalize(raw, Regime.L2)), Regime.L2)
    rho_lasso = improvement_ratio(dataset_moments(normalize(raw, Regime.LINF)), Regime.LINF)
    print(f"rho_ridge={rho_ridge:.3f} (expect 0.45 +- 0.05), rho_lasso={rho_lasso:.3f} (expect 0.2 +- 0.05)")
    assert abs(rho_ridge - 0.45) <= 0.05
    assert abs(rho_lasso - 0.2) <= 0.05


def test_criterion_08_budget_accounting():
    """Attribute-efficient runs consume m(k+1) exactly, full-information
    runs m*d, and a two-phase run's phase 1 m1*(k+1)."""
    d, m, k = 12, 60, 4
    n_point, n_inner = split_budget(k + 1)
    datasets = {
        Regime.L2: generate_dataset(power_law_means(d, -1.0, Regime.L2),
                                    random_target_weights(d, Regime.L2, 3), m, Regime.L2, 3),
        Regime.LINF: generate_dataset(power_law_means(d, -1.0, Regime.LINF),
                                      random_target_weights(d, Regime.LINF, 3), m, Regime.LINF, 3),
    }
    budgeted = {
        Regime.L2: ("aerr", "ddaerr", "2p-ddaerr", "adagrad-gaerr"),
        Regime.LINF: ("aelr", "ddaelr", "2p-ddaelr", "adagrad-gaelr"),
    }
    full = {Regime.L2: ("ogd-full", "erm", "adagrad-ogd-full"), Regime.LINF: ("eg-full", "erm")}
    for regime, data in datasets.items():
        ctx = RunContext(regime=regime, b=2.0, n_point=n_point, n_inner=n_inner,
                         moments=dataset_moments(data))
        for i, algo in enumerate(budgeted[regime]):
            result = train_run(algo, data, ctx, None, (8, i))
            assert result.attributes_consumed == m * (k + 1), algo
        for algo in full[regime]:
            result = train_run(algo, data, ctx, None, (9,))
            assert result.attributes_consumed == m * d, algo

    two_phase = run_two_phase(datasets[Regime.L2], TwoPhaseConfig(m1=20, m2=40, ctx=RunContext(
        regime=Regime.L2, b=2.0, n_point=k, n_inner=1, improved_p=False, epsilon_override=None)), 4)
    assert two_phase.info["phase1_budget"] == 20 * (k + 1)
    assert two_phase.attributes_consumed == m * (k + 1)
    print(f"all budgets exact: m(k+1)={m * (k + 1)}, m*d={m * d}, phase-1 {20 * (k + 1)}")


def test_criterion_09_step_size_formulas():
    """The step-size rules reproduce hand-computed values to 1e-12,
    including the max-of-two-branches two-phase ridge rate."""
    assert aerr_eta(2, 1, 1, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert aerr_eta(100, 4, 50, 3.7) == pytest.approx(0.02, abs=1e-12)

    assert ridge_eta_known_moments(100, 1, 3.0) == pytest.approx(0.05, abs=1e-12)
    assert ridge_eta_known_moments(1, 1, 0.0) == pytest.approx(1.0, abs=1e-12)

    assert aelr_eta(1, 1, 2, 1.0) == pytest.approx(1.0 / 8.0, abs=1e-12)  # cap branch: G=4
    assert aelr_eta(10_000, 1, 2, 1.0) == pytest.approx(0.005, abs=1e-12)  # 2b/(G sqrt(m))

    assert lasso_eta_known_moments(math.log(4), 1, 2, 1.0, 0.0) == pytest.approx(1 / (2 * math.sqrt(5)), abs=1e-12)
    assert lasso_eta_known_moments(100 * math.log(4), 1, 2, 0.5, 0.0) == pytest.approx(math.sqrt(1 / 500), abs=1e-12)

    assert ridge_eta_two_phase(1, 6, 1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    m1, m2, k, d, delta = 10, 50, 2, 4, 0.1
    eps = d * math.log(2 * d / delta) / (3 * m1)  # a table of 3 draws per example
    assert epsilon(d, delta, 3, m1, Regime.L2) == pytest.approx(eps, abs=1e-12)
    for h in (0.0, 0.3, 1e9):  # crosses from branch 2 winning to branch 1 winning
        by_hand = max(math.sqrt(k / (6 * d * m2)),
                      math.sqrt(k / (m2 * (2 * h + 2 * math.sqrt(5 / 3) * d * math.sqrt(h * eps) + k))))
        assert ridge_eta_two_phase(m2, k, d, h, eps) == pytest.approx(by_hand, abs=1e-12)

    assert lasso_eta_two_phase(40, 2, 3, np.zeros(3), 1.5, 1.0) == pytest.approx(
        math.sqrt(2 * math.log(6) / (20 * 1.5**2 * 40 * (20 * 3 + 2))), abs=1e-12)
    print("all step-size pins within 1e-12")


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Identical config + seed give byte-identical output files, whatever
    the worker-pool size and however often the experiment is repeated."""
    config = {
        "algorithms": ["aerr", "2p-ddaerr"], "regime": "l2", "prefixes": [30, 60],
        "k": 2, "dim": 6, "alpha": -1.0, "repeats": 3, "folds": 2,
        "eta_grid": [0.02, 0.05], "seed": 9,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    dirs = {"one": 1, "two": 2, "one_again": 1}
    for name, workers in dirs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "budgetreg.cli", "experiment", "--config", str(config_path),
             "--out-dir", str(tmp_path / name), "--workers", str(workers)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert "records.csv" in names and "summary.json" in names
    for other in ("two", "one_again"):
        assert sorted(p.name for p in (tmp_path / other).iterdir()) == names
        for file_name in names:
            assert (tmp_path / "one" / file_name).read_bytes() == (tmp_path / other / file_name).read_bytes(), (other, file_name)
    print(f"byte-identical across worker pools and reruns: {', '.join(names)}")
