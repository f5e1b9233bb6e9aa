"""Smoke test of the benchmark itself, every workload at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import checkout
import fingerprints
import run

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
END_TO_END = ("setup_s", "wall_s", "example_steps_per_s", "run_ms_p50", "run_ms_p90",
              "peak_rss_mb", "rel_loss_ridge", "rel_loss_lasso", "failure_rate")
PER_LAYER = (
    "sampling.sample_index_us", "sampling.p_build_us", "sampling.p_builds", "sampling.p_fallbacks",
    "estimator.estimate_point_us", "estimator.calls",
    "solver_ridge.step_us", "solver_ridge.us_per_example", "solver_ridge.zero_weight_steps",
    "solver_lasso.step_us", "solver_lasso.eg_update_us", "solver_lasso.us_per_example",
    "solver_lasso.zero_weight_steps", "two_phase.us_per_example", "two_phase.phase1_budget_share",
    "baselines.ogd_full_us_per_example", "baselines.eg_full_us_per_example",
    "solver_ridge.cost_per_value_vs_full", "harness.cv_s", "harness.final_s", "harness.cv_share",
    "harness.train_run_calls", "harness.relative_loss_us", "harness.pool_busy_share",
    "core.subset_calls", "core.subset_mb", "datagen.generate_s", "ingest.load_csv_s",
    "ingest.load_csv_mb_per_s", "ingest.scaler_s", "ingest.clipped_rows", "cli.write_s",
)


@pytest.fixture(autouse=True)
def work(tmp_path, monkeypatch):
    """Keep traces and counter records of each test in its own directory."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", ("cv-grid", "wide-pass", "csv-cli"))
def test_every_metric_is_reported_with_its_unit(capsys, workload, trace):
    report, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    text = "\n".join(report)
    for name in PER_LAYER if trace else END_TO_END:
        assert f"  {name}" in text, name
    if trace:
        assert "tracing overhead:" in text and "blocking path" in text


def test_counter_drift_between_runs_of_one_seed_is_flagged(capsys, work):
    report, result = bench(capsys, "cv-grid", 1)
    report, result = bench(capsys, "cv-grid", 1)
    assert result["correct"] and any(line.endswith(": identical") for line in report)
    record = work / "counters-cv-grid-smoke-seed5.json"
    counters = json.loads(record.read_text())
    counters["harness.train_run_calls"] += 1
    record.write_text(json.dumps(counters))
    report, result = bench(capsys, "cv-grid", 1)
    assert not result["correct"]
    assert any(line.startswith("check failed: counter drift: harness.train_run_calls") for line in report)


def test_miscounted_budget_raises_failure_rate(capsys, monkeypatch):
    pkg = checkout.import_package()
    real = pkg.harness.train_run

    def miscounting_train_run(*args):
        result = real(*args)
        result.attributes_consumed += 1
        return result

    monkeypatch.setattr(pkg.harness, "train_run", miscounting_train_run)
    for workload in ("cv-grid", "wide-pass", "csv-cli"):
        report, result = bench(capsys, workload, 0)
        assert not result["correct"] and result["failed"] > 0, workload
        rate = next(line for line in report if line.strip().startswith("failure_rate"))
        assert float(rate.split()[1]) > 0, rate


def test_fingerprints_match_the_reference(capsys):
    assert fingerprints.main([]) == 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(checkout.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "cv-grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_samples_and_restores_the_signal_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(5) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.when.size >= 5
    assert probe.kernel_s(start, end) > 0 and 0 < probe.scale(start, end) < float("inf")
