"""End-to-end CLI checks through real subprocesses."""

import json
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "budgetreg.cli", *map(str, args)],
        capture_output=True, text=True,
    )


def gen_args(out, m=40, seed=3, regime="l2", dim=6):
    return ("generate", "--dim", dim, "--alpha", -1.0, "--regime", regime,
            "--m", m, "--seed", seed, "--out", out)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "train.csv"
    proc = run_cli(*gen_args(path))
    assert proc.returncode == 0, proc.stderr
    return path


def test_generate_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    proc = run_cli(*gen_args(a))
    assert proc.returncode == 0
    assert "wrote 40 rows" in proc.stderr
    assert len(a.read_text().splitlines()) == 40
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert set(meta) == {"u", "w_star", "regime", "seed"}
    assert meta["regime"] == "l2" and meta["seed"] == 3
    assert len(meta["u"]) == len(meta["w_star"]) == 6

    assert run_cli(*gen_args(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_generate_rejects_positive_alpha(tmp_path):
    proc = run_cli("generate", "--dim", 4, "--alpha", 0.5, "--regime", "l2",
                   "--m", 10, "--out", tmp_path / "x.csv")
    assert proc.returncode == 2


def test_generate_rejects_nan_alpha(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli("generate", "--dim", 4, "--alpha", "nan", "--regime", "l2", "--m", 10, "--out", out)
    assert proc.returncode == 1
    assert "power-law exponent must be finite and nonpositive" in proc.stderr
    assert not out.exists() and not (tmp_path / "x.csv.meta.json").exists()


def test_ratios_reports_norms(data_csv):
    proc = run_cli("ratios", "--data", data_csv, "--regime", "l2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {"d", "half_norm", "l1_norm", "linf_norm", "rho_ridge", "rho_lasso"}
    assert payload["d"] == 6
    assert payload["half_norm"] >= payload["l1_norm"] >= payload["linf_norm"] > 0
    assert 0 < payload["rho_ridge"] <= 1
    assert 0 < payload["rho_lasso"] <= 1


def test_train_model_file_and_budget(data_csv, tmp_path):
    model = tmp_path / "model.json"
    proc = run_cli("train", "--algo", "aerr", "--data", data_csv, "--k", 2,
                   "--eta", 0.05, "--seed", 1, "--test", data_csv, "--out-model", model)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["attributes_observed"] == 40 * 3
    assert report["relative_loss"] >= 0

    payload = json.loads(model.read_text())
    assert set(payload) == {"weights", "b", "regime", "algorithm", "seed", "attributes_observed"}
    assert payload["algorithm"] == "aerr" and payload["seed"] == 1
    assert payload["regime"] == "l2" and len(payload["weights"]) == 6
    assert payload["attributes_observed"] == 40 * 3

    again = tmp_path / "model2.json"
    run_cli("train", "--algo", "aerr", "--data", data_csv, "--k", 2,
            "--eta", 0.05, "--seed", 1, "--test", data_csv, "--out-model", again)
    assert model.read_bytes() == again.read_bytes()


def test_train_full_information_budget(data_csv, tmp_path):
    model = tmp_path / "ogd.json"
    proc = run_cli("train", "--algo", "ogd-full", "--data", data_csv,
                   "--eta-auto", "--out-model", model)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["attributes_observed"] == 40 * 6


@pytest.mark.parametrize("algo, flags", [("ogd-full", ("--eta-auto",)), ("aerr", ("--k", 2, "--eta", 0.05)),
                                         ("eg-full", ("--eta-auto", "--regime", "linf"))])
def test_train_refuses_test_data_of_another_width_before_training(tmp_path, algo, flags):
    regime = "linf" if algo == "eg-full" else "l2"
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert run_cli(*gen_args(train, regime=regime, dim=3)).returncode == 0
    assert run_cli(*gen_args(test, regime=regime, dim=2)).returncode == 0
    model = tmp_path / "model.json"
    proc = run_cli("train", "--algo", algo, "--data", train, *flags, "--test", test, "--out-model", model)
    assert proc.returncode == 1
    assert "error: scaler was fit on 3 attributes, got data with 2" in proc.stderr
    assert not model.exists()


def test_train_rejects_non_finite_label(data_csv, tmp_path):
    lines = data_csv.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    model = tmp_path / "ogd.json"
    proc = run_cli("train", "--algo", "ogd-full", "--data", bad, "--eta-auto", "--out-model", model)
    assert proc.returncode == 1
    assert "error: row 3: non-finite value 'nan'" in proc.stderr
    assert not model.exists()


def test_train_flag_validation(data_csv, tmp_path):
    model = tmp_path / "m.json"
    base = ("train", "--data", data_csv, "--out-model", model)
    assert run_cli(*base, "--algo", "aerr", "--k", 0, "--eta", 0.1).returncode == 2
    assert run_cli(*base, "--algo", "aerr", "--k", 2, "--eta", 0.1, "--eta-auto").returncode == 2

    proc = run_cli(*base, "--algo", "erm")
    assert proc.returncode == 1
    assert "error: erm needs an explicit --regime" in proc.stderr
    assert run_cli(*base, "--algo", "erm", "--regime", "l2").returncode == 0

    proc = run_cli(*base, "--algo", "aerr", "--eta", 0.1)
    assert proc.returncode == 1 and "aerr needs --k" in proc.stderr

    proc = run_cli(*base, "--algo", "aerr", "--k", 2)
    assert proc.returncode == 1 and "choose --eta or --eta-auto" in proc.stderr

    proc = run_cli(*base, "--algo", "aelr", "--k", 2, "--eta", 0.1, "--regime", "l2")
    assert proc.returncode == 1 and "aelr requires linf data" in proc.stderr


@pytest.mark.parametrize("b", ["nan", "inf", "1e999", "0", "-1"])
def test_train_rejects_b_that_is_not_finite_and_positive(data_csv, tmp_path, b):
    model = tmp_path / "erm.json"
    proc = run_cli("train", "--algo", "erm", "--regime", "l2", "--data", data_csv, "--b", b, "--out-model", model)
    assert proc.returncode == 2
    assert "error: argument --b: must be positive and finite" in proc.stderr
    assert not model.exists()


@pytest.mark.parametrize("b", ["1e-170", "1.49e-154", "1e160", "1.7e308"])
def test_train_refuses_b_outside_its_range_before_training(data_csv, tmp_path, b):
    model = tmp_path / "aerr.json"
    proc = run_cli("train", "--algo", "aerr", "--k", 2, "--eta-auto", "--data", data_csv, "--b", b,
                   "--out-model", model)
    assert proc.returncode == 1
    assert "error: --b must be finite and positive, within [1.49e-154, 1.34e+154], got " in proc.stderr
    assert not model.exists()


def test_train_refuses_a_default_b_outside_its_range(data_csv, tmp_path):
    rows = [line.split(",") for line in data_csv.read_text().splitlines()]
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("".join(",".join(r[:-1] + [f"{1e-170 * float(r[-1]):.17g}"]) + "\n" for r in rows))
    model = tmp_path / "aerr.json"
    proc = run_cli("train", "--algo", "aerr", "--k", 2, "--eta-auto", "--data", tiny, "--out-model", model)
    assert proc.returncode == 1
    assert "error: b (default: max |y| of --data) must be finite and positive" in proc.stderr
    assert not model.exists()


def test_train_erm_with_b_below_the_rounding_resolution(tmp_path):
    """The L1 projection of ERM's iterates at b = 1e-17 lands on zero, not on an IndexError."""
    data, model = tmp_path / "linf.csv", tmp_path / "erm.json"
    assert run_cli(*gen_args(data, regime="linf")).returncode == 0
    proc = run_cli("train", "--algo", "erm", "--regime", "linf", "--data", data, "--b", "1e-17",
                   "--out-model", model)
    assert proc.returncode == 0, proc.stderr
    weights = json.loads(model.read_text())["weights"]
    assert sum(abs(w) for w in weights) <= 1e-17


def test_train_refuses_test_data_of_zero_targets_before_training(data_csv, tmp_path):
    rows = [line.split(",") for line in data_csv.read_text().splitlines()]
    test = tmp_path / "zero.csv"
    test.write_text("".join(",".join(r[:-1] + ["0"]) + "\n" for r in rows[:5]))
    model = tmp_path / "ogd.json"
    proc = run_cli("train", "--algo", "ogd-full", "--eta-auto", "--data", data_csv, "--test", test,
                   "--out-model", model)
    assert proc.returncode == 1
    assert "error: test set has only zero targets (5 example(s)): relative loss is undefined" in proc.stderr
    assert not model.exists()


@pytest.mark.parametrize("algo", ["erm", "ogd-full"])
@pytest.mark.parametrize("eta", ["nan", "inf", "1e999", "0", "-1"])
def test_train_rejects_eta_that_is_not_finite_and_positive(data_csv, tmp_path, capsys, algo, eta):
    from budgetreg import cli

    model = tmp_path / "model.json"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--algo", algo, "--regime", "l2", "--data", str(data_csv), "--eta", eta,
                  "--out-model", str(model)])
    assert exit_.value.code == 2
    assert "error: argument --eta: must be positive and finite" in capsys.readouterr().err
    assert not model.exists()


def experiment_config(tmp_path, **overrides):
    raw = {
        "algorithms": ["aerr", "ddaerr"], "regime": "l2", "prefixes": [20, 40],
        "k": 2, "dim": 5, "alpha": -1.0, "repeats": 2, "folds": 2,
        "eta_grid": [0.05, 0.1], "seed": 1,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_experiment_outputs(tmp_path):
    config = experiment_config(tmp_path)
    out = tmp_path / "out"
    proc = run_cli("experiment", "--config", config, "--out-dir", out, "--workers", 1)
    assert proc.returncode == 0, proc.stderr

    records = (out / "records.csv").read_text().splitlines()
    assert records[0] == "algorithm,seed,m,attributes_observed,relative_loss"
    assert len(records) == 1 + 2 * 2 * 2
    row = records[1].split(",")
    assert row[0] == "aerr" and int(row[3]) == int(row[2]) * 3

    for algo in ("aerr", "ddaerr"):
        curve = (out / f"curve_{algo}.csv").read_text().splitlines()
        assert curve[0] == "attributes_observed,mean,std"
        assert len(curve) == 3
        assert int(curve[1].split(",")[0]) == 60 < int(curve[2].split(",")[0]) == 120

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"config", "selected_etas"}
    assert summary["config"]["seed"] == 1
    assert summary["selected_etas"]["aerr"]["20"] in (0.05, 0.1)

    # refuse to clobber, then allow with --force
    proc = run_cli("experiment", "--config", config, "--out-dir", out)
    assert proc.returncode == 1
    assert "exists (use --force to overwrite)" in proc.stderr
    proc = run_cli("experiment", "--config", config, "--out-dir", out, "--force", "--workers", 1)
    assert proc.returncode == 0


def test_experiment_rejects_unknown_keys(tmp_path):
    config = experiment_config(tmp_path, typo=1)
    proc = run_cli("experiment", "--config", config, "--out-dir", tmp_path / "out")
    assert proc.returncode == 1
    assert "error: invalid config keys: typo" in proc.stderr


@pytest.mark.parametrize("key, value", [("delta", 1.5), ("epsilon_override", float("nan")), ("improved_p", "false"),
                                        ("delta", "0.5"), ("repeats", "3"), ("folds", 3.5), ("m1_fraction", None),
                                        ("prefixes", [20.7]), ("prefixes", [True]), ("prefixes", ["20.5"]),
                                        ("prefixes", "30"), ("prefixes", [40, 40]), ("eta_grid", [True]),
                                        ("budget_split", float("inf")), ("budget_split", float("nan")),
                                        ("budget_split", 5.0), ("budget_split", -3.0),
                                        ("algorithms", ["2p-ddaerr", "2p-ddaerr"]), ("algorithms", "2p-ddaerr"),
                                        ("prefixes", [1]), ("prefixes", ["20"]),
                                        ("b", 1e-170), ("b", 1e160), ("b", 1.7e308)])
def test_experiment_rejects_two_phase_settings_before_running(tmp_path, key, value):
    config = experiment_config(tmp_path, **{"algorithms": ["2p-ddaerr"], "eta_grid": None, key: value})
    out = tmp_path / "out"
    proc = run_cli("experiment", "--config", config, "--out-dir", out, "--workers", 1)
    assert proc.returncode == 1
    assert f"error: {key} must" in proc.stderr
    assert "running" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"algorithms": ["aerr"], "prefixes": [5], "dim": 10, "repeats": 2, "folds": 10, "eta_grid": [0.1]},
    {"algorithms": ["2p-ddaerr"], "prefixes": [2], "folds": 2, "eta_grid": [0.1]},
])
def test_experiment_refuses_prefixes_no_run_can_take_before_running(tmp_path, overrides):
    config = experiment_config(tmp_path, **overrides)
    out = tmp_path / "out"
    proc = run_cli("experiment", "--config", config, "--out-dir", out, "--workers", 1)
    assert proc.returncode == 1
    assert "error: prefixes must" in proc.stderr
    assert "running" not in proc.stderr
    assert not out.exists()


def test_experiment_refuses_a_test_split_of_zero_targets(tmp_path, capsys):
    from budgetreg import cli

    config = experiment_config(tmp_path, algorithms=["erm"], prefixes=[2], dim=10, repeats=1, eta_grid=[0.1], seed=0)
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 1
    assert "error: test split has only zero targets (1 example(s))" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_refuses_a_cv_cell_whose_every_fold_has_only_zero_targets(tmp_path, capsys):
    from budgetreg import cli
    from test_harness import sparse_target_config

    config = tmp_path / "config.json"
    config.write_text(json.dumps(sparse_target_config(tmp_path).to_dict()))
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot cross-validate aerr at prefix 10: every validation fold has only zero targets")
    assert "running" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("b", 10**400), ("alpha", -10**400), ("epsilon_override", 10**400)],
                         ids=["b", "alpha", "epsilon_override"])
def test_experiment_refuses_json_integers_too_large_for_a_float(tmp_path, capsys, key, value):
    from budgetreg import cli

    config = experiment_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "running" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    dict(algorithms=["2p-ddaerr"], regime="l2", dim=6, epsilon_override=1e308),
    dict(algorithms=["2p-ddaelr"], regime="linf", dim=50, k=4, epsilon_override=1e307),
], ids=["l2-13eps-overflows", "linf-sum-overflows"])
def test_experiment_refuses_an_epsilon_override_whose_sampling_weights_overflow(tmp_path, capsys, overrides):
    """Inside the float range, yet 13 eps / 6 (ridge) or the sum of the d
    smoothed weights (lasso) overflows: refused before any run starts,
    with no numpy warning."""
    import warnings

    from budgetreg import cli

    config = experiment_config(tmp_path, eta_grid=None, **overrides)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    eps = repr(overrides["epsilon_override"])
    assert err.startswith(f"error: epsilon_override: smoothing width {eps} overflows: the sampling weights of "
                          f"{overrides['dim']} attributes sum past the float range")
    assert "running" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [0, 1, 2, 3, True, 12.5, "", [], ["train.csv"], {"path": "train.csv"}])
def test_experiment_refuses_data_that_is_not_a_csv_path_before_reading(tmp_path, capsys, monkeypatch, value):
    from budgetreg import cli, harness

    def unread(*args):  # an integer data opens that file descriptor: 0 reads stdin, 2 closes stderr
        raise AssertionError(f"data {value!r} was read")

    monkeypatch.setattr(harness, "load_csv", unread)
    monkeypatch.setattr(cli, "run_experiment", unread)
    config = experiment_config(tmp_path, data=value)
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 1
    assert capsys.readouterr().err == f"error: data must be null or a non-empty CSV path, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [0, 2])
def test_experiment_with_a_file_descriptor_as_data_leaves_stdin_and_stderr_alone(data_csv, tmp_path, value):
    config = experiment_config(tmp_path, data=value)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "budgetreg.cli", "experiment", "--config", str(config),
                           "--out-dir", str(out), "--workers", "1"],
                          input=data_csv.read_text(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: data must be null or a non-empty CSV path, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("k", 10**400), ("prefixes", [20, 10**400]), ("dim", 10**400),
                                        ("repeats", 10**400)],
                         ids=["k", "prefixes", "dim", "repeats"])
def test_experiment_refuses_counts_beyond_sys_maxsize(tmp_path, capsys, monkeypatch, key, value):
    from budgetreg import cli

    def unrefused(*args):  # an unrefused repeats of 10**400 would build an unbounded task list
        raise AssertionError(f"{key} {value!r} reached run_experiment")

    monkeypatch.setattr(cli, "run_experiment", unrefused)
    config = experiment_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be at most {sys.maxsize}")
    assert "running" not in err and "Traceback" not in err
    assert not out.exists()


def test_experiment_force_replaces_only_the_previous_runs_curves(tmp_path, capsys):
    from budgetreg import cli

    out = tmp_path / "out"
    config = experiment_config(tmp_path, algorithms=["aerr", "ogd-full"], prefixes=[20], repeats=1)
    argv = ["experiment", "--config", str(config), "--out-dir", str(out), "--force", "--workers", "1"]
    assert cli.main(argv) == 0
    (out / "notes.txt").write_text("kept\n")
    experiment_config(tmp_path, algorithms=["ddaerr"], prefixes=[20], repeats=1)  # rewrites the same config file
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["curve_ddaerr.csv", "notes.txt", "records.csv", "summary.json"]
    assert (out / "notes.txt").read_text() == "kept\n"
    capsys.readouterr()

    # --force does not replace a file that is not a directory, and refuses before running
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(blocker), "--force"]) == 1
    err = capsys.readouterr().err
    assert f"error: output directory {blocker} is not a directory" in err and "running" not in err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("affinity, cpu_count, workers", [({0, 5}, 64, 2), (None, 64, 64), (None, None, 1)],
                         ids=["affinity-mask", "no-affinity-call", "no-cpu-count"])
def test_experiment_default_workers_follow_the_affinity_mask(tmp_path, capsys, monkeypatch, affinity, cpu_count,
                                                             workers):
    """A process pinned to 2 of 64 CPUs runs 2 workers, not 64; without
    os.sched_getaffinity the default is os.cpu_count(), and 1 when that is unknown."""
    from budgetreg import cli

    def started(config, workers, on_start):
        on_start(workers)
        raise ValueError("stopped after the start line")

    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(cli, "run_experiment", started)
    config = experiment_config(tmp_path)
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].endswith(f"runs on {workers} worker(s)")
    assert err.splitlines()[1] == "error: stopped after the start line"


@pytest.mark.parametrize("overrides", [dict(eta_grid=None), dict(algorithms=["erm"], eta_grid=[0.05, 0.1])],
                         ids=["no-grid", "erm-only"])
def test_experiment_with_nothing_to_cross_validate_reads_no_folds(tmp_path, overrides):
    """With no grid, or a grid for erm alone, no step size is
    cross-validated and nothing reads ``folds``: 10^12 folds build no fold
    chunks (numpy could not allocate them) and give folds 10's records."""
    from budgetreg import cli

    outs = []
    for folds in (10, 10**12):
        config = experiment_config(tmp_path, prefixes=[20], repeats=2, folds=folds, **{"algorithms": ["aerr"],
                                                                                       **overrides})
        outs.append(tmp_path / f"folds{folds}")
        assert cli.main(["experiment", "--config", str(config), "--out-dir", str(outs[-1]), "--workers", "1"]) == 0
    assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()
    summaries = [json.loads((out / "summary.json").read_text()) for out in outs]
    assert summaries[0]["selected_etas"] == summaries[1]["selected_etas"]


def test_experiment_start_line_counts_runs_and_the_pool_it_uses(tmp_path):
    """The start line counts runs (algorithms x prefixes x repeats) and
    names the pool run_experiment uses: 3 final runs and no grid cap
    --workers 8 at 3."""
    config = experiment_config(tmp_path, algorithms=["aerr"], prefixes=[20], repeats=3, eta_grid=None)
    proc = run_cli("experiment", "--config", config, "--out-dir", tmp_path / "out", "--workers", 8)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[0] == "running 3 runs on 3 worker(s)"


def test_experiment_worker_count_invisible(tmp_path):
    config = experiment_config(tmp_path)
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert run_cli("experiment", "--config", config, "--out-dir", one, "--workers", 1).returncode == 0
    assert run_cli("experiment", "--config", config, "--out-dir", two, "--workers", 2).returncode == 0
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert names == ["curve_aerr.csv", "curve_ddaerr.csv", "records.csv", "summary.json"]
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
