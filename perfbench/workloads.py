"""The benchmark workloads: cv-grid, wide-pass and csv-cli.

Each workload has three steps:

- ``prepare(seed, directory)``, not timed: writes the input files the
  program reads.  Inputs come only from the workload seed.
- ``setup()``, timed as ``setup_s``: what the program does with its inputs
  before the first training step.
- ``unit()``: a fixed amount of work, the same every time it is called.
  It returns an ``Outcome`` with the time of each of its parts (each
  program call it makes), the runs it attempted and the runs that failed
  a check.

Every workload draws its examples from the seed but keeps the target
model fixed (``MODEL_SEED``), so the work per run varies little between
seeds.  That seed is the first whose lasso target puts weight on
attribute 1, which every example has at these power-law exponents; with
no weight there most targets are 0 and the lasso solvers learn nothing.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODEL_SEED = 3
BUDGET = 5  # attribute values per budgeted example, k + 1


@dataclass
class Outcome:
    parts: dict  # seconds of each timed part of the unit, by part name
    attempted: int  # training runs attempted
    failed: int  # runs that raised or failed a check
    losses: dict  # algorithm -> mean test relative loss
    run_s: list = field(default_factory=list)  # latency of each run (wide-pass)
    problems: list = field(default_factory=list)
    ordering: dict | None = None  # learning-curve ordering checks (cv-grid)

    @property
    def wall_s(self):
        return sum(self.parts.values())


def _report_exception(problems, what):
    traceback.print_exc(file=sys.stderr)
    problems.append(f"{what}: {sys.exc_info()[1]!r}")


def write_rows(path, x, y):
    """CSV with the label last; zeros as "0", other values exactly."""
    with open(path, "w", encoding="ascii") as fh:
        for row, label in zip(x, y):
            cells = ["0"] * (row.size + 1)
            for j in np.flatnonzero(row):
                cells[j] = f"{row[j]:.17g}"
            cells[-1] = f"{label:.17g}"
            fh.write(",".join(cells) + "\n")


def rows_for_pool(pool, test_fraction=0.2):
    """Smallest row count whose training pool, after the harness's test split, holds ``pool``."""
    total = pool + 1
    while total - max(1, int(round(test_fraction * total))) < pool:
        total += 1
    return total


def check_records(records, expected, problems):
    """Count records whose budget is not ``expected[algorithm]`` or whose loss is not finite."""
    bad = 0
    for algo, attrs, loss in records:
        if attrs != expected[algo] or not math.isfinite(loss):
            bad += 1
            problems.append(f"{algo}: {attrs} values (expected {expected[algo]}), loss {loss}")
    return bad


class CvGrid:
    name = "cv-grid"
    why = ("criterion-7-shaped run_experiment at workers=2: 10-fold CV over an eta grid "
           "is ~75% of example-steps and runs serially at d=50")
    SIZES = {"full": {"prefix": 60, "repeats": 20, "folds": 10},
             "smoke": {"prefix": 30, "repeats": 2, "folds": 3}}
    D, ALPHA, WORKERS = 50, -2.0, 2
    EXPERIMENTS = (
        ("l2", ("aerr", "ddaerr", "2p-ddaerr"), (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)),
        ("linf", ("aelr", "ddaelr"), (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3)),
    )

    def __init__(self, pkg, size):
        self.pkg = pkg
        self.size = dict(self.SIZES[size])

    def describe(self):
        return dict(d=self.D, alpha=self.ALPHA, budget=BUDGET, workers=self.WORKERS, **self.size)

    def prepare(self, seed, directory):
        """Write one CSV per regime and one experiment per regime, as criterion 7 does."""
        datagen, harness, regime_of = self.pkg.datagen, self.pkg.harness, self.pkg.Regime
        prefix, repeats, folds = self.size["prefix"], self.size["repeats"], self.size["folds"]
        self.configs = []
        for regime, algos, grid in self.EXPERIMENTS:
            regime = regime_of(regime)
            data = datagen.generate_dataset(
                datagen.power_law_means(self.D, self.ALPHA, regime),
                datagen.random_target_weights(self.D, regime, MODEL_SEED),
                rows_for_pool(prefix), regime, seed)
            path = Path(directory) / f"cv-{regime.value}.csv"
            write_rows(path, data.x, data.y)
            self.configs.append(harness.ExperimentConfig(
                algorithms=list(algos), regime=regime, prefixes=[prefix], k=BUDGET - 1,
                data=str(path), repeats=repeats, folds=folds, eta_grid=list(grid), seed=seed))

    def setup(self):
        ingest, harness = self.pkg.ingest, self.pkg.harness
        for config in self.configs:
            raw = ingest.load_csv(config.data)
            harness.dataset_moments(ingest.Scaler(config.regime).fit(raw).transform(raw))

    @staticmethod
    def _runs(config):
        """Training runs of one experiment: every (eta, fold) CV run plus the final runs."""
        return len(config.algorithms) * (len(config.eta_grid) * config.folds + config.repeats)

    def runs(self):
        return sum(self._runs(c) for c in self.configs)

    def example_steps(self):
        """Examples fed per unit; the CV folds of a prefix train on (folds - 1) * prefix in total."""
        m = self.size["prefix"]
        return sum(len(c.algorithms) * (len(c.eta_grid) * (c.folds - 1) * m + c.repeats * m)
                   for c in self.configs)

    def unit(self):
        harness = self.pkg.harness
        problems, failed, losses, parts = [], 0, {}, {}
        for config in self.configs:
            name = config.regime.value
            start = time.perf_counter()
            try:
                result = harness.run_experiment(config, workers=self.WORKERS)
            except Exception:
                _report_exception(problems, f"run_experiment({name})")
                failed += self._runs(config)
                continue
            finally:
                parts[name] = time.perf_counter() - start
            # the checked train_run (checks.py) has already checked each run's budget
            for r in result.records:
                if not math.isfinite(r.test_relative_loss):
                    failed += 1
                    problems.append(f"{r.algorithm}: test relative loss {r.test_relative_loss}")
            for algo, curve in result.curves.items():
                losses[algo] = curve.points[0][1]
        ordering = None
        if {"aerr", "ddaerr", "2p-ddaerr", "aelr", "ddaelr"} <= set(losses):
            ordering = {
                "ddaerr < aerr": losses["ddaerr"] < losses["aerr"],
                "2p-ddaerr < aerr": losses["2p-ddaerr"] < losses["aerr"],
                "ddaelr < aelr": losses["ddaelr"] < losses["aelr"],
            }
        return Outcome(parts, self.runs(), failed, losses, problems=problems, ordering=ordering)


class WidePass:
    name = "wide-pass"
    why = ("single train_run passes at d=5000, no CV and no pool: per-step O(d) work "
           "dominates; full-information runs give the cost per value read")
    SIZES = {"full": {"d": 5000, "train": 300, "test": 500},
             "smoke": {"d": 200, "train": 40, "test": 40}}
    # dense enough that uniform draws hit nonzero attributes: at sparser data
    # the lasso iterate stays 0 for a random share of each pass, and so does
    # the cost of a pass
    ALPHA = -0.25
    ALGOS = (("aerr", "l2"), ("ddaerr", "l2"), ("ogd-full", "l2"),
             ("aelr", "linf"), ("ddaelr", "linf"), ("2p-ddaelr", "linf"), ("eg-full", "linf"))

    def __init__(self, pkg, size):
        self.pkg = pkg
        self.size = dict(self.SIZES[size])

    def describe(self):
        return dict(alpha=self.ALPHA, budget=BUDGET, runs_per_unit=len(self.ALGOS), **self.size)

    def prepare(self, seed, directory):
        self.seed = seed

    def setup(self):
        pkg = self.pkg
        datagen, harness, core = pkg.datagen, pkg.harness, pkg.core
        d, n_train, n_test = self.size["d"], self.size["train"], self.size["test"]
        n_point, n_inner = harness.split_budget(BUDGET)
        self.data = {}
        for regime in (pkg.Regime.L2, pkg.Regime.LINF):
            w_star = datagen.random_target_weights(d, regime, MODEL_SEED)
            full = datagen.generate_dataset(datagen.power_law_means(d, self.ALPHA, regime),
                                            w_star, n_train + n_test, regime, self.seed)
            train = full.subset(np.arange(n_train))
            test = full.subset(np.arange(n_train, n_train + n_test))
            b = max(core.weight_norm(w_star, regime), float(np.abs(train.y).max()))
            ctx = harness.RunContext(regime=regime, b=b, n_point=n_point, n_inner=n_inner,
                                     moments=harness.dataset_moments(train))
            self.data[regime.value] = (train, test, ctx)

    def runs(self):
        return len(self.ALGOS)

    def example_steps(self):
        return len(self.ALGOS) * self.size["train"]

    def unit(self):
        harness = self.pkg.harness
        problems, failed, losses, parts = [], 0, {}, {}
        for i, (algo, regime) in enumerate(self.ALGOS):
            train, test, ctx = self.data[regime]
            start = time.perf_counter()
            try:
                result = harness.train_run(algo, train, ctx, None, (self.seed, i))
            except Exception:
                _report_exception(problems, algo)
                failed += 1
                continue
            finally:
                parts[algo] = time.perf_counter() - start
            if algo in ("ddaerr", "ddaelr"):
                losses[algo] = harness.relative_loss(result.predictor, test)
        return Outcome(parts, self.runs(), failed, losses, run_s=list(parts.values()), problems=problems)


class CsvCli:
    name = "csv-cli"
    why = ("budgetreg experiment --workers 2 on a 20000x200 linf CSV with automatic step sizes: "
           "ingest, the CLI writers and the pool on final runs only")
    SIZES = {"full": {"rows": 20000, "d": 200, "prefix": 400, "repeats": 8},
             "smoke": {"rows": 300, "d": 20, "prefix": 40, "repeats": 2}}
    ALPHA, WORKERS = -1.0, 2
    ALGOS = ("aelr", "ddaelr", "2p-ddaelr", "eg-full")
    OUTPUTS = ("records.csv", "summary.json") + tuple(f"curve_{a}.csv" for a in ALGOS)

    def __init__(self, pkg, size):
        self.pkg = pkg
        self.size = dict(self.SIZES[size])

    def describe(self):
        return dict(alpha=self.ALPHA, budget=BUDGET, workers=self.WORKERS, **self.size)

    def prepare(self, seed, directory):
        """Write a raw CSV: binary power-law attributes times magnitudes in [0.5, 1.5)."""
        datagen, linf = self.pkg.datagen, self.pkg.Regime.LINF
        rows, d = self.size["rows"], self.size["d"]
        w_star = datagen.random_target_weights(d, linf, MODEL_SEED)
        base = datagen.generate_dataset(datagen.power_law_means(d, self.ALPHA, linf), w_star, rows, linf, seed)
        x = base.x * np.random.default_rng((seed, 7)).uniform(0.5, 1.5, base.x.shape)
        self.directory = Path(directory)
        self.csv = self.directory / "data.csv"
        write_rows(self.csv, x, x @ w_star)
        self.config = self.directory / "config.json"
        self.config.write_text(json.dumps({
            "algorithms": list(self.ALGOS), "regime": "linf", "prefixes": [self.size["prefix"]],
            "k": BUDGET - 1, "data": str(self.csv), "repeats": self.size["repeats"], "seed": seed,
        }))
        self.count = 0

    def setup(self):
        ingest = self.pkg.ingest
        raw = ingest.load_csv(self.csv)
        ingest.Scaler(self.pkg.Regime.LINF).fit(raw).transform(raw)

    def runs(self):
        return len(self.ALGOS) * self.size["repeats"]

    def example_steps(self):
        return self.runs() * self.size["prefix"]

    def unit(self):
        cli = self.pkg.cli
        self.count += 1
        out = self.directory / f"out-{self.count}"
        problems, failed, losses = [], 0, {}
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["experiment", "--config", str(self.config), "--out-dir", str(out),
                                 "--workers", str(self.WORKERS)])
        except Exception:
            code = None
            _report_exception(problems, "budgetreg experiment")
        parts = {"experiment": time.perf_counter() - start}
        if code != 0:
            sys.stderr.write(stderr.getvalue())
            problems.append(f"budgetreg experiment exited with {code}")
            failed = self.runs()
        else:
            try:
                failed, losses = self._check_outputs(out, problems)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
                failed = self.runs()
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(parts, self.runs(), failed, losses, problems=problems)

    def _check_outputs(self, out, problems):
        missing = [name for name in self.OUTPUTS if not (out / name).is_file()]
        if missing:
            raise ValueError(f"missing output files {missing}")
        lines = (out / "records.csv").read_text(encoding="ascii").splitlines()
        if lines[0] != "algorithm,seed,m,attributes_observed,relative_loss" or len(lines) != self.runs() + 1:
            raise ValueError("records.csv has the wrong header or row count")
        m, d = self.size["prefix"], self.size["d"]
        expected = {a: m * BUDGET for a in self.ALGOS} | {"eg-full": m * d}
        records = [(a, int(attrs), float(loss)) for a, _, _, attrs, loss in (l.split(",") for l in lines[1:])]
        failed = check_records(records, expected, problems)
        for algo in self.ALGOS:
            curve = (out / f"curve_{algo}.csv").read_text(encoding="ascii").splitlines()
            if len(curve) != 2 or len(curve[1].split(",")) != 3:
                raise ValueError(f"curve_{algo}.csv has the wrong shape")
        summary = json.loads((out / "summary.json").read_text(encoding="ascii"))
        if summary["config"]["algorithms"] != list(self.ALGOS):
            raise ValueError("summary.json names other algorithms")
        losses = {a: float(np.mean([loss for b, _, loss in records if b == a])) for a in self.ALGOS}
        return failed, losses


WORKLOADS = {w.name: w for w in (CvGrid, WidePass, CsvCli)}
