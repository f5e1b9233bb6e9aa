"""Command-line interface: synthetic data generation, moment ratios,
single-model training, and comparative experiments.

Every command is deterministic given its flags and input files.  Data
goes to files or standard output, diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import Regime, check_b, norm
from .datagen import generate_dataset, improvement_ratio, power_law_means, random_target_weights
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    RunContext,
    algorithm_regime,
    dataset_moments,
    relative_loss,
    run_experiment,
    split_budget,
    train_run,
)
from .ingest import Scaler, load_csv, normalize, write_csv


def _fmt(x) -> str:
    # 17 significant digits round-trip any double exactly
    return format(float(x), ".17g")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_finite_float(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _nonpositive_float(text):
    value = float(text)
    if value > 0:
        raise argparse.ArgumentTypeError("must be nonpositive")
    return value


def _available_cpus():
    """The CPUs this process may run on: its affinity mask where the OS has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii")


def _cmd_generate(args):
    regime = Regime(args.regime)
    u = power_law_means(args.dim, args.alpha, regime)
    w_star = random_target_weights(args.dim, regime, args.seed)
    dataset = generate_dataset(u, w_star, args.m, regime, args.seed)
    write_csv(args.out, dataset)
    meta = {
        "u": [float(v) for v in u],
        "w_star": [float(v) for v in w_star],
        "regime": regime.value,
        "seed": args.seed,
    }
    _write_json(str(args.out) + ".meta.json", meta)
    print(f"wrote {args.m} rows to {args.out}", file=sys.stderr)


def _cmd_ratios(args):
    regime = Regime(args.regime)
    moments = dataset_moments(normalize(load_csv(args.data), regime))
    print(json.dumps({
        "d": int(moments.size),
        "half_norm": float(norm(moments, 0.5)),
        "l1_norm": float(norm(moments, 1)),
        "linf_norm": float(norm(moments, float("inf"))),
        "rho_ridge": improvement_ratio(moments, Regime.L2),
        "rho_lasso": improvement_ratio(moments, Regime.LINF),
    }))


def _cmd_train(args):
    spec = ALGORITHMS[args.algo]
    if spec.regime is None and args.regime is None:
        raise ValueError(f"{args.algo} needs an explicit --regime")
    regime = algorithm_regime(args.algo, args.regime or spec.regime)
    if spec.budgeted and args.k is None:
        raise ValueError(f"{args.algo} needs --k")
    if spec.kind != "erm" and args.eta is None and not args.eta_auto:
        raise ValueError("choose --eta or --eta-auto")

    raw = load_csv(args.data)
    scaler = Scaler(regime).fit(raw)
    train = scaler.transform(raw)
    del raw  # the parsed table: dataset_moments' temporary need not sit beside it
    test = scaler.transform(load_csv(args.test)) if args.test is not None else None
    if test is not None and not np.any(test.y != 0):
        raise ValueError(f"test set has only zero targets ({len(test)} example(s)): relative loss is undefined")
    b = args.b if args.b is not None else float(np.abs(train.y).max())
    check_b(b, "--b" if args.b is not None else "b (default: max |y| of --data)")
    n_point, n_inner = split_budget(args.k + 1) if spec.budgeted else (1, 1)
    ctx = RunContext(regime=regime, b=b, n_point=n_point, n_inner=n_inner,
                     moments=dataset_moments(train))
    result = train_run(args.algo, train, ctx, args.eta, args.seed)

    _write_json(args.out_model, {
        "weights": [float(v) for v in result.predictor.weights],
        "b": b,
        "regime": regime.value,
        "algorithm": args.algo,
        "seed": args.seed,
        "attributes_observed": int(result.attributes_consumed),
    })
    report = {"attributes_observed": int(result.attributes_consumed)}
    if test is not None:
        report["relative_loss"] = relative_loss(result.predictor, test)
    print(json.dumps(report))


def _cmd_experiment(args):
    raw = json.loads(Path(args.config).read_text(encoding="ascii"))
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    config = ExperimentConfig.from_dict(raw)
    workers = args.workers if args.workers is not None else _available_cpus()

    out_dir = Path(args.out_dir)
    if out_dir.exists() and not (args.force and out_dir.is_dir()):
        problem = "is not a directory" if args.force else "exists (use --force to overwrite)"
        raise ValueError(f"output directory {out_dir} {problem}")

    runs = len(config.algorithms) * len(config.prefixes) * config.repeats
    start = time.time()
    result = run_experiment(config, workers, on_start=lambda pool: print(f"running {runs} runs on {pool} worker(s)",
                                                                       file=sys.stderr))
    print(f"finished in {time.time() - start:.1f}s", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)  # only now: a refused run leaves no directory behind
    for stale in out_dir.glob("curve_*.csv"):  # a previous run's, under --force
        stale.unlink()

    lines = ["algorithm,seed,m,attributes_observed,relative_loss"]
    for rec in result.records:
        lines.append(f"{rec.algorithm},{rec.seed},{rec.m},{rec.attributes_observed},{_fmt(rec.test_relative_loss)}")
    (out_dir / "records.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    for algo, curve in result.curves.items():
        lines = ["attributes_observed,mean,std"]
        for x, mean, std in curve.points:
            lines.append(f"{x},{_fmt(mean)},{_fmt(std)}")
        (out_dir / f"curve_{algo}.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    etas = {algo: {str(m): eta for (a, m), eta in result.etas.items() if a == algo}
            for algo in config.algorithms}
    _write_json(out_dir / "summary.json", {"config": config.to_dict(), "selected_etas": etas})
    print(f"wrote records, {len(result.curves)} curve file(s), and summary to {out_dir}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetreg",
        description="attribute-budgeted linear regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV plus a metadata sidecar")
    gen.add_argument("--dim", type=_positive_int, required=True)
    gen.add_argument("--alpha", type=_nonpositive_float, required=True,
                     help="power-law exponent for attribute means (<= 0)")
    gen.add_argument("--regime", choices=[r.value for r in Regime], required=True)
    gen.add_argument("--m", type=_positive_int, required=True)
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    rat = sub.add_parser("ratios", help="print moment norms and improvement ratios as JSON")
    rat.add_argument("--data", required=True)
    rat.add_argument("--regime", choices=[r.value for r in Regime], required=True)
    rat.set_defaults(func=_cmd_ratios)

    tr = sub.add_parser("train", help="train one model and write it as JSON")
    tr.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--k", type=_positive_int, default=None,
                    help="per-example budget minus one (>= 1)")
    tr.add_argument("--b", type=_positive_finite_float, default=None,
                    help="weight-ball radius; default max |y|")
    tr.add_argument("--regime", choices=[r.value for r in Regime], default=None)
    group = tr.add_mutually_exclusive_group()
    group.add_argument("--eta", type=_positive_finite_float, default=None)
    group.add_argument("--eta-auto", action="store_true",
                       help="use the algorithm's own step-size rule")
    tr.add_argument("--seed", type=_nonnegative_int, default=0)
    tr.add_argument("--test", default=None, help="CSV to evaluate relative loss on")
    tr.add_argument("--out-model", required=True)
    tr.set_defaults(func=_cmd_train)

    exp = sub.add_parser("experiment", help="run a comparative experiment from a JSON config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--force", action="store_true",
                     help="overwrite an existing output directory")
    exp.add_argument("--workers", type=_positive_int, default=None,
                     help="worker-pool size; default the CPUs this process may run on")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
