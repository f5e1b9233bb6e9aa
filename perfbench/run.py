"""budgetreg benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload cv-grid --seed 1 --seconds 30 --trace 0

Workloads are ``cv-grid``, ``wide-pass`` and ``csv-cli`` (see
workloads.py).  The command prepares the workload's inputs from the seed,
then for about ``--seconds`` seconds repeats the set-up and the workload's
fixed unit of work, interleaved, and reports the median time of each,
rescaled to a reference machine speed (speed.py).  Every
training run is checked (exact budget, valid predictor) and failures are
counted.  Weight fingerprints are checked separately, by fingerprints.py.

With ``--trace 1`` it instead runs one unit untraced and one unit with
timing wrappers around every public function of each budgetreg module,
and reports per-layer metrics, the self time along the blocking path and
the tracing overhead.  Spans go to ``.perfbench/trace-*.npz``; the
deterministic counters go to ``.perfbench/counters-*.json`` and a later
traced run of the same workload, size and seed flags any that differ.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Only the
benchmark's own processes are measured: nothing traces the system, drops
the file cache, or changes CPU affinity or cgroups.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checkout
from checkout import ROOT, SRC, WORK, MissingPackage
from speed import REFERENCE_S

MEASUREMENT_SCOPE = ("only the benchmark's own processes are measured: no system-wide tracing, "
                     "no dropping of the file cache, no changes to CPU affinity or cgroups")
# metrics printed on the last line; BENCHMARK.json lists the same names
END_TO_END = {"setup_s": "s", "wall_s": "s", "example_steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "sampling.sample_index_us", "sampling.p_build_us", "sampling.p_builds",
    "estimator.estimate_point_us", "estimator.calls",
    "solver_lasso.step_us", "solver_lasso.eg_update_us", "solver_lasso.us_per_example",
    "solver_lasso.zero_weight_steps", "two_phase.us_per_example",
    "harness.train_run_calls", "harness.relative_loss_us", "core.subset_calls", "core.subset_mb",
)
# counters that must repeat exactly for a workload, size and seed
COUNTERS = (
    "harness.train_run_calls", "sampling.p_builds", "sampling.p_fallbacks", "estimator.calls",
    "solver_ridge.zero_weight_steps", "solver_lasso.zero_weight_steps",
    "core.subset_calls", "core.subset_mb", "ingest.clipped_rows",
)
# the per-layer metrics that carry the dimension in their report name
BY_DIMENSION = ("sampling.sample_index_us", "sampling.p_build_us")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import budgetreg; print(time.perf_counter() - t)")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="budgetreg benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: each workload at its smallest size")
    return parser.parse_args(argv)


def environment(args):
    import numpy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "scope": MEASUREMENT_SCOPE,
    }


def import_seconds():
    """Time ``import budgetreg`` in a fresh interpreter; return (import time, start, end)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1]), start, time.perf_counter()


def timed_call(fn):
    """Run ``fn``; return (its result, its time, start, end).

    Garbage of earlier steps is collected first, so that each step's
    memory peak does not depend on when the collector last ran.
    """
    gc.collect()
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    return result, end - start, start, end


def peak_rss_mb():
    """Peak resident sets of this process and of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def fmt(value, unit):
    return "n/a" if value is None else f"{value:.6g} {unit}"


def measure(workload, args):
    """Untraced: repeat import, set-up and unit, interleaved, for about args.seconds.

    Each timed step (the import probe, the set-up, the unit's program
    calls) is rescaled to the reference machine speed by the speed probe
    (speed.py) over the interval it ran in.  ``setup_s`` is the median
    rescaled import time plus the median rescaled set-up time, and
    ``wall_s`` the median rescaled unit time.  The raw medians are printed
    beside them.  Interleaving spreads the repetitions of each step over
    the whole run.
    """
    from speed import SpeedProbe

    start = time.perf_counter()
    imports, setups, units, rounds = [], [], [], []
    # the loop ends within about args.seconds; the margin covers a slow last round and the warm-up
    with SpeedProbe(2 * args.seconds + 300) as probe:
        # the first set-up and unit warm caches and lazy imports; they are checked but not timed
        workload.setup()
        outcomes = [workload.unit()]
        while True:
            round_start = time.perf_counter()
            imports.append(import_seconds())
            setups.append(timed_call(workload.setup)[1:])
            outcome, _, unit_start, unit_end = timed_call(workload.unit)
            outcomes.append(outcome)
            units.append((outcome.wall_s, unit_start, unit_end))
            rounds.append(time.perf_counter() - round_start)
            if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
                break

    def rescaled(samples):
        return statistics.median(t * probe.scale(t0, t1) for t, t0, t1 in samples)

    def raw(samples):
        return statistics.median(t for t, _, _ in samples)

    wall_units = [t * probe.scale(t0, t1) for t, t0, t1 in units]
    wall = statistics.median(wall_units)
    kernel_ms = 1e3 * statistics.median(probe.kernel_s(t0, t1) for _, t0, t1 in units)
    run_ms = sorted(1e3 * t for o in outcomes[1:] for t in o.run_s)
    p50 = statistics.median(run_ms) if run_ms else None
    # a p90 needs at least ten samples beyond it
    p90 = statistics.quantiles(run_ms, n=10)[8] if len(run_ms) >= 100 else None
    last = outcomes[-1].losses
    metrics = {
        "setup_s": (rescaled(imports) + rescaled(setups), "s",
                    f"median import + median set-up over {len(setups)} of each, at the reference "
                    f"speed; raw medians {raw(imports):.4f} s + {raw(setups):.4f} s"),
        "wall_s": (wall, "s", f"median of {len(units)} units at the reference speed; raw median "
                   f"{raw(units):.4f} s while the speed kernel took {kernel_ms:.3f} ms (reference "
                   f"{1e3 * REFERENCE_S:.3f} ms); units: " + " ".join(f"{t:.4f}" for t in wall_units)),
        "example_steps_per_s": (workload.example_steps() / wall, "1/s",
                                f"{workload.example_steps()} example-steps per unit / wall_s"),
        "run_ms_p50": (p50, "ms", f"raw, {len(run_ms)} runs" if run_ms else "measured on wide-pass only"),
        "run_ms_p90": (p90, "ms", f"raw, {len(run_ms)} runs" if run_ms else "measured on wide-pass only"),
        "peak_rss_mb": (max(peak_rss_mb()), "MB",
                        "largest of this process ({:.1f} MB) and its children ({:.1f} MB)".format(*peak_rss_mb())),
        "rel_loss_ridge": (last.get("ddaerr"), "ratio", "ddaerr mean test relative loss"),
        "rel_loss_lasso": (last.get("ddaelr"), "ratio", "ddaelr mean test relative loss"),
    }
    return outcomes, metrics


def traced(pkg, workload, args, scratch):
    """One untraced unit, then one traced set-up and unit; returns per-layer metrics."""
    from layers import layer_metrics
    from tracer import SpanStats, Tracer

    plain = workload.unit()
    tracer = Tracer(scratch / "trace")
    tracer.install(pkg)
    try:
        with tracer.span("perfbench.setup"):
            workload.setup()
        with tracer.span("perfbench.unit"):
            outcome = workload.unit()
    finally:
        tracer.uninstall()
    stats = SpanStats(tracer, "perfbench.unit")
    info = workload.describe()
    layers = layer_metrics(stats, tracer.all_counters(), info["d"], info["budget"], info.get("workers", 1))
    tracer.write(WORK / f"trace-{args.workload}-{args.size}-seed{args.seed}.npz")

    print("per-layer metrics (traced unit):")
    for name, (value, unit) in layers.items():
        shown = f"{name}.d{info['d']}" if name in BY_DIMENSION else name
        print(f"  {shown:42s} {fmt(value, unit)}")
    print(f"blocking path: self time of the main-process spans in the traced unit "
          f"({stats.root_s:.4f} s, of which {outcome.wall_s:.4f} s in program calls):")
    for layer, seconds in sorted(stats.blocking.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {seconds:10.4f} s  {seconds / stats.root_s:6.1%}")
    print(f"  {'sum':14s} {sum(stats.blocking.values()):10.4f} s")
    workers_s = stats.total("harness._run_task", "workers")
    if workers_s:
        print(f"worker task time: {workers_s:.4f} s over {stats.calls('harness._run_task', 'workers')} tasks")
    overhead = outcome.wall_s - plain.wall_s
    print(f"tracing overhead: {overhead:.4f} s (traced wall_s {outcome.wall_s:.4f} s - "
          f"untraced wall_s {plain.wall_s:.4f} s)")
    return [plain, outcome], layers


def compare_counters(args, layers):
    """Store this run's counters, or compare them with the stored ones; return drift messages."""
    counters = {name: layers[name][0] for name in COUNTERS}
    path = WORK / f"counters-{args.workload}-{args.size}-seed{args.seed}.json"
    if not path.exists():
        path.write_text(json.dumps(counters, indent=1) + "\n")
        print(f"deterministic counters recorded in {path.name}")
        return []
    before = json.loads(path.read_text())
    drift = [f"{k}: {before.get(k)} -> {v}" for k, v in counters.items() if before.get(k) != v]
    print(f"deterministic counters vs {path.name}: {'; '.join(drift) or 'identical'}")
    return drift


def run(pkg, args, scratch):
    from checks import RunChecks
    from workloads import WORKLOADS

    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("environment: " + json.dumps(env))
    workload = WORKLOADS[args.workload](pkg, args.size)
    print("inputs: " + json.dumps(workload.describe()))
    checks = RunChecks(pkg)
    checks.install()
    try:
        workload.prepare(args.seed, scratch)
        if args.trace:
            workload.setup()
            outcomes, layers = traced(pkg, workload, args, scratch)
        else:
            outcomes, metrics = measure(workload, args)
    finally:
        checks.uninstall()

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    if args.trace:
        problems += [f"counter drift: {d}" for d in compare_counters(args, layers)]
        values = {name: layers[name] for name in PER_LAYER}
    else:
        metrics["failure_rate"] = (failed / attempted, "ratio", f"{failed} of {attempted} runs")
        print("end-to-end metrics:")
        for name in ("setup_s", "wall_s", "example_steps_per_s", "run_ms_p50", "run_ms_p90",
                     "peak_rss_mb", "rel_loss_ridge", "rel_loss_lasso", "failure_rate"):
            value, unit, note = metrics[name]
            print(f"  {name:22s} {fmt(value, unit):>18s}  ({note})")
        values = {name: metrics[name][:2] for name in END_TO_END}
    if outcomes[-1].ordering is not None:
        print("learning-curve ordering: " + ", ".join(
            f"{k} {'holds' if ok else 'FAILS'}" for k, ok in outcomes[-1].ordering.items()))
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems and all(v is not None for v, _ in values.values())
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": 0.0 if v is None else float(v), "unit": u}
                    for name, (v, u) in values.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        pkg = checkout.import_package()
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        result = run(pkg, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
