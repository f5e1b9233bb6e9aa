"""Per-layer metrics derived from the spans and counters of a traced unit.

Every metric is named ``<module>.<quantity>``.  A value is None when the
workload does not exercise that layer; the report prints it as n/a.
"""

US = 1e6


def _per(total, count, scale=1.0):
    return total / count * scale if count else None


def layer_metrics(s, counters, d, budget, workers):
    """Return {name: (value, unit)} for every per-layer metric.

    ``s`` is a SpanStats, ``counters`` the tracer's counters, ``d`` the
    dimension, ``budget`` the attribute values per budgeted example.
    """
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("sampling.sample_index_us", _per(s.total("sampling.sample_index"), s.calls("sampling.sample_index"), US), "us")
    imp, std = "sampling.improved_inner_product_p", "sampling.inner_product_p"
    fallbacks = s.edge_calls(imp, std)
    builds = s.calls(imp) + s.calls(std) - fallbacks
    put("sampling.p_build_us", _per(s.total(imp) + s.total(std) - s.edge_total(imp, std), builds, US), "us")
    put("sampling.p_builds", builds if builds else None, "count")
    put("sampling.p_fallbacks", fallbacks if builds else None, "count")

    ep, efi = "estimator.estimate_point", "estimator.estimate_from_indices"
    put("estimator.estimate_point_us", _per(s.total(ep), s.calls(ep), US), "us")
    estimates = s.calls(ep) + s.calls(efi) - s.edge_calls(ep, efi)
    put("estimator.calls", estimates if estimates else None, "count")

    ridge_steps = s.calls("solver_ridge.gaerr_step")
    put("solver_ridge.step_us", _per(s.total("solver_ridge.gaerr_step"), ridge_steps, US), "us")
    ridge_us = _per(s.total("solver_ridge.run_gaerr"), counters["solver_ridge.examples"], US)
    put("solver_ridge.us_per_example", ridge_us, "us")
    put("solver_ridge.zero_weight_steps",
        counters["solver_ridge.zero_weight_steps"] if ridge_steps else None, "count")
    lasso_steps = s.calls("solver_lasso.gaelr_step")
    put("solver_lasso.step_us", _per(s.total("solver_lasso.gaelr_step"), lasso_steps, US), "us")
    put("solver_lasso.eg_update_us",
        _per(s.total("solver_lasso.eg_update"), s.calls("solver_lasso.eg_update"), US), "us")
    put("solver_lasso.us_per_example",
        _per(s.total("solver_lasso.run_gaelr"), counters["solver_lasso.examples"], US), "us")
    put("solver_lasso.zero_weight_steps",
        counters["solver_lasso.zero_weight_steps"] if lasso_steps else None, "count")

    put("two_phase.us_per_example",
        _per(s.total("two_phase.run_two_phase"), counters["two_phase.examples"], US), "us")
    put("two_phase.phase1_budget_share",
        _per(counters["two_phase.phase1_budget"], counters["two_phase.budget"]), "ratio")

    ogd_us = _per(s.total("baselines.online_ridge_full"), counters["baselines.ogd_full_examples"], US)
    put("baselines.ogd_full_us_per_example", ogd_us, "us")
    put("baselines.eg_full_us_per_example",
        _per(s.total("baselines.online_lasso_full"), counters["baselines.eg_full_examples"], US), "us")
    # north-star ratio: budgeted time per value read over full-information time per value read
    put("solver_ridge.cost_per_value_vs_full",
        ridge_us / budget / (ogd_us / d) if ridge_us and ogd_us else None, "ratio")

    experiment = s.total("harness.run_experiment", "main")
    cv_s = s.total("harness.cross_validate", "main")
    final_s = experiment - s.total("harness._materialize", "main") - cv_s if experiment else None
    put("harness.cv_s", cv_s if experiment else None, "s")
    put("harness.final_s", final_s, "s")
    put("harness.cv_share", cv_s / experiment if experiment else None, "ratio")
    put("harness.train_run_calls", s.calls("harness.train_run") or None, "count")
    put("harness.relative_loss_us",
        _per(s.total("harness.relative_loss"), s.calls("harness.relative_loss"), US), "us")
    busy = s.total("harness._run_task", "workers" if workers > 1 else "main")
    put("harness.pool_busy_share", busy / (workers * final_s) if final_s and busy else None, "ratio")

    subsets = s.calls("core.Dataset.subset")
    put("core.subset_calls", subsets or None, "count")
    put("core.subset_mb", counters["core.subset_bytes"] / 1e6 if subsets else None, "MB")

    put("datagen.generate_s", s.total("datagen.generate_dataset") or None, "s")

    load_s = s.total("ingest.load_csv")
    put("ingest.load_csv_s", _per(load_s, s.calls("ingest.load_csv")), "s")
    put("ingest.load_csv_mb_per_s", _per(counters["ingest.csv_bytes"] / 1e6, load_s), "MB/s")
    put("ingest.scaler_s", _per(s.total("ingest.Scaler.fit") + s.total("ingest.Scaler.transform"),
                                s.calls("ingest.Scaler.fit")), "s")
    put("ingest.clipped_rows",
        counters["ingest.clipped_rows"] if s.calls("ingest.Scaler.transform") else None, "count")

    put("cli.write_s", s.self_time("cli._cmd_experiment", "main") or None, "s")
    return out
