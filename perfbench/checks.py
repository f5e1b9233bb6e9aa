"""Per-run correctness checks that every workload applies.

``RunChecks`` wraps ``harness.train_run`` in every budgetreg namespace
that bound it, including forked pool workers, so each training run is
checked where it runs: the budget must be exact (m(k+1) values for a
budgeted run, m*d for a full-information run) and ``Predictor.validate``
must pass.  A failing run raises ``RunCheckError``, which ends the
experiment it belongs to; the workload then counts every run of that
experiment as failed.
"""

import functools

from checkout import rebind


class RunCheckError(Exception):
    """A training run broke the exact-budget or valid-predictor contract."""


def expected_budget(harness, algo_id, train, ctx):
    """Attribute values a run of ``algo_id`` on ``train`` must consume."""
    if harness.ALGORITHMS[algo_id].budgeted:
        return len(train) * (ctx.n_point + ctx.n_inner)
    return len(train) * train.dimension


def check_result(harness, algo_id, train, ctx, result):
    want = expected_budget(harness, algo_id, train, ctx)
    if result.attributes_consumed != want:
        raise RunCheckError(f"{algo_id}: consumed {result.attributes_consumed} values, expected {want}")
    try:
        result.predictor.validate()
    except ValueError as exc:
        raise RunCheckError(f"{algo_id}: {exc}") from None


class RunChecks:
    """Installs the checked ``train_run``; ``uninstall`` restores the original."""

    def __init__(self, package):
        self.package = package
        self.harness = package.harness
        self._changed = []
        self._original = None

    def install(self):
        harness = self.harness
        original = harness.train_run

        @functools.wraps(original)
        def checked_train_run(algo_id, train, ctx, eta, seed):
            result = original(algo_id, train, ctx, eta, seed)
            check_result(harness, algo_id, train, ctx, result)
            return result

        self._original = original
        self._changed = rebind(self.package, original, checked_train_run)

    def uninstall(self):
        for module, name in self._changed:
            setattr(module, name, self._original)
        self._changed = []
