"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of every budgetreg layer in
timing wrappers.  Modules bind names with ``from ... import``, so each
wrapper replaces the function in every budgetreg namespace that bound it.
A span has a name, a start, an end and a parent span; a layer's self time
is its span duration minus the time its child spans cover.

Forked pool workers inherit the wrappers.  After each top-level span in a
worker (one pool task), the worker appends its new spans and its counters
to files in the tracer's directory, and ``spans`` and ``all_counters``
read them back in the parent.
"""

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from checkout import LAYERS, rebind

# private functions whose spans the per-layer metrics need
PRIVATE = {"harness": ("_materialize", "_run_task"), "cli": ("_cmd_experiment",)}
METHODS = {"core": (("Dataset", "subset"),), "ingest": (("Scaler", "fit"), ("Scaler", "transform"))}

SPAN_DTYPE = np.dtype([("name", "<i4"), ("parent", "<i4"), ("start", "<f8"), ("end", "<f8")])


def _examples(counter):
    return None, lambda c, tok, args, res: c.update({counter: len(args[0])})


def _state_delta(attr, counter):
    """Counter of how far ``args[0].<attr>`` moved during the call."""
    return (lambda args: getattr(args[0], attr),
            lambda c, tok, args, res: c.update({counter: getattr(args[0], attr) - tok}))


def _two_phase(c, tok, args, res):
    c.update({
        "two_phase.examples": args[1].m1 + args[1].m2,
        "two_phase.phase1_budget": res.info["phase1_budget"],
        "two_phase.budget": res.attributes_consumed,
    })


# (before, after) hooks that turn call arguments and results into counters
HOOKS = {
    "solver_ridge.gaerr_step": _state_delta("zero_weight_steps", "solver_ridge.zero_weight_steps"),
    "solver_lasso.gaelr_step": _state_delta("zero_weight_steps", "solver_lasso.zero_weight_steps"),
    "solver_ridge.run_gaerr": _examples("solver_ridge.examples"),
    "solver_lasso.run_gaelr": _examples("solver_lasso.examples"),
    "baselines.online_ridge_full": _examples("baselines.ogd_full_examples"),
    "baselines.online_lasso_full": _examples("baselines.eg_full_examples"),
    "two_phase.run_two_phase": (None, _two_phase),
    "core.Dataset.subset": (None, lambda c, tok, args, res: c.update(
        {"core.subset_bytes": res.x.nbytes + res.y.nbytes})),
    "ingest.Scaler.transform": _state_delta("clipped", "ingest.clipped_rows"),
    "ingest.load_csv": (None, lambda c, tok, args, res: c.update(
        {"ingest.csv_bytes": os.path.getsize(args[0])})),
}

# the tracer that forked children must reset; fork hooks are process-wide
_ACTIVE = []


def _after_fork_in_child():
    if _ACTIVE:
        _ACTIVE[0]._adopt_child()


os.register_at_fork(after_in_child=_after_fork_in_child)


def traced_functions(package):
    """Yield (span name, owner, attribute) for every function to wrap."""
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        public = getattr(module, "__all__", None)
        if public is None:
            public = [n for n in vars(module) if not n.startswith("_")]
        for name in list(public) + list(PRIVATE.get(layer, ())):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{layer}.{name}", module, name
        for cls_name, meth in METHODS.get(layer, ()):
            yield f"{layer}.{cls_name}.{meth}", getattr(module, cls_name), meth


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.names = []
        self.counters = Counter()
        self._reset_buffers()
        self._installed = []
        self._pid = os.getpid()
        self._in_child = False

    def _reset_buffers(self):
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self._flushed = 0

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.counters, token, args, result)
            if not tracer.stack and tracer._in_child:
                tracer._flush()
            return result

        return wrapper

    def install(self, package):
        """Wrap every traced function in all budgetreg namespaces."""
        if _ACTIVE:
            raise RuntimeError("a tracer is already installed")
        self.directory.mkdir(parents=True, exist_ok=True)
        for name, owner, attr in traced_functions(package):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
            else:
                self._installed += [(m, n, original) for m, n in rebind(package, original, wrapper)]
        _ACTIVE.append(self)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        _ACTIVE.clear()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as the unit root."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _adopt_child(self):
        self._reset_buffers()
        self.counters = Counter()
        self._pid = os.getpid()
        self._in_child = True

    def _records(self, lo=0):
        rec = np.empty(len(self.span_name) - lo, dtype=SPAN_DTYPE)
        rec["name"] = self.span_name[lo:]
        rec["parent"] = self.parent[lo:]
        rec["start"] = self.start[lo:]
        rec["end"] = self.end[lo:]
        return rec

    def _flush(self):
        with open(self.directory / f"spans-{self._pid}.bin", "ab") as fh:
            self._records(self._flushed).tofile(fh)
        self._flushed = len(self.span_name)
        (self.directory / f"counters-{self._pid}.json").write_text(json.dumps(self.counters))

    def spans(self):
        """{pid: span records}: this process first, then every worker."""
        out = {self._pid: self._records()}
        for path in sorted(self.directory.glob("spans-*.bin")):
            out[int(path.stem.split("-")[1])] = np.fromfile(path, dtype=SPAN_DTYPE)
        return out

    def all_counters(self):
        total = Counter(self.counters)
        for path in sorted(self.directory.glob("counters-*.json")):
            total.update(json.loads(path.read_text()))
        return total

    def write(self, path):
        """Write every span and the name table to one ``.npz`` file."""
        blocks = self.spans()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            pids=np.concatenate([np.full(len(r), pid) for pid, r in blocks.items()]),
            spans=np.concatenate(list(blocks.values())),
        )


class SpanStats:
    """Calls, inclusive time and self time per span name, per process group.

    ``where`` is "main" (the benchmark process) or "workers"; None sums
    both.  ``edge_*`` look at calls of ``child`` made directly from
    ``parent``.  ``blocking`` is the self time of the main-process spans
    inside the last span named ``root``, summed per layer: the blocking
    path, which adds up to the root's duration.
    """

    def __init__(self, tracer, root):
        self.names = list(tracer.names)
        n = len(self.names)
        self._by = {"main": np.zeros((3, n)), "workers": np.zeros((3, n))}
        self._edges = np.zeros((2, n + 1, n))
        self.blocking = Counter()
        self.root_s = 0.0
        for pid, rec in tracer.spans().items():
            where = "main" if pid == tracer._pid else "workers"
            dur = rec["end"] - rec["start"]
            has_parent = rec["parent"] >= 0
            child = np.zeros(len(rec))
            np.add.at(child, rec["parent"][has_parent], dur[has_parent])
            own = dur - child
            acc = self._by[where]
            acc[0] += np.bincount(rec["name"], minlength=n)
            acc[1] += np.bincount(rec["name"], weights=dur, minlength=n)
            acc[2] += np.bincount(rec["name"], weights=own, minlength=n)
            parent_name = np.where(has_parent, rec["name"][np.maximum(rec["parent"], 0)], n)
            np.add.at(self._edges[0], (parent_name, rec["name"]), 1)
            np.add.at(self._edges[1], (parent_name, rec["name"]), dur)
            if where == "main" and root in self.names:
                top = np.nonzero(rec["name"] == self.names.index(root))[0][-1]
                self.root_s = float(dur[top])
                inside = (rec["start"] >= rec["start"][top]) & (rec["end"] <= rec["end"][top])
                for i, t in enumerate(np.bincount(rec["name"][inside], weights=own[inside], minlength=n)):
                    if t:
                        self.blocking[self.names[i].split(".")[0]] += float(t)

    def _get(self, row, name, where):
        if name not in self.names:
            return 0.0
        i = self.names.index(name)
        groups = ("main", "workers") if where is None else (where,)
        return float(sum(self._by[g][row, i] for g in groups))

    def calls(self, name, where=None):
        return int(self._get(0, name, where))

    def total(self, name, where=None):
        return self._get(1, name, where)

    def self_time(self, name, where=None):
        return self._get(2, name, where)

    def edge_calls(self, parent, child):
        return int(self._edge(0, parent, child))

    def edge_total(self, parent, child):
        return self._edge(1, parent, child)

    def _edge(self, row, parent, child):
        if parent not in self.names or child not in self.names:
            return 0.0
        return float(self._edges[row, self.names.index(parent), self.names.index(child)])
