"""Span tracing of graphain from outside the program.

A traced operation wraps the public functions listed in TARGETS in every
``graphain.*`` module namespace that binds them (code calls through its own
imported names, so each binding gets the wrapper), records one span per call
(name, start, end, parent) in memory, and restores the original bindings when
the operation ends.  Untraced operations run the program untouched.

A target whose function no longer exists is skipped and reported as missing;
its metrics then read zero calls and its time shows up in the self time of
whichever traced caller remains, or in ``experiment.other_s``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _spmm_gflop(args, kwargs, result):
    op, m = _arg(args, kwargs, 0, "op"), _arg(args, kwargs, 1, "m")
    width = m.shape[1] if np.ndim(m) == 2 else 1
    return {"gflop": 2.0 * op.matrix.nnz * width / 1e9}


def _bytes_read(args, kwargs, result):
    directory = Path(_arg(args, kwargs, 0, "directory"))
    names = ("edges.tsv", "features.csv", "labels.csv", "masks.csv")
    return {"bytes_read": sum((directory / n).stat().st_size for n in names if (directory / n).exists())}


def _embedding_check(args, kwargs, result):
    h = result[0] if isinstance(result, tuple) else result
    return {"nonfinite_embeddings": 0 if np.isfinite(h).all() else 1}


@dataclass(frozen=True)
class Target:
    module: str                  # defining module, e.g. "graphain.linalg"
    name: str                    # function name in that module
    group: str | None            # metric group its time counts toward
    counters: Callable | None = None  # (args, kwargs, result) -> {counter: increment}


TARGETS = (
    Target("graphain.linalg", "sym_eig", "linalg.eig"),
    Target("graphain.linalg", "soft_spectral_filter", "linalg.filter"),
    Target("graphain.graph", "apply_operator", "graph.spmm", _spmm_gflop),
    Target("graphain.propagation", "residual_combine", "propagation.skip_mix"),
    Target(
        "graphain.propagation",
        "run_fuzzy_r_softgraphain",
        "propagation.run",
        lambda a, k, r: {"layers": _arg(a, k, 1, "cfg").layers},
    ),
    Target(
        "graphain.synthetic",
        "gen_gaussian_cluster_graph",
        "synthetic.gen",
        lambda a, k, r: {"edges": r.num_edges},
    ),
    Target(
        "graphain.curriculum",
        "build_knn_aux_graph",
        "curriculum.aux",
        lambda a, k, r: {"aux_edges": r.edges.shape[0]},
    ),
    Target(
        "graphain.curriculum",
        "aux_from_graph",
        "curriculum.aux",
        lambda a, k, r: {"aux_edges": r.edges.shape[0]},
    ),
    Target("graphain.curriculum", "smooth_labels", "curriculum.smooth"),
    Target("graphain.curriculum", "estimate_labels_teacher", "curriculum.labels"),
    Target("graphain.curriculum", "entropy_filter", "curriculum.labels"),
    Target(
        "graphain.classifier",
        "train_linear",
        "classifier.train",
        lambda a, k, r: {"epochs": _arg(a, k, 3, "cfg").epochs},
    ),
    Target(
        "graphain.diagnostics",
        "layer_sweep",
        "diagnostics.sweep",
        lambda a, k, r: {"rows": len(r)},
    ),
    Target("graphain.diagnostics", "records_to_csv", "diagnostics.write"),
    Target("graphain.oracles", "dense_abar", "oracles.reference"),
    Target("graphain.oracles", "top_d_eigvectors", "oracles.reference"),
    Target("graphain.io", "load_dataset", "io.load", _bytes_read),
    # span only: checks that every traced operation's embedding is finite
    Target("graphain.experiment", "compute_embedding", None, _embedding_check),
)

# Per-layer metrics of one traced operation: name -> unit.  Time metrics are
# inclusive unless the name of their source says "self".
LAYER_UNITS = {
    "linalg.eig_s": "s",
    "linalg.eig_calls": "count",
    "linalg.filter_s": "s",
    "linalg.filter_calls": "count",
    "graph.spmm_s": "s",
    "graph.spmm_calls": "count",
    "graph.spmm_gflop": "GFLOP",
    "propagation.skip_mix_s": "s",
    "propagation.run_s": "s",
    "propagation.ms_per_layer": "ms",
    "synthetic.gen_s": "s",
    "synthetic.edges": "count",
    "curriculum.aux_s": "s",
    "curriculum.aux_edges": "count",
    "curriculum.smooth_s": "s",
    "curriculum.labels_s": "s",
    "classifier.train_s": "s",
    "classifier.epochs": "count",
    "diagnostics.sweep_s": "s",
    "diagnostics.write_s": "s",
    "diagnostics.rows": "count",
    "oracles.reference_s": "s",
    "io.load_s": "s",
    "io.bytes_read": "B",
    "experiment.other_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that count work; they must repeat exactly between operations.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit in ("count", "GFLOP", "B")
)


@dataclass(frozen=True)
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    group: str | None
    start: float
    end: float
    self_s: float
    outermost: bool  # no enclosing span of the same group
    counters: dict


class Tracer:
    """Records spans of traced operations; install() / uninstall() bracket
    each operation so that the code between traced operations runs unwrapped."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._saved = []
        self._stack = []  # [span id, start, child seconds, group]
        self._open = {}   # group -> open spans of that group
        self._next_id = 0
        self._op = -1

    def install(self):
        self.missing = []
        mods = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphain" or name.startswith("graphain."))
        ]
        for target in self.targets:
            fn = getattr(sys.modules.get(target.module), target.name, None)
            if not callable(fn):
                self.missing.append(f"{target.module}.{target.name}")
                continue
            wrapper = self._wrap(target, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _push(self, group):
        span_id = self._next_id
        self._next_id += 1
        if group is not None:
            self._open[group] = self._open.get(group, 0) + 1
        self._stack.append([span_id, time.perf_counter(), 0.0, group])

    def _pop(self, name, counters):
        end = time.perf_counter()
        span_id, start, child_s, group = self._stack.pop()
        outermost = True
        if group is not None:
            self._open[group] -= 1
            outermost = self._open[group] == 0
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append(
            Span(self._op, span_id, parent, name, group, start, end,
                 duration - child_s, outermost, counters)
        )
        return duration

    def _wrap(self, target, fn):
        name = f"{target.module.rsplit('.', 1)[-1]}.{target.name}"
        group = target.group
        count = target.counters
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._push(group)
            counters = {}
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    try:
                        counters = count(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError) as err:
                        tracer.counter_errors.append(f"{name}: {err!r}")
                return result
            finally:
                tracer._pop(name, counters)

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, fn):
        """Run fn() as one traced operation; returns (result, seconds, spans).

        If fn raises, the spans are kept and the exception propagates."""
        self._op += 1
        first = len(self.spans)
        self.install()
        self._push(None)
        try:
            result = fn()
        finally:
            duration = self._pop("operation", {})
            self.uninstall()
        return result, duration, self.spans[first:]


def layer_metrics(spans) -> dict:
    """Per-layer metric values of one traced operation's spans (all but
    trace.overhead_s, which compares traced with untraced operations)."""
    root = next(s for s in spans if s.parent is None)
    incl, self_s, calls, counters = {}, {}, {}, {}
    for s in spans:
        for key, value in s.counters.items():
            counters[key] = counters.get(key, 0) + value
        if s.group is None:
            continue
        calls[s.group] = calls.get(s.group, 0) + 1
        self_s[s.group] = self_s.get(s.group, 0.0) + s.self_s
        if s.outermost:
            incl[s.group] = incl.get(s.group, 0.0) + (s.end - s.start)
    grouped_self = sum(self_s.values())
    run_s = incl.get("propagation.run", 0.0)
    layers = counters.get("layers", 0)
    return {
        "linalg.eig_s": incl.get("linalg.eig", 0.0),
        "linalg.eig_calls": calls.get("linalg.eig", 0),
        "linalg.filter_s": self_s.get("linalg.filter", 0.0),
        "linalg.filter_calls": calls.get("linalg.filter", 0),
        "graph.spmm_s": incl.get("graph.spmm", 0.0),
        "graph.spmm_calls": calls.get("graph.spmm", 0),
        "graph.spmm_gflop": counters.get("gflop", 0.0),
        "propagation.skip_mix_s": self_s.get("propagation.skip_mix", 0.0),
        "propagation.run_s": run_s,
        "propagation.ms_per_layer": 1e3 * run_s / layers if layers else 0.0,
        "synthetic.gen_s": incl.get("synthetic.gen", 0.0),
        "synthetic.edges": counters.get("edges", 0),
        "curriculum.aux_s": incl.get("curriculum.aux", 0.0),
        "curriculum.aux_edges": counters.get("aux_edges", 0),
        "curriculum.smooth_s": incl.get("curriculum.smooth", 0.0),
        "curriculum.labels_s": incl.get("curriculum.labels", 0.0),
        "classifier.train_s": incl.get("classifier.train", 0.0),
        "classifier.epochs": counters.get("epochs", 0),
        "diagnostics.sweep_s": self_s.get("diagnostics.sweep", 0.0),
        "diagnostics.write_s": incl.get("diagnostics.write", 0.0),
        "diagnostics.rows": counters.get("rows", 0),
        "oracles.reference_s": incl.get("oracles.reference", 0.0),
        "io.load_s": incl.get("io.load", 0.0),
        "io.bytes_read": counters.get("bytes_read", 0),
        "experiment.other_s": (root.end - root.start) - grouped_self,
    }


def span_totals(spans) -> dict:
    """Calls, inclusive and self seconds per span name of one operation."""
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s.self_s
        row["incl_s"] += s.end - s.start
    return out


def check_nesting(spans, rel_tol: float = 1e-9) -> list:
    """Problems with one operation's spans: children outside their parent,
    overlapping siblings, or recorded self times that do not match
    duration minus children."""
    problems = []
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent is not None:
            parent = by_id.get(s.parent)
            if parent is None:
                problems.append(f"{s.name}#{s.id}: unknown parent {s.parent}")
                continue
            if s.start < parent.start or s.end > parent.end:
                problems.append(f"{s.name}#{s.id} leaves parent {parent.name}#{parent.id}")
            children.setdefault(s.parent, []).append(s)
    for s in spans:
        kids = sorted(children.get(s.id, []), key=lambda c: c.start)
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end:
                problems.append(f"siblings {a.name}#{a.id} and {b.name}#{b.id} overlap")
        expected = (s.end - s.start) - sum(c.end - c.start for c in kids)
        if not math.isclose(s.self_s, expected, rel_tol=rel_tol, abs_tol=1e-12):
            problems.append(f"{s.name}#{s.id}: self {s.self_s!r} != {expected!r}")
    return problems
