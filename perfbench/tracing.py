"""Spans around the public functions of each qmeasure layer, recorded from
outside the package by wrapping the functions where they are looked up.

A span is (name, start, end, parent index).  Spans are kept in memory for
one request at a time and then folded into per-function totals: the call
count and the self time, which is a span's duration minus the part of it
that its child spans cover.  Counts of work done are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute, span name, counter or None).  An attribute with a dot
# is a method, patched on its class.  Module functions are patched in every
# qmeasure module that holds them, since ``from .core import load_theory``
# copies the reference into the importing module.
TARGETS = (
    ("qmeasure.cli", "main", "cli.main", None),
    ("qmeasure.core", "load_theory", "core.load_theory", None),
    ("qmeasure.exact", "parse_rational", "exact.parse_rational", None),
    ("qmeasure.core", "HistoriesTheory.full_table", "core.full_table", "lattice"),
    ("qmeasure.core", "HistoriesTheory.level", "core.level", "lattice"),
    ("qmeasure.core", "HistoriesTheory.minimal_nonnegligible", "core.minimal_nonnegligible", "lattice"),
    ("qmeasure.core", "HistoriesTheory.validate", "core.validate", "lattice"),
    ("qmeasure.core", "HistoriesTheory.interference", "core.interference", None),
    ("qmeasure.coevents", "primitives", "coevents.primitives", "duals_returned"),
    ("qmeasure.coevents", "classify", "coevents.classify", None),
    ("qmeasure.partitions", "principle_classical_partition",
     "partitions.principle_classical_partition", "duals_merged"),
    ("qmeasure.partitions", "is_classical_wrt_M", "partitions.is_classical_wrt_M", None),
    ("qmeasure.dynamics", "build_feasibility", "dynamics.build_feasibility", "lp_cells"),
    ("qmeasure.dynamics", "solve_feasibility", "dynamics.solve_feasibility", None),
    ("qmeasure.dynamics", "max_probability", "dynamics.max_probability", None),
    ("qmeasure.dynamics", "is_quadratic", "dynamics.is_quadratic", None),
    ("qmeasure.bernoulli", "tail_cutoff", "bernoulli.tail_cutoff", "tosses"),
    ("qmeasure.bernoulli", "cumulative", "bernoulli.cumulative", "tosses"),
    ("qmeasure.bernoulli", "straddle_set_cardinality", "bernoulli.straddle_set_cardinality", None),
    ("qmeasure.bernoulli", "even_odd_witness", "bernoulli.even_odd_witness", None),
    ("qmeasure.bernoulli", "tail_rows", "bernoulli.tail_rows", "tosses"),
    ("qmeasure.bernoulli", "simulate", "bernoulli.simulate", "trials_simulated"),
    ("qmeasure.bernoulli", "hypothesis_test", "bernoulli.hypothesis_test", None),
)

# counter name -> (metric, amount taken from the call's arguments and result)
COUNTERS = {
    "lattice": ("core.lattice_events", lambda args, result: 1 << args[0].space.n),
    "duals_returned": ("coevents.duals_returned", lambda args, result: len(result)),
    "duals_merged": ("partitions.duals_merged", lambda args, result: sum(result[1].class_sizes)),
    "lp_cells": ("dynamics.lp_cells",
                 lambda args, result: len(result.rows) * len(result.coevents)),
    "tosses": ("bernoulli.tosses", lambda args, result: args[0].n),
    "trials_simulated": ("bernoulli.trials_simulated", lambda args, result: args[0]),
}

#: Count metrics, reported even when a workload never touches them.
COUNT_METRICS = ("cli.stdout_bytes",) + tuple(metric for metric, _ in COUNTERS.values())

#: Functions whose self time the lattice event rate is taken over.
LATTICE_SPANS = ("core.full_table", "core.level", "core.minimal_nonnegligible", "core.validate")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans and counts while installed; restores the package on
    ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, metric: str, amount: int) -> None:
        self.counts[metric] += amount

    def end_request(self) -> None:
        """Fold the request's spans into the per-function totals."""
        for span, own in zip(self.spans, self_times(self.spans)):
            self.calls[span[0]] += 1
            self.self_s[span[0]] += own
        self.spans.clear()

    def wrap(self, name: str, fn, counter: str | None):
        metric, amount = COUNTERS[counter] if counter else (None, None)
        if inspect.isgeneratorfunction(fn):
            # the span covers the whole iteration, not just the call
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                index = self._open(name)
                try:
                    if metric:
                        self.count(metric, amount(args, None))
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(index)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if metric:
                self.count(metric, amount(args, result))
            return result
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(name, original, counter))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original, counter)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").partition(".")[0] != "qmeasure":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, name, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts.get(metric, 0), "bytes" if metric.endswith("bytes") else "count")
        lattice_s = sum(self.self_s.get(name, 0.0) for name in LATTICE_SPANS)
        events = self.counts.get("core.lattice_events", 0)
        out["core.events_per_s"] = (events / lattice_s if lattice_s else 0.0, "1/s")
        merge_s = self.self_s.get("partitions.principle_classical_partition", 0.0)
        merged = self.counts.get("partitions.duals_merged", 0)
        out["partitions.duals_per_s"] = (merged / merge_s if merge_s else 0.0, "1/s")
        return out
