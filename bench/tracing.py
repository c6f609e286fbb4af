"""Span tracing of the ``bihom`` layers from outside the program.

:class:`Tracer` wraps every function listed in the ``__all__`` of each
layer module, wherever that function object is bound in a ``bihom.*``
namespace, so that calls made through module globals, package re-exports
and ``from ... import`` bindings are all seen.  Each call records a span
``(name, start, end, parent, job)``; spans live in flat arrays in memory
and are written out by :meth:`Tracer.dump` once the run is over.  Span
names are ``module.function`` (``linalg.kernel_basis``,
``cohomology.coboundary``).

Size statistics (matrix shapes, nonzeros, coefficient bit lengths, document
bytes) are computed in spans of their own, named ``trace.stats``, so their
cost is not charged to any layer.  They are kept per job, so that they can
be summed over any subset of the jobs.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import update_wrapper
from math import comb
from pathlib import Path

LAYERS = ("linalg", "algebra", "representation", "operators", "cohomology",
          "deformation", "documents", "cli")

# Functions whose first argument is a matrix handed to the elimination core.
_MATRIX_CALLS = {"linalg.rank", "linalg.kernel_basis", "linalg.solve",
                 "linalg.try_solve", "linalg.inverse"}

ROOT_SPAN = "bench.job"
STATS_SPAN = "trace.stats"


def layer_functions() -> dict[int, tuple[str, object]]:
    """``id(function) -> (span name, function)`` for every callable that a
    layer module defines and lists in its ``__all__`` (classes excluded)."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bihom.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[id(obj)] = (f"{layer}.{attr}", obj)
    return out


def bindings(targets: dict[int, tuple[str, object]]
             ) -> list[tuple[object, str, object]]:
    """Every ``(module, attribute, function)`` binding of a target function
    in a loaded ``bihom`` module."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "bihom" or name.startswith("bihom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in targets and targets[id(value)][1] is value:
                found.append((mod, attr, value))
    return found


class Tracer:
    """Records spans for the wrapped ``bihom`` functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = [-1]
        self.job = -1
        # job -> size statistic -> value
        self.job_counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _recorder(self, name: str):
        """``(open, close)`` callables for spans named ``name``."""
        nid = self.name_id(name)
        starts, ends = self.start_col, self.end_col
        stack = self.stack
        names_append, parents_append = self.name_col.append, self.parent_col.append
        jobs_append = self.job_col.append
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            names_append(nid)
            parents_append(stack[-1])
            jobs_append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        return open_span, close_span

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (used for job roots)."""
        open_span, close_span = self._recorder(name)
        idx = open_span()
        try:
            yield idx
        finally:
            close_span(idx)

    def _wrap(self, name: str, fn):
        open_span, close_span = self._recorder(name)
        stats_open, stats_close = self._recorder(STATS_SPAN)

        if name in _MATRIX_CALLS:
            def stats(counts, args, result):
                m = args[0]
                counts["linalg.entries"] += m.rows * m.cols
                bits = counts["linalg.max_bits"]
                nnz = 0
                for row in m.entries:
                    for x in row:
                        if x:
                            nnz += 1
                            b = max(x.numerator.bit_length(),
                                    x.denominator.bit_length())
                            if b > bits:
                                bits = b
                counts["linalg.nnz"] += nnz
                counts["linalg.max_bits"] = bits
        elif name == "documents.load_json":
            def stats(counts, args, result):
                counts["documents.bytes_in"] += os.path.getsize(args[0])
        elif name == "documents.dump_json":
            def stats(counts, args, result):
                counts["documents.bytes_out"] += os.path.getsize(args[0])
        elif name == "cohomology.cochain_space":
            def stats(counts, args, result):
                a, r, n = args[:3]
                counts["cohomology.cochain_space.coords"] += (
                    comb(a.dim, n - 1) * a.dim * r.vdim)
                counts["cohomology.cochain_space.dim"] += result.dim
        else:
            stats = None

        def wrapper(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if stats is not None:
                sidx = stats_open()
                stats(self.job_counts[self.job], args, result)
                stats_close(sidx)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every layer function in every ``bihom`` namespace to its
        recording wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets = layer_functions()
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in targets.items()}
        for mod, attr, fn in bindings(targets):
            setattr(mod, attr, wrappers[id(fn)])
            self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        """Restore every binding that :meth:`install` replaced."""
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans.
        Spans nest strictly (one thread, synchronous calls), so the children
        cover disjoint parts of the parent's interval."""
        dur = [e - s for s, e in zip(self.start_col, self.end_col)]
        out = list(dur)
        for idx, parent in enumerate(self.parent_col):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def summary(self, jobs=None) -> dict[str, dict[str, float]]:
        """``name -> {"calls", "self_s"}`` aggregated over the spans of
        ``jobs`` (a set of job numbers; all spans when None)."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for idx, (nid, job) in enumerate(zip(self.name_col, self.job_col)):
            if jobs is None or job in jobs:
                calls[nid] += 1
                total[nid] += selfs[idx]
        return {name: {"calls": calls[i], "self_s": total[i]}
                for i, name in enumerate(self.names)}

    def counts(self, jobs=None) -> dict[str, int]:
        """The size statistics of ``jobs`` (all jobs when None): sums,
        except ``linalg.max_bits``, which is a maximum."""
        out: dict[str, int] = defaultdict(int)
        for job, counts in self.job_counts.items():
            if jobs is None or job in jobs:
                for key, value in counts.items():
                    out[key] = (max(out[key], value) if key == "linalg.max_bits"
                                else out[key] + value)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans to ``path`` as JSON: the name table and one list
        per column, a span's name given as its index in the table."""
        columns = {"name": self.name_col, "parent": self.parent_col,
                   "job": self.job_col, "start": self.start_col,
                   "end": self.end_col}
        doc = {"names": self.names,
               "columns": {key: col.tolist() for key, col in columns.items()}}
        Path(path).write_text(json.dumps(doc) + "\n")
