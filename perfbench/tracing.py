"""Outside-in tracing of epkit's public functions.

``Tracer.install`` replaces each function or method in ``TARGETS`` with a
wrapper that records a span, on every ``epkit`` module attribute that binds
it (``epkit.cli`` binds ``scan_grid`` at import, ``epkit.models`` binds
``linalg.eig``); ``remove`` puts the originals back.  Spans stay in memory
with a link to their parent span and are written out after the run.

A span's self time is its duration minus the union of its children's
intervals.  Calls from ``scan_grid``'s worker threads get the span that was
open on the installing thread as their parent.  No function that runs once
per RK4 step is wrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _matrices(shape):
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _steps(fn):
    sig = inspect.signature(fn)

    def count(name, args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        # a step-doubling check integrates again at twice the steps
        factor = 3 if bound.get("check_steps") else 1
        return {f"{name}.steps": factor * int(bound["steps"])}

    return count


def _written(name, args, kwargs, result):
    return {f"{name}.bytes": os.path.getsize(args[0])}


def _trace_lines(name, args, kwargs, result):
    return {"spectra.lines.vertices": sum(len(line) for line in result.lines),
            "spectra.points.count": len(result.points)}


def _track_sheets(name, args, kwargs, result):
    return {f"{name}.samples": len(result.times),
            f"{name}.ambiguous": int(result.defective_samples.sum())}


def _detect_ep(name, args, kwargs, result):
    return {f"{name}.accepted": int(result is not None and result.order >= 3)}


_SERIALIZERS = ("map_csv", "map_json", "trajectory_csv", "chirality_json",
                "steady_scan_csv", "fold_json")

# (span name, module, attribute or "Class.method", counter factory or counter)
# A counter maps (span name, args, kwargs, result) to {metric: count}.
TARGETS = [
    ("cli.run", "epkit.cli", "run", None),
    *[("cli.serialize", "epkit.output", fn, None) for fn in _SERIALIZERS],
    # write_json calls write_text: the inner call joins the outer span
    ("cli.write", "epkit.output", "write_json", _written),
    ("cli.write", "epkit.output", "write_text", _written),
    ("linalg.eig", "epkit.linalg", "eig", None),
    ("linalg.eig_batch", "epkit.linalg", "eig_batch",
     lambda n, a, k, r: {f"{n}.matrices": _matrices(r[1].shape)}),
    ("models.matrix", "epkit.models", "ModelSpec.matrix",
     lambda n, a, k, r: {f"{n}.matrices": _matrices(r.shape)}),
    ("models.path_matrices", "epkit.models", "PathDrive.matrices", None),
    ("spectra.scan_grid", "epkit.spectra", "scan_grid",
     lambda n, a, k, r: {f"{n}.cells": r.xs.size * r.ys.size}),
    ("spectra.trace_lines", "epkit.spectra", "trace_lines", _trace_lines),
    ("spectra.evaluate_cells", "epkit.spectra", "evaluate_cells",
     lambda n, a, k, r: {f"{n}.cells": r[1].size}),
    ("spectra.detect_ep", "epkit.spectra", "detect_ep", _detect_ep),
    ("dynamics.integrate", "epkit.dynamics", "integrate_schrodinger", _steps),
    ("dynamics.integrate", "epkit.dynamics", "integrate_liouvillian", _steps),
    ("dynamics.track_sheets", "epkit.dynamics", "track_sheets", _track_sheets),
    ("dynamics.project_trajectory", "epkit.dynamics", "project_trajectory", None),
    ("dynamics.classify_chirality", "epkit.dynamics", "classify_chirality", None),
    ("rydberg.steady_states", "epkit.rydberg", "steady_states", None),
    ("rydberg.integrate_bloch", "epkit.rydberg", "integrate_bloch", _steps),
    ("rydberg.bistability_map", "epkit.rydberg", "bistability_map", None),
    ("rydberg.check_conditions", "epkit.rydberg", "check_conditions", None),
]

_NAME, _PARENT, _START, _END, _COUNTS = range(5)


class Tracer:
    """Installs the wrappers, records spans and removes the wrappers again."""

    def __init__(self):
        self.spans = []  # [name, parent span or None, start, end, counts]
        self._local = threading.local()
        self._main_stack = None
        self._restore = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        self._main_stack = self._stack()
        for _, module, _, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "epkit" or n.startswith("epkit.")]
        for name, module, attr, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                self._bind(owner, attr, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        if counter is _steps:
            counter = _steps(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool thread: attach to the caller's open span
                main = tracer._main_stack
                parent = main[-1] if main else None
            if parent is not None and parent[_NAME] == name and stack:
                return fn(*args, **kwargs)
            span = [name, parent, perf_counter(), 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span[_COUNTS] = counter(name, args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """Self time per span, in the order of ``self.spans``."""
        children = defaultdict(list)
        for span in self.spans:
            if span[_PARENT] is not None:
                children[id(span[_PARENT])].append((span[_START], span[_END]))
        out = []
        for span in self.spans:
            covered, reach = 0.0, span[_START]
            for lo, hi in sorted(children.get(id(span), ())):
                lo, hi = max(lo, reach), min(hi, span[_END])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span[_END] - span[_START] - covered)
        return out

    def metrics(self, self_times):
        """``<span>.calls``, ``<span>.self_s`` and the counters, summed."""
        totals = defaultdict(int)
        for span, self_s in zip(self.spans, self_times):
            totals[f"{span[_NAME]}.calls"] += 1
            totals[f"{span[_NAME]}.self_s"] += self_s
            for key, value in (span[_COUNTS] or {}).items():
                totals[key] += value
        return dict(totals)

    def write(self, path):
        """All spans as gzipped JSON, times relative to the first start."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        t0 = min((span[_START] for span in self.spans), default=0.0)
        rows = [
            [span[_NAME],
             index[id(span[_PARENT])] if span[_PARENT] is not None else None,
             span[_START] - t0, span[_END] - t0, span[_COUNTS]]
            for span in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s", "counts"],
                       "spans": rows}, fh, separators=(",", ":"))
