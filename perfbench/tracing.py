"""Spans, exact counts and profiler aggregation around varjet's public functions.

The program itself is not instrumented: the worker patches wrappers over
the public functions of each module, in every varjet module namespace that
holds them (so calls made through `cli`'s own imports are caught too), and
over a few kernel methods that only count calls.  The `Expr` kernel is too
hot to span; its time comes from a cProfile pass, aggregated per module.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import pstats
import sys
import time
from collections import Counter, defaultdict

MODULES = ("symcore", "multiindex", "jetcalc", "variational", "pdham",
           "numeric", "problemfile", "cli")

# spanned functions: metric prefix -> (module, attribute path); each gives
# `<prefix>_s` (inclusive seconds, outermost calls only) and `<prefix>_calls`
SPANNED = {
    "symcore.parse": ("symcore", "parse"),
    "symcore.render": ("symcore", "render"),
    "symcore.substitute": ("symcore", "Expr.substitute"),
    "jetcalc.total_derivative": ("jetcalc", "total_derivative"),
    "variational.euler_lagrange": ("variational", "euler_lagrange"),
    "variational.legendre_form": ("variational", "legendre_form"),
    "pdham.reduce_lagrangian": ("pdham", "reduce_lagrangian"),
    "pdham.hessian": ("pdham", "hessian"),
    "pdham.elh_system": ("pdham", "elh_system"),
    "pdham.momentum_shift": ("pdham", "momentum_shift"),
    "problemfile.load_problem": ("problemfile", "load_problem"),
    "numeric.fd_prolong": ("numeric", "fd_prolong"),
    "numeric.evaluate": ("numeric", "evaluate"),
    "numeric.residual": ("numeric", "residual"),
    "numeric.load_grid": ("numeric", "load_grid"),
}

# kernel methods that are only counted: metric name -> (module, attribute
# path).  Their wrappers slow the kernel by about a fifth, so they go into a
# separate counting pass and the spanned pass keeps honest inclusive times.
KERNEL_COUNTED = {
    "symcore.expr_built": ("symcore", "Expr.__init__"),
    "symcore.sort_key_calls": ("symcore", "CoordinateId.sort_key"),
}
STENCIL = ("numeric", "_apply_stencil")

# counts that the profiler pass must reproduce exactly, with their functions
PROFILED_COUNTS = {**KERNEL_COUNTED,
                   "symcore.substitute_calls": SPANNED["symcore.substitute"],
                   "jetcalc.total_derivative_calls": SPANNED["jetcalc.total_derivative"]}


def _module(name: str):
    return importlib.import_module(f"varjet.{name}")


def _resolve(module: str, path: str):
    """(owner, attribute, function) for 'f' or 'Class.f', or None if gone."""
    owner = _module(module)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _install(module: str, path: str, make_wrapper) -> None:
    found = _resolve(module, path)
    if found is None:
        print(f"perfbench: varjet.{module}.{path} not found; not traced", file=sys.stderr)
        return
    owner, attr, fn = found
    wrapper = functools.wraps(fn)(make_wrapper(fn))
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for namespace in [vars(importlib.import_module("varjet"))] + \
            [vars(_module(name)) for name in MODULES]:
        for key, value in list(namespace.items()):
            if value is fn:
                namespace[key] = wrapper


def _terms_in(text: str) -> int:
    """Terms in a plain-format rendering: top-level ' + ' / ' - ' separators."""
    return 0 if text == "0" else 1 + text.count(" + ") + text.count(" - ")


class Tracer:
    """Records spans (name, start, end, op, parent) and exact counts in memory."""

    def __init__(self, kernel_counts: bool):
        self.kernel_counts = kernel_counts
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.inclusive = defaultdict(float)
        self.depth = Counter()
        self.stencil_bytes = 0

    def install(self) -> None:
        for prefix, (module, path) in SPANNED.items():
            _install(module, path, lambda fn, prefix=prefix: self._span(prefix, fn))
        counts = self.counts

        def counter(name):
            def make(fn):
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
                return counted
            return make

        if self.kernel_counts:
            for name, (module, path) in KERNEL_COUNTED.items():
                _install(module, path, counter(name))

        def stencil(fn):
            def counted(arr, axis, order, *args, **kwargs):
                if order:
                    counts["numeric.stencil_passes"] += 1
                    self.stencil_bytes += arr.nbytes
                return fn(arr, axis, order, *args, **kwargs)
            return counted

        _install(*STENCIL, stencil)

    def _span(self, name, fn):
        def spanned(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            self.depth[name] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.depth[name] -= 1
                if not self.depth[name]:
                    self.inclusive[name] += end - start
                self.counts[name + "_calls"] += 1
                self.spans[sid] = (name, start, end, self.op, parent)
            if name == "symcore.render" and \
                    (args[2] if len(args) > 2 else kwargs.get("fmt", "plain")) == "plain":
                self.counts["symcore.terms_out"] += _terms_in(out)
            return out
        return spanned

    def summary(self) -> dict:
        names = [f"{p}_calls" for p in SPANNED] + \
            ["symcore.terms_out", "numeric.stencil_passes"] + \
            (list(KERNEL_COUNTED) if self.kernel_counts else [])
        counts = {name: self.counts[name] for name in names}
        times = {f"{p}_s": self.inclusive[p] for p in SPANNED}
        return {"counts": counts, "times": times, "stencil_bytes": self.stencil_bytes}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, op, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "op": op, "parent": parent}) + "\n")


def profile_summary(profile: cProfile.Profile) -> dict:
    """Self time per varjet module and fractions, and the profiled counts."""
    package = os.path.dirname(_module("symcore").__file__)
    self_s = defaultdict(float)
    by_code = {}
    for (filename, line, func), (_, ncalls, tottime, _, _) in \
            pstats.Stats(profile).stats.items():
        by_code[(filename, line, func)] = ncalls
        if os.path.dirname(filename) == package:
            self_s[os.path.basename(filename)[:-3] + ".self_s"] += tottime
        elif os.path.basename(filename) == "fractions.py":
            self_s["fractions.self_s"] += tottime
    counts = {}
    for name, target in PROFILED_COUNTS.items():
        found = _resolve(*target)
        if found is not None:
            code = found[2].__code__
            counts[name] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    return {"self_s": dict(self_s), "counts": counts}
