"""Spans and counts taken around calls into cxdesign, from outside it.

The program carries no tracing of its own. Instead `Instrument` replaces
module attributes (and `ZonalKernel.__call__`) with wrappers that open a
span, count work at the same boundary and call the original. A function is
replaced in every cxdesign module that holds the same object, so names
imported with `from .x import f` are covered too. A name a later version no
longer has is recorded as missing and skipped.

Two levels:
- probes (always on, one call per restart): read each restart's return
  value and the descent's iteration counts, for the outcome record;
- spans (trace mode only): time every wrapped call, with parent links, so
  self time is a span minus its children.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("cli", "optimize", "criteria", "metrics", "sphere", "bridge",
           "orthopoly")


def _max_abs(values):
    values = np.asarray(values)
    return float(np.max(np.abs(values))) if values.size else 0.0


class Tracer:
    """In-memory span recorder. A span is (name, start, end, parent, run)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.enabled = False
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self._stack = []

    def begin(self, name):
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if idx is None:
            return
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value=1.0):
        if self.enabled:
            self.counts[key] += value

    def peak(self, key, value):
        if self.enabled:
            self.peaks[key] = max(self.peaks[key], value)

    def totals(self, first_span=0):
        """Total and self seconds per span name, for spans from first_span."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first_span:]:
            total[name] += end - start
            if parent >= first_span:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans[first_span:],
                                                    start=first_span):
            self_time[name] += (end - start) - child.get(i, 0.0)
        calls = defaultdict(int)
        for name, *_ in self.spans[first_span:]:
            calls[name] += 1
        return total, self_time, calls

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


class Instrument:
    """Installs the probes and, in trace mode, the spans; undoes both."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self.restarts = []      # one dict per solve_feasibility return
        self.descents = []      # (nit, nfev) per minimize return
        self._peaked = set()    # point-set shapes whose covering peak is known
        self._undo = []
        self._mods = {}

    # -- plumbing ----------------------------------------------------------

    def _modules(self):
        if not self._mods:
            for name in MODULES:
                try:
                    self._mods[name] = importlib.import_module(f"cxdesign.{name}")
                except ImportError:
                    self.missing.append(f"cxdesign.{name}")
        return self._mods

    def _replace(self, home, attr, make_wrapper):
        mods = self._modules()
        if home not in mods or not hasattr(mods[home], attr):
            self.missing.append(f"cxdesign.{home}.{attr}")
            return
        orig = getattr(mods[home], attr)
        wrapper = make_wrapper(orig)
        for mod in mods.values():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, orig))

    def _spanned(self, name, after=None):
        """Wrapper factory: span around the call, then after(result, args)."""
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.end(idx)
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper
        return make

    def reset(self):
        """Forget the outcomes and counts of the previous pass."""
        self.restarts.clear()
        self.descents.clear()
        self._peaked.clear()
        self.tracer.counts.clear()
        self.tracer.peaks.clear()

    def restore(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- what is wrapped ---------------------------------------------------

    def install_probes(self):
        def on_restart(res, args, kwargs):
            self.restarts.append({
                "converged": bool(res.converged),
                "final_V": float(res.final_V),
                "per_degree_max": float(res.per_degree_max),
                "iterations": int(res.iterations),
                "mesh_ratio": float(res.mesh_ratio),
            })

        self._replace("optimize", "solve_feasibility",
                      self._spanned("optimize.restart", on_restart))
        self._replace("optimize", "minimize", self._wrap_minimize)
        self._replace("optimize", "least_squares", self._wrap_least_squares)

    def install_spans(self):
        t = self.tracer
        self._wrap_kernel()
        self._replace("criteria", "per_degree_sums",
                      self._spanned("criteria.per_degree_sums"))
        self._replace("criteria", "variational_value",
                      self._spanned("criteria.variational_value"))
        self._replace(
            "criteria", "verify_triangular_design",
            self._spanned("criteria.monomial_sweep",
                          lambda r, a, k: t.count("criteria.monomials",
                                                  r.checked)))
        self._replace("metrics", "covering_estimate", self._wrap_covering)
        self._replace("metrics", "separation",
                      self._spanned("metrics.separation"))
        self._replace("bridge", "map_design", self._spanned("bridge.map"))
        self._replace("bridge", "integrate", self._spanned("bridge.integrate"))

        def file_bytes(res, args, kwargs):
            t.count("sphere.sdf.bytes", os.path.getsize(args[0]))

        for name in ("save_pointset", "load_real_pointset",
                     "load_complex_pointset"):
            self._replace("sphere", name, self._spanned("sphere.sdf", file_bytes))

    def _wrap_kernel(self):
        mods = self._modules()
        cls = getattr(mods.get("orthopoly"), "ZonalKernel", None)
        if cls is None or "__call__" not in vars(cls):
            self.missing.append("cxdesign.orthopoly.ZonalKernel.__call__")
            return
        orig = vars(cls)["__call__"]
        tracer = self.tracer

        def __call__(kernel, u):
            idx = tracer.begin("orthopoly.kernel")
            try:
                return orig(kernel, u)
            finally:
                tracer.end(idx)
                tracer.count("orthopoly.kernel.entries", getattr(u, "size", 1))

        cls.__call__ = __call__
        self._undo.append((cls, "__call__", orig))

    def _wrap_minimize(self, orig):
        tracer = self.tracer

        def minimize(fun, x0, *args, **kwargs):
            def objective(theta, *fargs):
                idx = tracer.begin("optimize.objective")
                try:
                    return fun(theta, *fargs)
                finally:
                    tracer.end(idx)

            idx = tracer.begin("optimize.descent")
            try:
                res = orig(objective, x0, *args, **kwargs)
            finally:
                tracer.end(idx)
            self.descents.append((int(res.nit), int(res.nfev)))
            tracer.count("optimize.descent.nit", res.nit)
            tracer.count("optimize.descent.nfev", res.nfev)
            return res
        return minimize

    def _wrap_least_squares(self, orig):
        tracer = self.tracer

        def least_squares(fun, x0, *args, jac=None, **kwargs):
            first = []

            def residual(theta, *fargs, **fkw):
                idx = tracer.begin("optimize.polish.residual")
                try:
                    r = fun(theta, *fargs, **fkw)
                finally:
                    tracer.end(idx)
                if not first:
                    first.append(_max_abs(r))
                return r

            def jacobian(theta, *fargs, **fkw):
                idx = tracer.begin("optimize.polish.jacobian")
                try:
                    return jac(theta, *fargs, **fkw)
                finally:
                    tracer.end(idx)

            idx = tracer.begin("optimize.polish")
            try:
                res = orig(residual, x0, *args,
                           jac=jacobian if callable(jac) else jac, **kwargs)
            finally:
                tracer.end(idx)
            tracer.count("optimize.polish.nfev", res.nfev)
            tracer.count("optimize.polish.njev", res.njev or 0)
            tracer.peak("optimize.polish.residual_before",
                        first[0] if first else 0.0)
            tracer.peak("optimize.polish.residual_after", _max_abs(res.fun))
            return res
        return least_squares

    def _wrap_covering(self, orig):
        """Span around covering_estimate, with its tracemalloc peak.

        tracemalloc slows the estimator's many small allocations about
        fivefold, so the peak is taken once per point-set shape in a pass
        (every call on one shape allocates the same arrays).
        """
        tracer = self.tracer

        def covering_estimate(X, *args, **kwargs):
            shape = getattr(X, "points", X).shape
            started = (tracer.enabled and shape not in self._peaked
                       and not tracemalloc.is_tracing())
            if started:
                self._peaked.add(shape)
                tracemalloc.start()
            idx = tracer.begin("metrics.covering")
            try:
                return orig(X, *args, **kwargs)
            finally:
                tracer.end(idx)
                if started:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    tracer.peak("metrics.covering.peak_mb", peak / 2**20)
        return covering_estimate
