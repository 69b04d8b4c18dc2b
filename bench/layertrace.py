"""Outside-in layer tracing for coherentlab.

``LayerTracer`` wraps every public function of the package modules at every
module attribute that binds it (including names imported with ``from .x
import y``), the ``PointSet.lattice_points_near``/``restrict`` methods, and
``numpy.linalg.eigvalsh``.  Each call becomes a span (name, start, end,
parent) kept in memory; the hottest leaves are aggregated into a call count
and a total time instead.  Work counters are read from arguments and return
values.  Nothing inside ``src/`` is changed, and ``remove()`` restores every
original binding.

Self time of a span is its duration minus the time its child spans and
aggregated leaves cover; the layer self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

import numpy as np

import coherentlab
from coherentlab import cli, density, frames, groups, quadrature, reporting, reps

LAYERS = ("groups", "reps", "frames", "density", "quadrature", "cli")
MODULES = {"groups": groups, "reps": reps, "frames": frames, "density": density,
           "quadrature": quadrature, "reporting": reporting, "cli": cli}
# module -> layer; reporting belongs to the cli layer
LAYER_OF = {**{m: m for m in LAYERS}, "reporting": "cli"}

# called ~10^5 times per run: counted and timed in aggregate, never as spans
AGGREGATED = ("frames.gabor_gram_entry", "quadrature.lens_area",
              "reps.gaussian_ambiguity")

# per-layer metric -> span names whose (outermost) inclusive time it sums
INCLUSIVE = {
    "groups.ball_s": ("groups.ball", "groups.ball_measure"),
    "groups.folner_s": ("groups.folner_ratio", "groups.folner_exhaustion"),
    "reps.hermite_s": ("reps.hermite_gabor_coefficients",),
    "frames.count_s": ("frames.PointSet.lattice_points_near",),
    "frames.cover_s": ("frames.lemma_cover_constant",),
    "frames.separation_s": ("frames.relative_separation",),
    "frames.gram_s": ("frames.riesz_bounds",),
    "frames.section_s": ("frames.frame_operator_spectrum",),
    "frames.eigvalsh_s": ("frames.eigvalsh",),
    "density.integral_s": ("density.error_integral_I", "density.error_integral_J",
                           "density.mc_error_integral"),
    "cli.emit_s": ("cli.emit_report",),
}
# per-layer count metric -> span name whose calls it counts
CALLS = {
    "frames.count_calls": "frames.PointSet.lattice_points_near",
    "density.beurling_calls": "density.beurling_density",
}
# per-layer count metric -> aggregated leaf whose calls it counts
LEAF_CALLS = {
    "frames.gram_entries": "frames.gabor_gram_entry",
    "quadrature.lens_calls": "quadrature.lens_area",
}
OBSERVED = ("groups.ball_points", "reps.hermite_entries", "frames.points_returned",
            "frames.cover_n", "frames.separation_candidates", "frames.section_dim",
            "frames.gram_dim", "density.centers_counted", "quadrature.nodes",
            "cli.report_bytes")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_ball(t, args, kwargs, out):
    if out.points is not None:
        t.count("groups.ball_points", len(out.points))


def _observe_hermite(t, args, kwargs, out):
    n_max = _arg(args, kwargs, 0, "n_max")
    n_points = len(_arg(args, kwargs, 1, "points"))
    t.count("reps.hermite_entries", (n_max + 1) * n_points)
    t.count("frames.section_dim", n_points)


def _observe_emit(t, args, kwargs, out):
    t.count("cli.report_bytes", sum(os.path.getsize(p) for p in out))


def _observe_beurling(t, args, kwargs, out):
    t.count("density.centers_counted", sum(r.centers_sampled for r in out.records))


# span name -> (tracer, args, kwargs, result) -> None; runs after the span ends
OBSERVERS = {
    "groups.ball": _observe_ball,
    "reps.hermite_gabor_coefficients": _observe_hermite,
    "frames.PointSet.lattice_points_near":
        lambda t, a, k, out: t.count("frames.points_returned", len(out)),
    "frames.lemma_cover_constant":
        lambda t, a, k, out: t.count("frames.cover_n", out.n_cover),
    "frames.relative_separation":
        lambda t, a, k, out: t.count("frames.separation_candidates", out.n_candidates),
    "frames.riesz_bounds":
        lambda t, a, k, out: t.count("frames.gram_dim", len(out.spectrum)),
    "density.beurling_density": _observe_beurling,
    "cli.emit_report": _observe_emit,
}


def _count_nodes(tracer, args, kwargs):
    """Wrap refine_trapezoid's integrand so every evaluated node is counted."""
    fn = _arg(args, kwargs, 0, "fn")

    def counted(u):
        tracer.count("quadrature.nodes", int(np.size(u)))
        return fn(u)

    if args:
        return (counted, *args[1:]), kwargs
    return args, {**kwargs, "fn": counted}


# span name -> (tracer, args, kwargs) -> (args, kwargs); runs before the call
PRE_HOOKS = {"quadrature.refine_trapezoid": _count_nodes}


def traced_targets() -> list:
    """(span name, original function, [(owner, attribute), ...]) for every
    function the tracer wraps, with every binding of it in the package."""
    owners = [coherentlab, *MODULES.values()]
    targets = []
    for mod_name, mod in MODULES.items():
        for attr, fn in sorted(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            sites = [(o, a) for o in owners for a, v in vars(o).items() if v is fn]
            targets.append((f"{mod_name}.{attr}", fn, sites))
    for meth in ("lattice_points_near", "restrict"):
        targets.append((f"frames.PointSet.{meth}", vars(frames.PointSet)[meth],
                        [(frames.PointSet, meth)]))
    targets.append(("frames.eigvalsh", np.linalg.eigvalsh, [(np.linalg, "eigvalsh")]))
    return targets


class LayerTracer:
    """Context manager that installs the wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index, covered child time]
        self.leaves = {name: [0, 0.0] for name in AGGREGATED}  # calls, seconds
        self.counts = {name: [] for name in OBSERVED}
        self._stack = [-1]
        self._in_leaf = False
        self._patches = []

    def count(self, name: str, value: int) -> None:
        self.counts[name].append(value)

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, fn, sites in traced_targets():
                wrapper = (self._leaf_wrapper(name, fn) if name in AGGREGATED
                           else self._span_wrapper(name, fn))
                for owner, attr in sites:
                    self._patches.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _span_wrapper(self, name, fn):
        tracer, spans, stack = self, self.spans, self._stack
        observe, pre = OBSERVERS.get(name), PRE_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            parent = stack[-1]
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        return wrapper

    def _leaf_wrapper(self, name, fn):
        tracer, spans, stack = self, self.spans, self._stack
        total = self.leaves[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._in_leaf = False
                total[0] += 1
                total[1] += dt
                if stack[-1] >= 0:
                    spans[stack[-1]][4] += dt

        return wrapper

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Layer -> self seconds (spans plus aggregated leaves)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t0, t1, _parent, covered in self.spans:
            out[LAYER_OF[name.split(".", 1)[0]]] += (t1 - t0) - covered
        for name, (_calls, secs) in self.leaves.items():
            out[LAYER_OF[name.split(".", 1)[0]]] += secs
        return out

    def inclusive(self, names) -> float:
        """Total duration of the spans named, not counting one nested in another."""
        names = set(names)
        total = 0.0
        for name, t0, t1, parent, _covered in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += t1 - t0
        return total

    def metrics(self) -> dict:
        """Every per-layer metric this tracer measures (trace.overhead_s aside)."""
        out = {f"{layer}.self_s": secs for layer, secs in self.self_times().items()}
        out.update({m: self.inclusive(n) for m, n in INCLUSIVE.items()})
        calls = {}
        for rec in self.spans:
            calls[rec[0]] = calls.get(rec[0], 0) + 1
        out.update({m: calls.get(n, 0) for m, n in CALLS.items()})
        out.update({m: self.leaves[n][0] for m, n in LEAF_CALLS.items()})
        out.update({m: sum(v) for m, v in self.counts.items()})
        return out

    def dump(self, path: str) -> None:
        """Write the spans, leaf totals and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": a, "end": b, "parent": p}
                                 for n, a, b, p, _ in self.spans],
                       "leaves": {n: {"calls": c, "seconds": s}
                                  for n, (c, s) in self.leaves.items()},
                       "counts": self.counts}, fh)


def median_metrics(runs: list) -> dict:
    """Median of each metric over several traced runs; counts stay integers."""
    return {k: (statistics.median if k.endswith("_s") else statistics.median_low)(
                r[k] for r in runs) for k in runs[0]}
