"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` replaces module-level functions at each layer boundary by
timing wrappers, patching every name a caller looks up (``continuation``
imports ``sample_quadrature`` and ``reach_estimate`` by name, ``residues``
and ``conformal`` import ``curvature_frame``, and so on).  Each span records
its name, start, end and parent and stays in memory until the run ends;
counters are recorded at the same boundaries.  Wrappers pass arguments and
results through unchanged, so traced output is byte-identical to untraced.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# span name -> layer metric prefix used when summing self time
LAYER_OF = {
    "cli": "cli",
    "mobius.report": "mobius",
    "mobius.transform": "mobius.transform",
    "continuation.profile": "continuation.profile_self",
    "continuation.pairs": "continuation.pairs",
    "continuation.near": "continuation.near",
    "continuation.curve_cross": "continuation.curve_cross",
    "continuation.fit": "continuation.fit",
    "continuation.beta_eval": "continuation.beta_eval",
    "frames.build": "frames.build",
    "frames.reach": "frames.reach",
    "series.mul": "series.mul",
    "probe": "probe",
    "quadrature.sample": "quadrature.sample",
    "residues.frame_integral": "residues.integrand_self",
    "conformal": "conformal",
    "conformal.grad_h": "conformal",
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.fit = {"residual": 0.0, "condition": 0.0}
        self._stack = []
        self._open = Counter()   # span name -> how many are open
        self._frame_nodes = set()
        self._keep = []          # specs stay alive so id() keys stay unique
        self._undo = []
        self.jobs = []           # per top-level span: frames built, distinct nodes
        self._job_nodes = set()
        self._job_built = 0

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kw):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._open[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            t1 = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)
            if parent < 0:
                self.jobs.append({"frames_built": self._job_built,
                                  "frame_nodes": len(self._job_nodes)})
                self._job_built = 0
                self._job_nodes.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.fit = {"residual": 0.0, "condition": 0.0}
        self._frame_nodes.clear()
        self._keep.clear()
        self.jobs.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, count=None, after=None):
        def wrapper(*args, **kw):
            if count is not None:
                count(args, kw)
            out = self.span(name, fn, *args, **kw)
            if after is not None:
                after(args, kw, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_everywhere(self, name, modules, attr, **hooks):
        original = getattr(modules[0], attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod in modules:
            if getattr(mod, attr) is original:
                self._patch(mod, attr, wrapper)

    def install(self):
        import residue_lab.manifold as manifold
        from residue_lab import cli, conformal, continuation, mobius, residues
        from residue_lab.manifold import frames, probe, quadrature, series

        c = self.counts
        self._wrap_everywhere("cli", [cli], "main")
        self._wrap_everywhere("mobius.report", [mobius], "invariance_report")
        self._wrap_everywhere("mobius.transform", [mobius], "transform_spec")

        def count_pairs(args, kw):
            rows = sum(len(ch) for ch in args[1])
            c["continuation.pairs"] += rows * rows

        def record_fit(args, kw, out):
            self.fit["residual"] = max(self.fit["residual"], float(out[2]))
            self.fit["condition"] = max(self.fit["condition"], float(out[3]))

        def count_curve(args, kw):
            # outer nodes x inner nodes of the per-node adapted quadrature
            c["continuation.curve_outer"] += int(args[4])

        self._wrap_everywhere("continuation.profile", [continuation], "distance_profile")
        self._wrap_everywhere("continuation.pairs", [continuation], "chunked_map_reduce",
                              count=count_pairs)
        self._wrap_everywhere("continuation.pairs", [continuation], "_tail_moments_curve",
                              count=count_curve)
        self._wrap_everywhere("continuation.near", [continuation], "_near_masses")
        self._wrap_everywhere("continuation.curve_cross", [continuation], "_curve_cross",
                              count=lambda a, k: c.update(["continuation.curve_cross_calls"]))
        self._wrap_everywhere("continuation.fit", [continuation], "_fit_even_model",
                              after=record_fit)
        self._wrap_everywhere("continuation.beta_eval", [continuation], "beta_eval",
                              count=lambda a, k: c.update(["continuation.beta_eval_calls"]))

        def count_frame(args, kw):
            c["frames.built"] += 1
            self._job_built += 1
            if self._open["conformal.grad_h"]:
                return   # a finite-difference offset around a node counted already
            spec, u = args[0], args[1]
            patch = kw.get("patch_index", args[2] if len(args) > 2 else 0)
            self._keep.append(spec)
            node = (id(spec), patch, np.asarray(u, dtype=float).reshape(-1).tobytes())
            self._frame_nodes.add(node)
            self._job_nodes.add(node)

        self._wrap_everywhere("frames.build", [frames, residues, conformal, manifold],
                              "curvature_frame", count=count_frame)
        self._wrap_everywhere("frames.reach", [frames, continuation, manifold],
                              "reach_estimate")
        self._wrap_everywhere("series.mul", [series], "mul",
                              count=lambda a, k: c.update(["series.mul_calls"]))
        self._wrap_everywhere("quadrature.sample",
                              [quadrature, continuation, residues, mobius, manifold],
                              "sample_quadrature",
                              after=lambda a, k, out: c.update({"quadrature.nodes": len(out)}))
        self._wrap_everywhere("residues.frame_integral", [residues, conformal],
                              "frame_integral",
                              count=lambda a, k: c.update(["residues.frame_integral_calls"]))
        for attr in ("graham_witten", "energy_breakdown"):
            self._wrap_everywhere("conformal", [conformal], attr)
        self._wrap_everywhere("conformal.grad_h", [conformal], "_grad_h_sq_intrinsic")

        # the probe is a class; its entry points are patched on the class
        cls = probe.GraphProbe
        self._patch(cls, "__init__", self._wrap("probe", cls.__init__,
                                                count=lambda a, k: c.update(["probe.calls"])))
        self._patch(cls, "derivative_tensors", self._wrap("probe", cls.derivative_tensors))

        # inner evaluations of the curve path: rows passed to volume_element
        # while a continuation.pairs span is open, minus the outer grid
        original_ve = quadrature.volume_element

        def volume_element(patch, u):
            if self._open["continuation.pairs"]:
                c["continuation.curve_rows"] += len(u)
            return original_ve(patch, u)

        self._patch(quadrature, "volume_element", volume_element)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- summary -----------------------------------------------------------

    def wall(self) -> float:
        """Summed duration of the top-level (job) spans."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        wall = self.wall()
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = Counter()
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            self_time[LAYER_OF[name]] += (t1 - t0) - child[i]
        c = self.counts
        pairs_s = self_time["continuation.pairs"]
        # the curve path's first volume_element call is its outer grid
        pairs = (c["continuation.pairs"] + c["continuation.curve_rows"]
                 - c["continuation.curve_outer"])
        nodes = len(self._frame_nodes)

        def pct(layer):
            return 100.0 * self_time[layer] / wall

        return {
            "trace.wall_s": wall,
            "continuation.pairs_pct": pct("continuation.pairs"),
            "continuation.pairs": pairs,
            "continuation.pairs_per_s": pairs / pairs_s if pairs_s > 0 else 0.0,
            "continuation.near_pct": pct("continuation.near"),
            "continuation.curve_cross_calls": c["continuation.curve_cross_calls"],
            "continuation.curve_cross_pct": pct("continuation.curve_cross"),
            "continuation.fit_pct": pct("continuation.fit"),
            "continuation.fit_residual": self.fit["residual"],
            "continuation.fit_condition": self.fit["condition"],
            "continuation.beta_eval_calls": c["continuation.beta_eval_calls"],
            "continuation.beta_eval_pct": pct("continuation.beta_eval"),
            "continuation.profile_self_pct": pct("continuation.profile_self"),
            "frames.built": c["frames.built"],
            "frames.build_pct": pct("frames.build"),
            "frames.reach_pct": pct("frames.reach"),
            "frames.rebuild_ratio": c["frames.built"] / nodes if nodes else 0.0,
            "series.mul_calls": c["series.mul_calls"],
            "series.mul_pct": pct("series.mul"),
            "probe.calls": c["probe.calls"],
            "probe.pct": pct("probe"),
            "quadrature.nodes": c["quadrature.nodes"],
            "quadrature.sample_pct": pct("quadrature.sample"),
            "residues.frame_integral_calls": c["residues.frame_integral_calls"],
            "residues.integrand_self_pct": pct("residues.integrand_self"),
            "conformal.self_pct": pct("conformal"),
            "mobius.transform_pct": pct("mobius.transform"),
            "mobius.self_pct": pct("mobius"),
            "cli.self_pct": pct("cli"),
        }
