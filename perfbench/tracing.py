"""Span tracing of ilocal's layers, installed from outside the package.

A ``Tracer`` replaces each traced function with a wrapper that records a
span ``(name, start, end, parent, size)``.  ``from .x import y`` copies a
function into the importing module, so every ilocal module attribute that
refers to a traced function is replaced, not only the defining one; a
method is replaced on its class, which every importer shares.  Spans stay
in memory until ``write_spans``; leaving the ``with`` block puts every
original object back.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time

SPAN_FIELDS = ("name", "start", "end", "parent", "size")


def _cells_built(counters, args, result):
    counters["complexes.cells_built"] += len(args[0].cells)


def _homology_size(counters, args, result):
    cells = len(args[0])
    counters["homology.cells_reduced"] += cells
    counters["homology.towers_out"] += len(result.module)
    return cells


def _terms(counters, args, result):
    return len(args[0])


def _bytes_out(counters, args, result):
    counters["render.bytes_out"] += len(result.encode("utf-8"))


#: (module, attribute, span name, hook).  An attribute "Class.method" is a
#: method; a hook runs after the call, may add to the counters and returns
#: the span's size (or None).
TARGETS = (
    ("expr", "parse_expression", "expr.parse_expression", None),
    ("expr", "format_expression", "expr.format_expression", None),
    ("complexes", "GeometricComplex.__init__", "complexes.GeometricComplex", _cells_built),
    ("complexes", "SplitComplex.__init__", "complexes.SplitComplex", None),
    ("complexes", "dual", "complexes.dual", None),
    ("complexes", "decompose", "complexes.decompose", None),
    ("complexes", "tensor", "complexes.tensor", None),
    ("doubling", "double", "doubling.double", None),
    ("doubling", "local_map_f", "doubling.local_map_f", None),
    ("doubling", "local_map_g", "doubling.local_map_g", None),
    ("doubling", "verify_local_pair", "doubling.verify_local_pair", None),
    ("homology", "homology", "homology.homology", _homology_size),
    ("homology", "ChainMap.chain_witness", "homology.chain_witness", None),
    ("homology", "compose", "homology.compose", None),
    ("homology", "induced_map", "homology.induced_map", None),
    ("homology", "is_u_localized_iso", "homology.is_u_localized_iso", None),
    ("towers", "kunneth", "towers.kunneth", None),
    ("connected", "representative", "connected.representative", _terms),
    ("connected", "place_towers", "connected.place_towers", None),
    ("connected", "decode", "connected.decode", None),
    ("connected", "connect_sum", "connected.connect_sum", None),
    ("render", "render", "render.render", None),
    ("render", "render_ascii", "render.render_ascii", _bytes_out),
    ("render", "render_svg", "render.render_svg", _bytes_out),
    ("cli", "main", "cli.main", None),
)

COUNTERS = (
    "complexes.cells_built",
    "homology.cells_reduced",
    "homology.towers_out",
    "render.bytes_out",
)


def ilocal_modules():
    """The loaded ilocal modules, package included, by full name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "ilocal" or name.startswith("ilocal."))
    }


class Tracer:
    """Records spans around ilocal's layer functions while installed."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def __enter__(self):
        modules = ilocal_modules()
        try:
            for module, attr, name, hook in TARGETS:
                mod = modules.get(f"ilocal.{module}")
                if mod is not None:
                    self._install(modules, mod, attr, name, hook)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, modules, mod, attr, name, hook):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original, self._wrap(name, original, hook))
            return
        original = getattr(mod, attr)
        wrapper = self._wrap(name, original, hook)
        for owner in modules.values():
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(counters, args, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def layer_stats(spans):
    """Per span name: calls, total and self seconds, and (size, seconds) samples.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced code is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, _, size) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sized": []})
        dur = end - start
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i]
        if size is not None:
            s["sized"].append((size, dur))
    return stats


def layer_metrics(tracer):
    """Per-layer figures of one traced pass: per span name ``.calls``,
    ``.self_s`` and ``.exponent`` (time against size, 0 where no size is
    recorded), the counters, and the ratios derived from them."""
    stats = layer_stats(tracer.spans)
    metrics = {}
    for _, _, name, _ in TARGETS:
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "sized": []})
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.self_s"] = s["self_s"]
        metrics[f"{name}.exponent"] = loglog_slope(s["sized"]) or 0.0
    counters = tracer.counters
    metrics.update(counters)
    cells = counters["homology.cells_reduced"]
    metrics["homology.towers_per_cell"] = counters["homology.towers_out"] / cells if cells else 0.0
    verifies = metrics["doubling.verify_local_pair.calls"]
    # chain_witness runs twice per verify in verify_local_pair, and again for
    # each map through is_u_localized_iso -> induced_map -> ChainMap.check
    metrics["homology.chain_witness.per_verify"] = (
        metrics["homology.chain_witness.calls"] / verifies if verifies else 0.0
    )
    return metrics


def loglog_slope(samples):
    """Least-squares slope of log(seconds) against log(size); None if undefined."""
    pts = [(math.log(x), math.log(t)) for x, t in samples if x > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
