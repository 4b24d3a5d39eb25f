"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public module-level function of each
layer module with a wrapper, wherever the package holds a reference to it
(its own module, `from .x import f` bindings and the package root).  A
wrapper records a span: name, layer, start, end and the index of the
enclosing span.  Functions called too often for a span (HOT) get a call
counter instead; their time counts toward the layer that calls them.
Methods of classes are not wrapped, so their time also counts toward the
caller.

A layer's self time is the time of its spans minus the time of their
direct child spans.  `metrics` turns the spans and counts into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "kleinforge"
LAYERS = (
    "cli",
    "verification",
    "geometry",
    "cohomology_f2",
    "char_classes",
    "linalg",
    "integral_splitting",
    "fundamental_group",
    "tensor_zcl",
    "polygon_genetics",
)
# 4k to 400k calls per run; a span each would cost more than the work
HOT = frozenset({
    "cohomology_f2.cup",
    "cohomology_f2.sq",
    "cohomology_f2.top_monomial",
    "cohomology_f2.top_coefficient",
    "fundamental_group.multiply",
    "verification.rewrite_word",
    "verification.word_exponents",
    "polygon_genetics.dominates",
})
VERIFICATION_CHECKS = (
    "cohomology-table-n4",
    "cup-ring-oracle",
    "cup-length-and-duality",
    "stiefel-whitney",
    "integral-consistency",
    "tensor-witness",
    "zcl-vanishing",
    "tc-bounds",
    "fundamental-group-oracle",
    "abelianization-h1",
    "geometry-identities",
    "self-intersection-scan-n2",
    "self-intersection-scan-n3",
    "genetic-codes",
)
SPAN_METRICS = (
    "geometry.self_intersection_scan",
    "geometry.build_mesh",
    "geometry.write_obj",
    "geometry.write_mesh_text",
    "geometry.read_mesh_text",
    "cohomology_f2.duality_pairing",
    "char_classes.manifold_report",
    "linalg.f2_solve",
    "tensor_zcl.compute_zcl",
    "integral_splitting.consistency_check",
    "fundamental_group.reduce_word",
    "polygon_genetics.genetic_code",
)
COUNT_METRICS = ("cohomology_f2.cup", "fundamental_group.multiply")
SUBCOMMANDS = (
    "cohomology", "manifold", "check", "pi1", "zcl", "tc", "genes", "mesh", "scan", "verify-paper",
)
GEOMETRY_IO = ("read_", "write_", "load_")
GEOMETRY_IO_SPANS = tuple(f"geometry.{prefix}" for prefix in GEOMETRY_IO)


def _first_path(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                wrapper = self._counter(qual, fn) if qual in HOT else self._span(qual, layer, fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)

    def _counter(self, qual, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, qual, layer, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        is_io = qual.startswith(GEOMETRY_IO_SPANS)

        def spanned(*args, **kwargs):
            span = [qual, layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if layer == "verification" and isinstance(getattr(result, "name", None), str):
                span[0] = f"verification.{result.name}"  # a check reports its own name
            elif qual == "geometry.self_intersection_scan":
                counts["geometry.scan.vertices"] += result.num_vertices
                counts["geometry.scan.pairs"] += result.num_pairs
            elif qual == "tensor_zcl.zcl_exhaustive":
                counts["tensor_zcl.multisets_checked"] += result.checked
            if is_io and not self._inside_io(span):  # count a file once, at the outermost reader
                path = _first_path(args, kwargs)
                if path is not None:
                    counts["geometry.io.bytes"] += os.path.getsize(path)
            return result

        return spanned

    def _inside_io(self, span) -> bool:
        return span[4] >= 0 and self.spans[span[4]][0].startswith(GEOMETRY_IO_SPANS)

    def metrics(self, op_seconds: dict, stdout_bytes: int, factor) -> dict:
        """Per-layer metrics; `op_seconds` maps subcommand -> summed cli.main time.

        Every span's duration is divided by `factor(start, end)`, the CPU
        slowdown over it, like the end-to-end times.
        """
        inclusive: defaultdict = defaultdict(float)
        durations = [(end - start) / factor(start, end) for _, _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (name, _, _, _, parent), dur in zip(self.spans, durations):
            inclusive[name] += dur
            if parent >= 0:
                children[parent] += dur
        self_time = {layer: 0.0 for layer in LAYERS}
        for (_, layer, _, _, _), dur, child in zip(self.spans, durations, children):
            self_time[layer] += dur - child
        c = self.counts
        out = {f"{layer}.self.s": (self_time[layer], "s") for layer in LAYERS}
        for check in VERIFICATION_CHECKS:
            out[f"verification.{check}.s"] = (inclusive[f"verification.{check}"], "s")
        for name in SPAN_METRICS:
            out[f"{name}.s"] = (inclusive[name], "s")
        for name in COUNT_METRICS:
            out[f"{name}.calls"] = (c[name], "count")
        scan_s = inclusive["geometry.self_intersection_scan"]
        out["geometry.scan.vertices"] = (c["geometry.scan.vertices"], "count")
        out["geometry.scan.pairs"] = (c["geometry.scan.pairs"], "count")
        out["geometry.scan.vertices_per_s"] = (
            c["geometry.scan.vertices"] / scan_s if scan_s else 0.0, "vertices/s")
        out["geometry.io.bytes"] = (c["geometry.io.bytes"], "B")
        io_s = sum(
            dur for span, dur in zip(self.spans, durations)
            if span[0].startswith(GEOMETRY_IO_SPANS) and not self._inside_io(span)
        )
        out["geometry.io.mb_per_s"] = (c["geometry.io.bytes"] / io_s / 1e6 if io_s else 0.0, "MB/s")
        out["tensor_zcl.multisets_checked"] = (c["tensor_zcl.multisets_checked"], "count")
        out["cli.stdout_bytes"] = (stdout_bytes, "B")
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}.s"] = (op_seconds.get(sub, 0.0), "s")
        return out
