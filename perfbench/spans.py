"""Span tracing of vpskit from the benchmark's side, with no change to vpskit.

Each traced function is replaced, for the length of a pass, by a wrapper
under its name in the namespace of the module that calls it: ``metrics``
binds ``extract_segments`` at import and ``render`` binds
``_atomic_write_bytes``, so wrapping only the defining module would miss
those calls. A name that no longer exists is recorded as absent and the
metrics derived from it are left out of the report.

Spans (name, start, end, parent, run id) are kept in memory and written
as JSON Lines when the pass ends. Counts are taken after a span closes on
a clock that is stopped while counting, so counting adds nothing to any
span, parents included.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (module that calls it, attribute, span name). The span name is the
# defining layer and function; io reads and writes share one span name
# each, so nested io calls count once.
WRAPPED = (
    ("vpskit.cli", "main", "cli.main"),
    ("vpskit.cli", "generate", "synth.generate"),
    ("vpskit.cli", "corrupt_shuffle_ids", "synth.corrupt_shuffle_ids"),
    ("vpskit.cli", "corrupt_masks", "synth.corrupt_masks"),
    ("vpskit.cli", "corrupt_boxes", "synth.corrupt_boxes"),
    ("vpskit.cli", "run_warpmatch_sequence", "warpmatch.run_warpmatch_sequence"),
    ("vpskit.cli", "invert_flow", "warpmatch.invert_flow"),
    ("vpskit.warpmatch", "warp_backward", "warpmatch.warp_backward"),
    ("vpskit.warpmatch", "build_iou_matrix", "warpmatch.build_iou_matrix"),
    ("vpskit.warpmatch", "match_ids", "warpmatch.match_ids"),
    ("vpskit.warpmatch", "relabel", "warpmatch.relabel"),
    ("vpskit.cli", "run_fillfuse_sequence", "fillfuse.run_fillfuse_sequence"),
    ("vpskit.fillfuse", "fill_and_fuse", "fillfuse.fill_and_fuse"),
    ("vpskit.fillfuse", "rasterize_ownership", "fillfuse.rasterize_ownership"),
    ("vpskit.cli", "vpq", "metrics.vpq"),
    ("vpskit.metrics", "pq_stats", "metrics.pq_stats"),
    ("vpskit.metrics", "extract_segments", "core.extract_segments"),
    ("vpskit.cli", "render_sequence", "render.render_sequence"),
    ("vpskit.render", "colorize", "render.colorize"),
    ("vpskit.render", "write_ppm", "render.write_ppm"),
    ("vpskit.render", "_atomic_write_bytes", "io.write"),
    ("vpskit.io", "_atomic_write_bytes", "io.write"),
    ("vpskit.io", "write_label_grid", "io.write"),
    ("vpskit.io", "write_flow", "io.write"),
    ("vpskit.io", "write_tracks", "io.write"),
    ("vpskit.io", "write_taxonomy", "io.write"),
    ("vpskit.io", "write_manifest", "io.write"),
    ("vpskit.io", "read_label_grid", "io.read"),
    ("vpskit.io", "read_flow", "io.read"),
    ("vpskit.io", "read_tracks", "io.read"),
    ("vpskit.io", "read_taxonomy", "io.read"),
    ("vpskit.io", "read_manifest", "io.read"),
)

# Busy-time metric -> the span name it sums.
BUSY = {
    "synth.generate_s": "synth.generate",
    "synth.corrupt_shuffle_ids_s": "synth.corrupt_shuffle_ids",
    "synth.corrupt_masks_s": "synth.corrupt_masks",
    "synth.corrupt_boxes_s": "synth.corrupt_boxes",
    "io.write_s": "io.write",
    "io.read_s": "io.read",
    "warpmatch.warp_backward_s": "warpmatch.warp_backward",
    "warpmatch.build_iou_matrix_s": "warpmatch.build_iou_matrix",
    "warpmatch.match_ids_s": "warpmatch.match_ids",
    "warpmatch.relabel_s": "warpmatch.relabel",
    "fillfuse.fill_and_fuse_s": "fillfuse.fill_and_fuse",
    "fillfuse.rasterize_ownership_s": "fillfuse.rasterize_ownership",
    "metrics.vpq_s": "metrics.vpq",
    "metrics.pq_stats_s": "metrics.pq_stats",
    "core.extract_segments_s": "core.extract_segments",
    "render.colorize_s": "render.colorize",
    "render.write_ppm_s": "render.write_ppm",
}
# Self-time metric -> the span name whose children are subtracted.
SELF = {
    "cli.self_s": "cli.main",
    "warpmatch.self_s": "warpmatch.run_warpmatch_sequence",
    "metrics.vpq_self_s": "metrics.vpq",
}
# Count metric -> the span whose arguments or result it is counted from.
COUNTED = {
    "synth.actor_frames": "synth.generate",
    "io.files_written": "io.write",
    "io.bytes_written": "io.write",
    "io.files_read": "io.read",
    "io.bytes_read": "io.read",
    "warpmatch.iou_cells": "warpmatch.build_iou_matrix",
    "warpmatch.instances": "warpmatch.relabel",
    "warpmatch.matched": "warpmatch.relabel",
    "warpmatch.fresh": "warpmatch.relabel",
    "fillfuse.boxes": "fillfuse.fill_and_fuse",
    "core.segment_px": "core.extract_segments",
    "metrics.segments": "core.extract_segments",
    "metrics.tp": "metrics.vpq",
    "metrics.fp": "metrics.vpq",
    "metrics.fn": "metrics.vpq",
    "render.keys": "render.colorize",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _count(name: str, attr: str, args: tuple, result, counts: dict) -> None:
    """Counts for one closed span, from its arguments and result."""
    if name == "io.write":
        if attr == "_atomic_write_bytes":
            counts["io.files_written"] += 1
            counts["io.bytes_written"] += len(args[1])
    elif name == "io.read":
        counts["io.files_read"] += 1
        counts["io.bytes_read"] += os.path.getsize(args[0])
    elif name == "synth.generate":
        counts["synth.actor_frames"] += len(args[0].actors) * args[0].frames
    elif name == "warpmatch.build_iou_matrix":
        counts["warpmatch.iou_cells"] += int(result.values.size)
    elif name == "warpmatch.relabel":
        assignment = args[1]
        counts["warpmatch.matched"] += len(assignment.matches)
        counts["warpmatch.fresh"] += len(assignment.fresh)
        counts["warpmatch.instances"] += len(assignment.matches) + len(assignment.fresh)
    elif name == "fillfuse.fill_and_fuse":
        counts["fillfuse.boxes"] += len(args[1])
        counts["fillfuse.instance_px"] += int(np.count_nonzero(result.instances.values))
    elif name == "fillfuse.rasterize_ownership":
        counts["fillfuse.owned_px"] += int(np.count_nonzero(result.values))
    elif name == "core.extract_segments":
        counts["metrics.segments"] += len(result)
        counts["core.segment_px"] += sum(s.area for s in result)
    elif name == "metrics.vpq":
        counts["metrics.scored_px"] += sum(p.width * p.height for p in args[0])
        for cell in result.per_class.values():
            counts["metrics.tp"] += cell.tp
            counts["metrics.fp"] += cell.fp
            counts["metrics.fn"] += cell.fn
    elif name == "render.colorize":
        pmap = args[0]
        keys = pmap.classes.values.astype(np.uint64) << np.uint64(32)
        keys |= pmap.instances.values.astype(np.uint64)
        counts["render.keys"] += int(np.unique(keys).size)


class Tracer:
    """Installs wrappers, records spans and turns them into layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.run = ""
        self._stack: list[int] = []
        self._paused = 0.0
        self._installed: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _wrap(self, func, name: str, attr: str):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, tracer.clock(), 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            counting = time.perf_counter()
            _count(name, attr, args, result, tracer.counts)
            tracer._paused += time.perf_counter() - counting
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name, attr))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def absent_spans(self) -> set[str]:
        """Span names none of whose bindings could be wrapped."""
        present = {span for module, attr, span in WRAPPED if f"{module}.{attr}" not in self.absent}
        return {span for _, _, span in WRAPPED} - present

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run,
                }) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [s.end - s.start - child_time[i] for i, s in enumerate(self.spans)]

    def busy(self, name: str) -> float:
        """Time inside spans of this name, counting nested same-name spans once."""
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            parent = s.parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent is None:
                total += s.end - s.start
        return total

    def check(self) -> list[str]:
        """Invariants of the recorded spans; returns violations."""
        problems = []
        selfs = self.self_times()
        for i, s in enumerate(self.spans):
            if s.end < s.start or selfs[i] > s.end - s.start or selfs[i] < -1e-9:
                problems.append(f"span {i} {s.name}: self {selfs[i]:.6f} vs duration {s.end - s.start:.6f}")
        for i, s in enumerate(self.spans):
            if s.name != "metrics.vpq":
                continue
            children = sum(c.end - c.start for c in self.spans if c.parent == i)
            if children > s.end - s.start:
                problems.append(f"children of metrics.vpq span {i} exceed it")
        return problems

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far; absent ones are left out."""
        absent = self.absent_spans()
        out: dict[str, float] = {}
        for metric, span in BUSY.items():
            if span not in absent:
                out[metric] = self.busy(span)
        selfs = self.self_times()
        for metric, span in SELF.items():
            if span not in absent:
                out[metric] = sum(t for t, s in zip(selfs, self.spans) if s.name == span)
        c = self.counts
        for metric, span in COUNTED.items():
            if span not in absent:
                out[metric] = c[metric]
        if "warpmatch.relabel" not in absent and c["warpmatch.instances"]:
            out["warpmatch.match_ratio"] = c["warpmatch.matched"] / c["warpmatch.instances"]
        if {"fillfuse.fill_and_fuse", "fillfuse.rasterize_ownership"}.isdisjoint(absent) and c["fillfuse.owned_px"]:
            out["fillfuse.instance_px_ratio"] = c["fillfuse.instance_px"] / c["fillfuse.owned_px"]
        if out.get("metrics.vpq_s"):
            out["metrics.mpx_per_s"] = c["metrics.scored_px"] / out["metrics.vpq_s"] / 1e6
        return out
