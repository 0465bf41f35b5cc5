"""Span tracing installed from outside the program, for the traced run.

:meth:`Tracer.install` wraps the public functions and methods at each layer
boundary of ``repro`` with a recorder. Every call becomes a span: name,
start, end and the index of the enclosing span. A span's *self time* is
its duration minus the time its child spans cover, so the self times of
all layers add up to the traced wall time without double counting.
Counts (frames, key-frames, scored pairs, map tasks) are taken in the
same wrappers, from the arguments and results crossing the boundary.

The wrappers replace the function object wherever ``repro`` holds it:
on its defining module, on every module that imported it by name, and
in the dataflow planner's injected runtime. Calls made inside worker
processes of the process backend are not seen from the parent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Maps a call's ``(args, result)`` to ``{count name: increment}``.
CountFn = Optional[Callable[[tuple, Any], Dict[str, float]]]


def _n_frames(args: tuple, result: Any) -> Dict[str, float]:
    return {"vision.frames": float(len(args[0]))}


def _one_frame(args: tuple, result: Any) -> Dict[str, float]:
    return {"vision.frames": 1.0}


def _kept(args: tuple, result: Any) -> Dict[str, float]:
    return {"core.keyframes_kept": float(len(result))}


def _pair(args: tuple, result: Any) -> Dict[str, float]:
    return {"core.pair_scores": 1.0, "core.pairs_merged": float(bool(result.mergeable))}


def _s2(args: tuple, result: Any) -> Dict[str, float]:
    return {"core.s2_runs": 1.0}


def _tasks(args: tuple, result: Any) -> Dict[str, float]:
    return {"backend.map_tasks": float(len(args[1]))}


def _lookup(args: tuple, result: Any) -> Dict[str, float]:
    hit = float(result[0])
    return {"backend.cache_hits": hit, "backend.cache_misses": 1.0 - hit}


def _published(args: tuple, result: Any) -> Dict[str, float]:
    return {"serving.versions_published": float(result is not None)}


#: (module, attribute path, span name, counter). A span's self time feeds
#: the per-layer metric ``<span name>_ms``; a ``None`` span name records
#: the count without a span.
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], CountFn], ...] = (
    # repro.vision: the shared frame-stack planes, then each kernel family.
    ("repro.vision.image", "Frame.grayscale", "vision.framestack", None),
    ("repro.vision.image", "to_grayscale_stack", "vision.framestack", None),
    ("repro.vision.filters", "gaussian_blur_stack", "vision.framestack", None),
    ("repro.vision.framestack", "FrameStack.blurred", "vision.framestack", None),
    ("repro.vision.framestack", "FrameStack.gradients", "vision.framestack", None),
    ("repro.vision.framestack", "FrameStack.standardized", "vision.framestack", None),
    ("repro.vision.framestack", "FrameStack.integral", "vision.framestack", None),
    ("repro.vision.hog", "hog_descriptor", "vision.hog", _one_frame),
    ("repro.vision.hog", "hog_descriptor_stack", "vision.hog", _n_frames),
    ("repro.vision.surf", "detect_and_describe", "vision.surf", None),
    ("repro.vision.surf", "surf_detect_batch", "vision.surf", None),
    ("repro.vision.matching", "match_descriptors", "vision.match", None),
    ("repro.vision.color_histogram", "chromaticity_histogram", "vision.signatures", None),
    ("repro.vision.shape_matching", "shape_signature", "vision.signatures", None),
    ("repro.vision.wavelet", "wavelet_signature", "vision.signatures", None),
    ("repro.vision.lsd", "detect_line_segments", "vision.lsd", None),
    ("repro.vision.stitching", "select_panorama_frames", "vision.stitch", None),
    ("repro.vision.stitching", "stitch_cylindrical", "vision.stitch", None),
    # repro.core: the reconstruction stages and the two query kernels.
    ("repro.core.keyframes", "select_keyframes", "core.keyframes", _kept),
    ("repro.core.aggregation", "SequenceAggregator.score_pair", "core.pair_score", _pair),
    ("repro.core.comparison", "KeyframeComparator.s2_score", None, _s2),
    ("repro.core.aggregation", "register_candidates", "core.aggregate", None),
    ("repro.core.aggregation", "calibrate_drift", "core.aggregate", None),
    ("repro.core.skeleton", "reconstruct_skeleton", "core.skeleton", None),
    ("repro.core.panorama", "PanoramaBuilder.build", "core.panorama", None),
    ("repro.core.room_layout", "RoomLayoutEstimator.estimate", "core.room_layout", None),
    ("repro.core.floorplan", "FloorPlanAssembler.arrange", "core.floorplan", None),
    ("repro.core.localization", "VisualLocalizer.localize", "core.localize", None),
    ("repro.core.navigation", "route_to_room", "core.route", None),
    # repro.dataflow: the planner's own work (plan building, node keys).
    ("repro.dataflow.planner", "DataflowPlanner.run_sessions", "dataflow.run", None),
    # repro.backend: worker fan-out and content digests.
    ("repro.backend.workers", "map_parallel", "backend.map", _tasks),
    ("repro.backend.workers", "map_with_failures", "backend.map", _tasks),
    ("repro.backend.cache", "array_digest", "backend.digest", None),
    ("repro.backend.cache", "ResultCache.lookup", None, _lookup),
    # repro.serving: the write path and the three read handlers.
    ("repro.serving.shards", "MapShard.ingest", "serving.ingest", None),
    ("repro.serving.shards", "MapShard.refresh", "serving.refresh", _published),
    ("repro.core.localization", "VisualLocalizer.__init__", "serving.index", None),
    ("repro.serving.handlers", "QueryHandlers.locate", "serving.locate", None),
    ("repro.serving.handlers", "QueryHandlers.route", "serving.route", None),
    ("repro.serving.handlers", "QueryHandlers.get_floorplan", "serving.get_floorplan", None),
)


class Tracer:
    """In-memory span recorder with per-name self time and counts."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # Open spans: [span index, name, start, child seconds].
        self._stack: List[list] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: Optional[str], counter: CountFn) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = fn(*args, **kwargs)
                tracer._count(counter, args, result)
                return result
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            frame = [index, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.spans[index] = (name, frame[2], end, parent)
                tracer.self_seconds[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
            tracer._count(counter, args, result)
            return result

        return traced

    def _count(self, counter: CountFn, args: tuple, result: Any) -> None:
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counts[key] += value

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        from repro.dataflow import runtime as dataflow_runtime

        loaded = [m for n, m in sys.modules.items()
                  if n == "repro" or n.startswith("repro.")]
        rt = dataflow_runtime.get_runtime()
        rt_updates: Dict[str, Callable] = {}
        for module_name, path, name, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self.wrap(original, name, counter))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, name, counter)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
            for field in dataclasses.fields(rt):
                if getattr(rt, field.name) is original:
                    rt_updates[field.name] = wrapped
        if rt_updates:
            self._undo.append((dataflow_runtime, "_runtime", rt))
            dataflow_runtime.install_runtime(dataclasses.replace(rt, **rt_updates))

    def uninstall(self) -> None:
        """Put every wrapped object back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def add(self, name: str, seconds: float) -> None:
        """Record a span measured by the benchmark itself (no children)."""
        now = time.perf_counter()
        self.spans.append((name, now - seconds, now, -1))
        self.self_seconds[name] += seconds

    def write(self, path: str) -> None:
        """Write every span and the per-name totals as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in self.spans
                ],
                "self_seconds": dict(self.self_seconds),
                "counts": dict(self.counts),
            }, fh)
