"""The three workloads: timed loops, correctness checks, metrics.

Each workload is one closed loop with one caller, run in whole *rounds*:
a round is the same fixed list of operations every time, so the share of
failed operations never depends on the seed or on the run length. Every
round starts from freshly loaded inputs and an empty ``ResultCache``, so
no memoized state survives from one round into the next.

The program is driven only through its public entry points:
``CrowdMapPipeline.run_sessions``, ``ShardManager.ingest_session``,
``MapShard.refresh``, ``QueryHandlers`` and ``map_parallel``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import pickle
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from crowdbench import campaigns as cb
# Bound before any trace wrapper is installed: the transport probe must not
# count as worker fan-out of the workload itself.
from repro.backend.workers import map_parallel as unwrapped_map_parallel

#: Rounds every run completes, however short ``--seconds`` is. Batch
#: needs two, so each campaign is reconstructed twice (the twin check).
MIN_ROUNDS = {"batch_serial": 2, "batch_process": 2, "live_serving": 3}

#: Reads run after every operation that leaves a readable map: on batch,
#: against the cold reconstruction; on live, against the newest snapshot
#: of the shard the upload went to.
READ_MIX = ("locate", "route", "route", "get_floorplan", "locate", "route", "route")

# Correctness floors (README "Correctness floors" gives the reasons).
HALLWAY_PRECISION_FLOOR = 0.85
LOCATE_RADIUS_M = 8.0
LOCATE_SHARE_FLOOR = 0.25


class CheckFailed(AssertionError):
    """An output of the program failed a correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load(path: str) -> "cb.Campaign":
    """A fresh, never-processed copy of a rendered campaign."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def fresh_frame(frame):
    """A copy of ``frame`` that carries none of its memoized planes."""
    return replace(frame, pixels=frame.pixels.copy(), _gray_cache=None,
                   _stack_cache=None)


def plan_digest(result) -> str:
    """SHA-256 over every byte of the floor plan a client can read."""
    h = hashlib.sha256()
    skeleton = result.floorplan.skeleton
    h.update(skeleton.skeleton.tobytes())
    h.update(repr((skeleton.bounds, skeleton.cell_size)).encode())
    for room in result.floorplan.rooms:
        layout = room.layout
        h.update(repr((room.name, room.center.x, room.center.y, layout.width,
                       layout.depth, layout.orientation)).encode())
    return h.hexdigest()


def _overlap(a, b) -> bool:
    return (min(a.max_x, b.max_x) > max(a.min_x, b.min_x)
            and min(a.max_y, b.max_y) > max(a.min_y, b.min_y))


#: The navigator snaps route endpoints to accessible cells this close.
ROUTE_SNAP_RADIUS_M = 4.0


def _cell_centres(skeleton):
    import numpy as np

    rows, cols = np.nonzero(skeleton.skeleton)
    xs = skeleton.bounds.min_x + (cols + 0.5) * skeleton.cell_size
    ys = skeleton.bounds.min_y + (rows + 0.5) * skeleton.cell_size
    return rows, cols, xs, ys


def _door_candidates(box):
    """The four edge midpoints of a room box, where routes may end."""
    mid_x, mid_y = (box.min_x + box.max_x) / 2.0, (box.min_y + box.max_y) / 2.0
    return [(mid_x, box.min_y), (mid_x, box.max_y), (box.min_x, mid_y), (box.max_x, mid_y)]


def _reachable(mask, start):
    """Cells 8-connected to ``start`` through accessible cells (BFS)."""
    seen = {start}
    frontier = [start]
    rows, cols = mask.shape
    while frontier:
        r, c = frontier.pop()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                n = (r + dr, c + dc)
                if (n not in seen and 0 <= n[0] < rows and 0 <= n[1] < cols
                        and mask[n]):
                    seen.add(n)
                    frontier.append(n)
    return seen


def _door_cells(skeleton, room_box):
    """For each edge midpoint of the room box within the navigator's snap
    radius of the map, the accessible cells nearest to it (ties kept)."""
    import numpy as np

    rows, cols, xs, ys = _cell_centres(skeleton)
    goals = []
    for gx, gy in _door_candidates(room_box):
        d = np.hypot(xs - gx, ys - gy)
        if d.min() <= ROUTE_SNAP_RADIUS_M:
            nearest = np.nonzero(d <= d.min() + 1e-9)[0]
            goals.append({(int(rows[k]), int(cols[k])) for k in nearest})
    return goals


def route_start(skeleton, room_box, turn: int):
    """A start point for a route to the room: the centre of one accessible
    cell, rotating over the cells from which one of the room's door cells
    can be reached (over the whole map when none can)."""
    from repro.geometry.primitives import Point

    goals = _door_cells(skeleton, room_box)
    cells = set()
    for goal in goals:
        cells |= _reachable(skeleton.skeleton, min(goal))
    if not cells:
        rows, cols, _, _ = _cell_centres(skeleton)
        cells = set(zip(rows.tolist(), cols.tolist()))
    row, col = sorted(cells)[(turn * 7919) % len(cells)]
    return Point(skeleton.bounds.min_x + (col + 0.5) * skeleton.cell_size,
                 skeleton.bounds.min_y + (row + 0.5) * skeleton.cell_size)


def check_route(path, skeleton, room_box, start, what: str) -> None:
    """Check one route answer against the map, computed apart from the
    navigator: a found route steps through adjacent accessible cells from
    the start cell and ends on the accessible cell nearest to one of the
    room box's edge midpoints; a missing route must have no such cell
    reachable from the start."""
    import numpy as np

    mask, cell, bounds = skeleton.skeleton, skeleton.cell_size, skeleton.bounds
    rows, cols, xs, ys = _cell_centres(skeleton)
    k = int(np.argmin(np.hypot(xs - start.x, ys - start.y)))
    start_cell = (int(rows[k]), int(cols[k]))
    goals = _door_cells(skeleton, room_box)
    if not path.found:
        reachable = _reachable(mask, start_cell)
        check(not any(g & reachable for g in goals),
              f"{what}: no route returned, but the room is reachable")
        return
    cells = []
    for p in path.waypoints:
        row = int(math.floor((p.y - bounds.min_y) / cell))
        col = int(math.floor((p.x - bounds.min_x) / cell))
        check(0 <= row < mask.shape[0] and 0 <= col < mask.shape[1] and mask[row, col],
              f"{what}: step ({p.x:.2f}, {p.y:.2f}) is not an accessible cell")
        cells.append((row, col))
    check(cells[0] == start_cell, f"{what}: route starts at {cells[0]}, not {start_cell}")
    for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
        check(max(abs(r1 - r0), abs(c1 - c0)) == 1,
              f"{what}: steps {(r0, c0)} -> {(r1, c1)} are not adjacent")
    check(any(cells[-1] in g for g in goals),
          f"{what}: route ends at {cells[-1]}, on no door cell of the room")


@dataclass
class Tally:
    """Everything a run measures, shared by the three workloads."""

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    update_s: List[float] = field(default_factory=list)
    update_frames: int = 0
    locate_s: List[float] = field(default_factory=list)
    locate_errors: List[float] = field(default_factory=list)
    hallway_f: List[float] = field(default_factory=list)
    room_iou: List[float] = field(default_factory=list)
    hallway_precision: List[float] = field(default_factory=list)
    routes_found: int = 0
    nodes_executed: int = 0
    nodes_skipped: int = 0
    rounds: int = 0

    def count(self, kind: str, ok: bool = True) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1


class Reader:
    """Runs the read mix against one snapshot and checks every answer."""

    def __init__(self, handlers, tally: Tally):
        self.handlers = handlers
        self.tally = tally
        self._turn = 0

    def run(self, snapshot, queries: Sequence[Tuple[Any, Tuple[float, float]]],
            newest_version: int) -> None:
        from repro.serving import LocateQuery, RouteQuery

        result = snapshot.result
        rooms = sorted(r.name for r in result.floorplan.rooms if r.name)
        for kind in READ_MIX:
            frame, truth = queries[self._turn % len(queries)]
            self._turn += 1
            if kind == "locate":
                query = LocateQuery(fresh_frame(frame))
                t0 = time.perf_counter()
                estimate = self.handlers.locate(snapshot, query)
                self.tally.locate_s.append(time.perf_counter() - t0)
                error = (math.hypot(estimate.position.x - truth[0],
                                    estimate.position.y - truth[1])
                         if estimate.matched else math.inf)
                self.tally.locate_errors.append(error)
            elif kind == "route":
                check(bool(rooms), f"{snapshot.shard_key}: map has no room to route to")
                room = rooms[self._turn % len(rooms)]
                box = result.floorplan.room_by_name(room).bounding_box()
                start = route_start(result.skeleton, box, self._turn)
                path = self.handlers.route(snapshot, RouteQuery(start=start, room_name=room))
                self.tally.routes_found += int(path.found)
                check_route(path, result.skeleton, box, start,
                            f"route to {room} on {snapshot.shard_key}")
            else:
                view = self.handlers.get_floorplan(snapshot)
                check(view["version"] == newest_version,
                      f"get_floorplan returned version {view['version']}, "
                      f"newest is {newest_version}")
                check(view["rooms"] == rooms, "get_floorplan rooms differ from the map")
            self.tally.count(kind)


def _settle() -> None:
    """Collect garbage between operations, outside every timer."""
    gc.collect()


def _release() -> None:
    """Drop the finished operation's cache and garbage before the next
    inputs load, so peak memory is one operation's working set."""
    from repro.backend.cache import ResultCache, set_cache

    set_cache(ResultCache())
    gc.collect()


def _score(tally: Tally, result, floor) -> float:
    from repro.eval.scorecard import score_reconstruction

    report = score_reconstruction(result, floor)
    tally.hallway_f.append(report.hallway_f)
    tally.room_iou.append(report.room_iou_mean)
    tally.hallway_precision.append(report.hallway_precision)
    return report.hallway_precision


# ----------------------------------------------------------------------
# batch_serial / batch_process
# ----------------------------------------------------------------------


def batch_config(workload: str):
    from repro import CrowdMapConfig

    if workload == "batch_process":
        return CrowdMapConfig(worker_backend="process", worker_transport="shm",
                              n_workers=2)
    return CrowdMapConfig()


def _noop(item: Any) -> None:
    return None


def _expected_nodes(pipeline, sessions, serial: bool) -> Dict[str, int]:
    walks = [s for s in sessions if s.task == "SWS"]
    groups = pipeline.group_srs_sessions([s for s in sessions if s.task == "SRS"])
    expected = {"keyframes": len(walks), "pair": len(walks) * (len(walks) - 1) // 2,
                "pathway": 1, "room": len(groups), "floorplan": 1}
    if serial:
        expected["framestack"] = len(sessions)
    return expected


def reconstruct_cold(pipeline, campaign, tally: Tally, serial: bool):
    """One cold reconstruction, timed, with the coldness checks."""
    from repro.backend.cache import ResultCache, set_cache
    from repro.backend.telemetry import default_registry
    from repro.dataflow import last_plan_report

    set_cache(ResultCache())
    hits_before = default_registry.value("cache_hits_dataflow")
    _settle()
    t0 = time.perf_counter()
    result = pipeline.run_sessions(campaign.sessions)
    elapsed = time.perf_counter() - t0
    report = last_plan_report()
    check(report.n_skipped() == 0, f"{campaign.plan.key}: {report.n_skipped()} nodes skipped")
    executed = {kind: len(ids) for kind, ids in report.executed.items()}
    expected = _expected_nodes(pipeline, campaign.sessions, serial)
    check(executed == expected,
          f"{campaign.plan.key}: executed {executed}, expected every node {expected}")
    check(default_registry.value("cache_hits_dataflow") == hits_before,
          f"{campaign.plan.key}: the graph cache hit on a cold run")
    check(result.n_quarantined == 0,
          f"{campaign.plan.key}: clean input quarantined {result.failures}")
    tally.nodes_executed += sum(executed.values())
    tally.nodes_skipped += report.n_skipped()
    return result, elapsed


def run_batch(workload: str, paths: Sequence[str], seconds: float, tally: Tally,
              min_rounds: int, tracer=None) -> None:
    from repro import CrowdMapPipeline
    from repro.serving import MapSnapshot, QueryHandlers

    config = batch_config(workload)
    serial = config.worker_backend == "serial"
    pipeline = CrowdMapPipeline(config)
    handlers = QueryHandlers(config)
    reader = Reader(handlers, tally)
    digests: Dict[int, str] = {}
    floors = {}
    start = time.perf_counter()
    while tally.rounds < min_rounds or time.perf_counter() - start < seconds:
        for index, path in enumerate(paths):
            campaign = load(path)
            key = campaign.plan.key
            result, elapsed = reconstruct_cold(pipeline, campaign, tally, serial)
            tally.count("reconstruct")
            tally.update_s.append(elapsed)
            tally.update_frames += campaign.n_frames

            digest = plan_digest(result)
            check(digests.setdefault(index, digest) == digest,
                  f"{key}: twin reconstructions differ")
            if key not in floors:
                from repro.world import BUILDING_BUILDERS
                floors[key] = BUILDING_BUILDERS[campaign.plan.building]()
            precision = _score(tally, result, floors[key])
            check(precision >= HALLWAY_PRECISION_FLOOR,
                  f"{key}: hallway precision {precision:.3f} below the floor")
            for room in result.floorplan.rooms:
                box = room.bounding_box()
                check(any(_overlap(box, truth.bounding_box()) for truth in floors[key].rooms),
                      f"{key}: room {room.name} overlaps no ground-truth room")

            snapshot = MapSnapshot(version=1, shard_key=(campaign.plan.building, 0),
                                   result=result, published_at=0.0, config=config)
            reader.run(snapshot, campaign.queries(), newest_version=1)

            if tracer is not None:
                t0 = time.perf_counter()
                unwrapped_map_parallel(_noop, campaign.sessions,
                                       max_workers=config.n_workers,
                                       backend=config.worker_backend,
                                       transport=config.worker_transport)
                tracer.add("backend.transport", time.perf_counter() - t0)
            del result, snapshot, campaign
            _release()
        tally.rounds += 1

    if workload == "batch_process":
        # The same campaign through the serial backend, outside the loop
        # and untraced: parallel execution must not change a byte of the plan.
        if tracer is not None:
            tracer.uninstall()
        campaign = load(paths[0])
        serial_pipeline = CrowdMapPipeline(batch_config("batch_serial"))
        result, _ = reconstruct_cold(serial_pipeline, campaign, Tally(), serial=True)
        check(plan_digest(result) == digests[0],
              f"{campaign.plan.key}: process backend plan differs from serial")


# ----------------------------------------------------------------------
# live_serving
# ----------------------------------------------------------------------


def run_live(paths: Sequence[str], seconds: float, tally: Tally, min_rounds: int,
             tracer=None) -> None:
    final_digests: Optional[List[str]] = None
    start = time.perf_counter()
    while tally.rounds < min_rounds or time.perf_counter() - start < seconds:
        digests = _live_round(paths, tally, tracer)
        check(final_digests is None or digests == final_digests,
              "two rounds of the same stream published different maps")
        final_digests = digests
        _release()
        tally.rounds += 1


def _live_round(paths: Sequence[str], tally: Tally, tracer) -> List[str]:
    """One pass of the upload stream through a new shard manager; returns
    the digests of the final maps."""
    from repro import CrowdMapConfig
    from repro.backend.cache import ResultCache, set_cache
    from repro.core.keyframes import KeyframeSelectionError
    from repro.serving import QueryHandlers, ShardManager
    from repro.world import BUILDING_BUILDERS

    config = CrowdMapConfig()
    live = [load(path) for path in paths]
    by_building = {c.plan.building: c for c in live}
    stream = cb.live_stream(live)
    set_cache(ResultCache())
    manager = ShardManager(config)
    reader = Reader(QueryHandlers(config), tally)
    published: Dict[str, int] = {}
    for step, (session, corrupt) in enumerate(stream):
        shard = manager.shard_for(session.building, session.floor)
        before = shard.current()
        _settle()
        t0 = time.perf_counter()
        try:
            manager.ingest_session(session)
        except KeyframeSelectionError:
            # The fault the benchmark keeps on purpose: serving ingest
            # raises where the batch path quarantines the session.
            check(corrupt, f"clean upload {session.session_id} failed to ingest")
            check(shard.current() is before and not shard.dirty,
                  f"failed upload {session.session_id} changed the shard")
            tally.count("ingest", ok=False)
            continue
        snapshot = shard.refresh(now=float(step))
        elapsed = time.perf_counter() - t0
        tally.count("ingest")
        if corrupt:
            # Once ingest quarantines corrupt uploads, the map published
            # after one must equal the map before it.
            check(before is not None and (snapshot is None or plan_digest(
                snapshot.result) == plan_digest(before.result)),
                f"corrupt upload {session.session_id} changed the map")
        elif snapshot is not None:
            want = published.get(session.building, 0) + 1
            check(snapshot.version == want,
                  f"{session.building}: published version {snapshot.version}, "
                  f"expected {want}")
            published[session.building] = want
            tally.update_s.append(elapsed)
            tally.update_frames += session.n_frames
        current = shard.current()
        if current is not None:
            reader.run(current, by_building[session.building].queries(),
                       newest_version=published[session.building])

    digests = []
    for campaign in live:
        first = campaign.sessions[0]
        snapshot = manager.shard_for(first.building, first.floor).current()
        floor = BUILDING_BUILDERS[campaign.plan.building]()
        precision = _score(tally, snapshot.result, floor)
        check(precision >= HALLWAY_PRECISION_FLOOR,
              f"live {campaign.plan.key}: hallway precision {precision:.3f} "
              "below the floor")
        digests.append(plan_digest(snapshot.result))

    if tracer is not None:
        clean = [s for s, corrupt in stream if not corrupt]
        t0 = time.perf_counter()
        unwrapped_map_parallel(_noop, clean, max_workers=config.n_workers,
                               backend=config.worker_backend,
                               transport=config.worker_transport)
        tracer.add("backend.transport", time.perf_counter() - t0)
    return digests


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def locate_share(tally: Tally, radius: float = LOCATE_RADIUS_M) -> float:
    """Share of locate estimates within ``radius`` of the true position."""
    within = sum(1 for e in tally.locate_errors if e <= radius)
    return within / len(tally.locate_errors)


def check_locate(tally: Tally) -> None:
    """The locate floor, over every locate of the run."""
    share = locate_share(tally)
    check(share >= LOCATE_SHARE_FLOOR,
          f"only {share:.0%} of locate estimates within {LOCATE_RADIUS_M} m")


def end_to_end(tally: Tally) -> Dict[str, float]:
    return {
        "update_ms": statistics.median(tally.update_s) * 1e3,
        "frames_per_s": tally.update_frames / sum(tally.update_s),
        "locate_ms": statistics.median(tally.locate_s) * 1e3,
        "hallway_f": statistics.fmean(tally.hallway_f),
        "room_iou": statistics.fmean(tally.room_iou),
        "peak_rss_mb": peak_rss_mb(),
    }


#: Span names whose per-round self time is reported as ``<name>_ms``.
LAYER_SPANS = (
    "vision.framestack", "vision.hog", "vision.surf", "vision.match",
    "vision.signatures", "vision.lsd", "vision.stitch",
    "core.keyframes", "core.pair_score", "core.aggregate", "core.skeleton",
    "core.panorama", "core.room_layout", "core.floorplan", "core.localize",
    "core.route",
    "dataflow.run",
    "backend.map", "backend.transport", "backend.digest",
    "serving.ingest", "serving.refresh", "serving.index", "serving.locate",
    "serving.route", "serving.get_floorplan",
)

#: Counts reported per round.
LAYER_COUNTS = (
    "vision.frames", "core.keyframes_kept", "core.pair_scores", "core.s2_runs",
    "backend.map_tasks", "backend.cache_hits", "backend.cache_misses",
    "serving.versions_published",
)


def per_layer(tally: Tally, tracer) -> Dict[str, float]:
    rounds = tally.rounds
    out = {f"{name}_ms": tracer.self_seconds.get(name, 0.0) * 1e3 / rounds
           for name in LAYER_SPANS}
    out.update({name: tracer.counts.get(name, 0.0) / rounds for name in LAYER_COUNTS})
    pairs = tracer.counts.get("core.pair_scores", 0.0)
    out["core.pair_merge_ratio"] = (
        tracer.counts.get("core.pairs_merged", 0.0) / pairs if pairs else 0.0)
    out["dataflow.nodes_executed"] = tally.nodes_executed / rounds
    out["dataflow.nodes_skipped"] = tally.nodes_skipped / rounds
    hits = tracer.counts.get("backend.cache_hits", 0.0)
    lookups = hits + tracer.counts.get("backend.cache_misses", 0.0)
    out["backend.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return out
