"""Self-check of the benchmark at small size: every workload runs a few
operations with every correctness check on, in both trace modes.

Run from the root of a checkout (about two minutes on two cores)::

    python3 -m pytest crowdbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from crowdbench import campaigns as cb  # noqa: E402
from crowdbench import workloads as wl  # noqa: E402
from crowdbench.trace import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "crowdbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
    )
    return proc.returncode, proc.stdout.decode().strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_is_correct_and_complete(workload, trace):
    code, lines = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace), "--small"])
    assert code == 0, lines[-2:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0, name
    info = json.loads(lines[-2])
    if workload == "live_serving":
        # One round: 13 uploads, every fourth a corrupt copy that raises.
        assert info["failed_by_kind"] == {"ingest": 3}
        assert info["attempted_by_kind"]["ingest"] == 13
    else:
        assert result["failed"] == 0
        if trace:
            assert result["metrics"]["dataflow.nodes_skipped"]["value"] == 0.0
            assert result["metrics"]["dataflow.nodes_executed"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "crowdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run(["--workload", "batch_serial", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_live_stream_cadence():
    from dataclasses import dataclass

    import numpy as np

    from repro.vision.image import Frame

    @dataclass
    class Session:
        session_id: str
        task: str
        frames: list

    def session(name, task):
        return Session(name, task, [Frame(pixels=np.zeros((2, 2, 3)), timestamp=float(t),
                                          heading=0.0) for t in range(3)])

    class Campaign:
        def __init__(self, tag):
            self._walks = [session(f"{tag}w{i}", "SWS") for i in range(3)]
            self._spins = [session(f"{tag}s{i}", "SRS") for i in range(2)]

        def walks(self):
            return self._walks

        def spins(self):
            return self._spins

    stream = cb.live_stream([Campaign("a"), Campaign("b")])
    corrupt = [i for i, (_, bad) in enumerate(stream) if bad]
    assert corrupt == [3, 7, 11]
    assert len(stream) == 13
    # Each corrupt upload copies the newest clean walk before it, with
    # non-finite pixels in one frame and the original left untouched.
    for i in corrupt:
        walks = [s for s, bad in stream[:i] if not bad and s.task == "SWS"]
        copy = stream[i][0]
        assert copy.session_id.startswith(walks[-1].session_id + "-corrupt")
        assert not np.isfinite(copy.frames[1].pixels).all()
        assert np.isfinite(walks[-1].frames[1].pixels).all()


def test_tracer_self_time_excludes_children():
    import time

    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        traced_inner()
        time.sleep(0.01)

    traced_inner = tracer.wrap(inner, "inner", None)
    tracer.wrap(outer, "outer", None)()
    assert tracer.self_seconds["inner"] >= 0.02
    assert 0.01 <= tracer.self_seconds["outer"] < 0.02
    inner_span = next(s for s in tracer.spans if s[0] == "inner")
    assert tracer.spans[inner_span[3]][0] == "outer"


def test_route_check_rejects_a_broken_route():
    from types import SimpleNamespace

    import numpy as np

    from repro.core.navigation import SkeletonNavigator
    from repro.geometry.primitives import BoundingBox, Point

    mask = np.zeros((5, 12), dtype=bool)
    mask[2, :] = True
    skeleton = SimpleNamespace(skeleton=mask, cell_size=1.0,
                               bounds=BoundingBox(0.0, 0.0, 12.0, 5.0))
    room = BoundingBox(9.0, 3.0, 11.0, 5.0)
    start = Point(0.5, 2.5)
    path = SkeletonNavigator(skeleton).plan(start, Point(10.0, 3.0))
    wl.check_route(path, skeleton, room, start, "straight corridor")
    broken = type(path)(waypoints=path.waypoints[:3] + path.waypoints[4:],
                        length=path.length)
    with pytest.raises(wl.CheckFailed, match="not adjacent"):
        wl.check_route(broken, skeleton, room, start, "route with a gap")
    lost = type(path)(waypoints=(), length=float("inf"))
    with pytest.raises(wl.CheckFailed, match="reachable"):
        wl.check_route(lost, skeleton, room, start, "missing route")
