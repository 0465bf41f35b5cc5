"""Seeded benchmark inputs: crowd campaigns, corrupt uploads, query frames.

Every input is rendered through :mod:`repro.world` before any program
set-up starts, and no metric includes it.

A campaign follows a fixed *survey plan* per building: which corridor
walks are taken and in which rooms users spin. The seed draws everything
else: each walker's stride and hand shake, the IMU and camera noise, the
start heading of every spin and its offset from the room centre. Walking
and turning speeds stay at the walker defaults, so a plan yields the same
number of frames under every seed; that keeps the work per operation, and
so the timings, comparable across seeds, while the pixels, trajectories
and key-frames still differ from seed to seed. The stock crowd generator
(:func:`repro.world.generate_crowd_dataset`) draws random routes instead,
and its campaigns of the same size spread from 155 to 477 frames and from
0.01 to 0.88 hallway F-measure across seeds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SurveyPlan:
    """Where one campaign's users walk (SWS) and spin (SRS)."""

    building: str
    lighting: str
    walks: Tuple[Tuple[str, str], ...]
    spins: Tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.building}/{self.lighting}"


#: The batch rotation, in order: every procedural building once, day and
#: night alternating. Each walk overlaps another one, so the sessions can
#: merge into one map; each spin sits in a room beside a walked corridor.
BATCH_PLANS: Tuple[SurveyPlan, ...] = (
    SurveyPlan("Lab1", "day",
               (("sw", "s4_door"), ("s2_door", "se"), ("s5_door", "e_mid")),
               ("s2", "s5")),
    SurveyPlan("Lab2", "night",
               (("sw", "b3_door"), ("b2_door", "b5_door"), ("b4_door", "r1_door")),
               ("b2", "b4")),
    SurveyPlan("Office", "day",
               (("bar_w", "n3_door"), ("n2_door", "bar_e"), ("stem_s", "n2_door")),
               ("n2", "e1")),
    SurveyPlan("Gym", "night",
               (("hall_sw", "hall_se"), ("hall_g10", "hall_east"), ("hall_se", "corr_mid")),
               ("locker", "office1")),
)

#: The live stream's two buildings. Each building's uploads arrive in
#: the order spin, walk, walk, spin, walk, interleaved between buildings,
#: so every shard publishes its first version with a room in it.
LIVE_PLANS: Tuple[SurveyPlan, ...] = (BATCH_PLANS[2], BATCH_PLANS[1])
LIVE_ORDER: Tuple[Tuple[str, int], ...] = (
    ("spin", 0), ("walk", 0), ("walk", 1), ("spin", 1), ("walk", 2),
)

#: Every ``CORRUPT_EVERY``-th live upload is a copy of the latest clean
#: walk with non-finite pixels in one frame.
CORRUPT_EVERY = 4

#: Held-out query frames: a visitor re-walks the plan's first walk, and
#: every ``QUERY_STRIDE``-th frame (from the second on) becomes a query
#: whose true capture position comes from the walker simulation.
QUERY_STRIDE = 4


@dataclass
class Campaign:
    """One rendered campaign: its uploads plus the held-out visitor walk."""

    plan: SurveyPlan
    sessions: List  # CaptureSession: walks first, then spins
    visitor: object  # CaptureSession, never uploaded

    @property
    def n_frames(self) -> int:
        return sum(s.n_frames for s in self.sessions)

    def walks(self) -> List:
        return [s for s in self.sessions if s.task == "SWS"]

    def spins(self) -> List:
        return [s for s in self.sessions if s.task == "SRS"]

    def queries(self) -> List[Tuple[object, Tuple[float, float]]]:
        """``(frame, true (x, y))`` for each held-out query frame."""
        out = []
        truth = self.visitor.ground_truth
        for frame in self.visitor.frames[1::QUERY_STRIDE]:
            p = truth.position_at(frame.timestamp)
            out.append((frame, (p.x, p.y)))
        return out


def _plan_seed(seed: int, plan: SurveyPlan) -> List[int]:
    return [int(seed), sum(ord(c) for c in plan.key)]


def render_campaign(plan: SurveyPlan, seed: int) -> Campaign:
    """Render one campaign of ``plan`` for ``seed`` (deterministic)."""
    from repro.geometry.primitives import Point
    from repro.world import BUILDING_BUILDERS
    from repro.world.lighting import DAYLIGHT, NIGHT
    from repro.world.renderer import Camera, Renderer
    from repro.world.walker import Walker, WalkerProfile

    floor = BUILDING_BUILDERS[plan.building]()
    rng = np.random.default_rng(_plan_seed(seed, plan))
    renderer = Renderer(floor, Camera())
    lighting = NIGHT if plan.lighting == "night" else DAYLIGHT

    def walker(user_id: str) -> Walker:
        profile = WalkerProfile(
            user_id=user_id,
            step_length=float(rng.uniform(0.62, 0.78)),
            camera_yaw_jitter=math.radians(float(rng.uniform(0.6, 1.8))),
        )
        return Walker(floor, profile, rng=np.random.default_rng(rng.integers(2**31)),
                      renderer=renderer)

    walkers = [walker(f"user{i:02d}") for i in range(len(plan.walks))]
    sessions = [
        w.perform_sws(floor.route_between(a, b), lighting=lighting)
        for w, (a, b) in zip(walkers, plan.walks)
    ]
    for w, room_name in zip(walkers, plan.spins):
        room = floor.room_by_name(room_name)
        offset = Point(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)))
        sessions.append(w.perform_srs(room.center + offset, lighting=lighting,
                                      room_name=room_name))
    visitor = walker("visitor").perform_sws(
        floor.route_between(*plan.walks[0]), lighting=lighting
    )
    return Campaign(plan=plan, sessions=sessions, visitor=visitor)


def corrupt_copy(session, serial: int):
    """A copy of ``session`` whose middle frame holds NaN pixels.

    Frames are rebuilt so the clean original keeps its own objects; the
    copy gets its own session id, as a re-upload would.
    """
    frames = list(session.frames)
    bad = len(frames) // 2
    pixels = frames[bad].pixels.copy()
    pixels[0, 0, :] = np.nan
    frames[bad] = dataclasses.replace(frames[bad], pixels=pixels,
                                      _gray_cache=None, _stack_cache=None)
    return dataclasses.replace(
        session, session_id=f"{session.session_id}-corrupt{serial:02d}", frames=frames
    )


def live_stream(campaigns: Sequence[Campaign]) -> List[Tuple[object, bool]]:
    """The live upload stream: ``(session, is_corrupt)`` in arrival order."""
    clean = []
    for kind, index in LIVE_ORDER:
        for campaign in campaigns:
            pool = campaign.walks() if kind == "walk" else campaign.spins()
            clean.append(pool[index])
    stream: List[Tuple[object, bool]] = []
    last_walk = None
    for session in clean:
        if len(stream) % CORRUPT_EVERY == CORRUPT_EVERY - 1 and last_walk is not None:
            stream.append((corrupt_copy(last_walk, len(stream)), True))
        stream.append((session, False))
        if session.task == "SWS":
            last_walk = session
    return stream


def render_to(plan: SurveyPlan, seed: int, path: str) -> str:
    """Render one campaign and pickle it to ``path`` (a render-pool job)."""
    import pickle

    campaign = render_campaign(plan, seed)
    with open(path, "wb") as fh:
        pickle.dump(campaign, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path
