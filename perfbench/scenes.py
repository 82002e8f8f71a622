"""Workload definitions and the seeded scene generator.

Scenes are drawn with the standard library's ``random.Random`` rather than
``vpskit.rng``, so the inputs do not depend on the code under test: vpskit
receives only the scene config JSON written here and the flags below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Cityscapes-like taxonomy: five stuff bands and four thing classes.
TAXONOMY = {
    "void_class_id": 0,
    "classes": [
        {"id": 0, "name": "void", "kind": "stuff"},
        {"id": 1, "name": "road", "kind": "stuff"},
        {"id": 2, "name": "sidewalk", "kind": "stuff"},
        {"id": 3, "name": "building", "kind": "stuff"},
        {"id": 4, "name": "vegetation", "kind": "stuff"},
        {"id": 5, "name": "sky", "kind": "stuff"},
        {"id": 10, "name": "person", "kind": "thing"},
        {"id": 11, "name": "rider", "kind": "thing"},
        {"id": 12, "name": "car", "kind": "thing"},
        {"id": 13, "name": "bicycle", "kind": "thing"},
    ],
}
THING_CLASSES = (10, 11, 12, 13)
# Top to bottom: share of the image height each band takes.
BANDS = ((5, 0.2), (3, 0.25), (4, 0.15), (2, 0.1), (1, None))

# Velocities are multiples of 1/64 so they survive the JSON round trip
# exactly and the flow fields are identical on every platform.
_VELOCITY_STEP = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    width: int
    height: int
    frames: int
    actors: int
    size_range: tuple[int, int]
    # Largest speed in px/frame along each axis.
    max_speed: float
    # Actors that must stay inside the image for the whole clip.
    stay_in_view: bool
    synth_flags: tuple[str, ...]
    # Which tracks file fillfuse reads: the clean or the corrupted one.
    fillfuse_tracks: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="big-frames",
            why="Pixel-bound: large frames and few ids, so frame tables, pixel-set "
            "segments, warp_backward and LMAP bytes dominate; per-id loop rewrites "
            "should not move it.",
            width=640,
            height=320,
            frames=4,
            actors=20,
            size_range=(20, 60),
            max_speed=3.0,
            stay_in_view=False,
            synth_flags=("--shuffle-ids",),
            fillfuse_tracks="tracks.jsonl",
        ),
        Workload(
            name="crowd",
            why="Id-bound: 120 small actors with every corruption, so per-actor and "
            "per-id full-frame loops, PxG segment matching and build_iou_matrix "
            "dominate.",
            width=512,
            height=256,
            frames=4,
            actors=120,
            size_range=(6, 16),
            max_speed=2.0,
            stay_in_view=False,
            synth_flags=(
                "--shuffle-ids",
                "--erode", "1",
                "--box-jitter", "2",
                "--box-drop", "0.1",
            ),
            fillfuse_tracks="tracks_corrupt.jsonl",
        ),
        # Runnable by hand but left out of BENCHMARK.json: a third workload
        # would cut every run to about 40 s, too short for steady medians here.
        Workload(
            name="long-clip",
            why="File-bound: many small frames with fractional flow, so per-file and "
            "per-frame costs dominate where big-frames is dominated by bytes.",
            width=256,
            height=128,
            frames=32,
            actors=10,
            size_range=(8, 24),
            max_speed=0.75,
            stay_in_view=True,
            synth_flags=("--shuffle-ids",),
            fillfuse_tracks="tracks.jsonl",
        ),
        # Tiny scene for the self-check only; not listed in BENCHMARK.json.
        Workload(
            name="tiny",
            why="Self-check scene that finishes in seconds.",
            width=64,
            height=48,
            frames=5,
            actors=4,
            size_range=(6, 12),
            max_speed=2.0,
            stay_in_view=False,
            synth_flags=(
                "--shuffle-ids",
                "--erode", "1",
                "--box-jitter", "1",
                "--box-drop", "0.1",
            ),
            fillfuse_tracks="tracks_corrupt.jsonl",
        ),
    )
}


def _band_layout(height: int) -> list[dict]:
    bands = []
    for class_id, share in BANDS:
        band = {"class_id": class_id}
        if share is not None:
            band["height"] = max(1, int(height * share))
        bands.append(band)
    return bands


def _speed(rng: random.Random, limit: float) -> float:
    steps = int(limit * _VELOCITY_STEP)
    return rng.randint(-steps, steps) / _VELOCITY_STEP


def make_scene(workload: Workload, seed: int) -> tuple[dict, int]:
    """Return (scene config dict, corruption seed) for one workload and seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    w, h, n = workload.width, workload.height, workload.frames
    actors = []
    for _ in range(workload.actors):
        size = rng.randint(*workload.size_range)
        start = [float(rng.randint(0, w - size)), float(rng.randint(0, h - size))]
        if workload.stay_in_view:
            # Pick the end point in view too, then clamp the speed.
            span = max(n - 1, 1)
            velocity = []
            for axis, limit in ((0, w - size), (1, h - size)):
                end = rng.randint(0, limit)
                v = max(-workload.max_speed, min(workload.max_speed, (end - start[axis]) / span))
                velocity.append(int(v * _VELOCITY_STEP) / _VELOCITY_STEP)
        else:
            velocity = [_speed(rng, workload.max_speed), _speed(rng, workload.max_speed)]
        actors.append(
            {
                "shape": rng.choice(("rectangle", "disk")),
                "class_id": rng.choice(THING_CLASSES),
                "size": size,
                "start": start,
                "velocity": velocity,
                "depth": rng.randint(0, 3),
            }
        )
    config = {
        "width": w,
        "height": h,
        "frames": n,
        "seed": seed,
        "taxonomy": TAXONOMY,
        "background": _band_layout(h),
        "actors": actors,
    }
    return config, rng.randrange(1 << 31)
