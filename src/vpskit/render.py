"""Deterministic colorized rendering of panoptic maps to binary PPM (P6).

Stuff classes use the fixed palette below, indexed by ``class_id modulo
the palette length``. Thing pixels hash their (class, instance) pair:
``v = splitmix64(class_id * 2**32 + instance_id)`` and the low 24 bits
become (r, g, b) as ``(v >> 16, v >> 8, v) & 0xFF``. The same pair
therefore renders identically in every frame, in every run, regardless of
id allocation order; distinct pairs may collide with probability about
n^2 / 2^25.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import ClassTaxonomy, PanopticMap, _rank_runs, unpack_keys
from .io import _atomic_write_bytes, _frame_stem
from .rng import splitmix64

# fixed stuff palette (r, g, b); index = class_id % len(STUFF_PALETTE)
STUFF_PALETTE: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0),        # 0: reserved for void
    (128, 64, 128),   # 1
    (244, 35, 232),   # 2
    (70, 70, 70),     # 3
    (102, 102, 156),  # 4
    (190, 153, 153),  # 5
    (153, 153, 153),  # 6
    (250, 170, 30),   # 7
    (220, 220, 0),    # 8
    (107, 142, 35),   # 9
    (152, 251, 152),  # 10
    (70, 130, 180),   # 11
    (81, 0, 81),      # 12
    (150, 100, 100),  # 13
    (230, 150, 140),  # 14
    (180, 165, 180),  # 15
)


def stuff_color(class_id: int) -> tuple[int, int, int]:
    return STUFF_PALETTE[class_id % len(STUFF_PALETTE)]


def instance_color(class_id: int, instance_id: int) -> tuple[int, int, int]:
    v = splitmix64((class_id << 32) + instance_id)
    return ((v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)


def colorize(pmap: PanopticMap, taxonomy: ClassTaxonomy) -> np.ndarray:
    """Render a panoptic map to an (h, w, 3) uint8 RGB buffer."""
    labels, ranks, lengths = _rank_runs((pmap.classes.values, pmap.instances.values))
    classes, instances = unpack_keys(labels)
    things = taxonomy._label_things(classes, pmap.classes.values)
    palette = np.empty((labels.size, 3), dtype=np.uint8)
    rows = zip(classes.tolist(), instances.tolist(), things.tolist())
    for n, (class_id, instance_id, thing) in enumerate(rows):
        palette[n] = instance_color(class_id, instance_id) if thing else stuff_color(class_id)
    # each run's colour, repeated along it: no per-pixel index is made
    return np.repeat(palette[ranks], lengths, axis=0).reshape(pmap.height, pmap.width, 3)


def encode_ppm(image: np.ndarray) -> bytes:
    """Binary P6 with maxval 255: header ``P6\\n{w} {h}\\n255\\n`` then raw RGB."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8 image, got {arr.shape} {arr.dtype}")
    h, w = arr.shape[:2]
    if h < 1 or w < 1:
        raise ValueError("cannot encode a zero-size image")
    return f"P6\n{w} {h}\n255\n".encode("ascii") + memoryview(np.ascontiguousarray(arr))


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    _atomic_write_bytes(path, encode_ppm(image))


def render_sequence(
    maps: Iterable[PanopticMap],
    taxonomy: ClassTaxonomy,
    out_dir: str | Path,
) -> list[Path]:
    """Write one PPM per frame with zero-padded frame indices; returns the paths."""
    # each map is colorized as it is pulled and only its image kept, all before the first write
    images = list(map(colorize, maps, repeat(taxonomy)))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"frame_{_frame_stem(i, len(images))}.ppm" for i in range(len(images))]
    for image, path in zip(images, paths):
        write_ppm(image, path)
    return paths
