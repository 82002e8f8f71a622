"""Synthetic dynamic scenes with exact VPS ground truth.

Scenes are horizontal stuff bands with rectangle/disk actors translating
at constant velocity; occlusion follows depth (higher on top). The
generator yields one frame at a time: its panoptic map (whose class grid
is the semantic map), its tight tracked boxes and the exact forward flow
to the next frame, which together act as the oracle for both conversion
pipelines. Corruption helpers simulate imperfect upstream networks, each
taking and yielding a stream: per-frame id shuffles (time-inconsistent
panoptic nets), box jitter/drops (imperfect trackers) and mask erosion
(coarse segmentation). Each checks its arguments when called and does its
work as items are pulled, so a caller holds one frame at a time.

All randomness comes from the package's fixed xoshiro256** generator (see
vpskit.rng), so corruptions replay bit-exactly for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from .core import THING, ClassTaxonomy, FlowField, LabelGrid, PanopticMap, TrackedBox
from .core import finite_float, is_integer, pixel_span, present_ids, remap
from .errors import InvalidConfig
from .io import _MAX_PIXELS
from .rng import Xoshiro256StarStar

RECTANGLE = "rectangle"
DISK = "disk"


@dataclass(frozen=True)
class Band:
    """One horizontal background strip; height None means equal share."""

    class_id: int
    height: int | None = None


@dataclass(frozen=True)
class Actor:
    shape: str
    class_id: int
    size: int
    start: tuple[float, float]
    velocity: tuple[float, float]
    depth: int = 0

    def position(self, frame: int) -> tuple[float, float]:
        return (
            self.start[0] + frame * self.velocity[0],
            self.start[1] + frame * self.velocity[1],
        )


def _integer(doc: dict, key: str, default: int | None = None) -> int:
    """``doc[key]`` (or ``default`` when absent), which must be an integer: no float, string or bool."""
    value = doc[key] if default is None else doc.get(key, default)
    if not is_integer(value):
        raise InvalidConfig(f"{key} {value!r} must be an integer")
    return int(value)


def _point(doc: dict, key: str) -> tuple[float, float]:
    """``doc[key]``, which must be a pair of numbers with finite float values: no string or bool."""
    x, y = doc[key]
    point = finite_float(x), finite_float(y)
    if None in point:
        raise InvalidConfig(f"{key} {doc[key]!r} must hold two finite numbers")
    return point


@dataclass(frozen=True)
class SceneConfig:
    width: int
    height: int
    frames: int
    taxonomy: ClassTaxonomy
    background: tuple[Band, ...] = ()
    actors: tuple[Actor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "background", tuple(self.background))
        object.__setattr__(self, "actors", tuple(self.actors))

    @classmethod
    def from_dict(cls, data: dict) -> "SceneConfig":
        try:
            taxonomy = ClassTaxonomy.from_dict(data["taxonomy"])
            background = tuple(
                Band(_integer(b, "class_id"), b.get("height"))
                for b in data.get("background", [])
            )
            actors = tuple(
                Actor(
                    shape=str(a["shape"]),
                    class_id=_integer(a, "class_id"),
                    size=_integer(a, "size"),
                    start=_point(a, "start"),
                    velocity=_point(a, "velocity"),
                    depth=_integer(a, "depth", 0),
                )
                for a in data.get("actors", [])
            )
            return cls(
                width=_integer(data, "width"),
                height=_integer(data, "height"),
                frames=_integer(data, "frames"),
                taxonomy=taxonomy,
                background=background,
                actors=actors,
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InvalidConfig(f"malformed scene config: {exc}") from exc


@dataclass(frozen=True)
class SceneFrame:
    """Everything the oracle knows about one generated frame."""

    panoptic: PanopticMap
    boxes: tuple[TrackedBox, ...]  # in actor order
    flow: FlowField | None  # this frame -> the next; None for the last frame


def _validate_config(config: SceneConfig) -> None:
    if config.width < 1 or config.height < 1:
        raise InvalidConfig(f"image size {config.width}x{config.height} invalid")
    if config.width * config.height > _MAX_PIXELS:
        raise InvalidConfig(f"image size {config.width}x{config.height} exceeds {_MAX_PIXELS} px")
    if config.frames < 1:
        raise InvalidConfig(f"frame count {config.frames} must be >= 1")
    if finite_float(config.frames) is None:
        raise InvalidConfig(f"frame count {config.frames} is beyond the float range")
    taxonomy = config.taxonomy
    for band in config.background:
        if not taxonomy.has(band.class_id) or not taxonomy.is_stuff(band.class_id):
            raise InvalidConfig(f"band class {band.class_id} must be a stuff class")
        height = band.height
        if height is not None and (not is_integer(height) or height < 1):
            raise InvalidConfig(f"band height {height!r} must be an integer >= 1")
    for actor in config.actors:
        if actor.shape not in (RECTANGLE, DISK):
            raise InvalidConfig(f"unknown actor shape {actor.shape!r}")
        if actor.size < 2:
            raise InvalidConfig(f"actor size {actor.size} must be >= 2")
        if not taxonomy.has(actor.class_id) or taxonomy.kind_of(actor.class_id) != THING:
            raise InvalidConfig(f"actor class {actor.class_id} must be a thing class")
        # start + t * velocity + size is monotone in t, and a non-finite start or velocity
        # makes the last position non-finite too (0 * inf is nan): two frames cover all.
        size = finite_float(actor.size)
        ends = actor.position(0) + actor.position(config.frames - 1)
        if size is None or not all(math.isfinite(v + size) for v in ends):
            raise InvalidConfig(
                f"actor {actor.start} + t * {actor.velocity} + size {actor.size} is not finite"
            )
        with np.errstate(over="ignore"):  # generate casts the velocity to float32
            velocity = np.array(actor.velocity, dtype=np.float32)
        if not np.isfinite(velocity).all():
            raise InvalidConfig(f"actor velocity {actor.velocity} is beyond the float32 range")
        if actor.shape == DISK and not math.isfinite((size / 2.0) * (size / 2.0)):
            raise InvalidConfig(f"disk size {actor.size} has no finite squared radius")
    fixed = sum(b.height for b in config.background if b.height is not None)
    if fixed > config.height:
        raise InvalidConfig("band heights exceed the image height")


def background_classes(config: SceneConfig) -> LabelGrid:
    """The band classes of a scene that generate accepts: the grid eroded pixels fall back to."""
    grid = np.full(
        (config.height, config.width), config.taxonomy.void_class_id, dtype=np.uint32
    )
    bands = config.background
    if not bands:
        return LabelGrid._adopt(grid)
    free = config.height - sum(b.height for b in bands if b.height is not None)
    flexible = sum(1 for b in bands if b.height is None)
    share = free // flexible if flexible else 0
    y = 0
    for i, band in enumerate(bands):
        h = band.height if band.height is not None else share
        if i == len(bands) - 1:
            h = max(h, config.height - y)  # last band absorbs any remainder
        grid[y : y + h, :] = band.class_id
        y += h
        if y >= config.height:
            break
    return LabelGrid._adopt(grid)


def _actor_mask(
    actor: Actor, frame: int, width: int, height: int
) -> tuple[tuple[slice, slice], np.ndarray]:
    """The actor's pixel box clipped to the grid, as (rows, cols) slices, and its mask there."""
    x, y = actor.position(frame)
    size = actor.size
    x_lo, x_hi = pixel_span(x, x + size, width)
    y_lo, y_hi = pixel_span(y, y + size, height)
    window = (slice(y_lo, y_hi), slice(x_lo, x_hi))
    if actor.shape == RECTANGLE:
        return window, np.ones((y_hi - y_lo, x_hi - x_lo), dtype=bool)
    cx = x + size / 2.0
    cy = y + size / 2.0
    r2 = (size / 2.0) ** 2
    # the open row and column grids of np.ogrid, which costs ten times as much per call
    yy = np.arange(y_lo, y_hi)[:, None]
    xx = np.arange(x_lo, x_hi)
    return window, (xx + 0.5 - cx) ** 2 + (yy + 0.5 - cy) ** 2 <= r2


def generate(config: SceneConfig) -> Iterator[SceneFrame]:
    """Deterministically generate the scene's ground truth, one SceneFrame at a time.

    The config is checked when generate is called; each frame is painted
    when it is pulled. Actor instance ids are the 1-based actor indices and
    stay stable for the whole sequence; occlusion paints higher depth on top
    (ties: later actor). Actors may leave the frame; their boxes vanish with
    them.
    """
    _validate_config(config)
    return _frames(config)


def _frames(config: SceneConfig) -> Iterator[SceneFrame]:
    background = background_classes(config).values
    # the flow grids hold each actor's velocity as float32
    velocity = np.array([a.velocity for a in config.actors], dtype=np.float32)
    order = sorted(range(len(config.actors)), key=lambda i: (config.actors[i].depth, i))
    for t in range(config.frames):
        yield _frame(config, t, background, velocity, order)


def _frame(
    config: SceneConfig, t: int, background: np.ndarray, velocity: np.ndarray, order: list[int]
) -> SceneFrame:
    """Frame t of generate; its temporaries are freed before the next frame paints."""
    footprints = [_actor_mask(a, t, config.width, config.height) for a in config.actors]
    # pixels no actor covers keep the background class, instance 0 and zero flow
    instances = np.zeros_like(background)
    classes = background.copy()
    flow = np.zeros((config.height, config.width, 2), dtype=np.float32)
    for i in order:
        window, mask = footprints[i]
        instances[window][mask] = i + 1
        classes[window][mask] = config.actors[i].class_id
        np.copyto(flow[window], velocity[i], where=mask[:, :, None])

    boxes = []
    for i, ((rows, cols), _) in enumerate(footprints):
        mine = instances[rows, cols] == i + 1
        ys = mine.any(axis=1).nonzero()[0]
        if not ys.size:
            continue
        xs = mine.any(axis=0).nonzero()[0]
        boxes.append(
            TrackedBox(
                frame=t,
                track_id=i + 1,
                class_id=config.actors[i].class_id,
                x0=float(cols.start + xs[0]),
                y0=float(rows.start + ys[0]),
                x1=float(cols.start + xs[-1] + 1),
                y1=float(rows.start + ys[-1] + 1),
            )
        )
    panoptic = PanopticMap(classes=LabelGrid._adopt(classes), instances=LabelGrid._adopt(instances))
    return SceneFrame(panoptic, tuple(boxes), FlowField._adopt(flow) if t + 1 < config.frames else None)


def corrupt_shuffle_ids(panoptic: Iterable[PanopticMap], seed: int) -> Iterator[PanopticMap]:
    """Permute each frame's instance ids (frame 0 included), frame by frame as they are pulled.

    Classes and pixel supports are untouched; one sequential generator
    drives all frames.
    """
    return map(partial(_shuffle_frame, Xoshiro256StarStar(seed)), panoptic)


def _shuffle_frame(rng: Xoshiro256StarStar, pmap: PanopticMap) -> PanopticMap:
    """One frame of corrupt_shuffle_ids; its temporaries are freed before the next frame's."""
    ids = present_ids(pmap.instances.values)
    permuted = list(ids)
    rng.shuffle(permuted)
    values = remap(pmap.instances.values, dict(zip(ids, permuted)))
    return PanopticMap(classes=pmap.classes, instances=LabelGrid._adopt(values))


def corrupt_boxes(
    boxes: Iterable[TrackedBox], jitter: int, drop_rate: float, seed: int
) -> Iterator[TrackedBox]:
    """Jitter box edges by uniform integers in [-jitter, +jitter] and drop boxes.

    The arguments are checked when corrupt_boxes is called; ``boxes`` is
    read as the result is pulled. Per box, in input order, five draws in
    fixed order: x0, y0, x1, y1 offsets, then the drop variate (dropped iff
    it is < drop_rate). Boxes that degenerate after jitter are discarded
    like misses.
    """
    if jitter < 0:
        raise ValueError(f"jitter {jitter} must be >= 0")
    if finite_float(jitter) is None:
        raise ValueError(f"jitter {jitter} is beyond the float range")
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError(f"drop rate {drop_rate} outside [0, 1]")
    return _jittered(boxes, jitter, drop_rate, Xoshiro256StarStar(seed))


def _jittered(
    boxes: Iterable[TrackedBox], jitter: int, drop_rate: float, rng: Xoshiro256StarStar
) -> Iterator[TrackedBox]:
    for box in boxes:
        offsets = [rng.next_int(-jitter, jitter) for _ in range(4)]
        dropped = rng.next_float() < drop_rate
        if dropped:
            continue
        x0 = box.x0 + offsets[0]
        y0 = box.y0 + offsets[1]
        x1 = box.x1 + offsets[2]
        y1 = box.y1 + offsets[3]
        if x1 > x0 and y1 > y0:
            yield TrackedBox(box.frame, box.track_id, box.class_id, x0, y0, x1, y1)


def _square_window(grid: np.ndarray, radius: int, reduce) -> np.ndarray:
    """``reduce`` over each pixel's (2*radius+1) square of the zero-padded grid, axis by axis.

    ``reduce`` is a binary ufunc (np.minimum, np.maximum) folded over the
    square's shifted slices: first the rows, then the columns.
    """
    height, width = grid.shape
    padded = np.pad(grid, radius)
    rows = padded[:height].copy()
    for k in range(1, 2 * radius + 1):
        reduce(rows, padded[k : k + height], out=rows)
    out = rows[:, :width].copy()
    for k in range(1, 2 * radius + 1):
        reduce(out, rows[:, k : k + width], out=out)
    return out


def corrupt_masks(
    panoptic: Iterable[PanopticMap], background: LabelGrid, erode: int
) -> Iterator[PanopticMap]:
    """Erode every actor mask by a (2*erode+1) square, frame by frame as they are pulled.

    erode=0 is the identity; a negative erode is refused when corrupt_masks
    is called. A pixel keeps its instance iff every pixel of the square
    centred on it carries the same id, i.e. iff the minimum and the maximum
    id over that square both equal its own; the grid is zero-padded, so the
    image border counts as outside every mask. Eroded pixels fall back to
    their class in ``background`` (the scene's band classes,
    ``background_classes(config)``) with instance 0. Erosion is
    deterministic, so it takes no seed.
    """
    if erode < 0:
        raise ValueError(f"erode {erode} must be >= 0")
    return map(partial(_erode_frame, background=background, erode=erode), panoptic)


def _erode_frame(pmap: PanopticMap, background: LabelGrid, erode: int) -> PanopticMap:
    """One frame of corrupt_masks; its temporaries are freed before the next frame's."""
    instances = pmap.instances.values
    # From the frame's shorter side on, every square reaches the zero border,
    # so every instance pixel erodes: a larger radius only pads more.
    radius = min(erode, *instances.shape)
    low = _square_window(instances, radius, np.minimum)
    high = _square_window(instances, radius, np.maximum)
    kept = (low == instances) & (high == instances)
    removed = (instances != 0) & ~kept
    classes = np.where(removed, background.values, pmap.classes.values)
    instances = np.where(removed, np.uint32(0), instances)
    return PanopticMap(classes=LabelGrid._adopt(classes), instances=LabelGrid._adopt(instances))
