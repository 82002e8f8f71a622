"""Synthetic dynamic scenes with exact VPS ground truth.

Scenes are horizontal stuff bands with rectangle/disk actors translating
at constant velocity; occlusion follows depth (higher on top). The
generator emits per-frame panoptic maps, tight tracked boxes, semantic
maps and exact forward flow fields, which together act as the oracle for
both conversion pipelines. Corruption helpers simulate imperfect upstream
networks: per-frame id shuffles (time-inconsistent panoptic nets), box
jitter/drops (imperfect trackers) and mask erosion (coarse segmentation).

All randomness comes from the package's fixed xoshiro256** generator (see
vpskit.rng), so corruptions replay bit-exactly for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .core import THING, ClassTaxonomy, FlowField, LabelGrid, PanopticMap
from .errors import InvalidConfig
from .fillfuse import TrackedBox
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


@dataclass(frozen=True)
class SceneConfig:
    width: int
    height: int
    frames: int
    taxonomy: ClassTaxonomy
    background: tuple[Band, ...] = ()
    actors: tuple[Actor, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "background", tuple(self.background))
        object.__setattr__(self, "actors", tuple(self.actors))

    @classmethod
    def from_dict(cls, data: dict) -> "SceneConfig":
        try:
            taxonomy = ClassTaxonomy.from_dict(data["taxonomy"])
            background = tuple(
                Band(int(b["class_id"]), b.get("height"))
                for b in data.get("background", [])
            )
            actors = tuple(
                Actor(
                    shape=str(a["shape"]),
                    class_id=int(a["class_id"]),
                    size=int(a["size"]),
                    start=(float(a["start"][0]), float(a["start"][1])),
                    velocity=(float(a["velocity"][0]), float(a["velocity"][1])),
                    depth=int(a.get("depth", 0)),
                )
                for a in data.get("actors", [])
            )
            return cls(
                width=int(data["width"]),
                height=int(data["height"]),
                frames=int(data["frames"]),
                taxonomy=taxonomy,
                background=background,
                actors=actors,
                seed=int(data.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InvalidConfig(f"malformed scene config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "frames": self.frames,
            "seed": self.seed,
            "taxonomy": self.taxonomy.to_dict(),
            "background": [
                {"class_id": b.class_id, **({"height": b.height} if b.height is not None else {})}
                for b in self.background
            ],
            "actors": [
                {
                    "shape": a.shape,
                    "class_id": a.class_id,
                    "size": a.size,
                    "start": list(a.start),
                    "velocity": list(a.velocity),
                    "depth": a.depth,
                }
                for a in self.actors
            ],
        }


@dataclass
class GroundTruthBundle:
    """Everything the oracle knows about one generated scene."""

    config: SceneConfig
    taxonomy: ClassTaxonomy
    panoptic: list[PanopticMap]
    boxes: list[list[TrackedBox]]
    semantic: list[LabelGrid]
    flows: list[FlowField] = field(default_factory=list)  # flows[i]: frame i -> i+1
    background_classes: LabelGrid | None = None


def _validate_config(config: SceneConfig) -> None:
    if config.width < 1 or config.height < 1:
        raise InvalidConfig(f"image size {config.width}x{config.height} invalid")
    if config.frames < 1:
        raise InvalidConfig(f"frame count {config.frames} must be >= 1")
    taxonomy = config.taxonomy
    for band in config.background:
        if not taxonomy.has(band.class_id) or not taxonomy.is_stuff(band.class_id):
            raise InvalidConfig(f"band class {band.class_id} must be a stuff class")
        if band.height is not None and band.height < 1:
            raise InvalidConfig(f"band height {band.height} must be >= 1")
    for actor in config.actors:
        if actor.shape not in (RECTANGLE, DISK):
            raise InvalidConfig(f"unknown actor shape {actor.shape!r}")
        if actor.size < 2:
            raise InvalidConfig(f"actor size {actor.size} must be >= 2")
        if not taxonomy.has(actor.class_id) or taxonomy.kind_of(actor.class_id) != THING:
            raise InvalidConfig(f"actor class {actor.class_id} must be a thing class")
    fixed = sum(b.height for b in config.background if b.height is not None)
    if fixed > config.height:
        raise InvalidConfig("band heights exceed the image height")


def _background_grid(config: SceneConfig) -> np.ndarray:
    grid = np.full(
        (config.height, config.width), config.taxonomy.void_class_id, dtype=np.uint32
    )
    bands = config.background
    if not bands:
        return grid
    free = config.height - sum(b.height for b in bands if b.height is not None)
    flexible = sum(1 for b in bands if b.height is None)
    share, extra = divmod(free, flexible) if flexible else (0, 0)
    y = 0
    for i, band in enumerate(bands):
        h = band.height if band.height is not None else share
        if flexible and i == len(bands) - 1 and band.height is None:
            h += extra
        if i == len(bands) - 1:
            h = max(h, config.height - y)  # last band absorbs any remainder
        grid[y : y + h, :] = band.class_id
        y += h
        if y >= config.height:
            break
    return grid


def _actor_mask(actor: Actor, frame: int, width: int, height: int) -> np.ndarray:
    x, y = actor.position(frame)
    size = actor.size
    mask = np.zeros((height, width), dtype=bool)
    x_lo = max(0, math.ceil(x - 0.5))
    x_hi = min(width, math.ceil(x + size - 0.5))
    y_lo = max(0, math.ceil(y - 0.5))
    y_hi = min(height, math.ceil(y + size - 0.5))
    if x_lo >= x_hi or y_lo >= y_hi:
        return mask
    if actor.shape == RECTANGLE:
        mask[y_lo:y_hi, x_lo:x_hi] = True
    else:
        cx = x + size / 2.0
        cy = y + size / 2.0
        r2 = (size / 2.0) ** 2
        yy, xx = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        mask[y_lo:y_hi, x_lo:x_hi] = (xx + 0.5 - cx) ** 2 + (yy + 0.5 - cy) ** 2 <= r2
    return mask


def generate(config: SceneConfig) -> GroundTruthBundle:
    """Deterministically generate the scene's full ground-truth bundle.

    Actor instance ids are the 1-based actor indices and stay stable for
    the whole sequence; occlusion paints higher depth on top (ties: later
    actor). Actors may leave the frame; their boxes vanish with them.
    """
    _validate_config(config)
    taxonomy = config.taxonomy
    background = _background_grid(config)

    panoptic: list[PanopticMap] = []
    semantic: list[LabelGrid] = []
    boxes: list[list[TrackedBox]] = []
    owners: list[np.ndarray] = []

    order = sorted(range(len(config.actors)), key=lambda i: (config.actors[i].depth, i))
    for t in range(config.frames):
        owner = np.full((config.height, config.width), -1, dtype=np.int64)
        for i in order:
            mask = _actor_mask(config.actors[i], t, config.width, config.height)
            owner[mask] = i
        owners.append(owner)

        classes = background.copy()
        instances = np.zeros_like(background)
        frame_boxes: list[TrackedBox] = []
        for i, actor in enumerate(config.actors):
            visible = owner == i
            if not visible.any():
                continue
            classes[visible] = actor.class_id
            instances[visible] = i + 1
            ys, xs = np.nonzero(visible)
            frame_boxes.append(
                TrackedBox(
                    frame=t,
                    track_id=i + 1,
                    class_id=actor.class_id,
                    x0=float(xs.min()),
                    y0=float(ys.min()),
                    x1=float(xs.max() + 1),
                    y1=float(ys.max() + 1),
                )
            )
        class_grid = LabelGrid(classes)
        panoptic.append(PanopticMap(classes=class_grid, instances=LabelGrid(instances)))
        semantic.append(class_grid)
        boxes.append(frame_boxes)

    flows: list[FlowField] = []
    for t in range(1, config.frames):
        vec = np.zeros((config.height, config.width, 2), dtype=np.float32)
        prev_owner = owners[t - 1]
        for i, actor in enumerate(config.actors):
            visible = prev_owner == i
            if visible.any():
                vec[visible, 0] = actor.velocity[0]
                vec[visible, 1] = actor.velocity[1]
        flows.append(FlowField(vec))

    return GroundTruthBundle(
        config=config,
        taxonomy=taxonomy,
        panoptic=panoptic,
        boxes=boxes,
        semantic=semantic,
        flows=flows,
        background_classes=LabelGrid(background),
    )


def corrupt_shuffle_ids(
    bundle: GroundTruthBundle, seed: int
) -> tuple[list[PanopticMap], list[dict[int, int]]]:
    """Permute each frame's instance ids (frame 0 included).

    Returns the corrupted sequence and the applied old->new mapping per
    frame so tests can invert the corruption. Classes and pixel supports
    are untouched; one sequential generator drives all frames.
    """
    rng = Xoshiro256StarStar(seed)
    out: list[PanopticMap] = []
    mappings: list[dict[int, int]] = []
    for pmap in bundle.panoptic:
        ids = [int(i) for i in np.unique(pmap.instances.values) if i != 0]
        permuted = list(ids)
        rng.shuffle(permuted)
        mapping = dict(zip(ids, permuted))
        values = pmap.instances.values.copy()
        for old, new in mapping.items():
            values[pmap.instances.values == np.uint32(old)] = new
        out.append(PanopticMap(classes=pmap.classes, instances=LabelGrid(values)))
        mappings.append(mapping)
    return out, mappings


def corrupt_boxes(
    bundle: GroundTruthBundle, jitter: int, drop_rate: float, seed: int
) -> list[list[TrackedBox]]:
    """Jitter box edges by uniform integers in [-jitter, +jitter] and drop boxes.

    Per box, five draws in fixed order: x0, y0, x1, y1 offsets, then the
    drop variate (dropped iff it is < drop_rate). Boxes that degenerate
    after jitter are discarded like misses.
    """
    if jitter < 0:
        raise ValueError(f"jitter {jitter} must be >= 0")
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError(f"drop rate {drop_rate} outside [0, 1]")
    rng = Xoshiro256StarStar(seed)
    out: list[list[TrackedBox]] = []
    for frame_boxes in bundle.boxes:
        kept: list[TrackedBox] = []
        for box in frame_boxes:
            offsets = [rng.next_int(-jitter, jitter) for _ in range(4)]
            dropped = rng.next_float() < drop_rate
            if dropped:
                continue
            x0 = box.x0 + offsets[0]
            y0 = box.y0 + offsets[1]
            x1 = box.x1 + offsets[2]
            y1 = box.y1 + offsets[3]
            if x1 > x0 and y1 > y0:
                kept.append(
                    TrackedBox(
                        frame=box.frame,
                        track_id=box.track_id,
                        class_id=box.class_id,
                        x0=x0,
                        y0=y0,
                        x1=x1,
                        y1=y1,
                    )
                )
        out.append(kept)
    return out


def corrupt_masks(
    bundle: GroundTruthBundle, erode: int, seed: int = 0
) -> list[PanopticMap]:
    """Erode every actor mask by a (2*erode+1) square; erode=0 is the identity.

    Eroded pixels fall back to the background band class with instance 0.
    The image border counts as outside the mask. The seed is accepted for
    interface symmetry with the other corruptions but erosion is
    deterministic and ignores it.
    """
    if erode < 0:
        raise ValueError(f"erode {erode} must be >= 0")
    if erode == 0:
        return list(bundle.panoptic)
    if bundle.background_classes is None:
        raise ValueError("bundle lacks background classes; regenerate it")
    from scipy.ndimage import binary_erosion  # lazy: only erosion needs scipy

    structure = np.ones((2 * erode + 1, 2 * erode + 1), dtype=bool)
    background = bundle.background_classes.values
    out: list[PanopticMap] = []
    for pmap in bundle.panoptic:
        classes = pmap.classes.values.copy()
        instances = pmap.instances.values.copy()
        for inst_id in np.unique(pmap.instances.values):
            if inst_id == 0:
                continue
            mask = pmap.instances.values == inst_id
            kept = binary_erosion(mask, structure=structure, border_value=0)
            removed = mask & ~kept
            classes[removed] = background[removed]
            instances[removed] = 0
        out.append(PanopticMap(classes=LabelGrid(classes), instances=LabelGrid(instances)))
    return out
