"""Fill & Fuse: merge a semantic label map with tracked boxes into a panoptic map.

Per frame, the pixels of a tracked box are intersected with the semantic
mask of the box's bound class; pixels in that intersection inherit the
track id as their instance id, everything else keeps instance 0 and its
semantic class label. Track ids are time-consistent by construction
because they come straight from the tracker.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import ClassTaxonomy, LabelGrid, PanopticMap, TrackedBox, pixel_span, remap
from .errors import DimensionMismatch, UnknownClass


def rasterize_ownership(
    boxes: Sequence[TrackedBox], width: int, height: int
) -> LabelGrid:
    """Assign each box-covered pixel to exactly one track id (0 = unowned).

    Overlaps go to the smallest-area box, ties to the lower track id. Boxes
    are clipped to the grid; fully outside boxes contribute nothing.
    """
    frames = {b.frame for b in boxes}
    if len(frames) > 1:
        raise ValueError(f"boxes span multiple frames: {sorted(frames)}")
    owner = np.zeros((height, width), dtype=np.uint32)
    # paint largest first so the smallest area / lowest track id ends on top
    for box in sorted(boxes, key=lambda b: (b.area, b.track_id), reverse=True):
        x_lo, x_hi = pixel_span(box.x0, box.x1, width)
        y_lo, y_hi = pixel_span(box.y0, box.y1, height)
        owner[y_lo:y_hi, x_lo:x_hi] = box.track_id
    return LabelGrid._adopt(owner)


def fill_and_fuse(
    semantic: LabelGrid,
    boxes: Sequence[TrackedBox],
    taxonomy: ClassTaxonomy,
    binding: Mapping[int, int],
) -> PanopticMap:
    """Build one panoptic frame from a semantic map and one frame of boxes.

    The class channel is the semantic map unchanged. A pixel receives a
    track id as its instance iff its semantic class equals the track's
    bound class and the ownership raster assigns it that track. ``binding``
    maps tracker categories to thing class ids; boxes whose category it
    lacks are ignored.
    """
    taxonomy.thing_mask(semantic.values)  # raises UnknownClass
    for category, class_id in binding.items():
        if not taxonomy.has(class_id):
            raise UnknownClass(f"binding {category} -> {class_id}: class not in taxonomy")
        if not taxonomy.is_thing(class_id):
            raise UnknownClass(f"binding {category} -> {class_id}: class is not a thing class")

    bound_class: dict[int, int] = {}
    kept = []
    for box in boxes:
        class_id = binding.get(box.class_id)
        if class_id is None:
            continue
        if bound_class.setdefault(box.track_id, class_id) != class_id:
            raise ValueError(f"track {box.track_id} maps to conflicting classes")
        kept.append(box)

    owner = rasterize_ownership(kept, semantic.width, semantic.height).values
    # unowned pixels map 0 -> 0, so a hit there writes the instance 0 it already has
    hit = remap(owner, bound_class) == semantic.values
    instances = np.where(hit, owner, np.uint32(0))
    return PanopticMap(classes=semantic, instances=LabelGrid._adopt(instances))


def run_fillfuse_sequence(
    semantic_seq: Iterable[LabelGrid],
    tracks: Iterable[TrackedBox],
    taxonomy: ClassTaxonomy,
    binding: Mapping[int, int] | None = None,
) -> Iterator[PanopticMap]:
    """Apply fill_and_fuse frame by frame, yielding each frame; instance ids are the track ids.

    ``binding`` maps tracker categories to thing class ids; by default each
    thing class binds to itself, as synthetic tracks need. A frame is yielded
    once the next is fused, and a box past the last frame fails at the end.
    """
    if binding is None:
        binding = {c: c for c in taxonomy.thing_class_ids().tolist()}
    per_frame: dict[int, list[TrackedBox]] = {}
    for box in tracks:
        per_frame.setdefault(box.frame, []).append(box)
    frames, prev = 0, None
    for semantic in semantic_seq:
        if frames and semantic.values.shape != prev.classes.values.shape:
            raise DimensionMismatch(
                f"frame {frames} is {semantic.width}x{semantic.height}, "
                f"frame 0 is {prev.classes.width}x{prev.classes.height}"
            )
        fused = fill_and_fuse(semantic, per_frame.get(frames, []), taxonomy, binding)
        if frames:
            yield prev
        frames, prev = frames + 1, fused
    check_track_frames(per_frame, frames)
    if frames:
        yield prev


def check_track_frames(box_frames: Iterable[int], frames: int) -> None:
    """Refuse a track box whose frame lies past a sequence of ``frames`` frames."""
    for frame in box_frames:
        if frame >= frames:
            raise ValueError(f"track box references frame {frame} beyond sequence of {frames}")
