"""Fill & Fuse: merge a semantic label map with tracked boxes into a panoptic map.

Per frame, the pixels of a tracked box are intersected with the semantic
mask of the box's bound class; pixels in that intersection inherit the
track id as their instance id, everything else keeps instance 0 and its
semantic class label. Track ids are time-consistent by construction
because they come straight from the tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ClassTaxonomy, LabelGrid, PanopticMap, TrackedBox, pixel_span, remap
from .errors import DimensionMismatch, UnknownClass


@dataclass(frozen=True)
class TrackClassBinding:
    """Maps tracker-side category ids to taxonomy thing class ids."""

    pairs: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "pairs", dict(self.pairs))

    @classmethod
    def identity(cls, taxonomy: ClassTaxonomy) -> "TrackClassBinding":
        """Each thing class binds to itself; the default for synthetic tracks."""
        return cls({c: c for c in taxonomy.thing_class_ids().tolist()})

    def class_for(self, tracker_category: int) -> int | None:
        return self.pairs.get(tracker_category)

    def check(self, taxonomy: ClassTaxonomy) -> None:
        for category, class_id in self.pairs.items():
            if not taxonomy.has(class_id):
                raise UnknownClass(f"binding {category} -> {class_id}: class not in taxonomy")
            if not taxonomy.is_thing(class_id):
                raise UnknownClass(f"binding {category} -> {class_id}: class is not a thing class")


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
    return LabelGrid(owner)


def fill_and_fuse(
    semantic: LabelGrid,
    boxes: Sequence[TrackedBox],
    taxonomy: ClassTaxonomy,
    binding: TrackClassBinding,
) -> PanopticMap:
    """Build one panoptic frame from a semantic map and one frame of boxes.

    The class channel is the semantic map unchanged. A pixel receives a
    track id as its instance iff its semantic class equals the track's
    bound class and the ownership raster assigns it that track. Boxes whose
    tracker category has no binding are ignored.
    """
    taxonomy.thing_mask(semantic.values)  # raises UnknownClass
    binding.check(taxonomy)

    bound_class: dict[int, int] = {}
    kept = []
    for box in boxes:
        class_id = binding.class_for(box.class_id)
        if class_id is None:
            continue
        if bound_class.setdefault(box.track_id, class_id) != class_id:
            raise ValueError(f"track {box.track_id} maps to conflicting classes")
        kept.append(box)

    owner = rasterize_ownership(kept, semantic.width, semantic.height).values
    # unowned pixels map 0 -> 0, so a hit there writes the instance 0 it already has
    hit = remap(owner, bound_class) == semantic.values
    instances = np.where(hit, owner, np.uint32(0))
    return PanopticMap(classes=semantic, instances=LabelGrid(instances))


def run_fillfuse_sequence(
    semantic_seq: Sequence[LabelGrid],
    tracks: Iterable[TrackedBox],
    taxonomy: ClassTaxonomy,
    binding: TrackClassBinding | None = None,
) -> list[PanopticMap]:
    """Apply fill_and_fuse frame by frame; instance ids are the track ids."""
    if binding is None:
        binding = TrackClassBinding.identity(taxonomy)
    per_frame: dict[int, list[TrackedBox]] = {}
    for box in tracks:
        if box.frame >= len(semantic_seq):
            raise ValueError(
                f"track box references frame {box.frame} beyond sequence of {len(semantic_seq)}"
            )
        per_frame.setdefault(box.frame, []).append(box)
    out = []
    for t, semantic in enumerate(semantic_seq):
        if semantic.values.shape != semantic_seq[0].values.shape:
            raise DimensionMismatch(
                f"frame {t} is {semantic.width}x{semantic.height}, "
                f"frame 0 is {semantic_seq[0].width}x{semantic_seq[0].height}"
            )
        out.append(fill_and_fuse(semantic, per_frame.get(t, []), taxonomy, binding))
    return out
