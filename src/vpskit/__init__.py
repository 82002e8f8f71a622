"""vpskit: post-process perception outputs into video panoptic segmentation.

Two conversion pipelines (fill & fuse over semantic maps and tracked
boxes; warp & match over per-frame panoptic maps and optical flow), PQ/VPQ
evaluation, a synthetic ground-truth scene generator, bit-exact file
formats and a CLI tying them together.
"""

from .core import (
    STUFF,
    THING,
    ClassEntry,
    ClassTaxonomy,
    FlowField,
    LabelGrid,
    PanopticMap,
    Segment,
    extract_segments,
    validate_panoptic,
)
from .fillfuse import (
    TrackClassBinding,
    TrackedBox,
    fill_and_fuse,
    rasterize_ownership,
    run_fillfuse_sequence,
)
from .metrics import MetricReport, PqStats, pq, vpq
from .synth import (
    Actor,
    Band,
    GroundTruthBundle,
    SceneConfig,
    corrupt_boxes,
    corrupt_masks,
    corrupt_shuffle_ids,
    generate,
)
from .warpmatch import (
    IdAssignment,
    IoUMatrix,
    TrackerState,
    build_iou_matrix,
    invert_flow,
    match_ids,
    relabel,
    run_warpmatch_sequence,
    warp_backward,
)

__version__ = "0.1.0"

__all__ = [
    "STUFF",
    "THING",
    "Actor",
    "Band",
    "ClassEntry",
    "ClassTaxonomy",
    "FlowField",
    "GroundTruthBundle",
    "IdAssignment",
    "IoUMatrix",
    "LabelGrid",
    "MetricReport",
    "PanopticMap",
    "PqStats",
    "SceneConfig",
    "Segment",
    "TrackClassBinding",
    "TrackedBox",
    "TrackerState",
    "build_iou_matrix",
    "corrupt_boxes",
    "corrupt_masks",
    "corrupt_shuffle_ids",
    "extract_segments",
    "fill_and_fuse",
    "generate",
    "invert_flow",
    "match_ids",
    "pq",
    "rasterize_ownership",
    "relabel",
    "run_fillfuse_sequence",
    "run_warpmatch_sequence",
    "validate_panoptic",
    "vpq",
    "warp_backward",
]
