"""vpskit: post-process perception outputs into video panoptic segmentation.

Two conversion pipelines (fill & fuse over semantic maps and tracked
boxes; warp & match over per-frame panoptic maps and optical flow), PQ/VPQ
evaluation, a synthetic ground-truth scene generator, bit-exact file
formats and a CLI tying them together.

The public names below resolve on first use (PEP 562), so ``import
vpskit`` alone loads no submodule and no numpy.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_MODULE_OF = {
    "STUFF": "core",
    "THING": "core",
    "Actor": "synth",
    "Band": "synth",
    "ClassEntry": "core",
    "ClassTaxonomy": "core",
    "FlowField": "core",
    "GroundTruthBundle": "synth",
    "IdAssignment": "warpmatch",
    "IoUMatrix": "warpmatch",
    "LabelGrid": "core",
    "MetricReport": "metrics",
    "PanopticMap": "core",
    "PqStats": "metrics",
    "SceneConfig": "synth",
    "Segment": "core",
    "TrackClassBinding": "fillfuse",
    "TrackedBox": "core",
    "build_iou_matrix": "warpmatch",
    "corrupt_boxes": "synth",
    "corrupt_masks": "synth",
    "corrupt_shuffle_ids": "synth",
    "extract_segments": "core",
    "fill_and_fuse": "fillfuse",
    "generate": "synth",
    "invert_flow": "warpmatch",
    "match_ids": "warpmatch",
    "pq": "metrics",
    "rasterize_ownership": "fillfuse",
    "relabel": "warpmatch",
    "run_fillfuse_sequence": "fillfuse",
    "run_warpmatch_sequence": "warpmatch",
    "validate_panoptic": "core",
    "vpq": "metrics",
    "warp_backward": "warpmatch",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
