"""Command-line entry point: synth, fillfuse, warpmatch, eval, render, invert-flow.

Every subcommand is a pure function of its flags and input files. On
success a summary JSON object goes to stdout (exit 0); on failure a
single-line error JSON goes to stderr (exit 1). Output files are written
atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ParseError, VpsError

# Pipeline entry points, by the module that defines them. They resolve on
# first use (PEP 562), so each command imports only its own pipeline. The
# commands call them as attributes of this module (through _cli), so a
# wrapper set on one of these attributes, as perfbench's span tracer does,
# is what runs.
_PIPELINES = {
    "generate": "synth",
    "corrupt_shuffle_ids": "synth",
    "corrupt_masks": "synth",
    "corrupt_boxes": "synth",
    "run_warpmatch_sequence": "warpmatch",
    "invert_flow": "warpmatch",
    "run_fillfuse_sequence": "fillfuse",
    "vpq": "metrics",
    "render_sequence": "render",
}


def __getattr__(name: str):
    from importlib import import_module

    module = _PIPELINES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]  # this module, also when run as __main__


def _emit(summary: dict) -> int:
    print(json.dumps(summary, sort_keys=True))
    return 0


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except FileNotFoundError:
        raise ParseError(f"{path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc


def _cmd_synth(args) -> int:
    from . import io as vio
    from .synth import SceneConfig

    config = SceneConfig.from_dict(_load_json(args.config))
    bundle = _cli.generate(config)
    # every corruption runs (and checks its flag) before the first file is written
    maps = boxes = None
    if args.shuffle_ids or args.erode != 0:
        maps = bundle.panoptic
        if args.erode != 0:
            maps = _cli.corrupt_masks(maps, bundle.background_classes, args.erode)
        if args.shuffle_ids:
            maps, _ = _cli.corrupt_shuffle_ids(maps, args.corrupt_seed)
    if args.box_jitter != 0 or args.box_drop != 0:
        boxes = _cli.corrupt_boxes(bundle.boxes, args.box_jitter, args.box_drop, args.corrupt_seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_taxonomy(config.taxonomy, out / "taxonomy.json")
    gt_manifest = vio.write_panoptic_sequence(
        out / "gt", bundle.panoptic, config.taxonomy, flows=bundle.flows
    )
    semantic_manifest = vio.write_semantic_sequence(
        out / "semantic", [m.classes for m in bundle.panoptic], config.taxonomy
    )
    tracks_path = out / "tracks.jsonl"
    vio.write_tracks(bundle.boxes, tracks_path)

    summary = {
        "frames": config.frames,
        "size": [config.width, config.height],
        "taxonomy": str(out / "taxonomy.json"),
        "gt_manifest": str(gt_manifest),
        "semantic_manifest": str(semantic_manifest),
        "tracks": str(tracks_path),
    }
    if maps is not None:
        corrupt_manifest = vio.write_panoptic_sequence(
            out / "corrupt", maps, config.taxonomy, flows=bundle.flows
        )
        summary["corrupt_manifest"] = str(corrupt_manifest)
    if boxes is not None:
        corrupt_tracks = out / "tracks_corrupt.jsonl"
        vio.write_tracks(boxes, corrupt_tracks)
        summary["corrupt_tracks"] = str(corrupt_tracks)

    return _emit(summary)


def _cmd_fillfuse(args) -> int:
    from . import io as vio
    from .fillfuse import TrackClassBinding

    semantic, manifest_tax = vio.load_semantic_sequence(args.semantic)
    taxonomy = vio.read_taxonomy(args.taxonomy) if args.taxonomy else manifest_tax
    if taxonomy is None:
        raise ParseError("no taxonomy: pass --taxonomy or embed one in the manifest")
    tracks = vio.read_tracks(args.tracks)
    if args.binding:
        binding = TrackClassBinding(_binding_pairs(args.binding))
    else:
        binding = TrackClassBinding.identity(taxonomy)
    maps = _cli.run_fillfuse_sequence(semantic, tracks, taxonomy, binding)
    manifest = vio.write_panoptic_sequence(args.out, maps, taxonomy)
    return _emit({"frames": len(maps), "manifest": str(manifest)})


def _binding_pairs(path: str) -> dict[int, int]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: binding must be a JSON object, got {type(doc).__name__}")
    from .core import is_integer

    pairs = {}
    for key, value in doc.items():
        # JSON object keys are always strings: each must be an integer written canonically.
        try:
            category = int(key)
        except ValueError:
            category = None
        if category is None or str(category) != key or not is_integer(value):
            raise ParseError(f"{path}: binding {key!r}: {value!r} is not integer: integer")
        pairs[category] = value
    return pairs


def _cmd_warpmatch(args) -> int:
    from . import io as vio

    manifest = vio.read_manifest(args.panoptic)
    maps = vio.read_panoptic_frames(args.panoptic, manifest)
    taxonomy = manifest.taxonomy
    if taxonomy is None:
        raise ParseError(f"{args.panoptic}: manifest must embed a taxonomy")
    # The README walkthrough passes one manifest as both: parse it once.
    if Path(args.flows).resolve() != Path(args.panoptic).resolve():
        manifest = vio.read_manifest(args.flows)
    flows, direction = vio.read_flow_fields(args.flows, manifest)
    if direction == vio.FLOW_CURR_TO_PREV:
        flows = [_cli.invert_flow(f) for f in flows]
    out_maps = _cli.run_warpmatch_sequence(
        maps,
        flows,
        taxonomy,
        threshold=args.threshold,
        class_strict=args.class_strict,
        matcher=args.matcher,
    )
    manifest = vio.write_panoptic_sequence(args.out, out_maps, taxonomy)
    return _emit(
        {
            "frames": len(out_maps),
            "manifest": str(manifest),
            "threshold": args.threshold,
            "matcher": args.matcher,
        }
    )


def _cmd_eval(args) -> int:
    from . import io as vio

    pred, pred_tax = vio.load_panoptic_sequence(args.pred)
    gt, gt_tax = vio.load_panoptic_sequence(args.gt)
    if pred_tax is not None and gt_tax is not None and pred_tax != gt_tax:
        raise ParseError("pred and gt manifests embed different taxonomies")
    taxonomy = gt_tax or pred_tax
    if taxonomy is None:
        raise ParseError("neither manifest embeds a taxonomy")
    windows = [int(k) for k in args.windows.split(",") if k.strip()]
    report = _cli.vpq(pred, gt, taxonomy, window_sizes=windows)
    doc = report.to_json_dict()
    if args.report:
        vio._atomic_write_text(args.report, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return _emit(doc)


def _cmd_render(args) -> int:
    from . import io as vio

    maps, taxonomy = vio.load_panoptic_sequence(args.input)
    if taxonomy is None:
        raise ParseError(f"{args.input}: manifest must embed a taxonomy")
    paths = _cli.render_sequence(maps, taxonomy, args.out)
    return _emit({"frames": len(paths), "out": str(Path(args.out))})


def _cmd_invert_flow(args) -> int:
    from . import io as vio

    flow = vio.read_flow(args.input)
    vio.write_flow(_cli.invert_flow(flow), args.out)
    return _emit({"in": args.input, "out": args.out})


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    from .defaults import DEFAULT_IOU_THRESHOLD, DEFAULT_WINDOW_SIZES

    parser = argparse.ArgumentParser(
        prog="vpskit",
        description="Convert perception outputs to video panoptic segmentation and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    p.add_argument("--config", required=True, help="scene config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--shuffle-ids", action="store_true", help="also write id-shuffled maps")
    p.add_argument("--box-jitter", type=int, default=0, help="box edge jitter in pixels")
    p.add_argument("--box-drop", type=float, default=0.0, help="box drop rate in [0,1]")
    p.add_argument("--erode", type=int, default=0, help="mask erosion radius in pixels")
    p.add_argument("--corrupt-seed", type=int, default=0, help="seed for all corruptions")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fillfuse", help="merge semantic maps with tracked boxes")
    p.add_argument("--semantic", required=True, help="semantic sequence manifest")
    p.add_argument("--tracks", required=True, help="tracked boxes JSONL")
    p.add_argument("--taxonomy", default=None, help="taxonomy JSON (overrides manifest)")
    p.add_argument("--binding", default=None, help="tracker category -> class id JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fillfuse)

    p = sub.add_parser("warpmatch", help="make a panoptic sequence time consistent")
    p.add_argument("--panoptic", required=True, help="panoptic sequence manifest")
    p.add_argument("--flows", required=True, help="manifest carrying the flow files")
    p.add_argument("--threshold", type=float, default=DEFAULT_IOU_THRESHOLD)
    p.add_argument("--class-strict", type=_bool_flag, default=True)
    p.add_argument("--matcher", choices=("greedy", "optimal"), default="greedy")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_warpmatch)

    p = sub.add_parser("eval", help="PQ/VPQ of a prediction against ground truth")
    p.add_argument("--pred", required=True, help="predicted sequence manifest")
    p.add_argument("--gt", required=True, help="ground-truth sequence manifest")
    p.add_argument(
        "--windows", default=",".join(str(k) for k in DEFAULT_WINDOW_SIZES)
    )
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="render a sequence to PPM frames")
    p.add_argument("--in", dest="input", required=True, help="sequence manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("invert-flow", help="invert one flow field file")
    p.add_argument("--in", dest="input", required=True, help="input .flo")
    p.add_argument("--out", required=True, help="output .flo")
    p.set_defaults(func=_cmd_invert_flow)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VpsError, ValueError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
