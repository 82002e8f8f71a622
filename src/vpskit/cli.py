"""Command-line entry point: synth, fillfuse, warpmatch, eval, render, invert-flow.

Every subcommand is a pure function of its flags and input files. On
success a summary JSON object goes to stdout (exit 0); on failure a
single-line error JSON goes to stderr (exit 1, or 2 for a usage error).
Output files are written atomically.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from pathlib import Path

from .errors import ParseError, VpsError


def __getattr__(name: str):
    """A public name of the package, resolved on first use through its PEP 562 table.

    Each command thus imports only its own pipeline. The commands call these
    names as attributes of this module (through _cli), so a wrapper set on
    one of them, as perfbench's span tracer does, is what runs. No other
    name is lent: the package's ``__path__`` and ``__all__`` would make
    ``from vpskit.cli import *`` import every pipeline.
    """
    import vpskit

    if name not in vpskit.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(vpskit, name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]  # this module, also when run as __main__


def _emit(summary: dict) -> int:
    # Flushed here, so a write that fails is main's OSError and not a message at exit.
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


def _cmd_synth(args) -> int:
    from . import io as vio
    from .synth import SceneConfig, background_classes

    config = SceneConfig.from_dict(vio.load_json(args.config))
    # generate and every corruption check their config or flag here, before the first file
    # is written, and do their work as the loop below pulls frames.
    frames = _cli.generate(config)
    gt_maps: list = []  # the loop hands each ground-truth map to the corruptions through it
    corrupted = None
    if args.shuffle_ids or args.erode != 0:
        corrupted = iter(gt_maps.pop, None)
        if args.erode != 0:
            corrupted = _cli.corrupt_masks(corrupted, background_classes(config), args.erode)
        if args.shuffle_ids:
            corrupted = _cli.corrupt_shuffle_ids(corrupted, args.corrupt_seed)
    boxes: list = []
    corrupt_boxes = None
    if args.box_jitter != 0 or args.box_drop != 0:
        # reads boxes when write_tracks pulls it, once the loop has filled it
        corrupt_boxes = _cli.corrupt_boxes(boxes, args.box_jitter, args.box_drop, args.corrupt_seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_taxonomy(config.taxonomy, out / "taxonomy.json")
    gt = vio.SequenceWriter(out / "gt", config.frames, config.taxonomy, flows=True)
    semantic = vio.SequenceWriter(out / "semantic", config.frames, config.taxonomy)
    corrupt = None
    if corrupted is not None:
        corrupt = vio.SequenceWriter(out / "corrupt", config.frames, config.taxonomy, flows=True)
    for frame in frames:
        gt.write_frame(frame.panoptic.classes, frame.panoptic.instances)
        semantic.write_frame(frame.panoptic.classes)
        if corrupt is not None:
            gt_maps.append(frame.panoptic)
            pmap = next(corrupted)
            corrupt.write_frame(pmap.classes, pmap.instances)
            del pmap
        if frame.flow is not None:
            flow = vio.encode_flow(frame.flow)  # once for both directories
            gt.write_flow(flow)
            if corrupt is not None:
                corrupt.write_flow(flow)
            del flow
        boxes.extend(frame.boxes)
        del frame  # freed before the next frame paints

    gt_manifest, semantic_manifest = gt.close(), semantic.close()
    tracks_path = out / "tracks.jsonl"
    vio.write_tracks(boxes, tracks_path)

    summary = {
        "frames": config.frames,
        "size": [config.width, config.height],
        "taxonomy": str(out / "taxonomy.json"),
        "gt_manifest": str(gt_manifest),
        "semantic_manifest": str(semantic_manifest),
        "tracks": str(tracks_path),
    }
    if corrupt is not None:
        summary["corrupt_manifest"] = str(corrupt.close())
    if corrupt_boxes is not None:
        corrupt_tracks = out / "tracks_corrupt.jsonl"
        vio.write_tracks(corrupt_boxes, corrupt_tracks)
        summary["corrupt_tracks"] = str(corrupt_tracks)

    return _emit(summary)


def _cmd_fillfuse(args) -> int:
    from . import io as vio
    from .fillfuse import check_track_frames

    manifest = vio.read_manifest(args.semantic)
    taxonomy = vio.read_taxonomy(args.taxonomy) if args.taxonomy else manifest.taxonomy
    if taxonomy is None:
        raise ParseError("no taxonomy: pass --taxonomy or embed one in the manifest")
    tracks = vio.read_tracks(args.tracks)
    binding = _binding_pairs(args.binding) if args.binding else None
    vio.check_grid_sizes(Path(args.semantic).parent / f.classes for f in manifest.frames)
    check_track_frames((box.frame for box in tracks), len(manifest.frames))
    grids = vio.iter_class_grids(args.semantic, manifest)
    maps = _cli.run_fillfuse_sequence(grids, tracks, taxonomy, binding)
    out = vio.write_panoptic_sequence(args.out, maps, taxonomy, count=len(manifest.frames))
    return _emit({"frames": len(manifest.frames), "manifest": str(out)})


def _binding_pairs(path: str) -> dict[int, int]:
    from . import io as vio
    from .core import is_integer

    pairs = {}
    for key, value in vio.load_json(path).items():
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
    taxonomy = manifest.taxonomy
    if taxonomy is None:
        raise ParseError(f"{args.panoptic}: manifest must embed a taxonomy")
    # The README walkthrough passes one manifest as both: parse it once. realpath, unlike
    # Path.resolve, leaves a symlink loop to read_manifest, which reports it as an OSError.
    flow_manifest = manifest
    if os.path.realpath(args.flows) != os.path.realpath(args.panoptic):
        flow_manifest = vio.read_manifest(args.flows)
    maps = vio.iter_panoptic_frames(args.panoptic, manifest)
    flows = vio.iter_flow_fields(args.flows, flow_manifest)
    if flow_manifest.flows.direction == vio.FLOW_CURR_TO_PREV:
        flows = map(_cli.invert_flow, flows)
    # The pipeline checks its options (and scipy, for the optimal matcher) at the call, and
    # frames are written as they are relabeled: check counts and sizes before the first one.
    out_maps = _cli.run_warpmatch_sequence(
        maps,
        flows,
        taxonomy,
        threshold=args.threshold,
        class_strict=args.class_strict,
        matcher=args.matcher,
    )
    vio.check_flow_sequence(args.panoptic, manifest, args.flows, flow_manifest)
    frames = len(manifest.frames)
    out = vio.write_panoptic_sequence(args.out, out_maps, taxonomy, count=frames)
    return _emit(
        {
            "frames": frames,
            "manifest": str(out),
            "threshold": args.threshold,
            "matcher": args.matcher,
        }
    )


def _cmd_eval(args) -> int:
    from . import io as vio

    # a list, as perfbench's span tracer iterates vpq's first argument again after the call
    pred, pred_tax = vio.load_panoptic_sequence(args.pred)
    gt_manifest = vio.read_manifest(args.gt)
    gt = vio.iter_panoptic_frames(args.gt, gt_manifest)  # read frame by frame as vpq pulls it
    gt_tax = gt_manifest.taxonomy
    if pred_tax is not None and gt_tax is not None and pred_tax != gt_tax:
        raise ParseError("pred and gt manifests embed different taxonomies")
    taxonomy = gt_tax or pred_tax
    if taxonomy is None:
        raise ParseError("neither manifest embeds a taxonomy")
    report = _cli.vpq(pred, gt, taxonomy, window_sizes=args.windows)
    doc = report.to_json_dict()
    if args.report:
        vio.write_json(doc, args.report)
    return _emit(doc)


def _cmd_render(args) -> int:
    from . import io as vio

    manifest = vio.read_manifest(args.input)
    maps = vio.iter_panoptic_frames(args.input, manifest)  # each read as render_sequence pulls it
    if manifest.taxonomy is None:
        raise ParseError(f"{args.input}: manifest must embed a taxonomy")
    paths = _cli.render_sequence(maps, manifest.taxonomy, args.out)
    return _emit({"frames": len(paths), "out": str(Path(args.out))})


def _cmd_invert_flow(args) -> int:
    from . import io as vio

    flow = vio.read_flow(args.input)
    vio.write_flow(_cli.invert_flow(flow), args.out)
    return _emit({"in": args.input, "out": args.out})


def _seed(value: str) -> int:
    try:
        seed = int(value)
        if 0 <= seed < 1 << 64:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer in [0, 2^64), got {value!r}")


def _window_sizes(value: str) -> list[int]:
    try:
        return [int(k) for k in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one JSON line on stderr and exit code 2.

    Subparsers are made of the same class.
    """

    def error(self, message: str):
        error = {"error": "UsageError", "message": f"{self.prog}: {message}"}
        print(json.dumps(error), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    from .defaults import DEFAULT_IOU_THRESHOLD, DEFAULT_WINDOW_SIZES

    parser = _Parser(
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
    p.add_argument("--corrupt-seed", type=_seed, default=0, help="seed for all corruptions")
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
    p.add_argument("--windows", type=_window_sizes, default=list(DEFAULT_WINDOW_SIZES))
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
    except MemoryError as exc:  # numpy's _ArrayMemoryError too, under the builtin's name
        print(json.dumps({"error": "MemoryError", "message": str(exc)}), file=sys.stderr)
        return 1


def run() -> None:
    """The process entry, of the ``vpskit`` script and ``python -m vpskit.cli``: main, then exit.

    OpenBLAS, which numpy loads and no vpskit module calls, runs one thread
    unless OPENBLAS_NUM_THREADS is set: its idle worker cost CPU at every
    start. After main returns, the atexit handlers run and stdout and stderr
    are flushed; then the process leaves through ``os._exit``, without the
    interpreter's teardown of numpy's modules and objects. No thread is
    joined first: vpskit starts none. As at a normal exit, a flush that
    fails turns exit code 0 into 120. --help, usage
    errors and any exception main raises leave through the interpreter's
    usual exit. main alone does none of this, so a caller's environment and
    exit stay as they were.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads, after this line
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with that descriptor closed
            try:
                stream.flush()
            except OSError:  # also a summary that main has reported unwritten, with exit code 1
                code = code or 120
    os._exit(code)


if __name__ == "__main__":
    if sys.modules[__name__].__dict__ is globals():
        run()
    else:
        # runpy.run_module (the route of `python -m cProfile -m vpskit.cli`) runs this code
        # outside sys.modules, where _cli names the caller's module: use the real one, and
        # leave the caller's environment and exit as they are.
        from vpskit.cli import main

        sys.exit(main())
