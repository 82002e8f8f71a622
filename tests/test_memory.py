"""Allocation budgets of the per-frame kernels, in uint32 frame grids (tracemalloc peaks).

The frame is 640x320, the size of the benchmark's big-frames scene: stuff
bands, twenty moving things, and a fractional flow. A budget counts every
array a call allocates at once, its result included. The streamed commands
hold one frame's working set, so their peaks do not grow with the frame count.
"""

import contextlib
import io
import json
import tracemalloc
from dataclasses import replace

import pytest

from helpers import generate_scene, scene_to_dict
from vpskit import cli
from vpskit.core import ClassEntry, ClassTaxonomy, LabelGrid, PanopticMap, present_ids, remap
from vpskit.fillfuse import fill_and_fuse, rasterize_ownership
from vpskit.io import decode_flow, encode_flow, encode_label_grid, read_flow, read_label_grid
from vpskit.io import write_flow, write_label_grid
from vpskit.metrics import _frame_table, vpq
from vpskit.render import colorize
from vpskit.synth import Actor, Band, SceneConfig, background_classes, corrupt_masks
from vpskit.synth import corrupt_shuffle_ids, generate
from vpskit.warpmatch import IdAssignment, build_iou_matrix, invert_flow, relabel, warp_backward

TAX = ClassTaxonomy(
    entries=(
        ClassEntry(0, "void", "stuff"),
        ClassEntry(1, "road", "stuff"),
        ClassEntry(2, "sky", "stuff"),
        ClassEntry(10, "person", "thing"),
        ClassEntry(11, "car", "thing"),
    )
)


@pytest.fixture(scope="module")
def scene_config():
    actors = tuple(
        Actor(
            ("rectangle", "disk")[i % 2],
            (10, 11)[i % 3 == 0],
            20 + 2 * i,
            (float(29 * i % 600), float(13 * i % 280)),
            (1.5 - 0.25 * (i % 7), 0.75 * (i % 3) - 0.5),
            i % 4,
        )
        for i in range(20)
    )
    return SceneConfig(
        width=640,
        height=320,
        frames=2,
        taxonomy=TAX,
        background=(Band(2, 80), Band(0, 16), Band(1)),
        actors=actors,
    )


@pytest.fixture(scope="module")
def scene(scene_config):
    return generate_scene(scene_config)


def peak_grids(call) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (640 * 320 * 4)


def test_warp_backward_peaks_at_most_3_grids(scene):
    curr, flow = scene.panoptic[1], scene.flows[0]  # the result alone is 2 grids
    grids = peak_grids(lambda: warp_backward(curr, flow))
    assert grids <= 3, f"warp_backward peaked at {grids:.2f} grids"


def test_frame_table_peaks_at_most_1_grid(scene):
    pred, gt = scene.panoptic  # run ends alone are coded: the run scan's masks are 0.5 grids
    grids = peak_grids(lambda: _frame_table(pred, gt, TAX))
    assert grids <= 1, f"_frame_table peaked at {grids:.2f} grids"


def test_build_iou_matrix_peaks_at_most_1_grid(scene):
    prev, curr = scene.panoptic  # one overlap table of both maps' labels: no per-pixel masks
    warped = warp_backward(curr, scene.flows[0])
    grids = peak_grids(lambda: build_iou_matrix(warped, prev, TAX))
    assert grids <= 1, f"build_iou_matrix peaked at {grids:.2f} grids"


def test_thing_mask_peaks_at_most_1_grid(scene):
    classes = scene.panoptic[0].classes.values  # the kind codes and the result are 0.25 grids each
    grids = peak_grids(lambda: TAX.thing_mask(classes))
    assert grids <= 1, f"thing_mask peaked at {grids:.2f} grids"


def test_decode_flow_peaks_at_most_3_grids(scene):
    data = encode_flow(scene.flows[0])  # the result alone is 2 grids
    grids = peak_grids(lambda: decode_flow(data))
    assert grids <= 3, f"decode_flow peaked at {grids:.2f} grids"


def test_colorize_peaks_at_most_1_grid(scene):
    pmap = scene.panoptic[0]  # the RGB result alone is 0.75 grids
    grids = peak_grids(lambda: colorize(pmap, TAX))
    assert grids <= 1, f"colorize peaked at {grids:.2f} grids"


def test_invert_flow_peaks_at_most_8_grids(scene):
    flow = scene.flows[0]  # the result alone is 2 grids
    grids = peak_grids(lambda: invert_flow(flow))
    assert grids <= 8, f"invert_flow peaked at {grids:.2f} grids"


def test_generate_peaks_at_most_5_5_grids_pulling_frame_by_frame(scene_config):
    # one frame's classes, instances and 2-grid flow, beside the background grid generate keeps
    def pull_each_frame():
        frames = generate(scene_config)
        for _ in range(scene_config.frames):
            next(frames)  # dropped at once, as a streamed command drops it

    grids = peak_grids(pull_each_frame)
    assert grids <= 5.5, f"generate peaked at {grids:.2f} grids"


def test_corrupt_masks_peaks_at_most_8_grids(scene):
    frames, background = scene.panoptic[:1], scene.background_classes
    grids = peak_grids(lambda: corrupt_masks(frames, background, 3))
    assert grids <= 8, f"corrupt_masks peaked at {grids:.2f} grids"


def test_remap_table_path_peaks_at_most_2_grids(scene):
    values = scene.panoptic[0].instances.values  # ids below the table bound
    ids = present_ids(values)
    mapping = dict(zip(ids, reversed(ids)))
    grids = peak_grids(lambda: remap(values, mapping))
    assert grids <= 2, f"remap peaked at {grids:.2f} grids"


def test_encoders_copy_the_payload_once(scene):
    # the encoded bytes alone are 1 grid for a label grid and 2 for a flow
    grid, flow = scene.panoptic[0].instances, scene.flows[0]
    grids = peak_grids(lambda: encode_label_grid(grid))
    assert grids <= 1.5, f"encode_label_grid peaked at {grids:.2f} grids"
    grids = peak_grids(lambda: encode_flow(flow))
    assert grids <= 2.5, f"encode_flow peaked at {grids:.2f} grids"


def test_readers_read_the_payload_into_the_result(scene, tmp_path):
    # the result alone is 1 grid for a label grid and 2 for a flow; the finiteness check adds none
    lmap, flo = tmp_path / "grid.lmap", tmp_path / "flow.flo"
    write_label_grid(scene.panoptic[0].instances, lmap)
    write_flow(scene.flows[0], flo)
    grids = peak_grids(lambda: read_label_grid(lmap))
    assert grids <= 1.5, f"read_label_grid peaked at {grids:.2f} grids"
    grids = peak_grids(lambda: read_flow(flo))
    assert grids <= 2.25, f"read_flow peaked at {grids:.2f} grids"


def test_arrays_from_readers_and_kernels_are_read_only(scene, scene_config, tmp_path):
    pmap, flow = scene.panoptic[1], scene.flows[0]
    write_label_grid(pmap.instances, tmp_path / "grid.lmap")
    write_flow(flow, tmp_path / "flow.flo")
    frame = next(generate(scene_config))
    warped = warp_backward(pmap, flow)
    ids = present_ids(pmap.instances.values)
    relabeled, _ = relabel(pmap, IdAssignment({}, frozenset(ids)), 1)
    boxes = [replace(box, frame=0) for box in frame.boxes]
    fused = fill_and_fuse(pmap.classes, boxes, TAX, {10: 10, 11: 11})
    arrays = {
        "read_label_grid": read_label_grid(tmp_path / "grid.lmap").values,
        "read_flow": read_flow(tmp_path / "flow.flo").vectors,
        "generate classes": frame.panoptic.classes.values,
        "generate instances": frame.panoptic.instances.values,
        "generate flow": frame.flow.vectors,
        "background_classes": background_classes(scene_config).values,
        "corrupt_shuffle_ids": next(corrupt_shuffle_ids([pmap], 3)).instances.values,
        "corrupt_masks": next(corrupt_masks([pmap], scene.background_classes, 2)).instances.values,
        "warp_backward classes": warped.classes.values,
        "warp_backward instances": warped.instances.values,
        "invert_flow": invert_flow(flow).vectors,
        "relabel": relabeled.instances.values,
        "rasterize_ownership": rasterize_ownership(boxes, pmap.width, pmap.height).values,
        "fill_and_fuse": fused.instances.values,
    }
    writeable = [name for name, arr in arrays.items() if arr.flags.writeable]
    assert writeable == []


def test_vpq_of_streams_peaks_alike_at_4_and_16_frames(scene):
    def frames(count: int, shift: int):  # each frame a fresh copy, dropped once vpq is done with it
        for i in range(count):
            pmap = scene.panoptic[(i + shift) % 2]
            yield PanopticMap(LabelGrid(pmap.classes.values), LabelGrid(pmap.instances.values))

    peaks = {n: peak_grids(lambda: vpq(frames(n, 0), frames(n, 1), TAX)) for n in (4, 16)}
    assert peaks[16] <= 1.1 * peaks[4], f"{peaks[4]:.2f} grids at 4 frames, {peaks[16]:.2f} at 16"


def test_streamed_commands_peak_alike_at_4_and_16_frames(scene_config, tmp_path):
    """In-process ``cli.main`` peaks of 16 frames stay within 10% of those of 4 frames."""

    def run(argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv

    def commands(frames: int) -> list[list[str]]:
        root = tmp_path / str(frames)
        root.mkdir()
        config = root / "scene.json"
        config.write_text(json.dumps(scene_to_dict(replace(scene_config, frames=frames))))
        corrupt = str(root / "data" / "corrupt" / "manifest.json")
        return [
            ["synth", "--config", str(config), "--out", str(root / "data"), "--shuffle-ids",
             "--erode", "1", "--box-jitter", "1", "--box-drop", "0.1"],
            ["warpmatch", "--panoptic", corrupt, "--flows", corrupt, "--out", str(root / "wm")],
            ["fillfuse", "--semantic", str(root / "data" / "semantic" / "manifest.json"),
             "--tracks", str(root / "data" / "tracks_corrupt.jsonl"), "--out", str(root / "ff")],
        ]

    for argv in commands(2):  # imports and first-use caches, outside the measured runs
        run(argv)
    peaks = {n: [peak_grids(lambda: run(argv)) for argv in commands(n)] for n in (4, 16)}
    for name, four, sixteen in zip(("synth", "warpmatch", "fillfuse"), peaks[4], peaks[16]):
        assert sixteen <= 1.1 * four, f"{name}: {four:.2f} grids at 4 frames, {sixteen:.2f} at 16"
