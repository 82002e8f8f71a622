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
from vpskit.io import decode_flow, encode_flow, encode_label_grid
from vpskit.metrics import _frame_table, vpq
from vpskit.render import colorize
from vpskit.synth import Actor, Band, SceneConfig, corrupt_masks, generate
from vpskit.warpmatch import invert_flow, warp_backward

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


def test_warp_backward_peaks_at_most_8_grids(scene):
    curr, flow = scene.panoptic[1], scene.flows[0]
    grids = peak_grids(lambda: warp_backward(curr, flow))
    assert grids <= 8, f"warp_backward peaked at {grids:.2f} grids"


def test_frame_table_peaks_at_most_12_grids(scene):
    pred, gt = scene.panoptic
    grids = peak_grids(lambda: _frame_table(pred, gt, TAX))
    assert grids <= 12, f"_frame_table peaked at {grids:.2f} grids"


def test_decode_flow_peaks_at_most_3_grids(scene):
    data = encode_flow(scene.flows[0])  # the result alone is 2 grids
    grids = peak_grids(lambda: decode_flow(data))
    assert grids <= 3, f"decode_flow peaked at {grids:.2f} grids"


def test_colorize_peaks_at_most_6_grids(scene):
    pmap = scene.panoptic[0]  # the RGB result alone is 0.75 grids
    grids = peak_grids(lambda: colorize(pmap, TAX))
    assert grids <= 6, f"colorize peaked at {grids:.2f} grids"


def test_invert_flow_peaks_at_most_8_grids(scene):
    flow = scene.flows[0]  # the result alone is 2 grids
    grids = peak_grids(lambda: invert_flow(flow))
    assert grids <= 8, f"invert_flow peaked at {grids:.2f} grids"


def test_generate_peaks_at_most_7_grids_per_frame(scene_config):
    # the collected scene alone holds up to 4 grids per frame: classes, instances and a 2-grid flow
    grids = peak_grids(lambda: generate_scene(scene_config)) / scene_config.frames
    assert grids <= 7, f"generate peaked at {grids:.2f} grids per frame"


def test_corrupt_masks_peaks_at_most_8_grids(scene):
    frames, background = scene.panoptic[:1], scene.background_classes
    grids = peak_grids(lambda: corrupt_masks(frames, background, 3))
    assert grids <= 8, f"corrupt_masks peaked at {grids:.2f} grids"


def test_remap_table_path_peaks_at_most_4_grids(scene):
    values = scene.panoptic[0].instances.values  # ids below the table bound
    ids = present_ids(values)
    mapping = dict(zip(ids, reversed(ids)))
    grids = peak_grids(lambda: remap(values, mapping))
    assert grids <= 4, f"remap peaked at {grids:.2f} grids"


def test_encoders_copy_the_payload_once(scene):
    # the encoded bytes alone are 1 grid for a label grid and 2 for a flow
    grid, flow = scene.panoptic[0].instances, scene.flows[0]
    grids = peak_grids(lambda: encode_label_grid(grid))
    assert grids <= 1.5, f"encode_label_grid peaked at {grids:.2f} grids"
    grids = peak_grids(lambda: encode_flow(flow))
    assert grids <= 2.5, f"encode_flow peaked at {grids:.2f} grids"


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
