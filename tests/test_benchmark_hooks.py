"""perfbench's span tracer wraps vpskit functions by (module, attribute) name.

A renamed or moved function would otherwise only show up as an absent span
in the slow benchmark self-check; here each pair must still resolve, and
the counts the tracer reads from arguments and results must still add up.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import vpskit
from helpers import scene_to_dict, small_taxonomy
from vpskit import cli
from vpskit.synth import Actor, Band, SceneConfig

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_SPANS = _PERFBENCH / "spans.py"
# perfbench's counts over one pass of its tiny workload at seed 1. A change to
# what a traced function takes or returns that the tracer's counting no longer
# reads correctly shows here as a differing count.
_TINY_COUNTS = {
    "fillfuse.boxes": 19,
    "fillfuse.instance_px": 757,
    "fillfuse.owned_px": 882,
    "io.bytes_read": 660884,
    "io.bytes_written": 809298,
    "io.files_read": 55,
    "io.files_written": 67,
    "metrics.fn": 10,
    "metrics.fp": 10,
    "metrics.scored_px": 15360,
    "metrics.tp": 35,
    "render.keys": 45,
    "synth.actor_frames": 20,
    "warpmatch.fresh": 0,
    "warpmatch.instances": 16,
    "warpmatch.iou_cells": 64,
    "warpmatch.matched": 16,
}


def _wrapped() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of spans.py's WRAPPED table, read without importing it."""
    for node in ast.parse(_SPANS.read_text("utf-8")).body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if names == ["WRAPPED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{_SPANS} defines no WRAPPED table")


@pytest.mark.parametrize("module, attr", _wrapped(), ids=lambda v: v)
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_cli_wrapped_names_are_package_names():
    """``vpskit.cli`` resolves pipelines through the package's name table alone."""
    names = {attr for module, attr in _wrapped() if module == "vpskit.cli"} - {"main"}
    assert names <= set(vpskit.__all__)


def test_cli_calls_each_wrapped_name_through_the_module(tmp_path, monkeypatch):
    """A stub set on a ``vpskit.cli`` attribute is what the commands call."""
    called = set()

    def recording(attr, func):
        def stub(*args, **kwargs):
            called.add(attr)
            return func(*args, **kwargs)

        return stub

    names = {attr for module, attr in _wrapped() if module == "vpskit.cli"}
    for attr in names:
        monkeypatch.setattr(cli, attr, recording(attr, getattr(cli, attr)))

    config = SceneConfig(
        width=12, height=8, frames=2, taxonomy=small_taxonomy(),
        background=(Band(1, 4), Band(2)), actors=(Actor("rectangle", 10, 3, (1, 2), (1, 0)),),
    )
    (tmp_path / "scene.json").write_text(json.dumps(scene_to_dict(config)))
    data, corrupt = tmp_path / "data", str(tmp_path / "data" / "corrupt" / "manifest.json")
    flow = str(tmp_path / "data" / "gt" / "flow_0000.flo")
    for argv in (
        ["synth", "--config", str(tmp_path / "scene.json"), "--out", str(data),
         "--shuffle-ids", "--erode", "1", "--box-jitter", "1"],
        ["warpmatch", "--panoptic", corrupt, "--flows", corrupt, "--out", str(tmp_path / "wm")],
        ["invert-flow", "--in", flow, "--out", str(tmp_path / "inv.flo")],
        ["fillfuse", "--semantic", str(data / "semantic" / "manifest.json"),
         "--tracks", str(data / "tracks.jsonl"), "--out", str(tmp_path / "ff")],
        ["eval", "--pred", corrupt, "--gt", str(data / "gt" / "manifest.json")],
        ["render", "--in", corrupt, "--out", str(tmp_path / "ppm")],
    ):
        assert cli.main(argv) == 0, argv
    assert called == names


def test_tracer_counts_of_the_tiny_workload(tmp_path, monkeypatch):
    """The five commands in-process under perfbench's tracer, as its ``--trace 1`` pass runs them."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    from pipeline import COMMANDS, run_inprocess_pass
    from scenes import WORKLOADS, make_scene
    from spans import Tracer

    workload = WORKLOADS["tiny"]
    scene, corrupt_seed = make_scene(workload, 1)
    tracer = Tracer()
    tracer.install()
    try:
        _, codes = run_inprocess_pass(workload, scene, corrupt_seed, tmp_path / "pass")
    finally:
        tracer.uninstall()
    assert codes == [0] * len(COMMANDS)
    assert tracer.absent == []
    assert tracer.check() == []
    assert dict(tracer.counts) == _TINY_COUNTS
