"""perfbench's span tracer wraps vpskit functions by (module, attribute) name.

A renamed or moved function would otherwise only show up as an absent span
in the slow benchmark self-check; here each pair must still resolve.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import vpskit
from helpers import small_taxonomy
from vpskit import cli
from vpskit.synth import Actor, Band, SceneConfig

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    (tmp_path / "scene.json").write_text(json.dumps(config.to_dict()))
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
