import gc
import json
import os
import runpy
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vpskit
from helpers import (
    constant_flow,
    generate_scene,
    scene_to_dict,
    small_taxonomy,
    warpmatch_all,
    write_semantic_sequence,
    zero_flow,
)
from vpskit import io as vio
from vpskit.cli import main
from vpskit.core import ClassEntry, ClassTaxonomy, LabelGrid, PanopticMap, TrackedBox
from vpskit.synth import Actor, Band, SceneConfig, corrupt_boxes, corrupt_masks, corrupt_shuffle_ids
from vpskit.warpmatch import invert_flow

TAX = small_taxonomy()


def scene_config_doc(frames=4, velocity=(1, 0)):
    config = SceneConfig(
        width=16,
        height=12,
        frames=frames,
        taxonomy=TAX,
        background=(Band(1, 6), Band(2)),
        actors=(
            Actor("rectangle", 10, 3, (1, 2), velocity, 0),
            Actor("disk", 11, 4, (9, 6), (0, 0), 1),
        ),
    )
    return scene_to_dict(config)


def write_config(tmp_path, **kwargs) -> Path:
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_config_doc(**kwargs)))
    return path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynthCommand:
    def test_writes_expected_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0 and not err
        summary = json.loads(out)
        assert summary["frames"] == 4
        assert Path(summary["gt_manifest"]).exists()
        assert Path(summary["semantic_manifest"]).exists()
        assert Path(summary["tracks"]).exists()
        maps, taxonomy = vio.load_panoptic_sequence(summary["gt_manifest"])
        assert len(maps) == 4 and taxonomy == TAX

    def test_corruption_flags(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, out, _ = run(
            capsys,
            [
                "synth", "--config", str(config), "--out", str(tmp_path / "o"),
                "--shuffle-ids", "--box-jitter", "1", "--box-drop", "0.5",
                "--corrupt-seed", "3",
            ],
        )
        assert code == 0
        summary = json.loads(out)
        corrupted, _ = vio.load_panoptic_sequence(summary["corrupt_manifest"])
        originals, _ = vio.load_panoptic_sequence(summary["gt_manifest"])
        assert any(
            not np.array_equal(c.instances.values, o.instances.values)
            for c, o in zip(corrupted, originals)
        )
        assert len(vio.read_tracks(summary["corrupt_tracks"])) < len(
            vio.read_tracks(summary["tracks"])
        )

    def test_bad_config_is_structured_error(self, tmp_path, capsys):
        config = tmp_path / "scene.json"
        config.write_text("{}")
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1 and not out
        error = json.loads(err)
        assert error["error"] == "InvalidConfig"


class TestPipelines:
    def test_eval_gt_against_itself_is_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        gt = json.loads(out)["gt_manifest"]
        code, out, _ = run(
            capsys,
            ["eval", "--pred", gt, "--gt", gt, "--report", str(tmp_path / "r.json")],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["vpq"]["mean"] == 1.0
        assert json.loads((tmp_path / "r.json").read_text()) == doc
        report = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        assert (tmp_path / "r.json").read_bytes() == report

    def test_shuffle_warpmatch_eval_recovers(self, tmp_path, capsys):
        config = write_config(tmp_path)
        _, out, _ = run(
            capsys,
            ["synth", "--config", str(config), "--out", str(tmp_path / "o"), "--shuffle-ids"],
        )
        summary = json.loads(out)
        code, out, _ = run(
            capsys,
            [
                "warpmatch",
                "--panoptic", summary["corrupt_manifest"],
                "--flows", summary["corrupt_manifest"],
                "--out", str(tmp_path / "wm"),
            ],
        )
        assert code == 0
        wm_manifest = json.loads(out)["manifest"]
        _, out, _ = run(
            capsys, ["eval", "--pred", wm_manifest, "--gt", summary["gt_manifest"]]
        )
        doc = json.loads(out)
        for key in ("k=1", "k=2", "k=3", "k=4"):
            assert doc["vpq"][key] >= 0.99

    def test_fillfuse_matches_gt_for_exact_inputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        summary = json.loads(out)
        code, out, _ = run(
            capsys,
            [
                "fillfuse",
                "--semantic", summary["semantic_manifest"],
                "--tracks", summary["tracks"],
                "--taxonomy", summary["taxonomy"],
                "--out", str(tmp_path / "ff"),
            ],
        )
        assert code == 0
        pred, _ = vio.load_panoptic_sequence(json.loads(out)["manifest"])
        gt, _ = vio.load_panoptic_sequence(summary["gt_manifest"])
        for p, g in zip(pred, gt):
            assert np.array_equal(p.instances.values, g.instances.values)

    def test_warpmatch_optimal_matcher(self, tmp_path, capsys):
        config = write_config(tmp_path)
        _, out, _ = run(
            capsys,
            ["synth", "--config", str(config), "--out", str(tmp_path / "o"), "--shuffle-ids"],
        )
        summary = json.loads(out)
        code, out, _ = run(
            capsys,
            [
                "warpmatch",
                "--panoptic", summary["corrupt_manifest"],
                "--flows", summary["corrupt_manifest"],
                "--matcher", "optimal",
                "--out", str(tmp_path / "wm"),
            ],
        )
        assert code == 0

    def test_render_writes_ppm_frames(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        gt = json.loads(out)["gt_manifest"]
        code, out, _ = run(capsys, ["render", "--in", gt, "--out", str(tmp_path / "ppm")])
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "ppm").iterdir())
        assert files == ["frame_0000.ppm", "frame_0001.ppm"]
        assert (tmp_path / "ppm" / files[0]).read_bytes().startswith(b"P6\n16 12\n255\n")

    def test_invert_flow_command(self, tmp_path, capsys):
        from vpskit.core import FlowField

        vio.write_flow(constant_flow(4, 4, 1.0, 0.0), tmp_path / "f.flo")
        code, _, _ = run(
            capsys,
            ["invert-flow", "--in", str(tmp_path / "f.flo"), "--out", str(tmp_path / "inv.flo")],
        )
        assert code == 0
        inv = vio.read_flow(tmp_path / "inv.flo")
        assert inv.vectors[0, 2, 0] == -1.0

    def test_warpmatch_inverts_curr_to_prev_flows(self, tmp_path, capsys):
        config = write_config(tmp_path, velocity=(3, 1))
        _, out, _ = run(
            capsys,
            ["synth", "--config", str(config), "--out", str(tmp_path / "o"), "--shuffle-ids"],
        )
        corrupt = Path(json.loads(out)["corrupt_manifest"])
        maps, taxonomy = vio.load_panoptic_sequence(corrupt)
        flows = list(vio.iter_flow_fields(corrupt, vio.read_manifest(corrupt)))
        backward = [invert_flow(f) for f in flows]
        seq = vio.write_panoptic_sequence(tmp_path / "back", maps, taxonomy, backward)
        manifest = vio.read_manifest(seq)
        tagged = replace(manifest.flows, direction=vio.FLOW_CURR_TO_PREV)
        vio.write_manifest(replace(manifest, flows=tagged), seq)
        argv = ["warpmatch", "--panoptic", str(seq), "--flows", str(seq)]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "wm")])
        assert code == 0, err
        got, _ = vio.load_panoptic_sequence(json.loads(out)["manifest"])
        want = warpmatch_all(maps, [invert_flow(f) for f in backward], taxonomy)
        assert got == want
        # the tag matters: the backward flows used as forward flows give other ids
        assert want != warpmatch_all(maps, backward, taxonomy)


# Runs in a fresh interpreter so that no other test's imports count.
_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import vpskit.cli

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert vpskit.cli.main(list(argv)) == 0, argv
    return json.loads(buf.getvalue())

config, out = sys.argv[1:]
s = run("synth", "--config", config, "--out", out, "--shuffle-ids", "--erode", "1")
wm = run("warpmatch", "--panoptic", s["corrupt_manifest"], "--flows", s["corrupt_manifest"],
         "--out", out + "/wm")["manifest"]
run("eval", "--pred", wm, "--gt", s["gt_manifest"])
run("fillfuse", "--semantic", s["semantic_manifest"], "--tracks", s["tracks"], "--out", out + "/ff")
run("render", "--in", wm, "--out", out + "/ppm")
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    vpskit.cli.main(["--help"])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_commands_without_optimal_matcher_never_import_scipy(tmp_path):
    config = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(config), str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


_SCIPY_MISSING_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now fails
import numpy as np
import vpskit.cli
from vpskit.warpmatch import IoUMatrix, match_ids

manifest, out = sys.argv[1:]
code = vpskit.cli.main(["warpmatch", "--panoptic", manifest, "--flows", manifest,
                        "--matcher", "optimal", "--out", out])
try:
    match_ids(IoUMatrix((1,), (1,), np.ones((1, 1))), 0.3, "optimal")
except ValueError as exc:
    print(json.dumps(str(exc)))
sys.exit(code)
"""


def test_optimal_matcher_without_scipy_fails_before_any_frame_is_read(tmp_path, capsys):
    config = write_config(tmp_path)
    _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
    manifest = json.loads(out)["gt_manifest"]
    first = Path(manifest).parent / "classes_0000.lmap"
    first.write_bytes(first.read_bytes()[:-1])  # a frame read would fail as Truncated
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_MISSING_SCRIPT, manifest, str(tmp_path / "wm")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "ValueError" and "scipy" in error["message"]
    assert json.loads(proc.stdout) == error["message"]  # match_ids raises the same error
    assert not (tmp_path / "wm").exists()


class TestErrors:
    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus"])
        assert exc.value.code != 0

    def test_missing_manifest_is_error_json(self, tmp_path, capsys):
        code, out, err = run(
            capsys, ["eval", "--pred", str(tmp_path / "nope.json"), "--gt", str(tmp_path / "nope.json")]
        )
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert "\n" not in err.strip()

    def test_bad_windows_is_error_json(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        gt = json.loads(out)["gt_manifest"]
        code, _, err = run(capsys, ["eval", "--pred", gt, "--gt", gt, "--windows", "0"])
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pred", gt, "--gt", gt, "--windows", "x"])
        assert exc.value.code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "UsageError" and "--windows" in error["message"]

    def test_flow_count_mismatch_error(self, tmp_path, capsys):
        long_config = write_config(tmp_path, frames=4)
        _, out, _ = run(capsys, ["synth", "--config", str(long_config), "--out", str(tmp_path / "a")])
        long_summary = json.loads(out)
        short_config = tmp_path / "short.json"
        short_config.write_text(json.dumps(scene_config_doc(frames=2)))
        _, out, _ = run(capsys, ["synth", "--config", str(short_config), "--out", str(tmp_path / "b")])
        short_summary = json.loads(out)
        code, _, err = run(
            capsys,
            [
                "warpmatch",
                "--panoptic", long_summary["gt_manifest"],
                "--flows", short_summary["gt_manifest"],
                "--out", str(tmp_path / "wm"),
            ],
        )
        assert code == 1
        assert json.loads(err)["error"] == "SequenceLengthMismatch"

    def assert_one_error_line(self, code, out, err, kind):
        assert code == 1 and not out
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == kind

    def test_track_id_beyond_uint32_is_error_json(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        summary = json.loads(out)
        tracks = tmp_path / "big.jsonl"
        tracks.write_text(
            '{"frame": 0, "track_id": 4294967296, "class_id": 10, '
            '"x0": 0, "y0": 0, "x1": 2, "y1": 2}\n'
        )
        argv = ["fillfuse", "--semantic", summary["semantic_manifest"], "--tracks", str(tracks)]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "ff")])
        self.assert_one_error_line(code, out, err, "ParseError")

    def test_non_string_manifest_path_is_error_json(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        manifest = Path(json.loads(out)["gt_manifest"])
        doc = json.loads(manifest.read_text())
        doc["frames"][0]["classes"] = 5
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["render", "--in", str(manifest), "--out", str(tmp_path / "ppm")])
        self.assert_one_error_line(code, out, err, "ParseError")

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("background", "height", "5"),
            ("actors", "start", [float("inf"), 0]),  # json writes Infinity
            ("actors", "velocity", [float("inf"), 0]),
            ("actors", "velocity", [1e308, 0]),  # finite, but 3e308 by the last frame
            ("actors", "start", ["3", 2]),
            ("actors", "start", [1, True]),
            ("actors", "velocity", [None, 0]),
            ("actors", "start", [1, 2, 3]),
            ("actors", "velocity", [1]),
            ("actors", "start", [10**400, 2]),  # a JSON integer with no float value
            ("actors", "velocity", [0, 10**400]),
            ("actors", "size", 10**400),
            ("actors", "velocity", [1e39, 0]),  # finite, but beyond the float32 range
        ],
    )
    def test_malformed_scene_config_is_error_json(self, section, field, value, tmp_path, capsys):
        doc = scene_config_doc()
        doc[section][0][field] = value
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_one_error_line(code, out, err, "InvalidConfig")

    @pytest.mark.parametrize(
        "where, value",
        [
            (("width",), 16.9),
            (("height",), "12"),
            (("frames",), True),
            (("background", 0, "class_id"), "1"),
            (("actors", 0, "class_id"), 10.0),
            (("actors", 0, "size"), 2.9),
            (("actors", 1, "depth"), False),
        ],
    )
    def test_non_integer_scene_field_is_error_json(self, where, value, tmp_path, capsys):
        doc = scene_config_doc()
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_one_error_line(code, out, err, "InvalidConfig")
        assert json.loads(err)["message"] == f"{where[-1]} {value!r} must be an integer"

    @pytest.mark.parametrize(
        "binding",
        [
            "[10, 11]", '{"10": null}', '{"10": [11]}', '{"10": 11.7}', '{"10": "10"}', '{"10": true}',
            '{"1_0": 10}', '{" 11 ": 11}', '{"+10": 10}', '{"010": 10}', '{"-0": 10}', '{"ten": 10}',
        ],
    )
    def test_malformed_binding_is_error_json(self, binding, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        summary = json.loads(out)
        path = tmp_path / "binding.json"
        path.write_text(binding)
        argv = ["fillfuse", "--semantic", summary["semantic_manifest"], "--tracks", summary["tracks"]]
        code, out, err = run(capsys, argv + ["--binding", str(path), "--out", str(tmp_path / "ff")])
        self.assert_one_error_line(code, out, err, "ParseError")

    @pytest.mark.parametrize(
        "where, value",
        [
            (("classes", 0, "id"), 0.9),
            (("classes", 0, "id"), False),
            (("classes", 3, "id"), "10"),
            (("void_class_id",), False),
            (("void_class_id",), 0.0),
            (("classes", 1, "name"), 5),
            (("classes", 3, "kind"), ["thing"]),
        ],
    )
    def test_non_integer_taxonomy_field_is_error_json(self, where, value, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        summary = json.loads(out)
        doc = json.loads(Path(summary["taxonomy"]).read_text())
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps(doc))
        argv = ["fillfuse", "--semantic", summary["semantic_manifest"], "--tracks", summary["tracks"]]
        code, out, err = run(capsys, argv + ["--taxonomy", str(taxonomy), "--out", str(tmp_path / "ff")])
        self.assert_one_error_line(code, out, err, "InvalidTaxonomy")

    @pytest.mark.parametrize("count", [True, 1.0, "1"])
    def test_non_integer_frame_count_is_error_json(self, count, tmp_path, capsys):
        one = PanopticMap(LabelGrid(np.array([[10, 1]])), LabelGrid(np.array([[1, 0]])))
        manifest = vio.write_panoptic_sequence(tmp_path / "seq", [one], TAX)
        doc = json.loads(manifest.read_text())
        doc["frame_count"] = count
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["render", "--in", str(manifest), "--out", str(tmp_path / "ppm")])
        self.assert_one_error_line(code, out, err, "ParseError")

    def test_threshold_outside_unit_interval_on_one_frame_is_error_json(self, tmp_path, capsys):
        one = PanopticMap(LabelGrid(np.array([[10, 1]])), LabelGrid(np.array([[1, 0]])))
        manifest = vio.write_panoptic_sequence(tmp_path / "seq", [one], TAX, [])
        argv = ["warpmatch", "--panoptic", str(manifest), "--flows", str(manifest)]
        code, out, err = run(capsys, argv + ["--threshold", "5", "--out", str(tmp_path / "wm")])
        self.assert_one_error_line(code, out, err, "ValueError")
        assert not (tmp_path / "wm").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--erode", "-1"],
            ["--shuffle-ids", "--erode", "-1"],
            ["--box-jitter", "-2"],
            ["--box-drop", "-0.5"],
            ["--box-drop", "1.5"],
            ["--box-drop", "nan"],
            ["--box-jitter", "1", "--box-drop", "nan"],
            ["--shuffle-ids", "--erode", "1", "--box-jitter", "1", "--box-drop=-inf"],
            ["--box-jitter", str(10**400)],
        ],
    )
    def test_invalid_corruption_flag_writes_nothing(self, flags, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        argv = ["synth", "--config", str(config), "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, argv + flags)
        self.assert_one_error_line(code, out, err, "ValueError")
        assert not (tmp_path / "o").exists()

    def test_track_corner_beyond_float_range_is_error_json(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        summary = json.loads(out)
        tracks = tmp_path / "big.jsonl"
        tracks.write_text(
            '{"frame": 0, "track_id": 1, "class_id": 10, '
            f'"x0": {10**400}, "y0": 0, "x1": 2, "y1": 2}}\n'
        )
        argv = ["fillfuse", "--semantic", summary["semantic_manifest"], "--tracks", str(tracks)]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "ff")])
        self.assert_one_error_line(code, out, err, "ParseError")
        assert not (tmp_path / "ff").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"start": [1e308, 2], "size": 10**308},  # each a float, but not the far edge
            {"shape": "disk", "size": 10**200},  # a float, but not its squared radius
        ],
    )
    def test_actor_extent_beyond_float_range_is_error_json(self, fields, tmp_path, capsys):
        doc = scene_config_doc()
        doc["actors"][0].update(fields)
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_one_error_line(code, out, err, "InvalidConfig")
        assert not (tmp_path / "o").exists()

    def test_invisible_actor_velocity_beyond_float32_is_error_json(self, tmp_path, capsys):
        doc = scene_config_doc()
        doc["actors"][0]["start"] = [-1e30, 0]  # never in the frame, yet its flow is cast
        doc["actors"][0]["velocity"] = [1e39, 0]
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_one_error_line(code, out, err, "InvalidConfig")

    def test_missing_flow_file_is_error_json(self, tmp_path, capsys):
        argv = ["invert-flow", "--in", str(tmp_path / "nope.flo"), "--out", str(tmp_path / "o.flo")]
        code, out, err = run(capsys, argv)
        self.assert_one_error_line(code, out, err, "ParseError")

    def test_frame_count_beyond_float_range_is_error_json(self, tmp_path, capsys):
        doc = scene_config_doc()
        doc["frames"] = 10**400
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_one_error_line(code, out, err, "InvalidConfig")
        assert not (tmp_path / "o").exists()

    def test_erode_beyond_float_range_erodes_every_instance(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        argv = ["synth", "--config", str(config), "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, argv + ["--erode", str(10**400)])
        assert code == 0 and not err
        corrupted, _ = vio.load_panoptic_sequence(json.loads(out)["corrupt_manifest"])
        assert not any(m.instances.values.any() for m in corrupted)

    def test_id_counter_overflow_is_error_json(self, tmp_path, capsys):
        top = (1 << 32) - 1
        maps = [
            PanopticMap(LabelGrid(np.array([[10, 1, 1]])), LabelGrid(np.array([[top, 0, 0]]))),
            PanopticMap(LabelGrid(np.array([[1, 1, 10]])), LabelGrid(np.array([[0, 0, 5]]))),
        ]
        manifest = vio.write_panoptic_sequence(tmp_path / "seq", maps, TAX, [zero_flow(3, 1)])
        argv = ["warpmatch", "--panoptic", str(manifest), "--flows", str(manifest)]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "wm")])
        self.assert_one_error_line(code, out, err, "Overflow")

    @pytest.mark.parametrize("route", ["config", "manifest", "track line"])
    def test_json_nested_past_the_recursion_limit_is_one_parse_error_line(self, route, tmp_path, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        bad = tmp_path / "deep.json"
        if route == "track line":
            _, out, _ = run(capsys, ["synth", "--config", str(write_config(tmp_path, frames=2)),
                                     "--out", str(tmp_path / "s")])
            line = '{"frame": 0, "track_id": 1, "class_id": 10, "x0": 0, "y0": 0, "x1": 2, "y1": %s}'
            bad.write_text(line % deep + "\n")
            argv = ["fillfuse", "--semantic", json.loads(out)["semantic_manifest"], "--tracks", str(bad),
                    "--out", str(tmp_path / "ff")]
        else:
            bad.write_text(deep)
            argv = {
                "config": ["synth", "--config", str(bad), "--out", str(tmp_path / "o")],
                "manifest": ["eval", "--pred", str(bad), "--gt", str(bad)],
            }[route]
        code, out, err = run(capsys, argv)
        self.assert_one_error_line(code, out, err, "ParseError")
        assert json.loads(err)["message"].startswith("line 1: " if route == "track line" else f"{bad}: ")

    def test_warpmatch_flows_in_a_symlink_loop_is_one_os_error_line(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=2)
        _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        (tmp_path / "l1").symlink_to("l2")
        (tmp_path / "l2").symlink_to("l1")
        argv = ["warpmatch", "--panoptic", json.loads(out)["gt_manifest"], "--flows", str(tmp_path / "l1")]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "wm")])
        self.assert_one_error_line(code, out, err, "OSError")
        assert not (tmp_path / "wm").exists()


    def test_memory_exhaustion_is_one_memory_error_line(self, tmp_path):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS")
        doc = scene_config_doc(frames=2)
        doc.update(width=16384, height=16384)  # at the pixel cap: one uint32 grid is 1 GiB
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        limit = 768 << 20  # below one grid, so its allocation fails before a page of it is touched
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        env = dict(os.environ, PYTHONPATH=str(Path(vpskit.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)  # the entry sets one thread: more would reserve more
        proc = subprocess.run(
            [sys.executable, "-m", "vpskit.cli", "synth", "--config", str(config),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.count("\n") == 1, proc.stderr
        error = json.loads(proc.stderr)
        assert error["error"] == "MemoryError" and "1.00 GiB" in error["message"]


class TestStreamedRuns:
    """synth, warpmatch and fillfuse write each frame as they make it, and the manifest last."""

    def sequence(self, tmp_path, unknown_frame=None, flow_sizes=((4, 4), (4, 4))):
        classes = np.ones((3, 4, 4), dtype=np.uint32)
        instances = np.zeros((3, 4, 4), dtype=np.uint32)
        classes[:, 2:, 2:], instances[:, 2:, 2:] = 10, 1
        if unknown_frame is not None:
            classes[unknown_frame, 1, 3] = 99
        maps = [PanopticMap(LabelGrid(c), LabelGrid(i)) for c, i in zip(classes, instances)]
        flows = [zero_flow(*size) for size in flow_sizes]
        return str(vio.write_panoptic_sequence(tmp_path / "seq", maps, TAX, flows))

    def warpmatch(self, capsys, seq, out):
        argv = ["warpmatch", "--panoptic", seq, "--flows", seq, "--out", str(out)]
        return self.failure(capsys, argv)

    def fillfuse(self, tmp_path, out, unknown_frame=None, box_frame=2):
        """The fillfuse command over the class grids of ``sequence``, one box on ``box_frame``."""
        maps, _ = vio.load_panoptic_sequence(self.sequence(tmp_path, unknown_frame))
        semantic = write_semantic_sequence(tmp_path / "sem", [m.classes for m in maps], TAX)
        tracks = tmp_path / "tracks.jsonl"
        vio.write_tracks([TrackedBox(box_frame, 7, 10, 2.0, 2.0, 4.0, 4.0)], tracks)
        return ["fillfuse", "--semantic", str(semantic), "--tracks", str(tracks), "--out", str(out)]

    def failure(self, capsys, argv):
        code, stdout, err = run(capsys, argv)
        assert code == 1 and not stdout
        assert err.count("\n") == 1
        return json.loads(err)

    def test_unknown_class_in_the_last_frame_leaves_frames_but_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "wm"
        error = self.warpmatch(capsys, self.sequence(tmp_path, unknown_frame=2), out)
        assert error == {"error": "UnknownClass", "message": "class 99 at pixel (3, 1) not in taxonomy"}
        assert not (out / "manifest.json").exists()
        # frame 1 goes out only once frame 2 is read and checked
        assert sorted(p.name for p in out.iterdir()) == ["classes_0000.lmap", "instances_0000.lmap"]

    def test_unknown_class_in_the_second_frame_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "wm"
        error = self.warpmatch(capsys, self.sequence(tmp_path, unknown_frame=1), out)
        assert error["error"] == "UnknownClass"
        assert not out.exists()

    @pytest.mark.parametrize("flow_sizes", [((4, 4), (5, 4)), ((4, 3), (4, 4))])
    def test_a_flow_of_another_size_writes_no_frame_file(self, flow_sizes, tmp_path, capsys):
        out = tmp_path / "wm"
        error = self.warpmatch(capsys, self.sequence(tmp_path, flow_sizes=flow_sizes), out)
        assert error["error"] == "DimensionMismatch"
        assert "flow is" in error["message"] and "grids are 4x4" in error["message"]
        assert not out.exists()

    def test_render_reports_an_unknown_class_before_a_later_truncated_grid(self, tmp_path, capsys):
        seq = self.sequence(tmp_path, unknown_frame=1)
        victim = Path(seq).parent / "instances_0002.lmap"
        victim.write_bytes(victim.read_bytes()[:-1])
        out = tmp_path / "ppm"
        error = self.failure(capsys, ["render", "--in", seq, "--out", str(out)])
        # each frame is colorized as it is read, and the PPMs written once all are
        assert error == {"error": "UnknownClass", "message": "class 99 at pixel (3, 1) not in taxonomy"}
        assert not out.exists()

    def test_fillfuse_unknown_class_in_the_last_frame_leaves_frames_but_no_manifest(
        self, tmp_path, capsys
    ):
        out = tmp_path / "ff"
        error = self.failure(capsys, self.fillfuse(tmp_path, out, unknown_frame=2))
        assert error == {"error": "UnknownClass", "message": "class 99 at pixel (3, 1) not in taxonomy"}
        # frame 1 goes out only once frame 2 is fused
        assert sorted(p.name for p in out.iterdir()) == ["classes_0000.lmap", "instances_0000.lmap"]

    def test_fillfuse_unknown_class_in_the_second_frame_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "ff"
        error = self.failure(capsys, self.fillfuse(tmp_path, out, unknown_frame=1))
        assert error["error"] == "UnknownClass"
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            (lambda data: data[:-1], "Truncated", "LMAP payload needs 76 bytes, got 75"),
            (lambda data: data[:4] + struct.pack("<II", 2, 8) + data[12:], "DimensionMismatch",
             "classes_0002.lmap: grid is 2x8, frame 0 is 4x4"),
        ],
    )
    def test_fillfuse_reads_every_grid_header_before_the_first_frame(
        self, corrupt, error, message, tmp_path, capsys
    ):
        out = tmp_path / "ff"
        argv = self.fillfuse(tmp_path, out)
        victim = tmp_path / "sem" / "classes_0002.lmap"
        victim.write_bytes(corrupt(victim.read_bytes()))
        got = self.failure(capsys, argv)
        assert got["error"] == error and message in got["message"]
        assert not out.exists()

    def test_fillfuse_track_past_the_sequence_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "ff"
        error = self.failure(capsys, self.fillfuse(tmp_path, out, box_frame=3))
        assert error == {
            "error": "ValueError",
            "message": "track box references frame 3 beyond sequence of 3",
        }
        assert not out.exists()

    def test_synth_writes_the_bytes_of_its_parts(self, tmp_path, capsys):
        """Each directory holds what the package's streams give, the flows in both."""
        config = write_config(tmp_path)
        argv = ["synth", "--config", str(config), "--out", str(tmp_path / "o"), "--shuffle-ids",
                "--erode", "1", "--box-jitter", "1", "--corrupt-seed", "5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        summary = json.loads(out)
        bundle = generate_scene(SceneConfig.from_dict(json.loads(config.read_text())))
        eroded = corrupt_masks(bundle.panoptic, bundle.background_classes, 1)
        corrupted, _ = vio.load_panoptic_sequence(summary["corrupt_manifest"])
        assert corrupted == list(corrupt_shuffle_ids(eroded, 5))
        for name in ("gt_manifest", "corrupt_manifest"):
            manifest = vio.read_manifest(summary[name])
            assert list(vio.iter_flow_fields(summary[name], manifest)) == bundle.flows
        assert vio.read_tracks(summary["tracks"]) == bundle.boxes
        assert vio.read_tracks(summary["corrupt_tracks"]) == list(corrupt_boxes(bundle.boxes, 1, 0.0, 5))


def test_warpmatch_parses_a_shared_manifest_once(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    _, out, _ = run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "o")])
    manifest = json.loads(out)["gt_manifest"]
    calls = []
    real = vio.read_manifest
    monkeypatch.setattr(vio, "read_manifest", lambda path: calls.append(path) or real(path))
    argv = ["warpmatch", "--panoptic", manifest, "--flows", manifest, "--out", str(tmp_path / "wm")]
    code, _, err = run(capsys, argv)
    assert code == 0, err
    assert len(calls) == 1


class TestUnknownClassSweep:
    """One sequence with classes outside the taxonomy fails alike in every command.

    Frame 1 holds class 120 at (0, 0) and class 99 at (2, 1): the message names
    the lowest unknown id at its first pixel. The flow shifts every sample, so
    a check on warped grids alone would name a different pixel.
    """

    MESSAGE = "class 99 at pixel (2, 1) not in taxonomy"

    @pytest.fixture
    def sequence(self, tmp_path):
        classes = np.ones((3, 4, 4), dtype=np.uint32)
        instances = np.zeros((3, 4, 4), dtype=np.uint32)
        classes[:, 2:, 2:], instances[:, 2:, 2:] = 10, 1
        classes[1, 0, 0], classes[1, 1, 2], classes[1, 3, 1] = 120, 99, 99
        classes[2, 0, 1] = 99
        maps = [PanopticMap(LabelGrid(c), LabelGrid(i)) for c, i in zip(classes, instances)]
        flows = [constant_flow(4, 4, 1.0, 0.0)] * 2
        panoptic = vio.write_panoptic_sequence(tmp_path / "seq", maps, TAX, flows)
        semantic = write_semantic_sequence(tmp_path / "sem", [m.classes for m in maps], TAX)
        tracks = tmp_path / "tracks.jsonl"
        tracks.write_text("")
        return {"panoptic": str(panoptic), "semantic": str(semantic), "tracks": str(tracks)}

    @pytest.mark.parametrize("command", ["warpmatch", "fillfuse", "eval", "render"])
    def test_every_command_names_the_first_unknown_pixel(self, command, sequence, tmp_path, capsys):
        seq, out_dir = sequence["panoptic"], str(tmp_path / "out")
        argv = {
            "warpmatch": ["warpmatch", "--panoptic", seq, "--flows", seq, "--out", out_dir],
            "fillfuse": ["fillfuse", "--semantic", sequence["semantic"],
                         "--tracks", sequence["tracks"], "--out", out_dir],
            "eval": ["eval", "--pred", seq, "--gt", seq],
            "render": ["render", "--in", seq, "--out", out_dir],
        }[command]
        code, out, err = run(capsys, argv)
        assert code == 1 and not out
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "UnknownClass", "message": self.MESSAGE}


class TestReaderSweep:
    """Every JSON input of the CLI fails alike on a bad file: one ParseError line, no output."""

    BAD_FILES = {
        "missing": None,
        "not UTF-8": b'{"a": "\xff"}\n',
        "5000-digit integer": b'{"a": ' + b"9" * 5000 + b"}\n",
        "top-level array": b"[1, 2]\n",
    }

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("scene")
        config = out / "scene.json"
        config.write_text(json.dumps(scene_config_doc(frames=2)))
        assert main(["synth", "--config", str(config), "--out", str(out / "s")]) == 0
        return {"semantic": str(out / "s" / "semantic" / "manifest.json"),
                "tracks": str(out / "s" / "tracks.jsonl")}

    @pytest.mark.parametrize("content", BAD_FILES.values(), ids=BAD_FILES.keys())
    @pytest.mark.parametrize("flag", ["--config", "--binding", "--taxonomy", "--tracks", "manifest"])
    def test_bad_input_file_is_one_parse_error_line(self, flag, content, scene, tmp_path, capsys):
        bad = tmp_path / "input.json"
        if content is not None:
            bad.write_bytes(content)
        out_dir = str(tmp_path / "out")
        fillfuse = ["fillfuse", "--semantic", scene["semantic"], "--tracks", scene["tracks"]]
        argv = {
            "--config": ["synth", "--config", str(bad)],
            "--binding": fillfuse + ["--binding", str(bad)],
            "--taxonomy": fillfuse + ["--taxonomy", str(bad)],
            "--tracks": ["fillfuse", "--semantic", scene["semantic"], "--tracks", str(bad)],
            "manifest": ["render", "--in", str(bad)],
        }[flag]
        code, out, err = run(capsys, argv + ["--out", out_dir])
        assert code == 1 and not out
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ParseError"
        assert not Path(out_dir).exists()


def _set_dims(data: bytes, width: int, height: int) -> bytes:
    return data[:4] + struct.pack("<II", width, height) + data[12:]


_CORRUPTIONS = {
    "truncated": lambda data: data[:-1],
    "trailing byte": lambda data: data + b"\0",
    "bad magic": lambda data: b"XXXX" + data[4:],
    "empty": lambda data: b"",
    "2^40 pixels": lambda data: _set_dims(data, 1 << 20, 1 << 20),
    "zero width": lambda data: _set_dims(data, 0, struct.unpack("<I", data[8:12])[0]),
    "NaN component": lambda data: data[:12] + struct.pack("<f", float("nan")) + data[16:],
    "transposed": lambda data: data[:4] + data[8:12] + data[4:8] + data[12:],
}
# Input -> (file corrupted in the scene, command line; {s} is the scene, {out} the output).
_BINARY_INPUTS = {
    "warpmatch lmap": ("gt/classes_0001.lmap", "warpmatch --panoptic {s}/gt/manifest.json "
                       "--flows {s}/gt/manifest.json --out {out}"),
    "warpmatch flo": ("gt/flow_0000.flo", "warpmatch --panoptic {s}/gt/manifest.json "
                      "--flows {s}/gt/manifest.json --out {out}"),
    "fillfuse lmap": ("semantic/classes_0001.lmap", "fillfuse --semantic "
                      "{s}/semantic/manifest.json --tracks {s}/tracks.jsonl --out {out}"),
    "eval pred lmap": ("corrupt/classes_0001.lmap", "eval --pred {s}/corrupt/manifest.json "
                       "--gt {s}/gt/manifest.json --report {out}"),
    "eval gt lmap": ("gt/classes_0001.lmap", "eval --pred {s}/corrupt/manifest.json "
                     "--gt {s}/gt/manifest.json --report {out}"),
    "render lmap": ("gt/classes_0001.lmap", "render --in {s}/gt/manifest.json --out {out}"),
    "invert-flow flo": ("gt/flow_0000.flo", "invert-flow --in {s}/gt/flow_0000.flo --out {out}"),
}
# In an LMAP class grid the NaN bit pattern is an unknown class id. A lone flow
# field with its dimensions swapped is a valid flow, so invert-flow takes it.
_BINARY_CASES = [
    (name, corruption)
    for name in _BINARY_INPUTS
    for corruption in _CORRUPTIONS
    if (name, corruption) != ("invert-flow flo", "transposed")
]


class TestBinarySweep:
    """Every LMAP and .flo input of the CLI fails alike on a corrupt file: one error line, no output."""

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("scene")
        config = out / "scene.json"
        config.write_text(json.dumps(scene_config_doc(frames=2)))
        assert main(["synth", "--config", str(config), "--out", str(out / "s"), "--shuffle-ids"]) == 0
        return out / "s"

    @pytest.mark.parametrize(
        "name, corruption", _BINARY_CASES, ids=[f"{n}-{c}" for n, c in _BINARY_CASES]
    )
    def test_corrupt_binary_input_is_one_error_line(self, name, corruption, scene, tmp_path, capsys):
        path, command = _BINARY_INPUTS[name]
        copy = tmp_path / "s"
        shutil.copytree(scene, copy)
        victim = copy / path
        victim.write_bytes(_CORRUPTIONS[corruption](victim.read_bytes()))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command.format(s=copy, out=out).split())
        assert code == 1 and not stdout
        assert err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "message"}
        assert not out.exists()

    @pytest.mark.parametrize("name", _BINARY_INPUTS)
    def test_a_payload_short_after_the_header_check_is_truncated(
        self, name, scene, tmp_path, capsys, monkeypatch
    ):
        # the file loses its last value once its length is checked: fstat still gives the old length
        path, command = _BINARY_INPUTS[name]
        copy = tmp_path / "s"
        shutil.copytree(scene, copy)
        victim = copy / path
        data = victim.read_bytes()
        victim.write_bytes(data[:-4])
        inode, real = os.stat(victim).st_ino, os.fstat

        def fstat(fd):
            st = real(fd)
            return st if st.st_ino != inode else os.stat_result((*st[:6], len(data), *st[7:10]))

        monkeypatch.setattr(vio.os, "fstat", fstat)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command.format(s=copy, out=out).split())
        kind = "LMAP" if path.endswith(".lmap") else "flow file"
        assert code == 1 and not stdout and err.count("\n") == 1
        assert json.loads(err) == {
            "error": "Truncated",
            "message": f"{kind} payload needs {len(data)} bytes, got {len(data) - 4}",
        }
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:'vpskit.cli' found in sys.modules:RuntimeWarning")
def test_runs_through_runpy_as_cprofile_does(tmp_path, monkeypatch, capsys):
    """``python -m cProfile -m vpskit.cli`` runs this module as ``__main__`` through runpy."""
    flow = tmp_path / "f.flo"
    vio.write_flow(constant_flow(4, 4, 1.0, 0.0), flow)
    argv = ["vpskit", "invert-flow", "--in", str(flow), "--out", str(tmp_path / "g.flo")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("vpskit.cli", run_name="__main__")
    assert exc.value.code == 0, capsys.readouterr().err
    assert vio.read_flow(tmp_path / "g.flo") == invert_flow(vio.read_flow(flow))


# Each command's flags with a valid value: {name} fields name the sweep's scene files.
_VALID_FLAGS = {
    "synth": {"--config": "{config}", "--out": "{out}", "--box-jitter": "1", "--box-drop": "0.5",
              "--erode": "1", "--corrupt-seed": "3"},
    "fillfuse": {"--semantic": "{semantic}", "--tracks": "{tracks}", "--taxonomy": "{taxonomy}",
                 "--binding": "{binding}", "--out": "{out}"},
    "warpmatch": {"--panoptic": "{gt}", "--flows": "{gt}", "--threshold": "0.5",
                  "--class-strict": "false", "--matcher": "optimal", "--out": "{out}"},
    "eval": {"--pred": "{gt}", "--gt": "{gt}", "--windows": "1,2", "--report": "{out}"},
    "render": {"--in": "{gt}", "--out": "{out}"},
    "invert-flow": {"--in": "{flow}", "--out": "{out}"},
}
_REQUIRED = {"--config", "--out", "--semantic", "--tracks", "--panoptic", "--flows", "--pred",
             "--gt", "--in"}
_INPUT_PATHS = ["{missing}", "{directory}", ""]
# An empty optional path means the flag is left out (test_empty_optional_path_is_left_out).
_OPTIONAL_PATHS = ["{missing}", "{directory}"]
# Bad values of each flag: a wrong type, out of range, NaN or an infinity.
_BAD_VALUES = {
    "--box-jitter": ["1.5", "x", "-2", "nan", "inf"],
    "--erode": ["1.5", "x", "-1", "nan"],
    "--corrupt-seed": ["1.5", "x", "-1", str(1 << 64), str(1 << 70), "nan"],
    "--box-drop": ["x", "1.5", "-0.5", "nan", "inf", "-inf"],
    "--threshold": ["x", "1.5", "-0.5", "nan", "inf"],
    "--class-strict": ["maybe", "2", ""],
    "--matcher": ["hungarian", ""],
    "--windows": ["x", "0", "-1", "1.5", "nan", "", ",", "1,,2", ",3", "1,"],
    "--out": ["{under_file}"],
    "--taxonomy": _OPTIONAL_PATHS,
    "--binding": _OPTIONAL_PATHS,
    "--report": ["{under_file}"],
}


def _usage_cases():
    cases = []
    for command, flags in _VALID_FLAGS.items():
        argv = [command] + [part for pair in flags.items() for part in pair]

        def replaced(flag, value, argv=argv):
            at = argv.index(flag)
            return argv[:at] + ([f"{flag}={value}"] if value is not None else []) + argv[at + 2:]

        for flag in flags:
            for value in _BAD_VALUES.get(flag, _INPUT_PATHS):
                cases.append((f"{command} {flag}={value!r}", replaced(flag, value)))
            cases.append((f"{command} {flag} without a value", replaced(flag, None) + [flag]))
            if flag in _REQUIRED:
                cases.append((f"{command} without {flag}", replaced(flag, None)))
        cases.append((f"{command} unknown flag", argv + ["--no-such-flag", "1"]))
        cases.append((f"{command} unknown argument", argv + ["extra"]))
    cases.append(("synth --shuffle-ids=1", [*cases[0][1][:1], "--shuffle-ids=1", *cases[0][1][1:]]))
    cases.append(("unknown command", ["no-such-command"]))
    cases.append(("no command", []))
    return cases


_USAGE_CASES = _usage_cases()


class TestFlagSweep:
    """Every bad flag of every command fails alike: one JSON error line, no output, nonzero exit.

    A value the parser refuses is a UsageError with exit code 2; a value the
    command refuses exits 1.
    """

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("flags")
        config = root / "scene.json"
        config.write_text(json.dumps(scene_config_doc(frames=3)))
        assert main(["synth", "--config", str(config), "--out", str(root / "s")]) == 0
        (root / "binding.json").write_text('{"10": 10, "11": 11}')
        (root / "directory").mkdir()
        return {
            "config": str(config),
            "semantic": str(root / "s" / "semantic" / "manifest.json"),
            "tracks": str(root / "s" / "tracks.jsonl"),
            "taxonomy": str(root / "s" / "taxonomy.json"),
            "binding": str(root / "binding.json"),
            "gt": str(root / "s" / "gt" / "manifest.json"),
            "flow": str(root / "s" / "gt" / "flow_0000.flo"),
            "missing": str(root / "missing.json"),
            "directory": str(root / "directory"),
            "under_file": str(root / "binding.json" / "out"),
        }

    def run_any(self, capsys, argv, files, out):
        argv = [arg.format(out=out, **files) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("command", list(_VALID_FLAGS))
    def test_the_valid_flags_run(self, command, files, tmp_path, capsys):
        argv = [command] + [part for pair in _VALID_FLAGS[command].items() for part in pair]
        code, out, err = self.run_any(capsys, argv, files, tmp_path / "out")
        assert code == 0, err
        assert (tmp_path / "out").exists()

    def test_the_largest_seed_runs(self, files, tmp_path, capsys):
        argv = ["synth", "--config", "{config}", "--out", "{out}", "--shuffle-ids",
                f"--corrupt-seed={(1 << 64) - 1}"]
        code, _, err = self.run_any(capsys, argv, files, tmp_path / "out")
        assert code == 0, err

    @pytest.mark.parametrize("command, flag", [("fillfuse", "--taxonomy"), ("fillfuse", "--binding"),
                                               ("eval", "--report")])
    def test_empty_optional_path_is_left_out(self, command, flag, files, tmp_path, capsys):
        flags = dict(_VALID_FLAGS[command])
        argv = [command] + [part for pair in flags.items() for part in pair]
        at = argv.index(flag)
        empty = self.run_any(capsys, argv[:at + 1] + [""] + argv[at + 2:], files, tmp_path / "out")
        left_out = self.run_any(capsys, argv[:at] + argv[at + 2:], files, tmp_path / "out")
        assert empty == left_out and empty[0] == 0, empty

    @pytest.mark.parametrize("argv", [c[1] for c in _USAGE_CASES], ids=[c[0] for c in _USAGE_CASES])
    def test_bad_flag_is_one_error_line(self, argv, files, tmp_path, capsys):
        code, out, err = self.run_any(capsys, argv, files, tmp_path / "out")
        assert code in (1, 2) and not out
        assert err.count("\n") == 1, err
        error = json.loads(err)
        assert set(error) == {"error", "message"}
        assert (code == 2) == (error["error"] == "UsageError")
        assert not (tmp_path / "out").exists()


# A small pipeline, one exit-1 case and one usage error, relative to the working directory.
_ENTRY_STEPS = {
    "synth": ["synth", "--config", "scene.json", "--out", "data", "--shuffle-ids", "--erode", "1"],
    "warpmatch": ["warpmatch", "--panoptic", "data/corrupt/manifest.json",
                  "--flows", "data/corrupt/manifest.json", "--out", "warped"],
    "fillfuse": ["fillfuse", "--semantic", "data/semantic/manifest.json",
                 "--tracks", "data/tracks.jsonl", "--out", "fused"],
    "eval": ["eval", "--pred", "warped/manifest.json", "--gt", "data/gt/manifest.json",
             "--report", "report.json"],
    "render": ["render", "--in", "warped/manifest.json", "--out", "frames"],
    "exit 1": ["eval", "--pred", "missing.json", "--gt", "data/gt/manifest.json"],
    "usage error": ["synth", "--config", "scene.json", "--out", "other", "--box-jitter", "1.5"],
}


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _entry(root: Path, setup: str = "", argv=None, stdout=subprocess.PIPE, threads=None):
    """Run ``setup``, then vpskit.cli.run() on ``argv``, in a child whose stdout is buffered.

    With no argv the child inverts a 4x4 flow into root/g.flo. The child's
    OPENBLAS_NUM_THREADS is ``threads``, or unset.
    """
    if argv is None:
        vio.write_flow(constant_flow(4, 4, 1.0, 0.0), root / "f.flo")
        argv = ["invert-flow", "--in", "f.flo", "--out", "g.flo"]
    env = dict(os.environ, PYTHONPATH=str(Path(vpskit.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # it would make stdout unbuffered, which hides a late flush
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    script = "\n".join(
        ["import atexit, os, sys", setup, f"sys.argv = {['vpskit', *argv]!r}"]
        + ["from vpskit.cli import run", "run()"]
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=root, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


class TestProcessEntry:
    """``python -m vpskit.cli`` runs main and the atexit handlers, flushes stdio, then leaves."""

    def test_process_runs_equal_in_process_runs(self, tmp_path, monkeypatch, capsys):
        process, in_process = tmp_path / "process", tmp_path / "in_process"
        for root in (process, in_process):
            root.mkdir()
            (root / "scene.json").write_text(json.dumps(scene_config_doc()))
        env = dict(os.environ, PYTHONPATH=str(Path(vpskit.__file__).parents[1]))
        monkeypatch.chdir(in_process)
        for name, argv in _ENTRY_STEPS.items():
            proc = subprocess.run(
                [sys.executable, "-m", "vpskit.cli", *argv],
                cwd=process, env=env, capture_output=True, text=True, timeout=120,
            )
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err), name
            assert code == {"exit 1": 1, "usage error": 2}.get(name, 0), name
        assert _tree(process) == _tree(in_process)

    def test_atexit_handlers_registered_before_the_entry_run(self, tmp_path):
        proc = _entry(tmp_path, "atexit.register(lambda: print('handler ran', file=sys.stderr))")
        assert (proc.returncode, proc.stderr) == (0, "handler ran\n")
        assert json.loads(proc.stdout)["out"] == "g.flo"
        assert vio.read_flow(tmp_path / "g.flo").vectors.shape == (4, 4, 2)

    def test_a_summary_of_several_kb_reaches_a_pipe_whole(self, tmp_path, capsys):
        taxonomy = ClassTaxonomy(tuple(ClassEntry(c, f"c{c}", "stuff") for c in range(201)))
        classes = LabelGrid(np.arange(1, 201, dtype=np.uint32).reshape(1, 200))
        pmap = PanopticMap(classes, LabelGrid(np.zeros((1, 200), dtype=np.uint32)))
        manifest = str(vio.write_panoptic_sequence(tmp_path / "seq", [pmap], taxonomy))
        argv = ["eval", "--pred", manifest, "--gt", manifest]
        assert main(argv) == 0
        want = capsys.readouterr().out
        assert len(want) > 8192  # more than the buffer of a piped stdout
        proc = _entry(tmp_path, argv=argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")

    @pytest.mark.parametrize("threads", [None, "3"])
    def test_openblas_threads_are_one_unless_set(self, tmp_path, threads):
        script = "atexit.register(lambda: print(os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr))"
        proc = _entry(tmp_path, script, threads=threads)
        assert (proc.returncode, proc.stderr) == (0, f"{threads or 1}\n")

    @pytest.mark.parametrize("broken", ["full device", "closed pipe"])
    def test_a_failed_summary_write_is_a_one_line_error(self, tmp_path, broken):
        if broken == "full device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            proc = _entry(tmp_path, stdout=stdout)
        finally:
            os.close(stdout)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "OSError"

    def test_a_flush_that_fails_after_main_exits_120(self, tmp_path):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        # the handler points stdout at a full device and leaves a line in its buffer
        late = "atexit.register(lambda: (os.dup2(os.open('/dev/full', os.O_WRONLY), 1), print('late')))"
        proc = _entry(tmp_path, late)
        assert (proc.returncode, proc.stderr) == (120, "")
        assert json.loads(proc.stdout)["out"] == "g.flo"

    @pytest.mark.filterwarnings("ignore:'vpskit.cli' found in sys.modules:RuntimeWarning")
    def test_main_and_the_runpy_route_leave_the_collector_unfrozen(self, tmp_path, monkeypatch, capsys):
        frozen, environ = gc.get_freeze_count(), dict(os.environ)
        flow = tmp_path / "f.flo"
        vio.write_flow(constant_flow(4, 4, 1.0, 0.0), flow)
        argv = ["invert-flow", "--in", str(flow), "--out", str(tmp_path / "g.flo")]
        assert main(argv) == 0
        assert gc.get_freeze_count() == frozen
        monkeypatch.setattr(sys, "argv", ["vpskit", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("vpskit.cli", run_name="__main__")
        assert exc.value.code == 0
        assert gc.get_freeze_count() == frozen
        assert dict(os.environ) == environ

    def test_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert doc["project"]["scripts"] == {"vpskit": "vpskit.cli:run"}
