import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import small_taxonomy
from vpskit import io as vio
from vpskit.cli import main
from vpskit.core import FlowField, LabelGrid, PanopticMap
from vpskit.synth import Actor, Band, SceneConfig
from vpskit.warpmatch import invert_flow, run_warpmatch_sequence

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
        seed=7,
    )
    return config.to_dict()


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

        vio.write_flow(FlowField.constant(4, 4, 1.0, 0.0), tmp_path / "f.flo")
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
        flows, _ = vio.read_flow_fields(corrupt, vio.read_manifest(corrupt))
        backward = [invert_flow(f) for f in flows]
        seq = vio.write_panoptic_sequence(tmp_path / "back", maps, taxonomy, backward)
        manifest = vio.read_manifest(seq)
        tagged = replace(manifest.flows, direction=vio.FLOW_CURR_TO_PREV)
        vio.write_manifest(replace(manifest, flows=tagged), seq)
        argv = ["warpmatch", "--panoptic", str(seq), "--flows", str(seq)]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "wm")])
        assert code == 0, err
        got, _ = vio.load_panoptic_sequence(json.loads(out)["manifest"])
        want = run_warpmatch_sequence(maps, [invert_flow(f) for f in backward], taxonomy)
        assert got == want
        # the tag matters: the backward flows used as forward flows give other ids
        assert want != run_warpmatch_sequence(maps, backward, taxonomy)


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
            (("seed",), 7.0),
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
        manifest = vio.write_panoptic_sequence(tmp_path / "seq", maps, TAX, [FlowField.zero(3, 1)])
        argv = ["warpmatch", "--panoptic", str(manifest), "--flows", str(manifest)]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "wm")])
        self.assert_one_error_line(code, out, err, "Overflow")


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
        flows = [FlowField.constant(4, 4, 1.0, 0.0)] * 2
        panoptic = vio.write_panoptic_sequence(tmp_path / "seq", maps, TAX, flows)
        semantic = vio.write_semantic_sequence(tmp_path / "sem", [m.classes for m in maps], TAX)
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
