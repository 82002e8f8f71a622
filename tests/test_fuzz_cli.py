"""The CLI's error promise under fuzzing: one file of a small valid scene is mutated, then
every command runs on the scene through ``main()`` in process.

Each command exits 0 with nothing on stderr, or exits 1 with exactly one JSON line
``{"error": ..., "message": ...}`` on stderr. Either way no file outside its ``--out``
changes: the scene tree is hashed before and after every command. Replacement JSON
values stay small, or are far past the float range, so that no mutated scene config
asks for a large scene.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import scene_to_dict, small_taxonomy
from vpskit.cli import main
from vpskit.synth import Actor, Band, SceneConfig

FUZZ = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# {s} is the scene directory, {out} the command's output path
COMMANDS = {
    "synth": "synth --config {s}/scene.json --out {out} --shuffle-ids --erode 1 --box-jitter 1",
    "warpmatch": "warpmatch --panoptic {s}/corrupt/manifest.json --flows {s}/corrupt/manifest.json "
                 "--out {out}",
    "fillfuse": "fillfuse --semantic {s}/semantic/manifest.json --tracks {s}/tracks.jsonl "
                "--taxonomy {s}/taxonomy.json --out {out}",
    "eval": "eval --pred {s}/corrupt/manifest.json --gt {s}/gt/manifest.json --report {out}",
    "render": "render --in {s}/corrupt/manifest.json --out {out}",
    "invert-flow": "invert-flow --in {s}/gt/flow_0000.flo --out {out}",
}

HUGE = 1 << 1100  # past the float range: every numeric field refuses it
json_values = st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([HUGE, -HUGE]) \
    | st.floats(-50, 50) | st.text(max_size=4) | st.just([]) | st.just({})


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_cli")
    config = SceneConfig(
        width=16,
        height=12,
        frames=3,
        taxonomy=small_taxonomy(),
        background=(Band(1, 6), Band(2)),
        actors=(Actor("rectangle", 10, 3, (1, 2), (1, 0), 0), Actor("disk", 11, 4, (9, 6), (0, 0), 1)),
    )
    scene = root / "scene"
    scene.mkdir()
    (scene / "scene.json").write_text(json.dumps(scene_to_dict(config)))
    argv = ["synth", "--config", str(scene / "scene.json"), "--out", str(scene), "--shuffle-ids"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return scene


def tree_digest(root: Path) -> dict[str, str]:
    """Each entry under root, symlinks not followed: a file's sha256, a link's target or 'dir'."""
    entries = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = Path(dirpath) / name
            key = path.relative_to(root).as_posix()
            if path.is_symlink():
                entries[key] = "link " + os.readlink(path)
            elif path.is_dir():
                entries[key] = "dir"
            else:
                entries[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return entries


def leaves(doc, where=()):
    """The paths (key and index tuples) of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [path for key, value in items for path in leaves(value, (*where, key))]
    return [where] if where else []


def mutate_json(draw, text: str) -> str:
    """One leaf of a JSON document replaced or deleted (the document replaced if it has none)."""
    doc = json.loads(text)
    paths = leaves(doc)
    if not paths:
        return json.dumps(draw(json_values))
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


@st.composite
def mutations(draw, scene: Path):
    """(file, kind, bytes): the new bytes of one file of the scene, None for a directory or a loop."""
    files = sorted(p.relative_to(scene).as_posix() for p in scene.rglob("*") if p.is_file())
    name = draw(st.sampled_from(files))
    data = (scene / name).read_bytes()
    kinds = ["flip", "truncate", "other file", "directory", "symlink loop", "empty"]
    if name.endswith((".json", ".jsonl")):
        kinds.append("json leaf")
    if name.endswith((".lmap", ".flo")):
        kinds.append("dimensions")
    kind = draw(st.sampled_from(kinds))
    if kind == "json leaf" and name.endswith(".jsonl"):
        rows = data.decode().splitlines()
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = mutate_json(draw, rows[at])
        return name, kind, "".join(row + "\n" for row in rows).encode()
    if kind == "json leaf":
        return name, kind, mutate_json(draw, data.decode()).encode()
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return name, kind, data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "truncate":
        return name, kind, data[: draw(st.integers(0, len(data) - 1))]
    if kind == "dimensions":
        lmap = name.endswith(".lmap")
        fmt, low, high = ("<II", 0, (1 << 32) - 1) if lmap else ("<ii", -(1 << 31), (1 << 31) - 1)
        width, height = (draw(st.integers(0, 20) | st.integers(low, high)) for _ in range(2))
        return name, kind, data[:4] + struct.pack(fmt, width, height) + data[12:]
    if kind == "other file":
        return name, kind, (scene / draw(st.sampled_from(files))).read_bytes()
    return name, kind, b"" if kind == "empty" else None


def apply(path: Path, kind: str, data: bytes | None) -> None:
    path.unlink()
    if kind == "directory":
        path.mkdir()
    elif kind == "symlink loop":
        path.symlink_to(path.name)
    else:
        path.write_bytes(data)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(data=st.data())
@FUZZ
def test_every_command_keeps_the_error_promise_on_a_mutated_scene(scene, data):
    name, kind, content = data.draw(mutations(scene), label="mutation")
    with tempfile.TemporaryDirectory(dir=scene.parent) as work:
        copy = Path(work) / "s"
        shutil.copytree(scene, copy)
        apply(copy / name, kind, content)
        before = tree_digest(copy)
        for command, line in COMMANDS.items():
            out = Path(work) / "out" / command
            out.parent.mkdir(exist_ok=True)
            code, stdout, stderr = run(line.format(s=copy, out=out).split())
            where = f"{command} on {name} ({kind})"
            assert code in (0, 1), where
            if code == 0:
                assert stderr == "", where
            else:
                assert stdout == "", where
                assert stderr.count("\n") == 1 and stderr.endswith("\n"), (where, stderr)
                assert set(json.loads(stderr)) == {"error", "message"}, (where, stderr)
            assert tree_digest(copy) == before, where
