"""What each entry point imports: every command loads only its own pipeline.

Each case runs in a fresh interpreter, so that no other test's imports
count. ``--help``, a usage error and a bare ``import vpskit`` load no numpy.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import vpskit
from helpers import scene_to_dict, small_taxonomy
from vpskit.cli import main
from vpskit.synth import Actor, Band, SceneConfig

# argv through vpskit.cli.main, or a bare ``import vpskit`` when argv is
# empty; prints the exit code, the vpskit modules loaded and whether numpy was.
_SCRIPT = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = 0
if argv:
    import vpskit.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = vpskit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
else:
    import vpskit
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "vpskit")
print(json.dumps([code, loaded, "numpy" in sys.modules]))
"""

_PARSER = {"vpskit", "vpskit.cli", "vpskit.defaults", "vpskit.errors"}
_DATA = _PARSER | {"vpskit.core", "vpskit.io"}

# case -> (argv, exit code, vpskit modules loaded, numpy loaded)
_CASES = {
    "import vpskit": ([], 0, {"vpskit"}, False),
    "--help": (["--help"], 0, _PARSER, False),
    "usage error": (["synth", "--bogus"], 2, _PARSER, False),
    "synth": (["synth", "--config", "{scene}", "--out", "{tmp}/s"], 0,
              _DATA | {"vpskit.synth", "vpskit.rng"}, True),
    "warpmatch": (["warpmatch", "--panoptic", "{corrupt}", "--flows", "{corrupt}",
                   "--out", "{tmp}/wm"], 0, _DATA | {"vpskit.warpmatch"}, True),
    "fillfuse": (["fillfuse", "--semantic", "{semantic}", "--tracks", "{tracks}",
                  "--out", "{tmp}/ff"], 0, _DATA | {"vpskit.fillfuse"}, True),
    "eval": (["eval", "--pred", "{corrupt}", "--gt", "{gt}"], 0,
             _DATA | {"vpskit.metrics"}, True),
    "render": (["render", "--in", "{gt}", "--out", "{tmp}/ppm"], 0,
               _DATA | {"vpskit.render", "vpskit.rng"}, True),
    "invert-flow": (["invert-flow", "--in", "{flow}", "--out", "{tmp}/inv.flo"], 0,
                    _DATA | {"vpskit.warpmatch"}, True),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    scene = tmp / "scene.json"
    config = SceneConfig(
        width=16, height=12, frames=3, taxonomy=small_taxonomy(),
        background=(Band(1, 6), Band(2)),
        actors=(Actor("rectangle", 10, 3, (1, 2), (1, 0)), Actor("disk", 11, 4, (9, 6), (0, 0))),
    )
    scene.write_text(json.dumps(scene_to_dict(config)))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        argv = ["synth", "--config", str(scene), "--out", str(tmp / "data"), "--shuffle-ids"]
        assert main(argv) == 0
    summary = json.loads(buf.getvalue())
    return {
        "tmp": str(tmp),
        "scene": str(scene),
        "gt": summary["gt_manifest"],
        "corrupt": summary["corrupt_manifest"],
        "semantic": summary["semantic_manifest"],
        "tracks": summary["tracks"],
        "flow": str(next((tmp / "data" / "gt").glob("*.flo"))),
    }


@pytest.mark.parametrize("case", list(_CASES))
def test_entry_point_loads_only_its_modules(case, inputs):
    argv, want_code, want_modules, want_numpy = _CASES[case]
    argv = [arg.format(**inputs) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == want_code
    assert set(modules) == want_modules
    assert numpy_loaded == want_numpy


def test_every_public_name_resolves_and_is_listed():
    script = "import json, vpskit; print(json.dumps(dir(vpskit)))"  # before any name is used
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert set(vpskit.__all__) <= set(json.loads(proc.stdout))
    for name in vpskit.__all__:
        assert getattr(vpskit, name) is not None, name
    namespace = {}
    exec("from vpskit import *", namespace)
    assert set(vpskit.__all__) <= set(namespace)


def test_cli_lends_only_public_names():
    """``vpskit.cli`` is no package, and ``import *`` from it loads no pipeline."""
    script = (
        "import json, sys\n"
        "from vpskit.cli import *\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'vpskit')\n"
        "print(json.dumps([loaded, 'numpy' in sys.modules]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, numpy_loaded = json.loads(proc.stdout)
    assert set(modules) <= _PARSER
    assert not numpy_loaded

    import vpskit.cli
    import vpskit.render

    assert not hasattr(vpskit.cli, "__path__")
    assert vpskit.cli.render_sequence is vpskit.render.render_sequence


def test_tracked_box_is_one_class():
    from vpskit import core, fillfuse

    assert vpskit.TrackedBox is core.TrackedBox is fillfuse.TrackedBox


def test_unknown_names_raise_attribute_error():
    import vpskit.cli

    for module in (vpskit, vpskit.cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018


def test_present_ids_loads_no_numpy_ma():
    """np.unique's hash path imports numpy.ma on a command's first call; present_ids avoids it."""
    script = (
        "import sys, numpy as np\n"
        "from vpskit.core import present_ids\n"
        "present_ids(np.arange(6, dtype=np.uint32).reshape(2, 3))\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
