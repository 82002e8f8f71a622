"""Fuzzed input to every reader: each input either parses or raises a VpsError.

The JSON integers reach past 2**1024, beyond the float range, so a reader
that turns a JSON number into a float without ``core.finite_float`` fails
here with an OverflowError. Scenes are generated only at a few pixels and
frames; fuzzed frame sizes are validated, never generated.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import small_taxonomy
from vpskit import io as vio
from vpskit.cli import _binding_pairs
from vpskit.errors import VpsError
from vpskit.fillfuse import TrackClassBinding
from vpskit.synth import SceneConfig, _validate_config, generate

TAX = small_taxonomy()
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

HUGE = 1 << 1100
integers = st.integers(-3, 12) | st.integers(-HUGE, HUGE)
numbers = integers | st.floats()  # NaN and the infinities included
scalars = st.none() | st.booleans() | numbers | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def mostly(good):
    """Draws from ``good`` nine times in ten and any JSON value otherwise."""
    return st.integers(0, 9).flatmap(lambda roll: json_values if roll == 0 else good)


def parses_or_raises_vps_error(read, *args):
    try:
        return read(*args)
    except VpsError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the files a fuzzed manifest may reference."""
    path = tmp_path_factory.mktemp("fuzz")
    for name in ("a.lmap", "b.lmap"):
        (path / name).touch()
    vio.write_taxonomy(TAX, path / "t.json")
    return path


def sized_payload(draw, width: int, height: int, bytes_per_pixel: int) -> bytes:
    """The payload a header promises, give or take a few bytes."""
    size = max(0, bytes_per_pixel * width * height + draw(st.sampled_from([0, 0, -1, 3])))
    return draw(st.binary(min_size=size, max_size=size))


@st.composite
def lmap_files(draw):
    if draw(st.booleans()):
        return vio.LMAP_MAGIC + draw(st.binary(max_size=24))
    width = draw(st.integers(0, 4) | st.integers(0, 2**32 - 1))
    height = draw(st.integers(0, 4))
    payload = sized_payload(draw, width, height, 4) if width <= 4 else b""
    return vio.LMAP_MAGIC + struct.pack("<II", width, height) + payload


@st.composite
def flo_files(draw):
    sentinel = struct.pack("<f", vio.FLO_SENTINEL)
    if draw(st.booleans()):
        return sentinel + draw(st.binary(max_size=24))
    width = draw(st.integers(-2, 4) | st.integers(-(2**31), 2**31 - 1))
    height = draw(st.integers(-1, 4))
    payload = sized_payload(draw, width, height, 8) if 0 <= width <= 4 else b""
    return sentinel + struct.pack("<ii", width, height) + payload


track_docs = st.fixed_dictionaries(
    {"frame": integers, "track_id": integers, "class_id": integers}
    | {key: numbers for key in ("x0", "y0", "x1", "y1")},
    optional={"extra": json_values},
)

taxonomy_docs = st.fixed_dictionaries(
    {
        "classes": st.lists(
            st.fixed_dictionaries(
                {
                    "id": integers | json_values,
                    "name": st.text(max_size=3) | json_values,
                    "kind": st.sampled_from(["stuff", "thing"]) | json_values,
                }
            ),
            max_size=4,
        )
        | json_values
    },
    optional={"void_class_id": integers | json_values},
)

band_docs = st.fixed_dictionaries(
    {"class_id": mostly(st.sampled_from([1, 2]) | integers)},
    optional={"height": mostly(st.integers(1, 3) | integers)},
)

actor_docs = st.fixed_dictionaries(
    {
        "shape": mostly(st.sampled_from(["rectangle", "disk"])),
        "class_id": mostly(st.sampled_from([10, 11]) | integers),
        "size": mostly(st.integers(2, 5) | integers),
        "start": mostly(st.lists(numbers, min_size=2, max_size=2)),
        "velocity": mostly(st.lists(numbers, min_size=2, max_size=2)),
    },
    optional={"depth": mostly(integers)},
)


def scene_docs(sizes):
    return st.fixed_dictionaries(
        {
            "width": sizes,
            "height": sizes,
            "frames": sizes,
            "taxonomy": mostly(st.just(TAX.to_dict())),
        },
        optional={
            "seed": mostly(integers),
            "background": mostly(st.lists(band_docs, max_size=3)),
            "actors": mostly(st.lists(actor_docs, max_size=3)),
        },
    )


references = (
    st.sampled_from(["a.lmap", "b.lmap", "t.json", "missing.lmap", "../a.lmap", ""]) | json_values
)
manifest_docs = st.fixed_dictionaries(
    {
        "version": st.just(vio.MANIFEST_VERSION) | json_values,
        "frames": st.lists(
            st.fixed_dictionaries({"classes": references}, optional={"instances": references})
            | json_values,
            max_size=3,
        )
        | json_values,
    },
    optional={
        "frame_count": integers | json_values,
        "taxonomy": st.sampled_from([TAX.to_dict(), "t.json"]) | taxonomy_docs | json_values,
        "flows": st.fixed_dictionaries(
            {
                "direction": st.sampled_from([vio.FLOW_PREV_TO_CURR, vio.FLOW_CURR_TO_PREV])
                | json_values,
                "paths": st.lists(references, max_size=2) | json_values,
            }
        )
        | json_values,
    },
)

binding_docs = (
    st.dictionaries(integers.map(str) | st.text(max_size=4), integers | json_values, max_size=3)
    | json_values
)


@given(lmap_files())
@FUZZ
def test_lmap_payloads_decode_or_raise(data):
    parses_or_raises_vps_error(vio.decode_label_grid, data)


@given(flo_files())
@FUZZ
def test_flo_payloads_decode_or_raise(data):
    parses_or_raises_vps_error(vio.decode_flow, data)


@given(track_docs.map(json.dumps) | json_values.map(json.dumps) | st.text(max_size=24))
@FUZZ
def test_track_lines_parse_or_raise(line):
    parses_or_raises_vps_error(vio.parse_track_line, line, 1)


@given(taxonomy_docs | json_values)
@FUZZ
def test_taxonomy_documents_parse_or_raise(workdir, doc):
    path = workdir / "fuzzed_taxonomy.json"
    path.write_text(json.dumps(doc))
    parses_or_raises_vps_error(vio.read_taxonomy, path)


@given(scene_docs(st.integers(1, 4)))
@FUZZ
def test_small_scene_configs_generate_or_raise(doc):
    config = parses_or_raises_vps_error(SceneConfig.from_dict, doc)
    if config is not None:
        parses_or_raises_vps_error(generate, config)


@given(scene_docs(mostly(st.integers(1, 4) | integers)) | json_values)
@FUZZ
def test_scene_configs_of_any_size_validate_or_raise(doc):
    config = parses_or_raises_vps_error(SceneConfig.from_dict, doc)
    if config is not None:
        parses_or_raises_vps_error(_validate_config, config)


@given(manifest_docs | json_values)
@FUZZ
def test_manifest_documents_parse_or_raise(workdir, doc):
    path = workdir / "manifest.json"
    path.write_text(json.dumps(doc))
    parses_or_raises_vps_error(vio.read_manifest, path)


@given(binding_docs)
@FUZZ
def test_binding_documents_parse_or_raise(workdir, doc):
    path = workdir / "binding.json"
    path.write_text(json.dumps(doc))
    pairs = parses_or_raises_vps_error(_binding_pairs, str(path))
    if pairs is not None:
        parses_or_raises_vps_error(TrackClassBinding(pairs).check, TAX)
