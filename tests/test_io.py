import json
import os
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decode_flow, decode_label_grid, write_semantic_sequence, zero_flow
from vpskit.core import ClassEntry, ClassTaxonomy, FlowField, LabelGrid, PanopticMap
from vpskit.errors import BadMagic, DimensionMismatch, FormatError, NonFinite, Overflow
from vpskit.errors import ParseError, SequenceLengthMismatch, Truncated
from vpskit.fillfuse import TrackedBox
from vpskit import io as vio


class TestLabelGridFormat:
    def test_byte_layout_1x1(self):
        data = vio.encode_label_grid(LabelGrid(np.array([[7]])))
        assert len(data) == 16
        assert data[:4] == b"LMAP"
        assert data[4:8] == struct.pack("<I", 1)
        assert data[8:12] == struct.pack("<I", 1)
        assert data[12:] == bytes([7, 0, 0, 0])

    def test_round_trip(self, tmp_path):
        grid = LabelGrid(np.arange(12, dtype=np.int64).reshape(3, 4))
        path = tmp_path / "g.lmap"
        vio.write_label_grid(grid, path)
        assert vio.read_label_grid(path) == grid

    def test_column_major_grid_encodes_row_major(self):
        values = np.arange(6, dtype=np.uint32).reshape(2, 3)
        grid = LabelGrid(np.asfortranarray(values))
        assert vio.encode_label_grid(grid)[12:] == values.tobytes()

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode_label_grid(b"NOPE" + b"\x00" * 12)

    def test_truncated_header_and_payload(self):
        with pytest.raises(Truncated):
            decode_label_grid(b"LM")
        with pytest.raises(Truncated):
            decode_label_grid(b"LMAP\x01\x00\x00\x00")
        good = vio.encode_label_grid(LabelGrid(np.array([[1, 2], [3, 4]])))
        with pytest.raises(Truncated):
            decode_label_grid(good[:-1])
        with pytest.raises(Truncated):
            decode_label_grid(good + b"\x00")

    def test_zero_dimension_rejected(self):
        with pytest.raises(FormatError):
            decode_label_grid(b"LMAP" + struct.pack("<II", 0, 5))

    def test_huge_declared_size_overflow(self):
        header = b"LMAP" + struct.pack("<II", 1 << 16, 1 << 16)
        with pytest.raises(Overflow):
            decode_label_grid(header)

    @given(st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_round_trip_property(self, w, h, rnd):
        values = np.array(
            [[rnd.randrange(0, 1 << 32) for _ in range(w)] for _ in range(h)],
            dtype=np.int64,
        )
        grid = LabelGrid(values)
        assert decode_label_grid(vio.encode_label_grid(grid)) == grid


class TestAtomicWrite:
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.lmap"
        target.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            vio._atomic_write_bytes(target, b"new")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.lmap"]
        assert target.read_bytes() == b"old"

    def test_two_writers_to_one_path_never_share_a_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.lmap"
        real_replace = os.replace
        temps = []

        def interleaved_replace(src, dst):
            # The first writer has written its temp file but not renamed it:
            # a second writer runs to completion in between.
            temps.append(str(src))
            if len(temps) == 1:
                vio._atomic_write_bytes(target, b"second")
                assert Path(src).read_bytes() == b"first"
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved_replace)
        vio._atomic_write_bytes(target, b"first")
        assert len(temps) == 2 and temps[0] != temps[1]
        assert all(os.path.dirname(t) == str(tmp_path) for t in temps)
        assert target.read_bytes() == b"first"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.lmap"]


class TestFlowFormat:
    def test_zero_field_layout(self):
        data = vio.encode_flow(zero_flow(2, 2))
        assert len(data) == 12 + 32
        assert data[:4] == struct.pack("<f", 202021.25)
        assert data[12:] == b"\x00" * 32

    def test_round_trip_bit_exact(self, tmp_path):
        vec = np.array(
            [[[0.1, -2.5], [3.25, 4.0]], [[-0.0, 1e-8], [1234.5, -9.75]]],
            dtype=np.float32,
        )
        flow = FlowField(vec)
        path = tmp_path / "f.flo"
        vio.write_flow(flow, path)
        back = vio.read_flow(path)
        assert back.vectors.tobytes() == flow.vectors.tobytes()

    def test_bad_sentinel(self):
        with pytest.raises(BadMagic):
            decode_flow(struct.pack("<fii", 1.0, 1, 1) + b"\x00" * 8)

    def test_truncated(self):
        good = vio.encode_flow(zero_flow(2, 1))
        with pytest.raises(Truncated):
            decode_flow(good[:-4])
        with pytest.raises(Truncated):
            decode_flow(good + b"\x00\x00")

    def test_non_finite_component(self):
        data = struct.pack("<fii", 202021.25, 1, 1) + struct.pack("<ff", np.nan, 0.0)
        with pytest.raises(NonFinite):
            decode_flow(data)

    def test_negative_dims_rejected(self):
        with pytest.raises(FormatError):
            decode_flow(struct.pack("<fii", 202021.25, -1, 4))

    @given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_round_trip_property(self, w, h, rnd):
        vec = np.array(
            [[[rnd.uniform(-50, 50), rnd.uniform(-50, 50)] for _ in range(w)] for _ in range(h)],
            dtype=np.float32,
        )
        flow = FlowField(vec)
        assert decode_flow(vio.encode_flow(flow)).vectors.tobytes() == flow.vectors.tobytes()


class TestTracks:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert vio.read_tracks(path) == []

    def test_single_line_round_trip(self, tmp_path):
        box = TrackedBox(frame=0, track_id=3, class_id=10, x0=1.5, y0=2.0, x1=4.0, y1=6.25)
        path = tmp_path / "t.jsonl"
        vio.write_tracks([box], path)
        assert vio.read_tracks(path) == [box]

    def test_write_sorted_by_frame_then_track(self, tmp_path):
        boxes = [
            TrackedBox(frame=1, track_id=2, class_id=10, x0=0, y0=0, x1=1, y1=1),
            TrackedBox(frame=0, track_id=5, class_id=10, x0=0, y0=0, x1=1, y1=1),
            TrackedBox(frame=0, track_id=1, class_id=10, x0=0, y0=0, x1=1, y1=1),
        ]
        path = tmp_path / "t.jsonl"
        vio.write_tracks(boxes, path)
        read = vio.read_tracks(path)
        assert [(b.frame, b.track_id) for b in read] == [(0, 1), (0, 5), (1, 2)]

    def test_degenerate_box_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = '{"frame": 0, "track_id": 1, "class_id": 10, "x0": 0, "y0": 0, "x1": 2, "y1": 2}'
        bad = '{"frame": 0, "track_id": 2, "class_id": 10, "x0": 3, "y0": 0, "x1": 3, "y1": 2}'
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 2"):
            vio.read_tracks(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frame": 0, "track_id": 1, "class_id": 10, "x0": 0, "y0": 0, "x1": 2, "y1": 2, "score": 0.9}\n'
        )
        with pytest.raises(ParseError, match="unknown keys"):
            vio.read_tracks(path)

    def test_missing_key_and_bad_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"frame": 0}\n')
        with pytest.raises(ParseError, match="missing keys"):
            vio.read_tracks(path)
        path.write_text("not json\n")
        with pytest.raises(ParseError, match="line 1"):
            vio.read_tracks(path)

    GOOD = '{"frame": 0, "track_id": 1, "class_id": 10, "x0": 0, "y0": 0, "x1": 2, "y1": 2}'

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c"])
    def test_only_newline_separates_lines(self, tmp_path, sep):
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + sep + self.GOOD + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            vio.read_tracks(path)

    def test_error_names_the_newline_counted_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        bad = self.GOOD.replace('"x1": 2', '"x1": 0')
        # U+2028 is not JSON whitespace: the first line is malformed, not a line of its own
        path.write_text(self.GOOD + "\u2028\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 1:"):
            vio.read_tracks(path)

    def test_crlf_line_endings_parse(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes((self.GOOD + "\r\n" + self.GOOD + "\r\n").encode())
        assert len(vio.read_tracks(path)) == 2

    def test_bool_is_not_an_integer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frame": true, "track_id": 1, "class_id": 10, "x0": 0, "y0": 0, "x1": 2, "y1": 2}\n'
        )
        with pytest.raises(ParseError):
            vio.read_tracks(path)

    @given(rnd=st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_round_trip_property(self, tmp_path_factory, rnd):
        boxes = []
        for _ in range(rnd.randrange(0, 8)):
            x0 = rnd.uniform(-5, 20)
            y0 = rnd.uniform(-5, 20)
            boxes.append(
                TrackedBox(
                    frame=rnd.randrange(0, 5),
                    track_id=rnd.randrange(1, 9),
                    class_id=rnd.choice([10, 11]),
                    x0=x0,
                    y0=y0,
                    x1=x0 + rnd.uniform(0.5, 10),
                    y1=y0 + rnd.uniform(0.5, 10),
                )
            )
        path = tmp_path_factory.mktemp("tracks") / "t.jsonl"
        vio.write_tracks(boxes, path)
        read = vio.read_tracks(path)
        assert sorted(read, key=lambda b: (b.frame, b.track_id)) == sorted(
            boxes, key=lambda b: (b.frame, b.track_id)
        )


def make_taxonomy():
    return ClassTaxonomy(
        entries=(
            ClassEntry(0, "void", "stuff"),
            ClassEntry(1, "road", "stuff"),
            ClassEntry(10, "person", "thing"),
        )
    )


def make_maps(n=3, w=4, h=3):
    maps = []
    for t in range(n):
        classes = np.full((h, w), 1, dtype=np.int64)
        instances = np.zeros((h, w), dtype=np.int64)
        classes[0, t % w] = 10
        instances[0, t % w] = 1
        maps.append(PanopticMap(LabelGrid(classes), LabelGrid(instances)))
    return maps


class TestManifests:
    def test_panoptic_sequence_round_trip(self, tmp_path):
        taxonomy = make_taxonomy()
        maps = make_maps()
        flows = [zero_flow(4, 3) for _ in range(len(maps) - 1)]
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", maps, taxonomy, flows)
        loaded, loaded_tax = vio.load_panoptic_sequence(manifest_path)
        assert loaded == maps
        assert loaded_tax == taxonomy
        manifest = vio.read_manifest(manifest_path)
        assert manifest.flows.direction == vio.FLOW_PREV_TO_CURR
        assert list(vio.iter_flow_fields(manifest_path, manifest)) == flows

    def test_each_frame_is_dropped_before_the_next_is_made(self, tmp_path):
        def frames():  # fresh copies, so only the writer can keep one alive
            last = None
            for pmap in make_maps():
                assert last is None or last() is None, "the frame written last is still held"
                frame = PanopticMap(LabelGrid(pmap.classes.values), LabelGrid(pmap.instances.values))
                last = weakref.ref(frame)
                yield frame
                del frame

        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", frames(), make_taxonomy(), count=3)
        assert vio.load_panoptic_sequence(manifest_path)[0] == make_maps()

    def test_semantic_sequence_round_trip(self, tmp_path):
        taxonomy = make_taxonomy()
        grids = [m.classes for m in make_maps()]
        manifest_path = write_semantic_sequence(tmp_path / "sem", grids, taxonomy)
        manifest = vio.read_manifest(manifest_path)
        assert list(vio.iter_class_grids(manifest_path, manifest)) == grids
        assert manifest.taxonomy == taxonomy

    def test_missing_referenced_file(self, tmp_path):
        taxonomy = make_taxonomy()
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", make_maps(), taxonomy)
        (tmp_path / "seq" / "classes_0001.lmap").unlink()
        with pytest.raises(ParseError, match="does not exist"):
            vio.read_manifest(manifest_path)

    def test_frame_count_mismatch(self, tmp_path):
        taxonomy = make_taxonomy()
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", make_maps(), taxonomy)
        doc = json.loads(manifest_path.read_text())
        doc["frame_count"] = 99
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="frame_count"):
            vio.read_manifest(manifest_path)

    def test_unsupported_version(self, tmp_path):
        taxonomy = make_taxonomy()
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", make_maps(), taxonomy)
        doc = json.loads(manifest_path.read_text())
        doc["version"] = "other"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="version"):
            vio.read_manifest(manifest_path)

    def test_bad_flow_direction(self, tmp_path):
        taxonomy = make_taxonomy()
        maps = make_maps()
        flows = [zero_flow(4, 3) for _ in range(len(maps) - 1)]
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", maps, taxonomy, flows)
        doc = json.loads(manifest_path.read_text())
        doc["flows"]["direction"] = "sideways"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="direction"):
            vio.read_manifest(manifest_path)

    def test_taxonomy_file_reference(self, tmp_path):
        taxonomy = make_taxonomy()
        vio.write_taxonomy(taxonomy, tmp_path / "tax.json")
        grids = [m.classes for m in make_maps(1)]
        manifest_path = write_semantic_sequence(tmp_path, grids, taxonomy=None)
        doc = json.loads(manifest_path.read_text())
        doc["taxonomy"] = "tax.json"
        manifest_path.write_text(json.dumps(doc))
        manifest = vio.read_manifest(manifest_path)
        assert manifest.taxonomy == taxonomy

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["frames"][0].update(classes=5),
            lambda doc: doc["frames"][1].update(instances=["instances_0001.lmap"]),
            lambda doc: doc["flows"]["paths"].__setitem__(0, None),
            lambda doc: doc.update(taxonomy=7),
        ],
        ids=["classes-int", "instances-list", "flow-null", "taxonomy-int"],
    )
    def test_non_string_file_reference_is_parse_error(self, tmp_path, edit):
        maps = make_maps()
        flows = [zero_flow(4, 3) for _ in range(len(maps) - 1)]
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", maps, make_taxonomy(), flows)
        doc = json.loads(manifest_path.read_text())
        edit(doc)
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            vio.read_manifest(manifest_path)

    @pytest.mark.parametrize(
        "key, source",
        [
            ("classes", "classes_0000.lmap"),
            ("instances", "instances_0000.lmap"),
            ("flow", "flow_0000.flo"),
            ("taxonomy", "taxonomy.json"),
        ],
    )
    @pytest.mark.parametrize("absolute", [False, True])
    def test_reference_outside_manifest_directory_is_refused(self, tmp_path, key, source, absolute):
        maps = make_maps()
        flows = [zero_flow(4, 3) for _ in range(len(maps) - 1)]
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", maps, make_taxonomy(), flows)
        vio.write_taxonomy(make_taxonomy(), tmp_path / "seq" / "taxonomy.json")
        # a valid file of the right kind, one level above the manifest
        secret = tmp_path / source
        secret.write_bytes((tmp_path / "seq" / source).read_bytes())
        ref = str(secret) if absolute else f"../{source}"
        doc = json.loads(manifest_path.read_text())
        if key == "flow":
            doc["flows"]["paths"][0] = ref
        elif key == "taxonomy":
            doc["taxonomy"] = ref
        else:
            doc["frames"][0][key] = ref
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="is outside the manifest's directory"):
            vio.read_manifest(manifest_path)

    def test_reference_to_a_directory_is_parse_error(self, tmp_path):
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", make_maps(), make_taxonomy())
        doc = json.loads(manifest_path.read_text())
        doc["frames"][0]["instances"] = ""
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="does not exist"):
            vio.read_manifest(manifest_path)

    def test_semantic_only_refused_as_panoptic(self, tmp_path):
        taxonomy = make_taxonomy()
        grids = [m.classes for m in make_maps()]
        manifest_path = write_semantic_sequence(tmp_path / "sem", grids, taxonomy)
        with pytest.raises(ParseError, match="semantic-only"):
            vio.load_panoptic_sequence(manifest_path)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_read_manifest_reads_back_every_written_manifest(self, tmp_path_factory, data):
        names = st.text("ab_09", min_size=1, max_size=6).map(lambda stem: stem + ".lmap")
        frames = data.draw(st.lists(st.builds(vio.FrameRef, names, st.none() | names), max_size=4))
        directions = st.sampled_from([vio.FLOW_PREV_TO_CURR, vio.FLOW_CURR_TO_PREV])
        count = max(len(frames) - 1, 0)
        paths = st.lists(names, min_size=count, max_size=count).map(tuple)
        manifest = vio.SequenceManifest(
            frames=tuple(frames),
            taxonomy=data.draw(st.sampled_from([None, make_taxonomy()])),
            flows=data.draw(st.none() | st.builds(vio.FlowSetRef, directions, paths)),
        )
        out = tmp_path_factory.mktemp("manifest")
        refs = [name for f in frames for name in (f.classes, f.instances) if name]
        for name in refs + list(manifest.flows.paths if manifest.flows else ()):
            (out / name).touch()
        vio.write_manifest(manifest, out / "manifest.json")
        assert vio.read_manifest(out / "manifest.json") == manifest

    @pytest.mark.parametrize("ref", ["x" * 300 + ".lmap", "loop"])  # a name too long; a loop
    def test_reference_the_file_system_refuses_is_parse_error(self, tmp_path, ref):
        manifest_path = vio.write_panoptic_sequence(tmp_path / "seq", make_maps(), make_taxonomy())
        (tmp_path / "seq" / "loop").symlink_to("loop")
        doc = json.loads(manifest_path.read_text())
        doc["frames"][0]["classes"] = ref
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="referenced file"):
            vio.read_manifest(manifest_path)


class TestStreams:
    """Sequences are read and written one frame at a time; the manifest goes last."""

    def write(self, tmp_path, n=3, w=4, h=3):
        maps = make_maps(n, w, h)
        flows = [zero_flow(w, h) for _ in range(n - 1)]
        path = vio.write_panoptic_sequence(tmp_path / "seq", maps, make_taxonomy(), flows)
        return path, vio.read_manifest(path)

    def test_a_stream_writes_the_bytes_of_a_list(self, tmp_path):
        maps, flows = make_maps(), [zero_flow(4, 3)] * 2
        listed = vio.write_panoptic_sequence(tmp_path / "a", maps, make_taxonomy(), flows)
        streamed = vio.write_panoptic_sequence(
            tmp_path / "b", iter(maps), make_taxonomy(), iter(flows), count=3
        )
        names = sorted(p.name for p in listed.parent.iterdir())
        assert names == sorted(p.name for p in streamed.parent.iterdir())
        for name in names:
            assert (listed.parent / name).read_bytes() == (streamed.parent / name).read_bytes()

    def test_the_count_sets_the_padding(self, tmp_path):
        writer = vio.SequenceWriter(tmp_path / "seq", 10001)
        writer.write_frame(make_maps(1)[0].classes)
        assert [p.name for p in (tmp_path / "seq").iterdir()] == ["classes_00000.lmap"]

    def test_the_directory_is_made_with_the_first_file(self, tmp_path):
        writer = vio.SequenceWriter(tmp_path / "seq", 2, make_taxonomy(), flows=True)
        assert not (tmp_path / "seq").exists()
        writer.write_frame(make_maps(1)[0].classes, make_maps(1)[0].instances)
        assert (tmp_path / "seq" / "instances_0000.lmap").exists()

    @pytest.mark.parametrize("frames, flows", [(1, 0), (3, 0), (2, 0), (2, 2)])
    def test_a_short_or_long_sequence_gets_no_manifest(self, tmp_path, frames, flows):
        writer = vio.SequenceWriter(tmp_path / "seq", 2, make_taxonomy(), flows=True)
        with pytest.raises(SequenceLengthMismatch):  # a long one fails at its extra frame or flow
            for pmap in make_maps(frames):
                writer.write_frame(pmap.classes, pmap.instances)
            for _ in range(flows):
                writer.write_flow(vio.encode_flow(zero_flow(4, 3)))
            writer.close()
        assert not (tmp_path / "seq" / "manifest.json").exists()

    def test_a_frame_or_flow_past_the_count_is_refused_before_it_is_written(self, tmp_path):
        writer = vio.SequenceWriter(tmp_path / "seq", 1, make_taxonomy(), flows=True)
        pmap = make_maps(1)[0]
        writer.write_frame(pmap.classes, pmap.instances)
        written = sorted(p.name for p in (tmp_path / "seq").iterdir())
        with pytest.raises(SequenceLengthMismatch, match="1 frames announced, got more"):
            writer.write_frame(pmap.classes, pmap.instances)
        with pytest.raises(SequenceLengthMismatch, match="1 frames need 0 flow fields, got more"):
            writer.write_flow(vio.encode_flow(zero_flow(4, 3)))
        assert sorted(p.name for p in (tmp_path / "seq").iterdir()) == written
        writer.close()  # the refused writes left the writer as it was
        assert vio.read_manifest(tmp_path / "seq" / "manifest.json").frames == (
            vio.FrameRef("classes_0000.lmap", "instances_0000.lmap"),
        )

    def test_a_flow_on_a_writer_without_flows_is_refused_before_it_is_written(self, tmp_path):
        writer = vio.SequenceWriter(tmp_path / "seq", 2, make_taxonomy())
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'seq'}: a sequence without flows")):
            writer.write_flow(vio.encode_flow(zero_flow(4, 3)))
        assert not (tmp_path / "seq").exists()

    def test_a_failing_stream_leaves_frames_but_no_manifest(self, tmp_path):
        def maps():
            yield from make_maps(2)
            raise OSError("disk full")

        with pytest.raises(OSError):
            vio.write_panoptic_sequence(tmp_path / "seq", maps(), make_taxonomy(), count=3)
        names = sorted(p.name for p in (tmp_path / "seq").iterdir())
        assert names == [f"{layer}_000{t}.lmap" for layer in ("classes", "instances") for t in (0, 1)]

    def test_frames_are_read_as_they_are_pulled(self, tmp_path, monkeypatch):
        path, manifest = self.write(tmp_path)
        read = []
        real = vio.read_label_grid
        monkeypatch.setattr(vio, "read_label_grid", lambda p: read.append(Path(p).name) or real(p))
        frames = vio.iter_panoptic_frames(path, manifest)
        flows = vio.iter_flow_fields(path, manifest)
        assert read == []
        assert next(frames) == make_maps()[0]
        assert read == ["classes_0000.lmap", "instances_0000.lmap"]
        assert next(flows) == zero_flow(4, 3)
        assert list(frames) == make_maps()[1:]

    def test_a_semantic_only_sequence_is_refused_before_any_read(self, tmp_path, monkeypatch):
        grids = [m.classes for m in make_maps()]
        path = write_semantic_sequence(tmp_path / "sem", grids, make_taxonomy())
        monkeypatch.setattr(vio, "read_label_grid", None)  # a read would fail as TypeError
        with pytest.raises(ParseError, match="semantic-only"):
            vio.iter_panoptic_frames(path, vio.read_manifest(path))
        with pytest.raises(ParseError, match="no flow fields"):
            vio.iter_flow_fields(path, vio.read_manifest(path))

    def test_the_flow_sequence_check_reads_headers_alone(self, tmp_path, monkeypatch):
        path, manifest = self.write(tmp_path)
        for reader in ("_read_bytes", "_read_payload"):  # a payload read would fail as TypeError
            monkeypatch.setattr(vio, reader, None)
        vio.check_flow_sequence(path, manifest, path, manifest)

    @pytest.mark.parametrize(
        "name, size, message",
        [
            ("classes_0002.lmap", (5, 3), "classes_0002.lmap: grid is 5x3, frame 0 is 4x3"),
            ("instances_0001.lmap", (4, 2), "instances_0001.lmap: grid is 4x2, frame 0 is 4x3"),
            ("flow_0001.flo", (3, 4), "flow_0001.flo: flow is 3x4, grids are 4x3"),
        ],
    )
    def test_a_size_apart_is_a_dimension_mismatch(self, tmp_path, name, size, message):
        path, manifest = self.write(tmp_path)
        if name.endswith(".flo"):
            vio.write_flow(zero_flow(*size), path.parent / name)
        else:
            vio.write_label_grid(LabelGrid(np.ones(size[::-1], dtype=np.uint32)), path.parent / name)
        with pytest.raises(DimensionMismatch, match=message):
            vio.check_flow_sequence(path, manifest, path, manifest)

    def test_a_flow_count_apart_is_a_length_mismatch(self, tmp_path):
        path, manifest = self.write(tmp_path)
        short, short_manifest = self.write(tmp_path / "short", n=2)
        with pytest.raises(SequenceLengthMismatch, match="3 frames need 2 flow fields, got 1"):
            vio.check_flow_sequence(path, manifest, short, short_manifest)

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda data: data[:-1], Truncated),
            (lambda data: data + b"\0", Truncated),
            (lambda data: b"XXXX" + data[4:], BadMagic),
            (lambda data: b"", Truncated),
            (lambda data: data[:4] + struct.pack("<II", 0, 3) + data[12:], FormatError),
        ],
    )
    def test_a_header_check_fails_as_the_full_read_would(self, tmp_path, corrupt, error):
        path, manifest = self.write(tmp_path)
        victim = path.parent / "classes_0001.lmap"
        victim.write_bytes(corrupt(victim.read_bytes()))
        with pytest.raises(error) as full:
            vio.read_label_grid(victim)
        with pytest.raises(error) as header:
            vio.check_flow_sequence(path, manifest, path, manifest)
        assert str(header.value) == str(full.value)

    def test_a_manifest_resolves_its_directory_once(self, tmp_path, monkeypatch):
        path, _ = self.write(tmp_path, n=4)
        resolved = []
        real = Path.resolve
        monkeypatch.setattr(Path, "resolve", lambda p, *a, **k: resolved.append(p) or real(p, *a, **k))
        vio.read_manifest(path)
        # the directory once, then each of the 4 + 4 grids and 3 flows it names
        assert resolved.count(path.parent) == 1
        assert len(resolved) == 1 + 11


class TestReaderContract:
    """Every reader opens, decodes and parses its file through one shared step."""

    JSON_READERS = ["read_tracks", "read_taxonomy", "read_manifest", "load_json"]
    BAD_JSON = {
        "not UTF-8": b'{"a": "\xff"}\n',
        "5000-digit integer": b'{"a": ' + b"9" * 5000 + b"}\n",
        "top-level array": b"[1, 2]\n",
    }

    @pytest.mark.parametrize(
        "reader", JSON_READERS + ["read_label_grid", "read_flow"]
    )
    def test_missing_file_is_parse_error(self, reader, tmp_path):
        with pytest.raises(ParseError, match="does not exist"):
            getattr(vio, reader)(tmp_path / "missing")

    @pytest.mark.parametrize("content", BAD_JSON.values(), ids=BAD_JSON.keys())
    @pytest.mark.parametrize("reader", JSON_READERS)
    def test_malformed_json_is_parse_error(self, reader, content, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            getattr(vio, reader)(path)

    def test_load_json_returns_the_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5, "\\u00e9"], "b": null}')
        assert vio.load_json(path) == {"a": [1, 2.5, "é"], "b": None}

    def test_other_os_errors_propagate(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            vio.load_json(tmp_path)
