"""Bit-exact serialization: LMAP label grids, Middlebury flow, track JSONL, manifests.

LMAP layout: magic ``LMAP``, uint32-LE width, uint32-LE height, then
width*height uint32-LE values row-major from the top-left. Flow files use
the Middlebury layout: float32-LE sentinel 202021.25, int32-LE width and
height, then two float32-LE components (dx, dy) per pixel, row-major.
Track files are JSON Lines with exactly the keys
frame/track_id/class_id/x0/y0/x1/y1 per object. Sequence manifests are
JSON documents tying per-frame files, optional flow files (with an
explicit direction tag) and the taxonomy together.

Readers never crash on malformed input; they raise the structured errors
from vpskit.errors. Every reader opens its file through ``_open``, and
every JSON input is strict UTF-8 holding one JSON object, parsed by
``_parse_object``; ``_read_header`` reads a binary file's 12-byte header
alone, to check sizes before any payload is read, and ``_read_payload``
checks the same header and reads the payload straight into the array that
the LabelGrid or FlowField keeps. Every JSON document is
written by ``write_json``. All writers go through a temp file and an atomic
rename. Sequences are read and written one frame at a time: the frame
iterators read each file as it is pulled, and ``SequenceWriter`` writes
each frame as it arrives and the manifest last.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .core import ClassTaxonomy, FlowField, LabelGrid, PanopticMap, TrackedBox
from .core import finite_float, is_integer, is_number
from .errors import BadMagic, DimensionMismatch, FormatError, Overflow, ParseError
from .errors import SequenceLengthMismatch, Truncated

LMAP_MAGIC = b"LMAP"
FLO_SENTINEL = 202021.25
_FLO_MAGIC = struct.pack("<f", FLO_SENTINEL)  # 202021.25 has one float32 bit pattern
MANIFEST_VERSION = "vps-seq-1"
FLOW_PREV_TO_CURR = "prev_to_curr"
FLOW_CURR_TO_PREV = "curr_to_prev"

_MAX_PIXELS = 1 << 28  # sanity cap against hostile headers

_TRACK_KEYS = ("frame", "track_id", "class_id", "x0", "y0", "x1", "y1")


def _atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a fresh temp file beside ``path``, then rename it over ``path``.

    Each call creates its own temp name (``O_EXCL``), so concurrent writers
    to one path never share a temp file; on any error the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _open(path: str | Path) -> BinaryIO:
    """An input file, open for binary reads: a missing file is a ParseError, other OSErrors propagate."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise ParseError(f"{path} does not exist") from None


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file."""
    with _open(path) as fh:
        return fh.read()


def _read_text(path: str | Path) -> str:
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc


def _parse_object(text: str, where: str) -> dict:
    """The JSON object in ``text``; anything else, too many digits included, is a ParseError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or too many digits
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_json(path: str | Path) -> dict:
    """The JSON object in a UTF-8 file."""
    return _parse_object(_read_text(path), str(path))


def write_json(doc: dict, path: str | Path) -> None:
    """Write ``doc`` as JSON with sorted keys, two-space indent and a final newline."""
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _decode_header(
    data: bytes, magic: bytes, dims: str, size: int, kind: str, length: int | None = None
) -> tuple[int, int]:
    """The (width, height) of a 12-byte header, checked with its payload of ``size``-byte pixels.

    ``length`` is the file's length when ``data`` holds only its first bytes.
    """
    length = len(data) if length is None else length
    if length < 4:
        raise Truncated(f"{kind} needs at least 4 bytes, got {length}")
    if data[:4] != magic:
        raise BadMagic(f"{kind}: expected {magic!r}, got {data[:4]!r}")
    if length < 12:
        raise Truncated(f"{kind} header needs 12 bytes, got {length}")
    width, height = struct.unpack(dims, data[4:12])
    if width < 1 or height < 1:
        raise FormatError(f"{kind} dimensions {width}x{height} invalid")
    if width * height > _MAX_PIXELS:
        raise Overflow(f"{kind} declares {width * height} pixels, cap is {_MAX_PIXELS}")
    expected = 12 + size * width * height
    if length < expected:
        raise Truncated(f"{kind} payload needs {expected} bytes, got {length}")
    if length > expected:
        raise Truncated(f"{kind} has {length - expected} trailing bytes")
    return width, height


def _read_header(
    path: str | Path, magic: bytes, dims: str, size: int, kind: str
) -> tuple[int, int]:
    """_decode_header of a file's first 12 bytes and its length: the payload stays unread."""
    with _open(path) as fh:
        return _decode_header(fh.read(12), magic, dims, size, kind, os.fstat(fh.fileno()).st_size)


def _read_payload(
    path: str | Path, magic: bytes, dims: str, size: int, kind: str, dtype: type, depth: tuple = ()
) -> np.ndarray:
    """A binary file's payload, checked as _read_header checks it, read straight into a fresh array.

    The array is native ``dtype``, of shape ``(height, width, *depth)``;
    the file's little-endian values are swapped only on a big-endian host.
    A payload that comes up shorter than the checked length is Truncated.
    """
    with _open(path) as fh:
        width, height = _decode_header(fh.read(12), magic, dims, size, kind, os.fstat(fh.fileno()).st_size)
        out = np.empty((height, width, *depth), dtype=dtype)
        got = fh.readinto(memoryview(out).cast("B"))
    if got != out.nbytes:
        raise Truncated(f"{kind} payload needs {12 + out.nbytes} bytes, got {12 + got}")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    return out


# ---------------------------------------------------------------- label grids

def encode_label_grid(grid: LabelGrid) -> bytes:
    header = LMAP_MAGIC + struct.pack("<II", grid.width, grid.height)
    # The join makes the one copy: ascontiguousarray copies only a big-endian or non-C-order grid.
    return header + memoryview(np.ascontiguousarray(grid.values, dtype="<u4"))


def decode_label_grid(data: bytes) -> LabelGrid:
    width, height = _decode_header(data, LMAP_MAGIC, "<II", 4, "LMAP")
    values = np.frombuffer(data, dtype="<u4", count=width * height, offset=12)
    return LabelGrid(values.reshape(height, width))  # LabelGrid copies into native uint32


def write_label_grid(grid: LabelGrid, path: str | Path) -> None:
    _atomic_write_bytes(path, encode_label_grid(grid))


def read_label_grid(path: str | Path) -> LabelGrid:
    return LabelGrid._adopt(_read_payload(path, LMAP_MAGIC, "<II", 4, "LMAP", np.uint32))


# ---------------------------------------------------------------- flow fields

def encode_flow(flow: FlowField) -> bytes:
    header = struct.pack("<fii", FLO_SENTINEL, flow.width, flow.height)
    return header + memoryview(np.ascontiguousarray(flow.vectors, dtype="<f4"))


def decode_flow(data: bytes) -> FlowField:
    width, height = _decode_header(data, _FLO_MAGIC, "<ii", 8, "flow file")
    raw = np.frombuffer(data, dtype="<f4", count=2 * width * height, offset=12)
    # FlowField checks finiteness and makes the one copy of the payload.
    return FlowField(raw.reshape(height, width, 2))


def write_flow(flow: FlowField, path: str | Path) -> None:
    _atomic_write_bytes(path, encode_flow(flow))


def read_flow(path: str | Path) -> FlowField:
    return FlowField._adopt(_read_payload(path, _FLO_MAGIC, "<ii", 8, "flow file", np.float32, (2,)))


# --------------------------------------------------------------------- tracks

def _require_int(obj: dict, key: str, line: int) -> int:
    value = obj[key]
    if not is_integer(value):
        raise ParseError(f"line {line}: {key} must be an integer, got {value!r}")
    return value


def _require_number(obj: dict, key: str, line: int) -> float:
    value = obj[key]
    if not is_number(value):
        raise ParseError(f"line {line}: {key} must be a number, got {value!r}")
    number = finite_float(value)
    if number is None:
        raise ParseError(f"line {line}: {key} must be finite, got {value!r}")
    return number


def parse_track_line(text: str, line: int) -> TrackedBox:
    obj = _parse_object(text, f"line {line}")
    unknown = set(obj) - set(_TRACK_KEYS)
    if unknown:
        raise ParseError(f"line {line}: unknown keys {sorted(unknown)}")
    missing = set(_TRACK_KEYS) - set(obj)
    if missing:
        raise ParseError(f"line {line}: missing keys {sorted(missing)}")
    try:
        return TrackedBox(
            frame=_require_int(obj, "frame", line),
            track_id=_require_int(obj, "track_id", line),
            class_id=_require_int(obj, "class_id", line),
            x0=_require_number(obj, "x0", line),
            y0=_require_number(obj, "y0", line),
            x1=_require_number(obj, "x1", line),
            y1=_require_number(obj, "y1", line),
        )
    except ValueError as exc:
        raise ParseError(f"line {line}: {exc}") from exc


def read_tracks(path: str | Path) -> list[TrackedBox]:
    boxes = []
    # JSON Lines ends a line at "\n" alone (a "\r" before it is JSON whitespace);
    # str.splitlines would also split at U+2028, "\f" and other breaks
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        if line.strip():
            boxes.append(parse_track_line(line, line_no))
    return boxes


def write_tracks(boxes: Sequence[TrackedBox], path: str | Path) -> None:
    ordered = sorted(boxes, key=lambda b: (b.frame, b.track_id))
    # a TrackedBox's instance dict holds exactly its fields, in declaration order
    lines = [json.dumps(vars(b)) for b in ordered]
    _atomic_write_text(path, "".join(line + "\n" for line in lines))


# ------------------------------------------------------------------- taxonomy

def read_taxonomy(path: str | Path) -> ClassTaxonomy:
    return ClassTaxonomy.from_dict(load_json(path))


def write_taxonomy(taxonomy: ClassTaxonomy, path: str | Path) -> None:
    write_json(taxonomy.to_dict(), path)


# ------------------------------------------------------------------ manifests

@dataclass(frozen=True)
class FrameRef:
    classes: str
    instances: str | None = None


@dataclass(frozen=True)
class FlowSetRef:
    direction: str
    paths: tuple[str, ...]


@dataclass(frozen=True)
class SequenceManifest:
    frames: tuple[FrameRef, ...]
    taxonomy: ClassTaxonomy | None = None
    flows: FlowSetRef | None = None


def manifest_to_dict(manifest: SequenceManifest) -> dict:
    doc: dict = {
        "version": MANIFEST_VERSION,
        "frame_count": len(manifest.frames),
        "frames": [
            {"classes": f.classes, **({"instances": f.instances} if f.instances else {})}
            for f in manifest.frames
        ],
    }
    if manifest.taxonomy is not None:
        doc["taxonomy"] = manifest.taxonomy.to_dict()
    if manifest.flows is not None:
        doc["flows"] = {
            "direction": manifest.flows.direction,
            "paths": list(manifest.flows.paths),
        }
    return doc


def write_manifest(manifest: SequenceManifest, path: str | Path) -> None:
    write_json(manifest_to_dict(manifest), path)


def read_manifest(path: str | Path) -> SequenceManifest:
    path = Path(path)
    doc = load_json(path)
    base = path.parent.resolve()  # every referenced file must lie inside it
    if doc.get("version") != MANIFEST_VERSION:
        raise ParseError(f"{path}: unsupported manifest version {doc.get('version')!r}")

    frames_doc = doc.get("frames")
    if not isinstance(frames_doc, list):
        raise ParseError(f"{path}: 'frames' must be a list")
    frames = []
    for i, entry in enumerate(frames_doc):
        if not isinstance(entry, dict) or "classes" not in entry:
            raise ParseError(f"{path}: frame {i} entry malformed")
        classes, instances = entry["classes"], entry.get("instances")
        if instances is not None:
            instances = _referenced_file(path, base, instances)
        frames.append(FrameRef(classes=_referenced_file(path, base, classes), instances=instances))
    count = doc.get("frame_count")
    if not is_integer(count) or count != len(frames):
        raise ParseError(f"{path}: frame_count {count!r} != {len(frames)} frame entries")

    taxonomy = None
    tax_doc = doc.get("taxonomy")
    if isinstance(tax_doc, str):
        taxonomy = read_taxonomy(path.parent / _referenced_file(path, base, tax_doc))
    elif isinstance(tax_doc, dict):
        taxonomy = ClassTaxonomy.from_dict(tax_doc)
    elif tax_doc is not None:
        raise ParseError(f"{path}: taxonomy must be inline or a file path")

    flows = None
    flows_doc = doc.get("flows")
    if flows_doc is not None:
        if not isinstance(flows_doc, dict):
            raise ParseError(f"{path}: 'flows' must be an object")
        direction = flows_doc.get("direction")
        if direction not in (FLOW_PREV_TO_CURR, FLOW_CURR_TO_PREV):
            raise ParseError(f"{path}: unknown flow direction {direction!r}")
        paths = flows_doc.get("paths")
        if not isinstance(paths, list):
            raise ParseError(f"{path}: flow paths must be a list")
        if len(paths) != max(len(frames) - 1, 0):
            raise ParseError(
                f"{path}: {len(frames)} frames need {max(len(frames) - 1, 0)} flow "
                f"files, manifest lists {len(paths)}"
            )
        flows = FlowSetRef(
            direction=direction, paths=tuple(_referenced_file(path, base, p) for p in paths)
        )

    return SequenceManifest(frames=tuple(frames), taxonomy=taxonomy, flows=flows)


def _referenced_file(manifest_path: Path, base: Path, ref) -> str:
    """Check that a manifest entry names an existing file inside ``base``, the resolved directory."""
    if not isinstance(ref, str) or "\0" in ref:
        raise ParseError(f"{manifest_path}: file reference {ref!r} is not a path string")
    try:  # the file system may refuse the name: too long, or a symlink loop
        target = (base / ref).resolve()
        exists = target.is_file()
    except (OSError, RuntimeError) as exc:
        raise ParseError(f"{manifest_path}: referenced file {ref}: {exc}") from None
    if not target.is_relative_to(base):
        raise ParseError(f"{manifest_path}: {ref!r} is outside the manifest's directory")
    if not exists:
        raise ParseError(f"{manifest_path}: referenced file {ref} does not exist")
    return ref


# --------------------------------------------------------- sequence (de)serde

def _frame_stem(index: int, count: int) -> str:
    return f"{index:0{max(4, len(str(max(count - 1, 0))))}d}"


class SequenceWriter:
    """Writes one sequence directory frame by frame, and its manifest last.

    ``count``, the number of frames to come, sets the zero-padded file
    names. A frame or flow field past that count is refused before it is
    written; ``close`` checks that none is missing before it writes the
    manifest. The directory is made with the first file, so a run that
    fails before its first frame leaves no directory, and one that fails
    later leaves frame files but no manifest.
    """

    def __init__(
        self,
        out_dir: str | Path,
        count: int,
        taxonomy: ClassTaxonomy | None = None,
        flows: bool = False,
    ):
        self.out_dir = Path(out_dir)
        self._count = count
        self._taxonomy = taxonomy
        self._frames: list[FrameRef] = []
        self._flows: list[str] | None = [] if flows else None
        self._made = False

    def _path(self, name: str) -> Path:
        if not self._made:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._made = True
        return self.out_dir / name

    def write_frame(self, classes: LabelGrid, instances: LabelGrid | None = None) -> None:
        """Write the next frame: its class grid, and its instance grid unless semantic-only."""
        if len(self._frames) == self._count:
            raise SequenceLengthMismatch(f"{self.out_dir}: {self._count} frames announced, got more")
        stem = _frame_stem(len(self._frames), self._count)
        grids = (classes,) if instances is None else (classes, instances)
        names = [f"{layer}_{stem}.lmap" for layer in ("classes", "instances")[: len(grids)]]
        for grid, name in zip(grids, names):
            write_label_grid(grid, self._path(name))
        self._frames.append(FrameRef(*names))

    def write_flow(self, data: bytes) -> None:
        """Write the next flow field, as ``encode_flow`` bytes: one encoding serves every copy."""
        if self._flows is None:
            raise ValueError(f"{self.out_dir}: a sequence without flows gets no flow field")
        if len(self._flows) == max(self._count - 1, 0):
            raise SequenceLengthMismatch(
                f"{self.out_dir}: {self._count} frames need {len(self._flows)} flow fields, got more"
            )
        name = f"flow_{_frame_stem(len(self._flows), self._count)}.flo"
        _atomic_write_bytes(self._path(name), data)
        self._flows.append(name)

    def close(self) -> Path:
        """Write the manifest (flows tagged prev_to_curr) once every frame is written; its path."""
        if len(self._frames) != self._count:
            raise SequenceLengthMismatch(
                f"{self.out_dir}: {len(self._frames)} frames written, {self._count} announced"
            )
        flows = max(self._count - 1, 0)
        if self._flows is not None and len(self._flows) != flows:
            raise SequenceLengthMismatch(
                f"{self.out_dir}: {self._count} frames need {flows} flow fields, "
                f"{len(self._flows)} written"
            )
        flow_ref = None
        if self._flows is not None:
            flow_ref = FlowSetRef(direction=FLOW_PREV_TO_CURR, paths=tuple(self._flows))
        manifest_path = self._path("manifest.json")
        write_manifest(SequenceManifest(tuple(self._frames), self._taxonomy, flow_ref), manifest_path)
        return manifest_path


def write_panoptic_sequence(
    out_dir: str | Path,
    maps: Iterable[PanopticMap],
    taxonomy: ClassTaxonomy,
    flows: Iterable[FlowField] | None = None,
    count: int | None = None,
) -> Path:
    """Write each map as it arrives, then the flows (tagged prev_to_curr), then the manifest.

    ``count`` is the number of maps, ``len(maps)`` by default. Returns the
    manifest's path.
    """
    count = len(maps) if count is None else count
    writer = SequenceWriter(out_dir, count, taxonomy, flows is not None)
    for pmap in maps:
        writer.write_frame(pmap.classes, pmap.instances)
        del pmap  # dropped before the next frame is made
    for flow in flows or ():
        writer.write_flow(encode_flow(flow))
    return writer.close()


def load_panoptic_sequence(
    manifest_path: str | Path,
) -> tuple[list[PanopticMap], ClassTaxonomy | None]:
    manifest = read_manifest(manifest_path)
    return list(iter_panoptic_frames(manifest_path, manifest)), manifest.taxonomy


def iter_panoptic_frames(
    manifest_path: str | Path, manifest: SequenceManifest
) -> Iterator[PanopticMap]:
    """The panoptic maps of an already parsed manifest, each read as it is pulled.

    A semantic-only manifest is refused at the call, before any read.
    """
    for i, frame in enumerate(manifest.frames):
        if frame.instances is None:
            raise ParseError(
                f"{manifest_path}: frame {i} has no instance grid; "
                "this is a semantic-only sequence"
            )
    base = Path(manifest_path).parent
    return (
        PanopticMap(read_label_grid(base / f.classes), read_label_grid(base / f.instances))
        for f in manifest.frames
    )


def iter_class_grids(manifest_path: str | Path, manifest: SequenceManifest) -> Iterator[LabelGrid]:
    """The class grids of an already parsed manifest, each read as it is pulled."""
    base = Path(manifest_path).parent
    return (read_label_grid(base / f.classes) for f in manifest.frames)


def iter_flow_fields(manifest_path: str | Path, manifest: SequenceManifest) -> Iterator[FlowField]:
    """The flow fields of an already parsed manifest, each read as it is pulled."""
    if manifest.flows is None:
        raise ParseError(f"{manifest_path}: manifest carries no flow fields")
    base = Path(manifest_path).parent
    return (read_flow(base / p) for p in manifest.flows.paths)


def check_grid_sizes(paths: Iterable[Path]) -> tuple[int, int] | None:
    """The one size of the LMAP files at ``paths`` (None if none), read before any payload."""
    size = None
    for path in paths:
        grid = _read_header(path, LMAP_MAGIC, "<II", 4, "LMAP")
        size = size or grid
        if grid != size:
            raise DimensionMismatch(
                f"{path}: grid is {grid[0]}x{grid[1]}, frame 0 is {size[0]}x{size[1]}"
            )
    return size


def check_flow_sequence(
    manifest_path: str | Path,
    manifest: SequenceManifest,
    flows_path: str | Path,
    flows_manifest: SequenceManifest,
) -> None:
    """Check a panoptic sequence and the flows of ``flows_manifest`` from the files' headers alone.

    There must be one flow field fewer than frames, and every grid and flow
    field must have one size. Only the 12-byte headers are read, so a
    streamed run checks this before it writes its first frame.
    """
    if flows_manifest.flows is None:
        raise ParseError(f"{flows_path}: manifest carries no flow fields")
    frames, flows = len(manifest.frames), len(flows_manifest.flows.paths)
    if flows != max(frames - 1, 0):
        raise SequenceLengthMismatch(
            f"{frames} frames need {max(frames - 1, 0)} flow fields, got {flows}"
        )
    base, flow_base = Path(manifest_path).parent, Path(flows_path).parent
    size = check_grid_sizes(
        base / name for f in manifest.frames for name in filter(None, (f.classes, f.instances))
    )
    for name in flows_manifest.flows.paths:
        flow = _read_header(flow_base / name, _FLO_MAGIC, "<ii", 8, "flow file")
        if flow != size:
            raise DimensionMismatch(
                f"{flow_base / name}: flow is {flow[0]}x{flow[1]}, grids are {size[0]}x{size[1]}"
            )
