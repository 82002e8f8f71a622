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
from vpskit.errors. Every reader opens its file through ``_read_bytes``, and
every JSON input is strict UTF-8 holding one JSON object, parsed by
``_parse_object``. All writers go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import ClassTaxonomy, FlowField, LabelGrid, PanopticMap, TrackedBox
from .core import finite_float, is_integer, is_number
from .errors import BadMagic, FormatError, Overflow, ParseError, Truncated

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


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file: a missing file is a ParseError, other OSErrors propagate."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ParseError(f"{path} does not exist") from None


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


def _decode_header(data: bytes, magic: bytes, dims: str, size: int, kind: str) -> tuple[int, int]:
    """The (width, height) of a 12-byte header, checked with its payload of ``size``-byte pixels."""
    if len(data) < 4:
        raise Truncated(f"{kind} needs at least 4 bytes, got {len(data)}")
    if data[:4] != magic:
        raise BadMagic(f"{kind}: expected {magic!r}, got {data[:4]!r}")
    if len(data) < 12:
        raise Truncated(f"{kind} header needs 12 bytes, got {len(data)}")
    width, height = struct.unpack(dims, data[4:12])
    if width < 1 or height < 1:
        raise FormatError(f"{kind} dimensions {width}x{height} invalid")
    if width * height > _MAX_PIXELS:
        raise Overflow(f"{kind} declares {width * height} pixels, cap is {_MAX_PIXELS}")
    expected = 12 + size * width * height
    if len(data) < expected:
        raise Truncated(f"{kind} payload needs {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise Truncated(f"{kind} has {len(data) - expected} trailing bytes")
    return width, height


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
    return decode_label_grid(_read_bytes(path))


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
    return decode_flow(_read_bytes(path))


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
    lines = [json.dumps(vars(b), separators=(", ", ": ")) for b in ordered]
    _atomic_write_text(path, "".join(line + "\n" for line in lines))


# ------------------------------------------------------------------- taxonomy

def read_taxonomy(path: str | Path) -> ClassTaxonomy:
    return ClassTaxonomy.from_dict(load_json(path))


def write_taxonomy(taxonomy: ClassTaxonomy, path: str | Path) -> None:
    _atomic_write_text(path, json.dumps(taxonomy.to_dict(), indent=2, sort_keys=True) + "\n")


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
    _atomic_write_text(
        path, json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n"
    )


def read_manifest(path: str | Path) -> SequenceManifest:
    path = Path(path)
    doc = load_json(path)
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
            instances = _referenced_file(path, instances)
        frames.append(FrameRef(classes=_referenced_file(path, classes), instances=instances))
    count = doc.get("frame_count")
    if not is_integer(count) or count != len(frames):
        raise ParseError(f"{path}: frame_count {count!r} != {len(frames)} frame entries")

    taxonomy = None
    tax_doc = doc.get("taxonomy")
    if isinstance(tax_doc, str):
        taxonomy = read_taxonomy(path.parent / _referenced_file(path, tax_doc))
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
            direction=direction, paths=tuple(_referenced_file(path, p) for p in paths)
        )

    return SequenceManifest(frames=tuple(frames), taxonomy=taxonomy, flows=flows)


def _referenced_file(manifest_path: Path, ref) -> str:
    """Check that a manifest entry names an existing file inside the manifest's directory."""
    if not isinstance(ref, str) or "\0" in ref:
        raise ParseError(f"{manifest_path}: file reference {ref!r} is not a path string")
    base = manifest_path.parent.resolve()
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


def write_panoptic_sequence(
    out_dir: str | Path,
    maps: Sequence[PanopticMap],
    taxonomy: ClassTaxonomy,
    flows: Sequence[FlowField] | None = None,
) -> Path:
    """Write a panoptic sequence plus manifest (flows tagged prev_to_curr); returns its path."""
    return _write_sequence(out_dir, [(m.classes, m.instances) for m in maps], taxonomy, flows)


def write_semantic_sequence(
    out_dir: str | Path,
    grids: Sequence[LabelGrid],
    taxonomy: ClassTaxonomy | None = None,
) -> Path:
    """Write a classes-only sequence (no instance grids)."""
    return _write_sequence(out_dir, [(g,) for g in grids], taxonomy, None)


def _write_sequence(
    out_dir: str | Path, frames: list[tuple], taxonomy: ClassTaxonomy | None, flows: Sequence | None
) -> Path:
    """Write each frame's (classes,) or (classes, instances) grids, the flows, then the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = []
    for i, grids in enumerate(frames):
        stem = _frame_stem(i, len(frames))
        names = [f"{layer}_{stem}.lmap" for layer in ("classes", "instances")[: len(grids)]]
        for grid, name in zip(grids, names):
            write_label_grid(grid, out_dir / name)
        refs.append(FrameRef(*names))
    flow_ref = None
    if flows is not None:
        flow_names = tuple(f"flow_{_frame_stem(i, len(frames))}.flo" for i in range(len(flows)))
        for flow, name in zip(flows, flow_names):
            write_flow(flow, out_dir / name)
        flow_ref = FlowSetRef(direction=FLOW_PREV_TO_CURR, paths=flow_names)
    manifest_path = out_dir / "manifest.json"
    write_manifest(SequenceManifest(tuple(refs), taxonomy, flow_ref), manifest_path)
    return manifest_path


def load_panoptic_sequence(
    manifest_path: str | Path,
) -> tuple[list[PanopticMap], ClassTaxonomy | None]:
    manifest = read_manifest(manifest_path)
    return read_panoptic_frames(manifest_path, manifest), manifest.taxonomy


def read_panoptic_frames(
    manifest_path: str | Path, manifest: SequenceManifest
) -> list[PanopticMap]:
    """The panoptic maps of an already parsed manifest read from manifest_path."""
    base = Path(manifest_path).parent
    maps = []
    for i, frame in enumerate(manifest.frames):
        if frame.instances is None:
            raise ParseError(
                f"{manifest_path}: frame {i} has no instance grid; "
                "this is a semantic-only sequence"
            )
        classes = read_label_grid(base / frame.classes)
        instances = read_label_grid(base / frame.instances)
        maps.append(PanopticMap(classes=classes, instances=instances))
    return maps


def load_semantic_sequence(
    manifest_path: str | Path,
) -> tuple[list[LabelGrid], ClassTaxonomy | None]:
    base = Path(manifest_path).parent
    manifest = read_manifest(manifest_path)
    return [read_label_grid(base / f.classes) for f in manifest.frames], manifest.taxonomy


def read_flow_fields(
    manifest_path: str | Path, manifest: SequenceManifest
) -> tuple[list[FlowField], str]:
    """The flow fields and their direction of an already parsed manifest."""
    base = Path(manifest_path).parent
    if manifest.flows is None:
        raise ParseError(f"{manifest_path}: manifest carries no flow fields")
    flows = [read_flow(base / p) for p in manifest.flows.paths]
    return flows, manifest.flows.direction
