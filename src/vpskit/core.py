"""Core domain types for video panoptic data plus mask/segment primitives.

Conventions used throughout the toolkit:

* label grids are ``(height, width)`` uint32 arrays, row-major, origin at
  the top-left, x rightward, y downward;
* instance id 0 is the universal "no instance" sentinel, so stuff pixels
  always carry instance 0;
* a segment is the set of pixels sharing one ``(class_id, instance_id)``
  pair; segments are equivalence classes, not connected components, and
  may be fragmented.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidTaxonomy, NonFinite, UnknownClass

STUFF = "stuff"
THING = "thing"

_MAX_LABEL = (1 << 32) - 1

# ClassTaxonomy kind codes; a taxonomy whose ids all lie below _KIND_TABLE_SIZE
# looks pixels up in a table indexed by class id, others search the sorted ids.
_KIND_UNKNOWN, _KIND_STUFF, _KIND_THING = 0, 1, 2
_KIND_TABLE_SIZE = 1 << 16

# remap indexes a table when every value of an unsigned grid lies below this
# bound (at most 256 KB for a uint32 grid); other grids search the sorted keys.
_REMAP_TABLE_SIZE = 1 << 16

# gather's band, in elements of the index: np.take casts its whole index to
# intp first, so a band at a time that copy stays at 512 KB.
_GATHER_BAND = 1 << 16


@dataclass(frozen=True)
class ClassEntry:
    class_id: int
    name: str
    kind: str

    def __post_init__(self):
        if not is_integer(self.class_id):
            raise InvalidTaxonomy(f"class id {self.class_id!r} must be an integer")
        if not isinstance(self.name, str):
            raise InvalidTaxonomy(f"class {self.class_id}: name {self.name!r} is not a string")
        if not 0 <= self.class_id <= _MAX_LABEL:
            raise InvalidTaxonomy(f"class id {self.class_id} outside the 32-bit label range")
        if self.kind not in (STUFF, THING):
            raise InvalidTaxonomy(f"class {self.class_id}: kind {self.kind!r} is not 'stuff' or 'thing'")


@dataclass(frozen=True)
class ClassTaxonomy:
    """Class id -> (name, stuff/thing) table governing which pixels carry ids."""

    entries: tuple[ClassEntry, ...]
    void_class_id: int = 0

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        ids = [e.class_id for e in entries]
        if len(set(ids)) != len(ids):
            raise InvalidTaxonomy("duplicate class ids")
        if not is_integer(self.void_class_id):
            raise InvalidTaxonomy(f"void class {self.void_class_id!r} must be an integer")
        by_id = {e.class_id: e for e in entries}
        void = by_id.get(self.void_class_id)
        if void is None:
            raise InvalidTaxonomy(f"void class {self.void_class_id} missing from entries")
        if void.kind != STUFF:
            raise InvalidTaxonomy(f"void class {self.void_class_id} must be stuff")
        object.__setattr__(self, "_by_id", by_id)
        # Built once: the taxonomy is frozen, so these never go stale.
        ids = np.array(sorted(by_id), dtype=np.uint32)
        is_thing = np.array([by_id[c].kind == THING for c in ids.tolist()])
        kinds = np.where(is_thing, _KIND_THING, _KIND_STUFF).astype(np.uint8)
        table = None
        if ids[-1] < _KIND_TABLE_SIZE:
            # one entry past the largest id stays unknown, for clipped lookups
            table = np.full(int(ids[-1]) + 2, _KIND_UNKNOWN, dtype=np.uint8)
            table[ids] = kinds
        arrays = (("_class_ids", ids), ("_thing_ids", ids[is_thing]), ("_kinds", kinds))
        for name, arr in arrays:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_kind_table", table)

    def has(self, class_id: int) -> bool:
        return class_id in self._by_id

    def kind_of(self, class_id: int) -> str:
        entry = self._by_id.get(class_id)
        if entry is None:
            raise UnknownClass(f"class {class_id} not in taxonomy")
        return entry.kind

    def is_thing(self, class_id: int) -> bool:
        return self.kind_of(class_id) == THING

    def is_stuff(self, class_id: int) -> bool:
        return self.kind_of(class_id) == STUFF

    def class_ids(self) -> np.ndarray:
        """All class ids, ascending, as a read-only uint32 array."""
        return self._class_ids

    def thing_class_ids(self) -> np.ndarray:
        """The thing class ids, ascending, as a read-only uint32 array."""
        return self._thing_ids

    def thing_mask(self, classes: np.ndarray) -> np.ndarray:
        """Per pixel of a class grid, whether its class is a thing class.

        Raises UnknownClass naming the lowest class id missing from the
        taxonomy and its first pixel in row-major order.
        """
        classes = np.asarray(classes)
        kinds = self._kinds_of(classes)
        if not kinds.all():
            class_id = classes[kinds == _KIND_UNKNOWN].min()
            y, x = np.unravel_index(np.argmax(classes == class_id), classes.shape)
            raise UnknownClass(f"class {class_id} at pixel ({x}, {y}) not in taxonomy")
        return kinds == _KIND_THING

    def _label_things(self, classes: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Per class id of labels taken from the class grid ``grid``, whether it is a thing class.

        An unknown id raises thing_mask's UnknownClass for ``grid``, so the error names a pixel.
        """
        kinds = self._kinds_of(classes)
        if not kinds.all():
            self.thing_mask(grid)
        return kinds == _KIND_THING

    def _kinds_of(self, classes: np.ndarray) -> np.ndarray:
        """Per element, its uint8 kind code (_KIND_UNKNOWN where the id is not in the taxonomy)."""
        if self._kind_table is not None and classes.dtype.kind == "u":
            # ids past the table clip onto its last entry, which is unknown
            return gather(self._kind_table, classes, mode="clip")
        return _lookup(self._class_ids, self._kinds, classes, np.uint8(_KIND_UNKNOWN))

    def to_dict(self) -> dict:
        return {
            "void_class_id": self.void_class_id,
            "classes": [
                {"id": e.class_id, "name": e.name, "kind": e.kind} for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassTaxonomy":
        try:
            entries = tuple(ClassEntry(c["id"], c["name"], c["kind"]) for c in data["classes"])
            void = data.get("void_class_id", 0)
        except (KeyError, TypeError) as exc:
            raise InvalidTaxonomy(f"malformed taxonomy document: {exc}") from exc
        return cls(entries=entries, void_class_id=void)


def is_integer(value) -> bool:
    """Whether a parsed JSON value is an integer: not a bool, a float or a numeric string."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a parsed JSON value is an integer or a float: not a bool or a numeric string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def finite_float(value) -> float | None:
    """A parsed JSON number as a finite float, or None: for a non-number, NaN, an
    infinity or an integer beyond the float range."""
    if not is_number(value):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def pixel_span(lo: float, hi: float, limit: int) -> tuple[int, int]:
    """The pixels start..stop-1 of [0, limit) with centre i + 0.5 in [lo, hi); start <= stop."""
    start = max(0, math.ceil(lo - 0.5))
    return start, max(start, min(limit, math.ceil(hi - 0.5)))


def _as_label_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"label grid must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"label grid must be at least 1x1, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"label grid must be integer, got dtype {arr.dtype}")
    if arr.dtype.kind != "u" or arr.dtype.itemsize > 4:  # uint8-uint32 hold only labels
        if arr.min() < 0:
            raise ValueError("label grid contains negative values")
        if int(arr.max()) > _MAX_LABEL:
            raise ValueError("label grid value exceeds the 32-bit label range")
    out = arr.astype(np.uint32, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabelGrid:
    """Immutable (height, width) grid of non-negative integer labels."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_label_array(self.values))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "LabelGrid":
        """A grid that keeps ``values`` itself, marked read-only: no check, no copy.

        For arrays made inside the package: a fresh 2-D native uint32 array,
        at least 1x1, that nobody else holds.
        """
        values.setflags(write=False)
        grid = object.__new__(cls)
        object.__setattr__(grid, "values", values)
        return grid

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelGrid):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.values.shape, self.values.tobytes()))


@dataclass(frozen=True)
class PanopticMap:
    """Per-frame pair of class labels and instance ids over the same grid."""

    classes: LabelGrid
    instances: LabelGrid

    def __post_init__(self):
        if self.classes.values.shape != self.instances.values.shape:
            raise DimensionMismatch(
                f"classes {self.classes.width}x{self.classes.height} vs "
                f"instances {self.instances.width}x{self.instances.height}"
            )

    @property
    def width(self) -> int:
        return self.classes.width

    @property
    def height(self) -> int:
        return self.classes.height


@dataclass(frozen=True)
class FlowField:
    """Per-pixel (dx, dy) displacement grid in fractional pixel units, all finite."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float32)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError(f"flow field must have shape (h, w, 2), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"flow field must be at least 1x1, got {arr.shape}")
        _check_finite(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @classmethod
    def _adopt(cls, vectors: np.ndarray) -> "FlowField":
        """A flow field that keeps ``vectors`` itself, marked read-only, once it is checked finite.

        For arrays made inside the package: a fresh (h, w, 2) native float32
        array, at least 1x1, that nobody else holds.
        """
        _check_finite(vectors)
        vectors.setflags(write=False)
        flow = object.__new__(cls)
        object.__setattr__(flow, "vectors", vectors)
        return flow

    @property
    def height(self) -> int:
        return self.vectors.shape[0]

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowField):
            return NotImplemented
        return self.vectors.shape == other.vectors.shape and bool(
            np.array_equal(self.vectors, other.vectors)
        )

    def __hash__(self):
        return hash((self.vectors.shape, self.vectors.tobytes()))


def _check_finite(vectors: np.ndarray) -> None:
    # min and max both propagate NaN and reach an infinity, so no bool grid is made
    if not (np.isfinite(vectors.min()) and np.isfinite(vectors.max())):
        raise NonFinite("flow field contains NaN or infinite components")


@dataclass(frozen=True)
class TrackedBox:
    """One tracker detection: half-open box [x0,x1) x [y0,y1) in pixel units."""

    frame: int
    track_id: int
    class_id: int
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "y0", float(self.y0))
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "y1", float(self.y1))
        if self.frame < 0:
            raise ValueError(f"frame {self.frame} is negative")
        if self.track_id < 1:
            raise ValueError(f"track id {self.track_id} must be >= 1 (0 means no instance)")
        if self.track_id > _MAX_LABEL:
            raise ValueError(f"track id {self.track_id} exceeds the 32-bit label range")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(
                f"degenerate box [{self.x0},{self.x1})x[{self.y0},{self.y1})"
            )

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass(frozen=True)
class Segment:
    """All pixels carrying one (class_id, instance_id) pair; may be fragmented."""

    class_id: int
    instance_id: int
    pixels: frozenset = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pixels", frozenset(self.pixels))
        if not self.pixels:
            raise ValueError("segment has no pixels")

    @property
    def area(self) -> int:
        return len(self.pixels)


def pack_keys(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """One uint64 key per element, ``high << 32 | low``, from two uint32 label arrays.

    Keys order like the ``(high, low)`` pairs they pack; unpack_keys inverts.
    Built in place, so the key array is the only full-size allocation.
    """
    keys = high.astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= low
    return keys


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(high, low)`` uint32 arrays that pack_keys packed into ``keys``."""
    keys = np.asarray(keys, dtype=np.uint64)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    return high, (keys & np.uint64(_MAX_LABEL)).astype(np.uint32)


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted unique values of a 1-D array, their counts, and each element's index among them.

    With counts asked for, ``np.unique`` sorts a copy instead of running its
    slower hash table; one binary search per element then replaces the
    stable argsort of numpy's own inverse index.
    """
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, counts, np.searchsorted(uniq, values)


class Overlap(NamedTuple):
    """Each side's sorted labels and areas, and the shared pixels of each overlapping pair.

    Pair n is ``(a_labels[a_index[n]], b_labels[b_index[n]])``; pairs ascend by (a, b).
    """

    a_labels: np.ndarray
    a_areas: np.ndarray
    b_labels: np.ndarray
    b_areas: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    shared: np.ndarray


def overlap_table(a: tuple, b: tuple) -> Overlap:
    """Label areas and pairwise overlaps of two same-shape segmentations, over every pixel.

    Each side is a 1-tuple of a label grid, or a (high, low) pair of grids
    labelled by pack_keys. One scan of the grids finds the runs along which
    none of them changes, and only the run ends are coded (_label_codes):
    the codes rank each side's labels (_ranked), and one count of
    ``a_rank * n_b + b_rank`` (COCO panopticapi's pq_compute trick) per
    joint run gives both sides' areas and every pair: ``np.bincount`` while
    the label counts multiplied are at most the pixel count, ``np.unique``
    beyond. Callers decide which labels count, per label, from the table.
    """
    pixels = a[0].size
    # every pixel of a run shares its end's labels on both sides
    ends = _run_ends(*(grid.ravel() for grid in (*a, *b)))
    lengths = np.diff(ends, prepend=-1)
    a_side = _label_codes(tuple(grid.ravel()[ends] for grid in a), pixels)
    b_side = _label_codes(tuple(grid.ravel()[ends] for grid in b), pixels)
    a_labels, a_rank = _ranked(a_side, a_side.code)
    b_labels, b_rank = _ranked(b_side, b_side.code)
    n_a, n_b = a_labels.size, b_labels.size
    joint = a_rank[a_side.code].astype(np.intp)
    joint *= n_b
    joint += b_rank[b_side.code]
    if n_a * n_b <= pixels:
        table = np.bincount(joint, lengths, n_a * n_b)
        codes = np.flatnonzero(table)
        counts = table[codes]
    else:
        codes, inverse = np.unique(joint, return_inverse=True)
        counts = np.bincount(inverse, lengths)
    counts = counts.astype(np.intp)
    rows, cols = np.divmod(codes, n_b)  # a rank, b rank; codes ascend, so pairs ascend by (a, b)
    a_areas = np.bincount(rows, counts, n_a).astype(np.intp)
    b_areas = np.bincount(cols, counts, n_b).astype(np.intp)
    return Overlap(a_labels, a_areas, b_labels, b_areas, rows, cols, counts)


class _Codes(NamedTuple):
    """One side of an overlap table: an integer code per element, and how to rank the codes."""

    code: np.ndarray
    radix: int  # code == high * radix + low
    span: int  # one past the largest code
    dtype: np.dtype  # of the low grid, and so of unpacked labels
    packed: bool  # labels are pack_keys(high, low), not low alone
    ranked: tuple | None  # (labels, rank), already known where factorize coded the elements


def _label_codes(grids: tuple, pixels: int) -> _Codes:
    """A side's integer code per element.

    ``grids`` hold every label of the side's ``pixels`` pixels, once per
    pixel or once per run. While the code range ``(max high + 1) * (max low
    + 1)`` is at most the pixel count, a code is ``high * radix + low`` and
    a presence table over the range ranks the codes (_ranked); wider ranges
    sort the labels with factorize, and each code is its rank.
    """
    low = grids[-1]
    radix = int(low.max(initial=0)) + 1
    span = radix * (int(grids[0].max(initial=0)) + 1 if len(grids) == 2 else 1)
    if span > min(pixels, _MAX_LABEL):
        keys = low if len(grids) == 1 else pack_keys(grids[0], low)
        labels, _, index = factorize(keys)
        ranked = labels, np.arange(labels.size, dtype=np.uint32)
        return _Codes(index, radix, span, low.dtype, len(grids) == 2, ranked)
    code = low if len(grids) == 1 else grids[0] * np.uint32(radix) + low
    return _Codes(code, radix, span, low.dtype, len(grids) == 2, None)


def _ranked(side: _Codes, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A side's sorted labels, and per code its 0-based rank among them.

    ``seen`` holds the side's code at the last pixel of each of its runs, or
    at more pixels: every code present, and no other.
    """
    if side.ranked is not None:
        return side.ranked
    present = np.zeros(side.span, dtype=bool)
    present[seen] = True
    codes = np.flatnonzero(present)
    high, rest = np.divmod(codes, side.radix)
    labels = rest.astype(side.dtype)
    if side.packed:
        labels = pack_keys(high.astype(np.uint32), labels)
    rank = np.zeros(side.span, dtype=np.uint32)
    rank[codes] = np.arange(codes.size, dtype=np.uint32)
    return labels, rank


def _rank_runs(grids: tuple) -> tuple:
    """A side's sorted labels, and per run of equal labels in row-major order, its rank and length.

    Ranks are 0-based, as _ranked gives them; only the run ends are coded (_label_codes).
    """
    flat = tuple(grid.ravel() for grid in grids)
    ends = _run_ends(*flat)
    side = _label_codes(tuple(grid[ends] for grid in flat), flat[0].size)
    labels, rank = _ranked(side, side.code)
    return labels, rank[side.code], np.diff(ends, prepend=-1)


def _run_ends(*arrays: np.ndarray) -> np.ndarray:
    """The index of the last element of each run along which same-length 1-D arrays all stay equal.

    Label grids change value rarely along a row, so tables fill once per run, not per pixel.
    """
    change = np.empty(arrays[0].size, dtype=bool)
    np.not_equal(arrays[0][1:], arrays[0][:-1], out=change[:-1])
    for values in arrays[1:]:
        change[:-1] |= values[1:] != values[:-1]
    change[-1:] = True  # the last run ends with the array
    return np.flatnonzero(change)


def gather(table: np.ndarray, index: np.ndarray, mode: str = "raise") -> np.ndarray:
    """``np.take(table, index, axis=0, mode=mode)``, taken one band of ``index`` at a time.

    The result has ``index``'s shape followed by a table row's. np.take casts
    its index to intp (8 bytes an element) before it gathers; band by band,
    that copy stays at _GATHER_BAND elements whatever the index's size. With
    ``mode="raise"`` np.take also buffers each band's result, so a caller
    whose indices all lie in the table passes ``mode="clip"``.
    """
    table, index = np.asarray(table), np.asarray(index)
    out = np.empty(index.shape + table.shape[1:], dtype=table.dtype)
    flat_index, flat_out = index.reshape(-1), out.reshape(-1, *table.shape[1:])
    for start in range(0, flat_index.size, _GATHER_BAND):
        stop = start + _GATHER_BAND
        np.take(table, flat_index[start:stop], axis=0, out=flat_out[start:stop], mode=mode)
    return out


def remap(values: np.ndarray, mapping: Mapping[int, int]) -> np.ndarray:
    """A copy of ``values`` with each key of ``mapping`` replaced by its value.

    Other values pass through; keys and values must fit the dtype of
    ``values``. An unsigned grid whose values all lie below
    ``_REMAP_TABLE_SIZE`` is one ``gather`` from a table indexed by value;
    any other grid takes one sorted-key ``np.searchsorted``.
    """
    values = np.asarray(values)
    if not mapping:
        return values.copy()
    old = np.fromiter(mapping.keys(), dtype=values.dtype, count=len(mapping))
    new = np.fromiter(mapping.values(), dtype=values.dtype, count=len(mapping))
    if values.dtype.kind == "u" and values.size and (top := int(values.max())) < _REMAP_TABLE_SIZE:
        table = np.arange(top + 1, dtype=values.dtype)
        present = old <= top  # keys above the largest value occur nowhere in the grid
        table[old[present]] = new[present]
        return gather(table, values, mode="clip")  # no value lies past the table: clip is exact
    order = np.argsort(old)
    return _lookup(old[order], new[order], values, values)


def _lookup(keys: np.ndarray, found: np.ndarray, values: np.ndarray, default) -> np.ndarray:
    """Per element of values, found at its slot in the sorted, non-empty keys, else default."""
    slot = np.minimum(np.searchsorted(keys, values), keys.size - 1)
    return np.where(keys[slot] == values, found[slot], default)


def present_ids(grid: np.ndarray) -> list[int]:
    """The nonzero ids of a label grid, ascending: every id ends a run, so only run ends are sorted."""
    flat = np.asarray(grid).ravel()
    # with counts np.unique sorts, as in factorize; its hash path would import numpy.ma (~30 ms)
    ids = np.unique(flat[_run_ends(flat)], return_counts=True)[0].tolist()
    return ids[1:] if ids and ids[0] == 0 else ids


def extract_segments(pmap: PanopticMap, taxonomy: ClassTaxonomy) -> list[Segment]:
    """Split a panoptic map into its (class, instance) segments.

    Void-class pixels are excluded; every other pixel lands in exactly one
    segment, so the result partitions the non-void area. Thing-class pixels
    with instance 0 form an "unassigned" segment for their class.
    """
    taxonomy.thing_mask(pmap.classes.values)  # raises UnknownClass
    keys = pack_keys(pmap.classes.values, pmap.instances.values)
    valid = pmap.classes.values != np.uint32(taxonomy.void_class_id)
    segments = []
    for key in np.unique(keys[valid]):
        class_id = int(key >> np.uint64(32))
        instance_id = int(key & np.uint64(0xFFFFFFFF))
        ys, xs = np.nonzero((keys == key) & valid)
        pixels = frozenset(zip(xs.tolist(), ys.tolist()))
        segments.append(Segment(class_id, instance_id, pixels))
    segments.sort(key=lambda s: (s.class_id, s.instance_id))
    return segments


def validate_panoptic(
    classes: LabelGrid, instances: LabelGrid, taxonomy: ClassTaxonomy
) -> list[str]:
    """Check panoptic invariants; returns human-readable violations, not errors.

    Rules: grids share dimensions, every class id is known, and stuff-class
    pixels carry instance 0. An empty list means the pair is valid.
    """
    violations: list[str] = []
    if classes.values.shape != instances.values.shape:
        violations.append(
            f"dimension mismatch: classes {classes.width}x{classes.height} vs "
            f"instances {instances.width}x{instances.height}"
        )
        return violations

    kinds = taxonomy._kinds_of(classes.values)
    unknown = np.flatnonzero(kinds == _KIND_UNKNOWN)
    # np.unique's index is each unknown id's first pixel among the unknown, row-major
    class_ids, first = np.unique(classes.values.ravel()[unknown], return_index=True)
    ys, xs = np.divmod(unknown[first], classes.width)
    for class_id, x, y in zip(class_ids.tolist(), xs.tolist(), ys.tolist()):
        violations.append(f"pixel ({x}, {y}): unknown class {class_id}")

    ys, xs = np.nonzero((kinds == _KIND_STUFF) & (instances.values != 0))
    for x, y in zip(xs.tolist(), ys.tolist()):
        violations.append(
            f"pixel ({x}, {y}): stuff class {int(classes.values[y, x])} carries "
            f"instance {int(instances.values[y, x])}"
        )
    return violations
