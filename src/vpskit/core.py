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
            return np.take(self._kind_table, classes, mode="clip")
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
        if not np.isfinite(arr).all():
            raise NonFinite("flow field contains NaN or infinite components")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

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


def overlap_table(a: tuple, a_valid: np.ndarray | None, b: tuple, b_valid: np.ndarray | None) -> Overlap:
    """Label areas and pairwise overlaps of the valid pixels of two same-shape segmentations.

    Each side is a 1-tuple of a label grid, or a (high, low) pair of grids
    labelled by pack_keys; a mask of None counts all of a side's pixels. A
    pixel is shared when valid on both sides. With each side's labels ranked
    (_rank_labels), one count of ``a_rank * (n_b + 1) + b_rank`` (COCO
    panopticapi's pq_compute trick) per run of equal pixels gives both
    sides' areas and every pair: ``np.bincount`` while the label counts
    multiplied are at most the pixel count, ``np.unique`` beyond.
    """
    if a_valid is not None and b_valid is not None:
        counted = a_valid | b_valid
        if 2 * np.count_nonzero(counted) < counted.size:  # sparse: skip pixels valid nowhere
            a, a_valid = tuple(grid[counted] for grid in a), a_valid[counted]
            b, b_valid = tuple(grid[counted] for grid in b), b_valid[counted]
    a_labels, a_code, a_rank = _rank_labels(a, a_valid)
    b_labels, b_code, b_rank = _rank_labels(b, b_valid)
    n_a, n_b = a_labels.size, b_labels.size
    a_code, b_code = a_code.ravel(), b_code.ravel()
    ends = _run_ends(a_code, b_code)
    lengths = np.diff(ends, prepend=-1)
    joint = a_rank[a_code[ends]].astype(np.intp)
    joint *= n_b + 1
    joint += b_rank[b_code[ends]]
    if n_a * n_b <= a_code.size:
        table = np.bincount(joint, lengths, (n_a + 1) * (n_b + 1))
        codes = np.flatnonzero(table)
        counts = table[codes]
    else:
        codes, inverse = np.unique(joint, return_inverse=True)
        counts = np.bincount(inverse, lengths)
    counts = counts.astype(np.intp)
    rows, cols = np.divmod(codes, n_b + 1)  # a rank, b rank; codes ascend, so pairs ascend by (a, b)
    a_areas = np.bincount(rows, counts, n_a + 1)[1:].astype(np.intp)
    b_areas = np.bincount(cols, counts, n_b + 1)[1:].astype(np.intp)
    pairs = (rows > 0) & (cols > 0)
    return Overlap(a_labels, a_areas, b_labels, b_areas, rows[pairs] - 1, cols[pairs] - 1, counts[pairs])


def _rank_labels(grids: tuple, valid: np.ndarray | None = None) -> tuple:
    """A side's sorted labels, a uint32 code per pixel, and per code its 1-based rank among the labels.

    Code 0, of rank 0, marks pixels that are not valid, so ``rank[code]`` is
    each pixel's rank. While the code range ``(max high + 1) * (max low + 1)``
    is at most the pixel count, a presence table over it ranks the codes;
    wider ranges sort the labels with factorize, and each code is its rank.
    """
    low = grids[-1]
    radix = int(low.max(initial=0)) + 1
    span = radix * (int(grids[0].max(initial=0)) + 1 if len(grids) == 2 else 1)
    if span > min(low.size, _MAX_LABEL):
        where = ... if valid is None else valid
        keys = low[where] if len(grids) == 1 else pack_keys(grids[0][where], low[where])
        labels, _, index = factorize(keys)
        code = np.zeros(low.shape, dtype=np.uint32)
        code[where] = index + 1
        return labels, code, np.arange(labels.size + 1, dtype=np.uint32)
    code = low + np.uint32(1)
    if len(grids) == 2:
        code += grids[0] * np.uint32(radix)
    if valid is not None:
        code *= valid
    flat = code.ravel()
    present = np.zeros(span + 1, dtype=bool)
    present[flat[_run_ends(flat)]] = True
    present[0] = False
    high, rest = np.divmod(np.flatnonzero(present) - 1, radix)
    labels = rest.astype(low.dtype)
    if len(grids) == 2:
        labels = pack_keys(high.astype(np.uint32), labels)
    return labels, code, np.cumsum(present, dtype=np.uint32)


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


def remap(values: np.ndarray, mapping: Mapping[int, int]) -> np.ndarray:
    """A copy of ``values`` with each key of ``mapping`` replaced by its value.

    Other values pass through; keys and values must fit the dtype of
    ``values``. An unsigned grid whose values all lie below
    ``_REMAP_TABLE_SIZE`` is one ``np.take`` from a table indexed by value;
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
        return np.take(table, values)
    order = np.argsort(old)
    return _lookup(old[order], new[order], values, values)


def _lookup(keys: np.ndarray, found: np.ndarray, values: np.ndarray, default) -> np.ndarray:
    """Per element of values, found at its slot in the sorted, non-empty keys, else default."""
    slot = np.minimum(np.searchsorted(keys, values), keys.size - 1)
    return np.where(keys[slot] == values, found[slot], default)


def present_ids(grid: np.ndarray) -> list[int]:
    """The nonzero ids of a label grid, ascending; np.unique sorts, as in factorize."""
    ids = np.unique(grid, return_counts=True)[0].tolist()
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
