"""Warp & Match: make per-frame panoptic outputs time-consistent.

For each frame t >= 1 the instance masks are warped backward onto the
t-1 grid with the optical flow between the frames, IoU-compared against
the previous *output* frame, greedily matched, and relabeled so matched
masks inherit the earlier id while unmatched masks receive fresh ids.
Frame 0 passes through unchanged, and the class channel is never touched.
Ids that vanish for a frame are forgotten; there is no re-identification
across gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import _MAX_LABEL, ClassTaxonomy, FlowField, LabelGrid, PanopticMap
from .core import overlap_table, pack_keys, present_ids, remap, unpack_keys
from .defaults import DEFAULT_IOU_THRESHOLD
from .errors import DimensionMismatch, IncompleteAssignment, Overflow, SequenceLengthMismatch

# warp_backward's band, in pixels: its float64 positions and intp indices are made
# for whole rows of at most this many pixels at a time (one row if wider).
_WARP_BAND = 1 << 14


@dataclass(frozen=True)
class IoUMatrix:
    """IoUs between warped current masks (rows) and previous masks (columns)."""

    current_ids: tuple[int, ...]
    previous_ids: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (len(self.current_ids), len(self.previous_ids)):
            raise ValueError(
                f"matrix shape {arr.shape} does not match id lists "
                f"({len(self.current_ids)} x {len(self.previous_ids)})"
            )
        if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both comparisons
            raise ValueError("IoU entries must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "current_ids", tuple(self.current_ids))
        object.__setattr__(self, "previous_ids", tuple(self.previous_ids))


@dataclass(frozen=True)
class IdAssignment:
    """Partition of current ids into matched (-> previous id) and fresh."""

    matches: dict[int, int]
    fresh: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "matches", dict(self.matches))
        object.__setattr__(self, "fresh", frozenset(self.fresh))
        if set(self.matches) & self.fresh:
            raise ValueError("an id cannot be both matched and fresh")
        targets = list(self.matches.values())
        if len(set(targets)) != len(targets):
            raise ValueError("matches must be one-to-one")


def warp_backward(
    curr: PanopticMap, flow_prev_to_curr: FlowField, void_class_id: int = 0
) -> PanopticMap:
    """Warp a frame-t panoptic map onto the t-1 grid by backward sampling.

    Each target pixel p samples the frame-t grids at round(p + flow(p))
    with nearest-neighbor rounding (floor(s + 0.5) per axis); positions
    falling outside the grid yield instance 0 and the void class.
    """
    h, w = curr.instances.values.shape
    if flow_prev_to_curr.vectors.shape[:2] != (h, w):
        raise DimensionMismatch(
            f"flow is {flow_prev_to_curr.width}x{flow_prev_to_curr.height}, "
            f"grids are {w}x{h}"
        )
    instances, classes = curr.instances.values.ravel(), curr.classes.values.ravel()
    warped_inst = np.empty((h, w), dtype=np.uint32)
    warped_class = np.empty((h, w), dtype=np.uint32)
    rows = max(1, _WARP_BAND // w)
    for top in range(0, h, rows):
        band = slice(top, top + rows)
        flat, outside = _nearest_pixel(flow_prev_to_curr.vectors[band], top, h)
        # clipped indices all lie in the grid, so "clip" gathers straight into the result
        np.take(instances, flat, out=warped_inst[band], mode="clip")
        warped_inst[band][outside] = 0
        np.take(classes, flat, out=warped_class[band], mode="clip")
        warped_class[band][outside] = void_class_id
    return PanopticMap(classes=LabelGrid._adopt(warped_class), instances=LabelGrid._adopt(warped_inst))


def _nearest_pixel(
    vectors: np.ndarray, top: int = 0, height: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per pixel p of a flow grid, the flat index of round(p + flow(p)), and where it is outside.

    ``vectors`` may be the rows from ``top`` on of a grid ``height`` rows
    tall (by default, the whole grid). Rounding is floor(s + 0.5) per axis
    on float64 positions, exact for integer sums below 2**53; outside
    positions are clipped into the grid.
    """
    rows, w = vectors.shape[:2]
    h = rows if height is None else height
    sx = vectors[..., 0] + np.arange(w, dtype=np.float64)
    sx += 0.5
    np.floor(sx, out=sx)
    sy = vectors[..., 1] + np.arange(top, top + rows, dtype=np.float64)[:, None]
    sy += 0.5
    np.floor(sy, out=sy)
    outside = (sx < 0) | (sx >= w) | (sy < 0) | (sy >= h)
    np.clip(sx, 0, w - 1, out=sx)
    np.clip(sy, 0, h - 1, out=sy)
    sy *= w
    sy += sx
    del sx
    return sy.astype(np.intp), outside


def invert_flow(flow: FlowField) -> FlowField:
    """Approximate the reverse flow by forward splatting.

    Each source pixel p with nonzero flow votes -flow(p) at target
    round(p + flow(p)), rounded as in warp_backward; zero-flow pixels cast
    no vote, so moving content overrides the static background it lands
    on. Colliding votes keep the smaller displacement magnitude (earliest
    row-major source on ties) and unvoted targets stay zero.
    """
    vectors = flow.vectors.reshape(-1, 2)
    target, outside = _nearest_pixel(flow.vectors)
    voting = (vectors[:, 0] != 0) | (vectors[:, 1] != 0)
    voting &= ~outside.ravel()
    del outside
    target, src = target.ravel()[voting], np.flatnonzero(voting)
    del voting
    dx, dy = vectors[src, 0], vectors[src, 1]
    # Write votes in descending (magnitude, source index) order, so the smallest,
    # earliest vote lands last and wins: src ascends, so reverse a stable sort.
    with np.errstate(over="ignore"):  # magnitudes past float32 tie at inf
        order = np.argsort(dx * dx + dy * dy, kind="stable")[::-1]
    out = np.zeros_like(vectors)
    out[target[order]] = -vectors[src[order]]
    return FlowField._adopt(out.reshape(flow.vectors.shape))


def _dominant_class(pmap: PanopticMap, mask: np.ndarray) -> np.ndarray:
    """Per masked instance id in ascending order, its most frequent class (ties: lower id)."""
    keys = pack_keys(pmap.instances.values[mask], pmap.classes.values[mask])
    pairs, counts = np.unique(keys, return_counts=True)
    inst, cls = unpack_keys(pairs)
    order = np.lexsort((cls, -counts, inst))
    _, first = np.unique(inst[order], return_index=True)
    return cls[order][first]


def build_iou_matrix(
    warped: PanopticMap,
    prev: PanopticMap,
    taxonomy: ClassTaxonomy,
    class_strict: bool = True,
) -> IoUMatrix:
    """IoU confusion matrix between warped current and previous instance masks.

    Only thing-class pixels with nonzero instance ids participate. With
    class_strict, pairs whose dominant classes differ score 0.
    """
    if warped.instances.values.shape != prev.instances.values.shape:
        raise DimensionMismatch("warped grids and previous map differ in size")

    cur_mask, prev_mask = (
        taxonomy.thing_mask(m.classes.values) & (m.instances.values != 0) for m in (warped, prev)
    )
    table = overlap_table((warped.instances.values,), cur_mask, (prev.instances.values,), prev_mask)
    row, col, inter = table.a_index, table.b_index, table.shared
    values = np.zeros((table.a_labels.size, table.b_labels.size), dtype=np.float64)
    values[row, col] = inter / (table.a_areas[row] + table.b_areas[col] - inter)

    if class_strict and values.size:
        cur_cls = _dominant_class(warped, cur_mask)
        prev_cls = _dominant_class(prev, prev_mask)
        values[cur_cls[:, None] != prev_cls[None, :]] = 0.0

    return IoUMatrix(tuple(table.a_labels.tolist()), tuple(table.b_labels.tolist()), values)


def _match_greedy(matrix: IoUMatrix, threshold: float) -> dict[int, int]:
    rows, cols = np.nonzero(matrix.values >= threshold)
    cur = np.asarray(matrix.current_ids, dtype=np.int64)[rows]
    prev = np.asarray(matrix.previous_ids, dtype=np.int64)[cols]
    order = np.lexsort((cur, prev, -matrix.values[rows, cols]))
    matches: dict[int, int] = {}
    used_prev: set[int] = set()
    for c, p in zip(cur[order].tolist(), prev[order].tolist()):
        if c in matches or p in used_prev:
            continue
        matches[c] = p
        used_prev.add(p)
    return matches


def _match_optimal(matrix: IoUMatrix, threshold: float) -> dict[int, int]:
    from scipy.optimize import linear_sum_assignment  # lazy: only this matcher needs scipy

    benefit = np.where(matrix.values >= threshold, matrix.values, 0.0)
    rows, cols = linear_sum_assignment(benefit, maximize=True)
    matches = {}
    for r, c in zip(rows.tolist(), cols.tolist()):
        if matrix.values[r, c] >= threshold:
            matches[matrix.current_ids[r]] = matrix.previous_ids[c]
    return matches


def _matcher(threshold: float, method: str):
    """The matching function for ``method``, once ``threshold`` and ``method`` are checked.

    "optimal" is refused here, before any work, when scipy cannot be imported.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    matchers = {"greedy": _match_greedy, "optimal": _match_optimal}
    if method not in matchers:
        raise ValueError(f"unknown matching method {method!r}")
    if method == "optimal":
        try:
            import scipy.optimize  # noqa: F401
        except ImportError:
            raise ValueError("optimal matcher needs scipy: pip install vpskit[optimal]") from None
    return matchers[method]


def match_ids(matrix: IoUMatrix, threshold: float, method: str = "greedy") -> dict[int, int]:
    """One-to-one matches, current id -> previous id, from the IoU matrix.

    Greedy repeatedly takes the largest remaining entry >= threshold
    (ties: lower previous id, then lower current id); "optimal" maximizes
    total IoU over entries >= threshold via the Hungarian method.
    """
    return _matcher(threshold, method)(matrix, threshold)


def relabel(
    curr: PanopticMap, assignment: IdAssignment, next_fresh_id: int
) -> tuple[PanopticMap, int]:
    """Rewrite instance ids per the assignment; fresh masks get new ids.

    Fresh ids are allocated from next_fresh_id in ascending order of the
    original id. The class grid and the nonzero pixel support are
    preserved: an emitted id outside 1..2**32-1 raises Overflow. The
    returned next fresh id strictly exceeds every emitted id.
    """
    present = present_ids(curr.instances.values)
    uncovered = [i for i in present if i not in assignment.matches and i not in assignment.fresh]
    if uncovered:
        raise IncompleteAssignment(f"ids {uncovered} not covered by the assignment")

    mapping = {old: assignment.matches[old] for old in present if old in assignment.matches}
    fresh = [old for old in present if old in assignment.fresh]  # ascending, as present_ids sorts
    next_id = next_fresh_id + len(fresh)
    # Instance 0 means "no instance": every emitted id must lie in 1.._MAX_LABEL.
    fresh_ends = (next_fresh_id, next_id - 1) if fresh else ()
    for kind, ids in (("match target", mapping.values()), ("fresh id", fresh_ends)):
        beyond = [i for i in ids if not 1 <= i <= _MAX_LABEL]
        if beyond:
            raise Overflow(f"{kind} {beyond[0]} is outside the instance id range 1..{_MAX_LABEL}")
    mapping.update(zip(fresh, range(next_fresh_id, next_id)))
    out = remap(curr.instances.values, mapping)
    emitted = max(mapping.values(), default=0)
    return PanopticMap(classes=curr.classes, instances=LabelGrid._adopt(out)), max(next_id, emitted + 1)


def run_warpmatch_sequence(
    panoptic_seq: Iterable[PanopticMap],
    flows_prev_to_curr: Iterable[FlowField],
    taxonomy: ClassTaxonomy,
    threshold: float = DEFAULT_IOU_THRESHOLD,
    class_strict: bool = True,
    matcher: str = "greedy",
) -> Iterator[PanopticMap]:
    """Run the full pipeline over a sequence and yield each output frame.

    flows[i] maps grid i into frame i+1. The matching options are checked
    at the call; the frames and flows are read as output frames are
    pulled. Frame 0 passes through unchanged.
    Each later frame is warped backward, matched against the previous
    *output* frame (so consistency is transitive) and relabeled. Instances
    that warp entirely out of view, or sit only on stuff pixels, cannot
    match and therefore receive fresh ids. Each frame's classes are checked
    against the taxonomy as it is read, and each output frame is yielded
    only once the next frame and its flow are read and checked: a sequence
    whose second frame or first flow is bad fails before it yields anything.
    """
    _matcher(threshold, matcher)
    return _relabeled(
        iter(panoptic_seq), iter(flows_prev_to_curr), taxonomy, threshold, class_strict, matcher
    )


def _relabeled(
    maps: Iterator[PanopticMap],
    flows: Iterator[FlowField],
    taxonomy: ClassTaxonomy,
    threshold: float,
    class_strict: bool,
    matcher: str,
) -> Iterator[PanopticMap]:
    prev = next(maps, None)
    frames = 0 if prev is None else 1
    if prev is not None:
        # Matching only sees the pixels a warp samples, so check every frame as it is read.
        taxonomy.thing_mask(prev.classes.values)
        next_fresh_id = int(prev.instances.values.max()) + 1
    for curr in maps:
        flow = next(flows, None)
        if flow is None:
            raise SequenceLengthMismatch(
                f"{frames + 1} frames need at least {frames} flow fields, got {frames - 1}"
            )
        frames += 1
        taxonomy.thing_mask(curr.classes.values)
        yield prev
        warped = warp_backward(curr, flow, taxonomy.void_class_id)
        del flow  # each frame's inputs are freed before the next frame is read
        matrix = build_iou_matrix(warped, prev, taxonomy, class_strict)
        del warped
        matches = match_ids(matrix, threshold, matcher)
        # unmatched rows, and instances never in the matrix: warped out of view or stuff-only
        fresh = set(present_ids(curr.instances.values)) - matches.keys()
        prev, next_fresh_id = relabel(curr, IdAssignment(matches, fresh), next_fresh_id)
        del curr
    if next(flows, None) is not None:
        raise SequenceLengthMismatch(
            f"{frames} frames need {max(frames - 1, 0)} flow fields, got more"
        )
    if prev is not None:
        yield prev
