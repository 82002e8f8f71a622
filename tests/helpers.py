"""Shared test oracles: random valid panoptic maps and brute-force matching.

The frozenset-of-pixels segment matcher and its pixel-set IoU live here,
not in the package: they are the independent reference the table-based
metric engine is checked against. So do the per-instance erosion and the
sorted-tuple greedy matcher that the package's table lookups replaced, the
full-grid backward warp and flow inversion that the package's lean ones
must match bit for bit, the scene generator's full-frame gathers, the
``np.unique`` overlap table, the per-pixel IoU matrix that Warp & Match's
label table must match, and the label grid's full range scan. The
scene config's JSON writer and the classes-only sequence writer live here
too, since only tests write those files, and so do the collectors that turn
the package's frame streams into the whole sequences tests compare, and the
decoders of an LMAP or flow file's bytes held in memory, which the package's
readers, reading each payload straight from its file, do not need.
"""

from dataclasses import dataclass

import numpy as np

from vpskit.core import (
    ClassEntry,
    ClassTaxonomy,
    FlowField,
    LabelGrid,
    PanopticMap,
    Segment,
    Overlap,
    TrackedBox,
    extract_segments,
    pack_keys,
    pixel_span,
)
from vpskit import io as vio
from vpskit.metrics import PqStats
from vpskit.rng import Xoshiro256StarStar


def small_taxonomy() -> ClassTaxonomy:
    return ClassTaxonomy(
        entries=(
            ClassEntry(0, "void", "stuff"),
            ClassEntry(1, "road", "stuff"),
            ClassEntry(2, "sky", "stuff"),
            ClassEntry(10, "person", "thing"),
            ClassEntry(11, "rider", "thing"),
        )
    )


def scene_to_dict(config) -> dict:
    """The JSON document of a ``SceneConfig``: ``SceneConfig.from_dict`` reads it back."""
    return {
        "width": config.width,
        "height": config.height,
        "frames": config.frames,
        "taxonomy": config.taxonomy.to_dict(),
        "background": [
            {"class_id": b.class_id, **({"height": b.height} if b.height is not None else {})}
            for b in config.background
        ],
        "actors": [
            {
                "shape": a.shape,
                "class_id": a.class_id,
                "size": a.size,
                "start": list(a.start),
                "velocity": list(a.velocity),
                "depth": a.depth,
            }
            for a in config.actors
        ],
    }


@dataclass
class SceneBundle:
    """A generated scene collected whole: ``flows[i]`` maps frame i to i+1."""

    panoptic: list[PanopticMap]
    boxes: list[TrackedBox]  # in frame order, then actor order
    flows: list[FlowField]
    background_classes: LabelGrid


def generate_scene(config) -> SceneBundle:
    """Every frame ``synth.generate`` yields for ``config``, collected into sequences."""
    from vpskit.synth import background_classes, generate

    frames = generate(config)  # checks the config first
    bundle = SceneBundle([], [], [], background_classes(config))
    for frame in frames:
        bundle.panoptic.append(frame.panoptic)
        bundle.boxes.extend(frame.boxes)
        if frame.flow is not None:
            bundle.flows.append(frame.flow)
    return bundle


def warpmatch_all(*args, **kwargs) -> list[PanopticMap]:
    """Every frame ``run_warpmatch_sequence`` yields, collected into a list."""
    from vpskit.warpmatch import run_warpmatch_sequence

    return list(run_warpmatch_sequence(*args, **kwargs))


def write_semantic_sequence(out_dir, grids, taxonomy=None):
    """Write a classes-only sequence through ``io.SequenceWriter``; returns the manifest's path."""
    from vpskit.io import SequenceWriter

    writer = SequenceWriter(out_dir, len(grids), taxonomy)
    for grid in grids:
        writer.write_frame(grid)
    return writer.close()


def decode_label_grid(data: bytes) -> LabelGrid:
    """The label grid an LMAP file's bytes hold, with the header checks of ``io.read_label_grid``."""
    width, height = vio._decode_header(data, vio.LMAP_MAGIC, "<II", 4, "LMAP")
    values = np.frombuffer(data, dtype="<u4", count=width * height, offset=12)
    return LabelGrid(values.reshape(height, width))  # LabelGrid copies into native uint32


def decode_flow(data: bytes) -> FlowField:
    """The flow field a Middlebury file's bytes hold, with the checks of ``io.read_flow``."""
    width, height = vio._decode_header(data, vio._FLO_MAGIC, "<ii", 8, "flow file")
    raw = np.frombuffer(data, dtype="<f4", count=2 * width * height, offset=12)
    # FlowField checks finiteness and makes the one copy of the payload.
    return FlowField(raw.reshape(height, width, 2))


def filled_grid(width: int, height: int, value: int = 0) -> LabelGrid:
    return LabelGrid(np.full((height, width), value, dtype=np.uint32))


def zero_flow(width: int, height: int) -> FlowField:
    return FlowField(np.zeros((height, width, 2), dtype=np.float32))


def constant_flow(width: int, height: int, dx: float, dy: float) -> FlowField:
    vectors = np.empty((height, width, 2), dtype=np.float32)
    vectors[..., 0], vectors[..., 1] = dx, dy
    return FlowField(vectors)


def mean_pq_over(report, class_ids) -> float | None:
    """Mean PQ of a MetricReport restricted to the given classes; None if none are scored."""
    wanted = set(class_ids)
    values = [m.pq for c, m in report.per_class.items() if c in wanted]
    return sum(values) / len(values) if values else None


def random_panoptic_map(rng: Xoshiro256StarStar, width: int, height: int) -> PanopticMap:
    """A valid map with at most 6 segments: stuff background plus painted rectangles."""
    classes = np.full((height, width), (1, 2)[rng.next_below(2)], dtype=np.int64)
    instances = np.zeros((height, width), dtype=np.int64)
    for k in range(rng.next_below(5)):
        x0 = rng.next_below(width)
        y0 = rng.next_below(height)
        w = rng.next_int(1, max(1, width - x0))
        h = rng.next_int(1, max(1, height - y0))
        if rng.next_below(3) == 0:  # stuff patch
            classes[y0 : y0 + h, x0 : x0 + w] = (0, 1, 2)[rng.next_below(3)]
            instances[y0 : y0 + h, x0 : x0 + w] = 0
        else:  # thing instance
            classes[y0 : y0 + h, x0 : x0 + w] = (10, 11)[rng.next_below(2)]
            instances[y0 : y0 + h, x0 : x0 + w] = k + 1
    return PanopticMap(LabelGrid(classes), LabelGrid(instances))


def oracle_overlap_table(a: tuple, b: tuple) -> Overlap:
    """core.overlap_table's arrays from np.unique over each side's labels and over the label pairs."""

    def labels(grids):
        return grids[0].ravel() if len(grids) == 1 else pack_keys(grids[0].ravel(), grids[1].ravel())

    a_labels, a_rows, a_areas = np.unique(labels(a), return_inverse=True, return_counts=True)
    b_labels, b_cols, b_areas = np.unique(labels(b), return_inverse=True, return_counts=True)
    pairs, shared = np.unique(np.stack([a_rows, b_cols], axis=1), axis=0, return_counts=True)
    return Overlap(a_labels, a_areas, b_labels, b_areas, pairs[:, 0], pairs[:, 1], shared)


def oracle_label_array(values) -> np.ndarray:
    """LabelGrid's values by a full range scan of any integer dtype: its checks, its messages."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"label grid must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"label grid must be at least 1x1, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"label grid must be integer, got dtype {arr.dtype}")
    if arr.min() < 0:
        raise ValueError("label grid contains negative values")
    if int(arr.max()) > (1 << 32) - 1:
        raise ValueError("label grid value exceeds the 32-bit label range")
    return arr.astype(np.uint32)


def iou(a, b) -> float:
    """Intersection over union of two pixel sets; 0.0 when both are empty."""
    a = a if isinstance(a, (set, frozenset)) else frozenset(a)
    b = b if isinstance(b, (set, frozenset)) else frozenset(b)
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def brute_force_ownership(boxes, width, height) -> np.ndarray:
    """Per-pixel box ownership oracle: smallest area wins, ties to lower track id."""
    grid = np.zeros((height, width), dtype=np.int64)
    for y in range(height):
        for x in range(width):
            cx, cy = x + 0.5, y + 0.5
            hits = [b for b in boxes if b.x0 <= cx < b.x1 and b.y0 <= cy < b.y1]
            if hits:
                winner = min(hits, key=lambda b: (b.area, b.track_id))
                grid[y, x] = winner.track_id
    return grid


def brute_force_match(pred, gt):
    """Enumerate ALL same-class pairs and apply the strict > 0.5 rule directly."""
    tps = []
    for p in pred:
        for g in gt:
            if p.class_id == g.class_id:
                value = iou(p.pixels, g.pixels)
                if value > 0.5:
                    tps.append(((p.class_id, p.instance_id), (g.class_id, g.instance_id), value))
    return sorted(tps)


def match_keys(tps: list[tuple[Segment, Segment, float]]):
    return sorted(
        ((p.class_id, p.instance_id), (g.class_id, g.instance_id), value)
        for p, g, value in tps
    )


def match_segments(pred, gt):
    """Unique same-class matching of pixel-set segments with IoU strictly above 0.5.

    Returns (true-positive pairs with their IoU, unmatched predictions,
    unmatched ground truths). Uniqueness is a theorem of the > 0.5 rule and
    is still re-checked.
    """
    matched_pred: set[int] = set()
    matched_gt: set[int] = set()
    tps = []
    for gi, g in enumerate(gt):
        for pi, p in enumerate(pred):
            if p.class_id != g.class_id:
                continue
            value = iou(p.pixels, g.pixels)
            if value > 0.5:
                if pi in matched_pred or gi in matched_gt:
                    raise RuntimeError("IoU > 0.5 produced a double match")
                matched_pred.add(pi)
                matched_gt.add(gi)
                tps.append((p, g, value))
    fps = [p for pi, p in enumerate(pred) if pi not in matched_pred]
    fns = [g for gi, g in enumerate(gt) if gi not in matched_gt]
    return tps, fps, fns


def oracle_pq_stats(
    pred: PanopticMap, gt: PanopticMap, taxonomy: ClassTaxonomy, stats: PqStats | None = None
) -> PqStats:
    """Single-frame PQ stats via pixel-set segments and match_segments.

    Pixels void in the ground truth are removed from both maps; thing pixels
    with instance 0 are ignore regions on both sides. The stats are added to
    ``stats`` when given, so frames can be accumulated.
    """
    stats = PqStats() if stats is None else stats
    return _add_matches(*_scoreable_segments(pred, gt, taxonomy), stats)


def oracle_vpq_stats(pred_seq, gt_seq, taxonomy: ClassTaxonomy, k: int) -> PqStats:
    """VPQ^k stats via pixel-set tubes, accumulated over every k-frame window start.

    A tube is the union of the (t, x, y) pixels of one scoreable (class,
    instance) segment over the window's frames, with oracle_pq_stats's
    ignore rules applied per frame; tubes are matched by match_segments.
    """
    frames = [_scoreable_segments(p, g, taxonomy) for p, g in zip(pred_seq, gt_seq)]
    stats = PqStats()
    for start in range(len(frames) - k + 1):
        window = list(enumerate(frames[start : start + k]))
        pred = _tubes((t, segs) for t, (segs, _) in window)
        gt = _tubes((t, segs) for t, (_, segs) in window)
        _add_matches(pred, gt, stats)
    return stats


def _scoreable_segments(pred: PanopticMap, gt: PanopticMap, taxonomy: ClassTaxonomy):
    """One frame's (pred, gt) segments: gt-void pixels and unassigned things removed."""
    gt_void = gt.classes.values == taxonomy.void_class_id
    pred = PanopticMap(
        LabelGrid(np.where(gt_void, taxonomy.void_class_id, pred.classes.values)),
        LabelGrid(np.where(gt_void, 0, pred.instances.values)),
    )

    def scoreable(pmap):
        return [
            s
            for s in extract_segments(pmap, taxonomy)
            if not (s.instance_id == 0 and taxonomy.is_thing(s.class_id))
        ]

    return scoreable(pred), scoreable(gt)


def _tubes(frames) -> list[Segment]:
    """Join (t, segments) pairs into one segment per (class, instance) over (t, x, y) pixels."""
    pixels: dict[tuple[int, int], set] = {}
    for t, segments in frames:
        for s in segments:
            tube = pixels.setdefault((s.class_id, s.instance_id), set())
            tube.update((t, x, y) for x, y in s.pixels)
    return [Segment(c, i, frozenset(p)) for (c, i), p in sorted(pixels.items())]


def _add_matches(pred, gt, stats: PqStats) -> PqStats:
    tps, fps, fns = match_segments(pred, gt)
    for _, g, value in tps:
        stats.add_tp(g.class_id, value)
    for p in fps:
        stats.add_fp(p.class_id)
    for g in fns:
        stats.add_fn(g.class_id)
    return stats


def assert_same_stats(got: PqStats, want: PqStats) -> None:
    """Per-class TP/FP/FN equal exactly; IoU sums may differ in summation order."""
    assert got.classes() == want.classes()
    for c in want.classes():
        *counts, iou_sum = got.cell(c)
        *want_counts, want_iou_sum = want.cell(c)
        assert counts == want_counts, c
        assert abs(iou_sum - want_iou_sum) <= 1e-12, c


def with_ignore_regions(pmap: PanopticMap, rng: Xoshiro256StarStar, void: bool) -> PanopticMap:
    """Unassign about 1/4 of the thing pixels and, if ``void``, void about 1/8 of all pixels."""
    classes = pmap.classes.values.astype(np.int64)
    instances = pmap.instances.values.astype(np.int64)
    for y in range(classes.shape[0]):
        for x in range(classes.shape[1]):
            roll = rng.next_below(8)
            if roll < 2 and classes[y, x] in (10, 11):
                instances[y, x] = 0
            elif roll == 2 and void:
                classes[y, x] = instances[y, x] = 0
    return PanopticMap(LabelGrid(classes), LabelGrid(instances))


def oracle_corrupt_masks(panoptic, background: np.ndarray, erode: int) -> list[PanopticMap]:
    """Per-instance ``binary_erosion`` with a full square and a zero border."""
    from scipy.ndimage import binary_erosion

    structure = np.ones((2 * erode + 1, 2 * erode + 1), dtype=bool)
    out = []
    for pmap in panoptic:
        classes = pmap.classes.values.copy()
        instances = pmap.instances.values.copy()
        for inst_id in np.unique(pmap.instances.values):
            if inst_id == 0:
                continue
            mask = pmap.instances.values == inst_id
            removed = mask & ~binary_erosion(mask, structure=structure, border_value=0)
            classes[removed] = background[removed]
            instances[removed] = 0
        out.append(PanopticMap(LabelGrid(classes), LabelGrid(instances)))
    return out


def oracle_match_greedy(matrix, threshold: float) -> list[tuple[int, int]]:
    """Greedy matches (cur, prev) in acceptance order: sort (-IoU, prev id, cur id) tuples."""
    candidates = sorted(
        (-float(matrix.values[r, c]), prev, cur)
        for r, cur in enumerate(matrix.current_ids)
        for c, prev in enumerate(matrix.previous_ids)
        if matrix.values[r, c] >= threshold
    )
    matches: dict[int, int] = {}
    for _, prev, cur in candidates:
        if cur not in matches and prev not in matches.values():
            matches[cur] = prev
    return list(matches.items())


def oracle_iou_matrix(warped: PanopticMap, prev: PanopticMap, taxonomy: ClassTaxonomy, class_strict=True):
    """build_iou_matrix per pixel: thing masks, np.unique overlap counts, a pixel-sort dominant class."""
    from vpskit.warpmatch import IoUMatrix

    maps = (warped, prev)
    masks = [taxonomy.thing_mask(m.classes.values) & (m.instances.values != 0) for m in maps]
    (cur_ids, cur_areas), (prev_ids, prev_areas) = (
        np.unique(m.instances.values[mask], return_counts=True) for m, mask in zip(maps, masks)
    )
    both = masks[0] & masks[1]
    inter = np.zeros((cur_ids.size, prev_ids.size), dtype=np.int64)
    rows = np.searchsorted(cur_ids, warped.instances.values[both])
    cols = np.searchsorted(prev_ids, prev.instances.values[both])
    np.add.at(inter, (rows, cols), 1)
    values = inter / (cur_areas[:, None] + prev_areas[None, :] - inter)

    def dominant(pmap, mask):  # per id ascending, its most frequent class, ties to the lower class
        pixels = np.stack([pmap.instances.values[mask], pmap.classes.values[mask]], axis=1)
        pairs, counts = np.unique(pixels, axis=0, return_counts=True)
        best: dict[int, tuple[int, int]] = {}
        for (instance_id, class_id), count in zip(pairs.tolist(), counts.tolist()):
            if instance_id not in best or count > best[instance_id][0]:
                best[instance_id] = (count, class_id)
        return np.array([best[i][1] for i in sorted(best)], dtype=np.int64)

    if class_strict and values.size:
        values[dominant(warped, masks[0])[:, None] != dominant(prev, masks[1])[None, :]] = 0.0
    return IoUMatrix(tuple(cur_ids.tolist()), tuple(prev_ids.tolist()), values)


def oracle_warp_backward(curr: PanopticMap, flow_prev_to_curr, void_class_id: int = 0):
    """Backward warp over full int64 pixel grids: round(p + flow(p)), outside -> 0 / void."""
    h, w = curr.instances.values.shape
    ys, xs = np.mgrid[0:h, 0:w]
    with np.errstate(invalid="ignore"):  # beyond int64 casts to a value outside the grid
        sx = np.floor(xs + flow_prev_to_curr.vectors[..., 0] + 0.5).astype(np.int64)
        sy = np.floor(ys + flow_prev_to_curr.vectors[..., 1] + 0.5).astype(np.int64)
    inside = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
    cx = np.clip(sx, 0, w - 1)
    cy = np.clip(sy, 0, h - 1)
    warped_inst = np.where(inside, curr.instances.values[cy, cx], np.uint32(0))
    warped_class = np.where(inside, curr.classes.values[cy, cx], np.uint32(void_class_id))
    return PanopticMap(LabelGrid(warped_class), LabelGrid(warped_inst))


def oracle_invert_flow(flow: FlowField) -> FlowField:
    """Forward splat over full int64 pixel grids; colliding votes resolved by one lexsort."""
    h, w = flow.vectors.shape[:2]
    ys, xs = np.mgrid[0:h, 0:w]
    dx = flow.vectors[..., 0]
    dy = flow.vectors[..., 1]
    with np.errstate(invalid="ignore"):  # beyond int64 casts to a value outside the grid
        tx = np.floor(xs + dx + 0.5).astype(np.int64).ravel()
        ty = np.floor(ys + dy + 0.5).astype(np.int64).ravel()
    moving = ((dx != 0) | (dy != 0)).ravel()
    voting = moving & (tx >= 0) & (tx < w) & (ty >= 0) & (ty < h)
    with np.errstate(over="ignore"):  # magnitudes past float32 tie at inf
        mag = (dx * dx + dy * dy).ravel()
    idx = np.arange(h * w)
    # descending (magnitude, source index), so the smallest, earliest vote lands last
    order = np.lexsort((idx[voting], mag[voting]))[::-1]
    src = idx[voting][order]
    out = np.zeros((h, w, 2), dtype=np.float32)
    out[ty[voting][order], tx[voting][order], 0] = -dx.ravel()[src]
    out[ty[voting][order], tx[voting][order], 1] = -dy.ravel()[src]
    return FlowField(out)


def oracle_violations(classes: np.ndarray, instances: np.ndarray, taxonomy: ClassTaxonomy):
    """validate_panoptic's violation list, by a pixel loop.

    Each unknown class once, ascending, at its first row-major pixel; then
    every stuff pixel that carries an instance, row-major.
    """
    first_pixel: dict[int, tuple[int, int]] = {}
    stuff = []
    for y, row in enumerate(classes.tolist()):
        for x, class_id in enumerate(row):
            if not taxonomy.has(class_id):
                first_pixel.setdefault(class_id, (x, y))
            elif taxonomy.is_stuff(class_id) and instances[y, x] != 0:
                instance = instances[y, x]
                stuff.append(f"pixel ({x}, {y}): stuff class {class_id} carries instance {instance}")
    unknown = [f"pixel ({x}, {y}): unknown class {c}" for c, (x, y) in sorted(first_pixel.items())]
    return unknown + stuff


def oracle_generate(config) -> tuple[list[PanopticMap], list[TrackedBox], list[FlowField]]:
    """A scene's frames, boxes and flows from full pixel grids.

    Each actor's footprint is an ``np.mgrid`` test; instances are painted in
    (depth, index) order; the class and flow grids are gathers by instance
    id from per-id tables, and each box is the extent of the ``np.nonzero``
    pixels its actor kept.
    """
    from vpskit.synth import RECTANGLE, background_classes

    background = background_classes(config).values
    actor_class = np.array([0] + [a.class_id for a in config.actors], dtype=np.uint32)
    velocity = np.array([(0.0, 0.0)] + [a.velocity for a in config.actors], dtype=np.float32)
    order = sorted(range(len(config.actors)), key=lambda i: (config.actors[i].depth, i))
    yy, xx = np.mgrid[0 : config.height, 0 : config.width]
    panoptic, boxes, flows = [], [], []
    for t in range(config.frames):
        footprints = []
        for actor in config.actors:
            x, y = actor.position(t)
            x_lo, x_hi = pixel_span(x, x + actor.size, config.width)
            y_lo, y_hi = pixel_span(y, y + actor.size, config.height)
            inside = (xx >= x_lo) & (xx < x_hi) & (yy >= y_lo) & (yy < y_hi)
            if actor.shape != RECTANGLE:
                r = actor.size / 2.0
                inside &= (xx + 0.5 - (x + r)) ** 2 + (yy + 0.5 - (y + r)) ** 2 <= r**2
            footprints.append(inside)
        instances = np.zeros_like(background)
        for i in order:
            instances[footprints[i]] = i + 1
        for i, actor in enumerate(config.actors):
            ys, xs = np.nonzero(instances == i + 1)
            if ys.size:
                box = (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1)
                boxes.append(TrackedBox(t, i + 1, actor.class_id, *map(float, box)))
        classes = np.where(instances == 0, background, actor_class[instances])
        panoptic.append(PanopticMap(LabelGrid(classes), LabelGrid(instances)))
        if t + 1 < config.frames:
            flows.append(FlowField(velocity[instances]))
    return panoptic, boxes, flows
