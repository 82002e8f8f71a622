"""Panoptic quality (PQ) per frame and video panoptic quality (VPQ) over windows.

Segments match iff they share a class and their IoU strictly exceeds 0.5,
which makes every match unique. VPQ slides a k-frame window over the
sequence, joins segments into (class, instance) tubes whose IoU is the
ratio of summed per-frame intersections to summed per-frame unions, and
accumulates TP/FP/FN stats over every window start before averaging.

Conventions fixed here: pixels that are void in the ground truth are
removed from both maps before matching; thing-class pixels with instance 0
("unassigned things", e.g. missed detections) are ignore regions on both
sides - they are neither predictions nor targets; classes absent from both
maps are excluded from class averages.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ClassTaxonomy, PanopticMap, overlap_table, unpack_keys
from .core import extract_segments  # noqa: F401 - not called; perfbench/spans.py traces this name here
from .defaults import DEFAULT_WINDOW_SIZES
from .errors import DimensionMismatch, SequenceLengthMismatch

MATCH_IOU_THRESHOLD = 0.5  # strict: a pair matches only when IoU > this


class PqStats:
    """Per-class TP/FP/FN counters with the IoU sum over true positives."""

    def __init__(self):
        self._cells: dict[int, list] = defaultdict(lambda: [0, 0, 0, 0.0])

    def add_tp(self, class_id: int, iou_value: float) -> None:
        cell = self._cells[class_id]
        cell[0] += 1
        cell[3] += iou_value

    def add_fp(self, class_id: int) -> None:
        self._cells[class_id][1] += 1

    def add_fn(self, class_id: int) -> None:
        self._cells[class_id][2] += 1

    def classes(self) -> list[int]:
        return sorted(self._cells)

    def cell(self, class_id: int) -> tuple[int, int, int, float]:
        tp, fp, fn, iou_sum = self._cells.get(class_id, [0, 0, 0, 0.0])
        return tp, fp, fn, iou_sum


@dataclass(frozen=True)
class ClassMetrics:
    pq: float
    sq: float
    rq: float
    tp: int
    fp: int
    fn: int
    iou_sum: float


@dataclass(frozen=True)
class MetricReport:
    """Per-class and aggregate PQ scores, plus VPQ per window size when video."""

    per_class: Mapping[int, ClassMetrics]
    pq: float
    sq: float
    rq: float
    vpq_per_k: Mapping[int, float]
    vpq_mean: float | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "pq": {
                "per_class": {
                    str(c): {
                        "pq": _round6(m.pq),
                        "sq": _round6(m.sq),
                        "rq": _round6(m.rq),
                        "tp": m.tp,
                        "fp": m.fp,
                        "fn": m.fn,
                    }
                    for c, m in sorted(self.per_class.items())
                },
                "mean": _round6(self.pq),
                "sq": _round6(self.sq),
                "rq": _round6(self.rq),
            }
        }
        if self.vpq_per_k:
            vpq = {f"k={k}": _round6(v) for k, v in sorted(self.vpq_per_k.items())}
            vpq["mean"] = _round6(self.vpq_mean if self.vpq_mean is not None else 0.0)
            doc["vpq"] = vpq
        return doc


def _round6(value: float) -> float:
    return float(f"{value:.6f}")


def pq_stats(pred: PanopticMap, gt: PanopticMap, taxonomy: ClassTaxonomy) -> PqStats:
    """Single-frame PQ stats: the k=1 window over one frame table."""
    return _accumulate([_frame_table(pred, gt, taxonomy)], 1)


def report_from_stats(
    stats: PqStats,
    vpq_per_k: Mapping[int, float] | None = None,
    vpq_mean: float | None = None,
) -> MetricReport:
    per_class = {}
    for class_id in stats.classes():
        tp, fp, fn, iou_sum = stats.cell(class_id)
        if tp + fp + fn == 0:
            continue
        denom = tp + 0.5 * fp + 0.5 * fn
        sq = iou_sum / tp if tp else 0.0
        rq = tp / denom
        per_class[class_id] = ClassMetrics(
            pq=iou_sum / denom, sq=sq, rq=rq, tp=tp, fp=fp, fn=fn, iou_sum=iou_sum
        )
    n = len(per_class)
    return MetricReport(
        per_class=per_class,
        pq=sum(m.pq for m in per_class.values()) / n if n else 0.0,
        sq=sum(m.sq for m in per_class.values()) / n if n else 0.0,
        rq=sum(m.rq for m in per_class.values()) / n if n else 0.0,
        vpq_per_k=dict(vpq_per_k or {}),
        vpq_mean=vpq_mean,
    )


def pq(pred: PanopticMap, gt: PanopticMap, taxonomy: ClassTaxonomy) -> MetricReport:
    """Panoptic quality of one frame pair."""
    return report_from_stats(pq_stats(pred, gt, taxonomy))


def _frame_table(
    pred: PanopticMap, gt: PanopticMap, taxonomy: ClassTaxonomy
) -> tuple[Counter, Counter, Counter]:
    """One frame's pred areas, gt areas and pred x gt intersections, by (class, instance) key.

    Every pixel is counted once, and validity is decided per label (see the module docstring).
    """
    if pred.classes.values.shape != gt.classes.values.shape:
        raise DimensionMismatch(
            f"pred {pred.width}x{pred.height} vs gt {gt.width}x{gt.height}"
        )
    table = overlap_table(
        (pred.classes.values, pred.instances.values), None,
        (gt.classes.values, gt.instances.values), None,
    )
    pred_classes, pred_ids = unpack_keys(table.a_labels)
    gt_classes, gt_ids = unpack_keys(table.b_labels)
    # pred before gt, so an unknown class in both is named in pred, as before
    pred_things = taxonomy._label_things(pred_classes, pred.classes.values)
    gt_things = taxonomy._label_things(gt_classes, gt.classes.values)
    void = np.uint32(taxonomy.void_class_id)
    gt_void = gt_classes == void
    gt_valid = ~gt_void & ~(gt_things & (gt_ids == 0))
    pred_areas = table.a_areas.copy()
    on_void = gt_void[table.b_index]
    np.subtract.at(pred_areas, table.a_index[on_void], table.shared[on_void])
    pred_valid = (pred_classes != void) & ~(pred_things & (pred_ids == 0)) & (pred_areas > 0)
    kept = pred_valid[table.a_index] & gt_valid[table.b_index]
    pred_keys = list(zip(pred_classes.tolist(), pred_ids.tolist()))
    gt_keys = list(zip(gt_classes.tolist(), gt_ids.tolist()))
    pred_areas, gt_areas = pred_areas.tolist(), table.b_areas.tolist()
    pairs = zip(*(column[kept].tolist() for column in (table.a_index, table.b_index, table.shared)))
    return (
        Counter({pred_keys[p]: pred_areas[p] for p in np.flatnonzero(pred_valid).tolist()}),
        Counter({gt_keys[g]: gt_areas[g] for g in np.flatnonzero(gt_valid).tolist()}),
        Counter({(pred_keys[p], gt_keys[g]): count for p, g, count in pairs}),
    )


def _window_stats(tables: Sequence[tuple[Counter, Counter, Counter]], stats: PqStats) -> None:
    # summed in frame order, so keys keep first-seen order and IoUs add up in it
    pred_total, gt_total, inter_total = Counter(), Counter(), Counter()
    for pred_area, gt_area, inter in tables:
        pred_total.update(pred_area)
        gt_total.update(gt_area)
        inter_total.update(inter)

    matched_pred: set = set()
    matched_gt: set = set()
    for (p_key, g_key), inter in inter_total.items():
        if p_key[0] != g_key[0]:
            continue
        union = pred_total[p_key] + gt_total[g_key] - inter
        value = inter / union
        if value > MATCH_IOU_THRESHOLD:
            if p_key in matched_pred or g_key in matched_gt:
                raise RuntimeError(
                    "IoU > 0.5 produced a double tube match; matching rule violated"
                )
            matched_pred.add(p_key)
            matched_gt.add(g_key)
            stats.add_tp(p_key[0], value)
    for p_key in pred_total:
        if p_key not in matched_pred:
            stats.add_fp(p_key[0])
    for g_key in gt_total:
        if g_key not in matched_gt:
            stats.add_fn(g_key[0])


def _accumulate(tables: Sequence[tuple[Counter, Counter, Counter]], k: int) -> PqStats:
    """Tube stats of every k-frame window of the tables, accumulated over the start positions."""
    stats = PqStats()
    for start in range(len(tables) - k + 1):
        _window_stats(tables[start : start + k], stats)
    return stats


def vpq(
    pred_seq: Iterable[PanopticMap],
    gt_seq: Iterable[PanopticMap],
    taxonomy: ClassTaxonomy,
    window_sizes: Sequence[int] = DEFAULT_WINDOW_SIZES,
) -> MetricReport:
    """Video panoptic quality over k-frame tube windows.

    VPQ^k accumulates tube stats over every window start position; the
    headline VPQ is the mean over the requested window sizes. Window sizes
    exceeding the sequence length are skipped. The report's per-class PQ
    section accumulates single-frame stats over all frames: the k=1 window
    stats, from the same frame tables as every other window size.

    Both sequences may be any iterables, each pulled once: a frame pair's
    table is built as the pair is pulled, and only the tables are kept. If
    one sequence ends before the other, the rest of the longer is counted
    for the error message.
    """
    sizes = sorted(set(int(k) for k in window_sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError(f"window sizes must be >= 1, got {list(window_sizes)}")

    tables = []
    preds, gts = iter(pred_seq), iter(gt_seq)
    while True:
        # each pair is dropped before the next is pulled; zip_longest would keep the last one
        pred, gt = next(preds, None), next(gts, None)
        if pred is None or gt is None:
            break
        tables.append(_frame_table(pred, gt, taxonomy))
        del pred, gt
    if pred is not None or gt is not None:  # the sequences parted: count the rest of the longer
        rest = 1 + sum(1 for _ in (gts if pred is None else preds))
        pred_count = len(tables) + (0 if pred is None else rest)
        gt_count = len(tables) + (rest if pred is None else 0)
        raise SequenceLengthMismatch(
            f"{pred_count} predicted frames vs {gt_count} ground-truth frames"
        )
    if not tables:
        raise ValueError("empty sequences cannot be evaluated")

    # The PQ section is the k=1 accumulation: every frame is one window.
    frame_stats = _accumulate(tables, 1)
    vpq_per_k: dict[int, float] = {}
    for k in sizes:
        if k <= len(tables):
            stats = frame_stats if k == 1 else _accumulate(tables, k)
            vpq_per_k[k] = report_from_stats(stats).pq

    mean = sum(vpq_per_k.values()) / len(vpq_per_k) if vpq_per_k else None
    return report_from_stats(frame_stats, vpq_per_k=vpq_per_k, vpq_mean=mean)
