import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_stats,
    brute_force_match,
    match_keys,
    match_segments,
    mean_pq_over,
    oracle_pq_stats,
    oracle_vpq_stats,
    random_panoptic_map,
    small_taxonomy,
    with_ignore_regions,
)
from vpskit.core import LabelGrid, PanopticMap, Segment, extract_segments
from vpskit.errors import DimensionMismatch, SequenceLengthMismatch, UnknownClass
from vpskit.metrics import (
    ClassMetrics,
    MetricReport,
    PqStats,
    _frame_table,
    _window_stats,
    pq,
    pq_stats,
    report_from_stats,
    vpq,
)
from vpskit.rng import Xoshiro256StarStar

TAX = small_taxonomy()


def pmap(class_rows, inst_rows):
    return PanopticMap(LabelGrid(np.array(class_rows)), LabelGrid(np.array(inst_rows)))


def seg(class_id, instance_id, pixels):
    return Segment(class_id, instance_id, frozenset(pixels))


class TestMatchSegments:
    def test_identical_lists_all_tp(self):
        segs = [seg(10, 1, {(0, 0), (1, 0)}), seg(1, 0, {(2, 0)})]
        tps, fps, fns = match_segments(segs, segs)
        assert len(tps) == 2 and not fps and not fns
        assert all(value == 1.0 for _, _, value in tps)

    def test_eight_of_ten_is_tp(self):
        gt_pixels = {(x, 0) for x in range(10)}
        pred_pixels = {(x, 0) for x in range(8)}
        tps, fps, fns = match_segments(
            [seg(10, 1, pred_pixels)], [seg(10, 2, gt_pixels)]
        )
        assert len(tps) == 1 and not fps and not fns
        assert tps[0][2] == pytest.approx(0.8)

    def test_exactly_half_is_not_a_match(self):
        gt_pixels = {(x, 0) for x in range(10)}
        pred_pixels = {(x, 0) for x in range(6)} | {(0, 1), (1, 1)}
        tps, fps, fns = match_segments(
            [seg(10, 1, pred_pixels)], [seg(10, 2, gt_pixels)]
        )
        assert not tps and len(fps) == 1 and len(fns) == 1

    def test_class_mismatch_never_matches(self):
        pixels = {(0, 0)}
        tps, fps, fns = match_segments([seg(10, 1, pixels)], [seg(11, 1, pixels)])
        assert not tps and len(fps) == 1 and len(fns) == 1

    def test_agrees_with_brute_force_on_random_maps(self):
        rng = Xoshiro256StarStar(0x6A7C)
        for _ in range(60):
            w, h = rng.next_int(2, 16), rng.next_int(2, 16)
            pred = random_panoptic_map(rng, w, h)
            gt = random_panoptic_map(rng, w, h)
            pred_segs = extract_segments(pred, TAX)
            gt_segs = extract_segments(gt, TAX)
            tps, _, _ = match_segments(pred_segs, gt_segs)
            assert match_keys(tps) == brute_force_match(pred_segs, gt_segs)


class TestPq:
    def test_identity_is_one(self):
        x = pmap([[1, 10], [1, 10]], [[0, 4], [0, 4]])
        report = pq(x, x, TAX)
        assert report.pq == 1.0
        assert set(report.per_class) == {1, 10}

    def test_eight_of_ten_single_class(self):
        gt_cls = np.zeros((1, 10), dtype=np.int64) + 10
        gt_inst = np.ones((1, 10), dtype=np.int64)
        pred_cls = np.where(np.arange(10) < 8, 10, 0).reshape(1, 10)
        pred_inst = np.where(np.arange(10) < 8, 1, 0).reshape(1, 10)
        report = pq(pmap(pred_cls, pred_inst), pmap(gt_cls, gt_inst), TAX)
        assert report.per_class[10].pq == pytest.approx(0.8)
        assert report.pq == pytest.approx(0.8)

    def test_pred_all_void_scores_zero(self):
        gt = pmap([[10, 10]], [[1, 1]])
        pred = pmap([[0, 0]], [[0, 0]])
        report = pq(pred, gt, TAX)
        assert report.pq == 0.0
        assert report.per_class[10].fn == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pq(pmap([[1]], [[0]]), pmap([[1, 1]], [[0, 0]]), TAX)

    def test_gt_void_removed_from_both(self):
        # pred labels the gt-void column; it must not count as FP
        gt = pmap([[10, 0]], [[1, 0]])
        pred = pmap([[10, 1]], [[1, 0]])
        report = pq(pred, gt, TAX)
        assert report.pq == 1.0
        assert set(report.per_class) == {10}

    def test_unassigned_things_are_ignore_regions(self):
        # pred leaves the actor unassigned (instance 0): FN, but no FP
        gt = pmap([[10, 10], [1, 1]], [[5, 5], [0, 0]])
        pred = pmap([[10, 10], [1, 1]], [[0, 0], [0, 0]])
        report = pq(pred, gt, TAX)
        cell = report.per_class[10]
        assert (cell.tp, cell.fp, cell.fn) == (0, 0, 1)
        assert report.per_class[1].pq == 1.0

    def test_pq_is_sq_times_rq(self):
        rng = Xoshiro256StarStar(0x99)
        for _ in range(30):
            w, h = rng.next_int(2, 12), rng.next_int(2, 12)
            report = pq(
                random_panoptic_map(rng, w, h), random_panoptic_map(rng, w, h), TAX
            )
            for metrics in report.per_class.values():
                assert metrics.pq == pytest.approx(metrics.sq * metrics.rq)
                assert 0.0 <= metrics.pq <= 1.0
                assert metrics.iou_sum <= metrics.tp + 1e-9

    def test_identity_is_one_on_random_maps(self):
        rng = Xoshiro256StarStar(0x77)
        for _ in range(25):
            x = random_panoptic_map(rng, rng.next_int(2, 12), rng.next_int(2, 12))
            if extract_segments(x, TAX):
                assert pq(x, x, TAX).pq == 1.0


class TestVpq:
    def test_two_frame_static_identity(self):
        x = pmap([[1, 10], [1, 10]], [[0, 4], [0, 4]])
        report = vpq([x, x], [x, x], TAX, window_sizes=(2,))
        assert report.vpq_per_k[2] == 1.0
        assert report.vpq_mean == 1.0

    def test_id_swap_scores_zero(self):
        # two equal-area disjoint objects on void; pred swaps ids in frame 2
        classes = np.zeros((1, 4), dtype=np.int64)
        classes[0, 0] = 10
        classes[0, 2] = 10
        inst_a = np.zeros((1, 4), dtype=np.int64)
        inst_a[0, 0] = 1
        inst_a[0, 2] = 2
        inst_b = np.zeros((1, 4), dtype=np.int64)
        inst_b[0, 0] = 2
        inst_b[0, 2] = 1
        gt = [pmap(classes, inst_a), pmap(classes, inst_a)]
        pred = [pmap(classes, inst_a), pmap(classes, inst_b)]
        report = vpq(pred, gt, TAX, window_sizes=(2,))
        # tube IoU = a / 3a = 1/3 for every pairing: nothing matches
        assert report.vpq_per_k[2] == 0.0

    def test_k1_equals_accumulated_frame_pq(self):
        rng = Xoshiro256StarStar(0x1234)
        pred = [random_panoptic_map(rng, 9, 7) for _ in range(4)]
        gt = [random_panoptic_map(rng, 9, 7) for _ in range(4)]
        report = vpq(pred, gt, TAX, window_sizes=(1,))
        acc = PqStats()
        for p, g in zip(pred, gt):
            oracle_pq_stats(p, g, TAX, acc)
        assert report.vpq_per_k[1] == pytest.approx(report_from_stats(acc).pq, abs=1e-12)
        # the report's own pq section is that same accumulation
        assert report.vpq_per_k[1] == pytest.approx(report.pq, abs=1e-12)

    # 4 frames: the k=1 windows (4, for the PQ section, requested or not), then 3 for k=2, 2 for k=3
    @pytest.mark.parametrize("sizes, windows", [((1, 2), 4 + 3), ((2, 3), 4 + 3 + 2), ((1,), 4)])
    def test_each_window_is_scored_once(self, sizes, windows, monkeypatch):
        import vpskit.metrics as metrics

        calls = []
        real = metrics._window_stats
        monkeypatch.setattr(
            metrics, "_window_stats", lambda tables, stats: calls.append(tables) or real(tables, stats)
        )
        rng = Xoshiro256StarStar(0x77)
        seq = [random_panoptic_map(rng, 6, 5) for _ in range(4)]
        vpq(seq, seq, TAX, window_sizes=sizes)
        assert len(calls) == windows

    def test_global_bijection_leaves_vpq_unchanged(self):
        rng = Xoshiro256StarStar(0x51)
        gt = [random_panoptic_map(rng, 8, 8) for _ in range(3)]
        pred = gt
        renamed = []
        for frame in pred:
            values = frame.instances.values.astype(np.int64)
            renamed_values = np.where(values != 0, values + 500, 0)
            renamed.append(PanopticMap(frame.classes, LabelGrid(renamed_values)))
        base = vpq(pred, gt, TAX)
        moved = vpq(renamed, gt, TAX)
        assert base.vpq_per_k == moved.vpq_per_k
        assert base.vpq_mean == moved.vpq_mean

    def test_window_sizes_beyond_length_skipped(self):
        x = pmap([[1]], [[0]])
        report = vpq([x, x], [x, x], TAX, window_sizes=(1, 2, 3, 4))
        assert set(report.vpq_per_k) == {1, 2}

    def test_length_mismatch(self):
        x = pmap([[1]], [[0]])
        with pytest.raises(SequenceLengthMismatch):
            vpq([x], [x, x], TAX)

    def test_bad_window_sizes(self):
        x = pmap([[1]], [[0]])
        with pytest.raises(ValueError):
            vpq([x], [x], TAX, window_sizes=(0,))
        with pytest.raises(ValueError):
            vpq([x], [x], TAX, window_sizes=())

    def test_report_json_shape_and_rounding(self):
        x = pmap([[1, 10]], [[0, 1]])
        pred = pmap([[1, 10]], [[0, 3]])
        doc = vpq([pred, pred], [x, x], TAX, window_sizes=(1, 2)).to_json_dict()
        assert set(doc) == {"pq", "vpq"}
        assert set(doc["vpq"]) == {"k=1", "k=2", "mean"}
        for value in doc["vpq"].values():
            assert value == round(value, 6)
        assert "per_class" in doc["pq"] and "mean" in doc["pq"]

    def test_tube_across_absence_gap(self):
        # actor visible in frames 0 and 2 only; a k=3 tube still scores it
        on_cls = np.array([[10, 1]])
        on_inst = np.array([[7, 0]])
        off_cls = np.array([[1, 1]])
        off_inst = np.array([[0, 0]])
        seq = [pmap(on_cls, on_inst), pmap(off_cls, off_inst), pmap(on_cls, on_inst)]
        report = vpq(seq, seq, TAX, window_sizes=(3,))
        assert report.vpq_per_k[3] == 1.0


class TestEngineAgainstOracle:
    @given(st.integers(0, 2**64 - 1), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_table_engine_equals_pixel_set_oracle(self, seed, frames):
        rng = Xoshiro256StarStar(seed)
        w, h = rng.next_int(2, 10), rng.next_int(2, 10)
        pred, gt = [], []
        for _ in range(frames):
            pred.append(with_ignore_regions(random_panoptic_map(rng, w, h), rng, void=False))
            gt.append(with_ignore_regions(random_panoptic_map(rng, w, h), rng, void=True))
        for p, g in zip(pred, gt):
            assert_same_stats(pq_stats(p, g, TAX), oracle_pq_stats(p, g, TAX))
        report = vpq(pred, gt, TAX, window_sizes=(1,))
        assert report.vpq_per_k[1] == report.pq

    @given(st.integers(0, 2**64 - 1), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_tube_windows_equal_pixel_set_tube_oracle(self, seed, frames):
        rng = Xoshiro256StarStar(seed)
        w, h = rng.next_int(2, 8), rng.next_int(2, 8)
        pred, gt = [], []
        for _ in range(frames):
            pred.append(with_ignore_regions(random_panoptic_map(rng, w, h), rng, void=True))
            gt.append(with_ignore_regions(random_panoptic_map(rng, w, h), rng, void=True))
        tables = [_frame_table(p, g, TAX) for p, g in zip(pred, gt)]
        report = vpq(pred, gt, TAX, window_sizes=range(1, frames + 1))
        for k in range(1, frames + 1):
            stats = PqStats()
            for start in range(frames - k + 1):
                _window_stats(tables[start : start + k], stats)
            want = oracle_vpq_stats(pred, gt, TAX, k)
            assert_same_stats(stats, want)
            assert report.vpq_per_k[k] == pytest.approx(report_from_stats(want).pq, abs=1e-12)


class TestUnknownClassOrder:
    """The frame table decides validity per label, yet an unknown class is named as a pixel scan names it."""

    GT = [[1, 0, 0, 1], [1, 0, 10, 10]]
    INST = [[0, 0, 0, 0], [0, 0, 3, 3]]

    def test_pred_class_only_on_gt_void_pixels_is_named(self):
        # class 99 lies only where gt is void, so no valid pred pixel carries it
        pred_classes = [[1, 99, 99, 1], [1, 99, 10, 10]]
        gt = pmap(self.GT, self.INST)
        with pytest.raises(UnknownClass, match=r"^class 99 at pixel \(1, 0\) not in taxonomy$"):
            vpq([gt, pmap(pred_classes, self.INST)], [gt, gt], TAX, window_sizes=(1, 2))

    def test_unknown_classes_on_both_sides_name_pred(self):
        # gt's unknown id is lower and comes first in row-major order; pred's is still named
        pred_classes = [[1, 0, 0, 1], [1, 98, 10, 10]]
        gt_classes = [[97, 0, 0, 1], [1, 0, 10, 10]]
        with pytest.raises(UnknownClass, match=r"^class 98 at pixel \(1, 1\) not in taxonomy$"):
            vpq([pmap(pred_classes, self.INST)], [pmap(gt_classes, self.INST)], TAX, window_sizes=(1,))

    def test_gt_unknown_class_is_named_when_pred_has_none(self):
        gt_classes = [[1, 0, 0, 1], [1, 0, 10, 97]]
        with pytest.raises(UnknownClass, match=r"^class 97 at pixel \(3, 1\) not in taxonomy$"):
            vpq([pmap(self.GT, self.INST)], [pmap(gt_classes, self.INST)], TAX, window_sizes=(1,))


class TestMeanPqOver:
    def test_accepts_a_generator(self):
        pqs = {1: 1.0, 10: 0.5, 11: 1.0, 2: 0.0}
        per_class = {c: ClassMetrics(v, v, 1.0, 1, 0, 0, v) for c, v in pqs.items()}
        report = MetricReport(per_class, pq=0.625, sq=0.625, rq=1.0, vpq_per_k={})
        assert mean_pq_over(report, (c for c in (1, 10, 11))) == pytest.approx(2.5 / 3)
