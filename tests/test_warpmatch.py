import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constant_flow,
    filled_grid,
    oracle_invert_flow,
    oracle_match_greedy,
    oracle_warp_backward,
    warpmatch_all,
    zero_flow,
)
from vpskit import warpmatch
from vpskit.core import ClassEntry, ClassTaxonomy, FlowField, LabelGrid, PanopticMap
from vpskit.errors import (
    DimensionMismatch,
    IncompleteAssignment,
    Overflow,
    SequenceLengthMismatch,
    UnknownClass,
)
from vpskit.rng import Xoshiro256StarStar
from vpskit.warpmatch import (
    IdAssignment,
    IoUMatrix,
    build_iou_matrix,
    invert_flow,
    match_ids,
    relabel,
    run_warpmatch_sequence,
    warp_backward,
)

TAX = ClassTaxonomy(
    entries=(
        ClassEntry(0, "void", "stuff"),
        ClassEntry(1, "road", "stuff"),
        ClassEntry(10, "person", "thing"),
        ClassEntry(11, "rider", "thing"),
    )
)


_TOP = (1 << 32) - 1
# Half-integers sit on the rounding boundary, and one float32 step off them
# float32 sums would round differently; the rest reach far outside the grid.
_FLOW_COMPONENT = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 2),
    st.builds(
        lambda k, toward: float(np.nextafter(np.float32(k / 2), np.float32(toward))),
        st.integers(-20, 20),
        st.sampled_from([-np.inf, np.inf]),
    ),
    st.floats(-1e6, 1e6, width=32),
    st.sampled_from([-3e38, -1e19, 1e19, 3e38]),
)


def pmap(class_rows, inst_rows):
    return PanopticMap(LabelGrid(np.array(class_rows)), LabelGrid(np.array(inst_rows)))


class TestWarpBackward:
    def test_zero_flow_is_identity(self):
        curr = PanopticMap(LabelGrid(np.full((3, 4), 1)), LabelGrid(np.arange(12).reshape(3, 4)))
        assert warp_backward(curr, zero_flow(4, 3)) == curr

    def test_constant_shift_with_out_of_bounds(self):
        inst = np.zeros((4, 4), dtype=np.int64)
        inst[1:3, 2:4] = 7
        cls = np.where(inst == 7, 10, 1)
        warped = warp_backward(pmap(cls, inst), constant_flow(4, 4, 1.0, 0.0))
        expected = np.zeros((4, 4), dtype=np.uint32)
        expected[1:3, 1:3] = 7
        assert np.array_equal(warped.instances.values, expected)
        # column x=3 samples x=4: out of bounds -> void class
        assert all(warped.classes.values[y, 3] == 0 for y in range(4))
        assert warped.classes.values[1, 1] == 10

    def test_fractional_flow_rounds_to_nearest(self):
        curr = pmap(np.full((2, 4), 1), np.arange(8).reshape(2, 4))
        warped = warp_backward(curr, constant_flow(4, 2, 0.4, 0.0))
        assert warped.instances == curr.instances  # +0.4 rounds back to the same pixel
        warped = warp_backward(curr, constant_flow(4, 2, 0.5, 0.0))
        inst = curr.instances.values
        assert np.array_equal(warped.instances.values[:, :3], inst[:, 1:])  # 0.5 rounds up

    @given(
        st.one_of(
            st.sampled_from([(1, 1), (1, 9), (9, 1)]),
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
        ),
        st.sampled_from([0, 1, _TOP]),
        st.data(),
    )
    @settings(max_examples=300)
    def test_matches_full_grid_oracle(self, shape, void, data):
        h, w = shape
        n = h * w
        labels = st.lists(st.integers(0, _TOP), min_size=n, max_size=n)
        components = st.lists(_FLOW_COMPONENT, min_size=2 * n, max_size=2 * n)
        inst = np.array(data.draw(labels), dtype=np.uint32).reshape(h, w)
        cls = np.array(data.draw(labels), dtype=np.uint32).reshape(h, w)
        flow = FlowField(np.array(data.draw(components), dtype=np.float32).reshape(h, w, 2))
        curr = pmap(cls, inst)
        assert warp_backward(curr, flow, void) == oracle_warp_backward(curr, flow, void)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            warp_backward(PanopticMap(filled_grid(3, 3), filled_grid(3, 3)), zero_flow(4, 3))


class TestInvertFlow:
    def test_zero_field(self):
        inv = invert_flow(zero_flow(5, 4))
        assert not inv.vectors.any()

    def test_constant_field_splat(self):
        inv = invert_flow(constant_flow(6, 6, 2.0, 0.0))
        # sources x in [0,6) vote at x+2; targets 2..5 get (-2, 0)
        assert np.array_equal(inv.vectors[:, 2:6, 0], np.full((6, 4), -2.0, dtype=np.float32))
        assert not inv.vectors[:, 0:2, :].any()
        assert not inv.vectors[..., 1].any()

    def test_single_moving_pixel(self):
        vec = np.zeros((6, 6, 2), dtype=np.float32)
        vec[1, 1] = (2.0, 1.0)
        inv = invert_flow(FlowField(vec))
        nz = np.nonzero(inv.vectors.any(axis=2))
        assert list(zip(*nz)) == [(2, 3)]  # (y, x) = (1+1, 1+2)
        assert inv.vectors[2, 3].tolist() == [-2.0, -1.0]

    def test_collision_keeps_smaller_magnitude(self):
        vec = np.zeros((1, 5, 2), dtype=np.float32)
        vec[0, 0] = (3.0, 0.0)  # lands on x=3, magnitude 9
        vec[0, 2] = (1.0, 0.0)  # lands on x=3, magnitude 1
        inv = invert_flow(FlowField(vec))
        assert inv.vectors[0, 3].tolist() == [-1.0, 0.0]

    def test_round_trips_translation_on_interior(self):
        # inverting the forward flow of a rigid shift yields the backward
        # flow wherever the splat landed
        fwd = constant_flow(8, 8, 3.0, 2.0)
        inv = invert_flow(fwd)
        assert inv.vectors[4, 5].tolist() == [-3.0, -2.0]

    @given(
        st.one_of(
            st.sampled_from([(1, 1), (1, 9), (9, 1)]),
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
        ),
        st.data(),
    )
    @settings(max_examples=300)
    def test_matches_full_grid_oracle(self, shape, data):
        h, w = shape
        components = st.lists(_FLOW_COMPONENT, min_size=2 * h * w, max_size=2 * h * w)
        flow = FlowField(np.array(data.draw(components), dtype=np.float32).reshape(h, w, 2))
        got = invert_flow(flow)
        # bytes, so -0.0 and 0.0 (equal as floats) must match too
        assert got.vectors.tobytes() == oracle_invert_flow(flow).vectors.tobytes()

    def test_matches_full_grid_oracle_on_many_tied_collisions(self):
        # Integer flows have few distinct magnitudes, so colliding votes tie often;
        # on this many votes an unstable sort would reorder the tied sources.
        flow = np.random.default_rng(7).integers(-2, 3, size=(40, 50, 2)).astype(np.float32)
        got = invert_flow(FlowField(flow))
        assert got.vectors.tobytes() == oracle_invert_flow(FlowField(flow)).vectors.tobytes()


class TestBuildIoUMatrix:
    def test_identical_masks_diagonal_ones(self):
        classes = [[1, 10, 10, 1], [1, 11, 11, 1], [10, 10, 1, 1]]
        instances = [[0, 1, 1, 0], [0, 2, 2, 0], [3, 3, 0, 0]]
        prev = pmap(classes, instances)
        matrix = build_iou_matrix(prev, prev, TAX)
        assert matrix.current_ids == (1, 2, 3)
        assert matrix.previous_ids == (1, 2, 3)
        assert np.array_equal(matrix.values, np.eye(3))

    def test_disjoint_masks_all_zero(self):
        warped = pmap([[10, 1], [1, 1]], [[4, 0], [0, 0]])
        prev = pmap([[1, 1], [1, 10]], [[0, 0], [0, 9]])
        matrix = build_iou_matrix(warped, prev, TAX)
        assert matrix.values.tolist() == [[0.0]]

    def test_hand_counted_overlaps(self):
        # warped instance 1: 4px row; prev 2: 4px block overlapping 2px of it;
        # prev 3: 4px column overlapping 1px -> entries 2/6 and 1/7
        warped_inst = np.zeros((4, 4), dtype=np.int64)
        warped_inst[0, :] = 1
        warped_cls = np.where(warped_inst > 0, 10, 1)
        prev_inst = np.zeros((4, 4), dtype=np.int64)
        prev_inst[0:2, 0:2] = 2
        prev_inst[0:4, 3] = 3
        prev_cls = np.where(prev_inst > 0, 10, 1)
        matrix = build_iou_matrix(pmap(warped_cls, warped_inst), pmap(prev_cls, prev_inst), TAX)
        assert matrix.current_ids == (1,)
        assert matrix.previous_ids == (2, 3)
        assert matrix.values[0, 0] == pytest.approx(2 / 6)
        assert matrix.values[0, 1] == pytest.approx(1 / 7)

    def test_class_strict_zeroes_mismatched_pairs(self):
        warped = pmap([[10, 10]], [[1, 1]])
        prev = pmap([[11, 11]], [[2, 2]])
        strict = build_iou_matrix(warped, prev, TAX, class_strict=True)
        assert strict.values.tolist() == [[0.0]]
        loose = build_iou_matrix(warped, prev, TAX, class_strict=False)
        assert loose.values.tolist() == [[1.0]]

    def test_class_strict_uses_majority_class_lower_id_on_ties(self):
        # warped 1 is 2x person, 2x rider (tie -> person); warped 3 is 1x person, 2x rider
        warped = pmap([[10, 10, 11, 11, 10, 11, 11]], [[1, 1, 1, 1, 3, 3, 3]])
        prev = pmap([[10, 10, 10, 10, 11, 11, 11]], [[4, 4, 4, 4, 6, 6, 6]])
        matrix = build_iou_matrix(warped, prev, TAX)
        assert matrix.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_stuff_and_unassigned_ignored(self):
        # nonzero id on a stuff pixel and thing pixels with id 0 don't participate
        warped = pmap([[1, 10]], [[5, 0]])
        prev = pmap([[10, 1]], [[0, 0]])
        matrix = build_iou_matrix(warped, prev, TAX)
        assert matrix.current_ids == ()
        assert matrix.previous_ids == ()


class TestMatchIds:
    def test_greedy_trace(self):
        matrix = IoUMatrix((0, 1), (0, 1), np.array([[0.9, 0.1], [0.0, 0.8]]))
        assert match_ids(matrix, 0.3) == {0: 0, 1: 1}

    def test_below_threshold_goes_fresh(self):
        matrix = IoUMatrix((7,), (3,), np.array([[0.2]]))
        assert match_ids(matrix, 0.3) == {}

    def test_empty_matrix(self):
        matrix = IoUMatrix((), (), np.zeros((0, 0)))
        assert match_ids(matrix, 0.3) == {}

    def test_tie_breaks_lower_previous_then_current(self):
        matrix = IoUMatrix((4, 9), (2, 6), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert match_ids(matrix, 0.3) == {4: 2, 9: 6}

    def test_greedy_on_tied_matrices_follows_sorted_tuple_rule(self):
        rng = Xoshiro256StarStar(0x71E)
        levels = (0.0, 0.3, 0.5, 0.5, 1.0)
        for _ in range(300):
            rows, cols = rng.next_below(6), rng.next_below(6)
            values = np.array(
                [levels[rng.next_below(len(levels))] for _ in range(rows * cols)]
            ).reshape(rows, cols)
            # unsorted ids, some near the top of the uint32 range
            pool = [1, 2, 3, 8, 40, (1 << 32) - 2, (1 << 32) - 1]
            rng.shuffle(pool)
            current = tuple(pool[:rows])
            rng.shuffle(pool)
            matrix = IoUMatrix(current, tuple(pool[:cols]), values)
            threshold = (0.0, 0.3, 0.5, 1.0)[rng.next_below(4)]
            got = match_ids(matrix, threshold)
            assert list(got.items()) == oracle_match_greedy(matrix, threshold)

    def test_greedy_prefers_largest_entry(self):
        # row 0 would take prev 0 at 0.6, but row 1 has 0.9 there first
        matrix = IoUMatrix((1, 2), (1, 2), np.array([[0.6, 0.4], [0.9, 0.0]]))
        assert match_ids(matrix, 0.3) == {2: 1, 1: 2}

    def test_optimal_agrees_on_unique_maximum_structure(self):
        rng = Xoshiro256StarStar(0x515)
        for _ in range(50):
            n = rng.next_int(1, 5)
            values = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    values[i, j] = rng.next_below(40) / 100.0
            for i in range(n):  # dominate the diagonal: unique row/col maxima
                values[i, i] = 0.6 + rng.next_below(40) / 100.0
            matrix = IoUMatrix(tuple(range(n)), tuple(range(n)), values)
            assert match_ids(matrix, 0.3, "greedy") == match_ids(matrix, 0.3, "optimal")

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_iou_entries_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"IoU entries must lie in \[0, 1\]"):
            IoUMatrix((1,), (2,), [[bad]])
        with pytest.raises(ValueError, match=r"IoU entries must lie in \[0, 1\]"):
            IoUMatrix((1, 3), (2,), [[0.5], [bad]])

    def test_threshold_validation(self):
        matrix = IoUMatrix((), (), np.zeros((0, 0)))
        with pytest.raises(ValueError):
            match_ids(matrix, 1.5)
        with pytest.raises(ValueError):
            match_ids(matrix, 0.3, "fancy")


class TestRelabel:
    def test_identity_assignment_is_noop(self):
        curr = pmap([[10, 10], [1, 1]], [[3, 3], [0, 0]])
        out, next_fresh_id = relabel(curr, IdAssignment({3: 3}, frozenset()), 4)
        assert out.instances == curr.instances
        assert next_fresh_id == 4

    def test_match_and_fresh_mix(self):
        curr = pmap([[10, 10]], [[1, 2]])
        out, next_fresh_id = relabel(
            curr,
            IdAssignment({1: 7}, frozenset({2})),
            10,
        )
        assert out.instances.values.tolist() == [[7, 10]]
        assert next_fresh_id == 11

    def test_all_fresh_ascending_original_order(self):
        curr = pmap([[10, 10, 10]], [[9, 2, 5]])
        out, next_fresh_id = relabel(
            curr,
            IdAssignment({}, frozenset({2, 5, 9})),
            100,
        )
        assert out.instances.values.tolist() == [[102, 100, 101]]
        assert next_fresh_id == 103

    def test_counter_advances_past_matched_ids(self):
        curr = pmap([[10]], [[1]])
        _, next_fresh_id = relabel(
            curr, IdAssignment({1: 50}, frozenset()), 10
        )
        assert next_fresh_id == 51

    def test_incomplete_assignment(self):
        curr = pmap([[10, 10]], [[1, 2]])
        with pytest.raises(IncompleteAssignment):
            relabel(curr, IdAssignment({1: 1}, frozenset()), 3)

    def test_fresh_id_beyond_uint32_is_overflow(self):
        curr = pmap([[10, 10]], [[1, 2]])
        assignment = IdAssignment({1: 1}, frozenset({2}))
        out, next_fresh_id = relabel(curr, assignment, (1 << 32) - 1)
        assert out.instances.values.tolist() == [[1, (1 << 32) - 1]]
        assert next_fresh_id == 1 << 32
        with pytest.raises(Overflow):
            relabel(curr, assignment, next_fresh_id)

    @pytest.mark.parametrize("target", [1 << 32, -1, 0])
    def test_match_target_outside_uint32_is_overflow(self, target):
        # 0 is the "no instance" sentinel: a mask relabeled to it would lose its support
        curr = pmap([[10, 10]], [[1, 2]])
        with pytest.raises(Overflow, match=f"match target {target} "):
            relabel(curr, IdAssignment({1: target}, frozenset({2})), 3)

    @pytest.mark.parametrize("next_fresh_id", [0, -5])
    def test_fresh_id_below_one_is_overflow(self, next_fresh_id):
        curr = pmap([[10, 10]], [[1, 3]])
        with pytest.raises(Overflow, match=f"fresh id {next_fresh_id} "):
            relabel(curr, IdAssignment({1: 1}, frozenset({3})), next_fresh_id)

    def test_unused_next_fresh_id_is_not_checked(self):
        curr = pmap([[10, 10]], [[1, 3]])
        out, next_fresh_id = relabel(curr, IdAssignment({1: 1, 3: 3}, frozenset()), 0)
        assert out.instances == curr.instances
        assert next_fresh_id == 4

    def test_class_grid_untouched_and_support_preserved(self):
        curr = pmap([[10, 11], [1, 1]], [[1, 2], [0, 0]])
        out, _ = relabel(
            curr, IdAssignment({1: 2, 2: 1}, frozenset()), 3
        )
        assert out.classes == curr.classes
        assert np.array_equal(out.instances.values != 0, curr.instances.values != 0)


def static_scene(frames=3, permutes=None, seed=0xBEEF):
    """Two static actors on a road; selected frames get their ids permuted."""
    classes = np.full((6, 8), 1, dtype=np.int64)
    classes[1:3, 1:3] = 10
    classes[3:5, 5:7] = 10
    base_inst = np.zeros((6, 8), dtype=np.int64)
    base_inst[1:3, 1:3] = 1
    base_inst[3:5, 5:7] = 2
    rng = Xoshiro256StarStar(seed)
    seq = []
    for t in range(frames):
        inst = base_inst.copy()
        if permutes and t in permutes:
            swap = {1: 2, 2: 1}
            inst = np.vectorize(lambda v: swap.get(v, v))(base_inst)
        seq.append(pmap(classes, inst))
    return seq


class TestSequence:
    def test_single_frame_passthrough(self):
        seq = static_scene(frames=1)
        out = warpmatch_all(seq, [], TAX)
        assert out[0] == seq[0]

    @pytest.mark.parametrize("frame", [0, 1, 2])
    def test_unknown_class_in_any_frame_is_rejected(self, frame):
        seq = static_scene(frames=3)
        classes = seq[frame].classes.values.copy()
        classes[5, 7] = 99  # the +1 px flow samples it at (6, 5) of the warped grid
        seq[frame] = PanopticMap(LabelGrid(classes), seq[frame].instances)
        flows = [constant_flow(8, 6, 1.0, 0.0) for _ in range(2)]
        with pytest.raises(UnknownClass, match=r"^class 99 at pixel \(7, 5\) not in taxonomy$"):
            warpmatch_all(seq, flows, TAX)

    def test_unknown_class_in_single_frame_is_rejected(self):
        seq = static_scene(frames=1)
        classes = seq[0].classes.values.copy()
        classes[0, 0] = 99
        with pytest.raises(UnknownClass):
            warpmatch_all([PanopticMap(LabelGrid(classes), seq[0].instances)], [], TAX)

    @pytest.mark.parametrize(
        "kwargs", [{"threshold": 5.0}, {"threshold": float("nan")}, {"matcher": "best"}]
    )
    def test_matching_options_checked_before_any_frame(self, kwargs):
        with pytest.raises(ValueError):
            run_warpmatch_sequence(static_scene(frames=1), [], TAX, **kwargs)
        with pytest.raises(ValueError):
            run_warpmatch_sequence([], [], TAX, **kwargs)

    def test_flow_count_mismatch(self):
        seq = static_scene(frames=3)
        with pytest.raises(SequenceLengthMismatch):
            warpmatch_all(seq, [zero_flow(8, 6)], TAX)

    def test_each_output_frame_waits_for_the_next_input_frame(self):
        seq = static_scene(frames=3, permutes={1})
        pulled = []

        def frames():
            for t, pmap in enumerate(seq):
                pulled.append(t)
                yield pmap

        out = run_warpmatch_sequence(frames(), [zero_flow(8, 6)] * 2, TAX)
        assert pulled == []
        assert next(out) == seq[0]
        assert pulled == [0, 1]  # frame 1 was read and checked before frame 0 went out
        assert next(out).instances == seq[0].instances
        assert pulled == [0, 1, 2]
        assert next(out).instances == seq[0].instances
        assert next(out, None) is None

    def test_a_bad_second_frame_fails_before_any_frame_is_yielded(self):
        seq = static_scene(frames=2)
        classes = seq[1].classes.values.copy()
        classes[0, 0] = 99
        seq[1] = PanopticMap(LabelGrid(classes), seq[1].instances)
        out = run_warpmatch_sequence(iter(seq), [zero_flow(8, 6)], TAX)
        with pytest.raises(UnknownClass):
            next(out)

    @pytest.mark.parametrize("frames, flows", [(0, 1), (1, 1), (3, 1), (3, 3)])
    def test_flow_count_mismatch_fails_before_the_last_frame(self, frames, flows):
        seq = static_scene(frames=frames) if frames else []
        out = run_warpmatch_sequence(seq, [zero_flow(8, 6)] * flows, TAX)
        with pytest.raises(SequenceLengthMismatch):
            for _ in range(max(frames, 1)):  # frames - 1 of them go out
                next(out)

    def test_static_permuted_frame_restored(self):
        seq = static_scene(frames=2, permutes={1})
        flows = [zero_flow(8, 6)]
        out = warpmatch_all(seq, flows, TAX)
        assert out[1].instances == out[0].instances

    def test_transitive_consistency_over_many_frames(self):
        seq = static_scene(frames=6, permutes={1, 2, 4})
        flows = [zero_flow(8, 6) for _ in range(5)]
        out = warpmatch_all(seq, flows, TAX)
        for frame in out[1:]:
            assert frame.instances == out[0].instances

    def test_class_channel_identity(self):
        seq = static_scene(frames=4, permutes={2})
        flows = [zero_flow(8, 6) for _ in range(3)]
        out = warpmatch_all(seq, flows, TAX)
        for inp, q in zip(seq, out):
            assert q.classes == inp.classes

    def test_support_preservation(self):
        seq = static_scene(frames=3, permutes={1, 2})
        flows = [zero_flow(8, 6) for _ in range(2)]
        out = warpmatch_all(seq, flows, TAX)
        for inp, q in zip(seq, out):
            assert np.array_equal(q.instances.values != 0, inp.instances.values != 0)

    def test_unmatched_instances_get_fresh_unique_ids(self):
        # frame 1 adds an actor that frame 0 never had
        classes0 = np.full((4, 4), 1, dtype=np.int64)
        classes0[0, 0] = 10
        inst0 = np.zeros((4, 4), dtype=np.int64)
        inst0[0, 0] = 3
        classes1 = classes0.copy()
        classes1[3, 3] = 10
        inst1 = inst0.copy()
        inst1[3, 3] = 3 - 2  # reuses a low id for the newcomer
        inst1[0, 0] = 9
        seq = [pmap(classes0, inst0), pmap(classes1, inst1)]
        out = warpmatch_all(seq, [zero_flow(4, 4)], TAX)
        assert out[1].instances.values[0, 0] == 3  # matched to the old actor
        newcomer = int(out[1].instances.values[3, 3])
        assert newcomer == 4  # fresh id allocated after frame-0 max (3)

    def test_instances_outside_the_matrix_get_fresh_ids_with_unmatched_rows(self):
        # frame 1: 7 matches frame 0's 4; 5 is an unmatched matrix row; 2 sits only on
        # stuff pixels and 3 is never sampled by the warp, so neither enters the matrix
        classes0 = np.array([[1, 1, 1, 1, 10, 10, 1, 1]] * 2)
        inst0 = np.array([[0, 0, 0, 0, 4, 4, 0, 0]] * 2)
        classes1 = np.array([[10, 1, 11, 1, 10, 10, 1, 1]] * 2)
        inst1 = np.array([[3, 0, 5, 0, 7, 7, 0, 2]] * 2)
        vec = np.zeros((2, 8, 2), dtype=np.float32)
        vec[:, 0, 0] = 1.0  # column 0 samples column 1: nothing samples column 0
        flow = FlowField(vec)
        prev, curr = pmap(classes0, inst0), pmap(classes1, inst1)
        warped = warp_backward(curr, flow, TAX.void_class_id)
        assert build_iou_matrix(warped, prev, TAX).current_ids == (5, 7)

        out = warpmatch_all([prev, curr], [flow], TAX)
        # fresh ids from 5 (frame 0's max is 4), ascending in the original id: 2, 3, 5
        assert out[1].instances.values.tolist() == [[6, 0, 7, 0, 4, 4, 0, 5]] * 2

    def test_vanishing_instance_id_not_resurrected(self):
        # actor present in frames 0 and 2 but absent in 1: gets a fresh id at 2
        classes = np.full((4, 4), 1, dtype=np.int64)
        classes[0, 0] = 10
        inst = np.zeros((4, 4), dtype=np.int64)
        inst[0, 0] = 1
        empty = pmap(np.full((4, 4), 1, dtype=np.int64), np.zeros((4, 4), dtype=np.int64))
        seq = [pmap(classes, inst), empty, pmap(classes, inst)]
        out = warpmatch_all(seq, [zero_flow(4, 4)] * 2, TAX)
        assert int(out[2].instances.values[0, 0]) != 1  # memory horizon is one frame

    def test_top_id_in_first_frame_then_fresh_id_is_overflow(self):
        top = (1 << 32) - 1
        first = pmap([[10, 1, 1]], [[top, 0, 0]])
        second = pmap([[1, 1, 10]], [[0, 0, 5]])  # disjoint from the first mask
        with pytest.raises(Overflow):
            warpmatch_all([first, second], [zero_flow(3, 1)], TAX)

    @pytest.mark.parametrize("frames", [2, 5])
    def test_one_id_assignment_per_frame(self, frames, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return IdAssignment(*args, **kwargs)

        monkeypatch.setattr(warpmatch, "IdAssignment", counting)
        seq = static_scene(frames=frames, permutes={1, 3})
        warpmatch_all(seq, [zero_flow(8, 6)] * (frames - 1), TAX)
        assert len(built) == frames - 1

    def test_determinism_byte_identical(self):
        seq = static_scene(frames=5, permutes={1, 3})
        flows = [zero_flow(8, 6) for _ in range(4)]
        a = warpmatch_all(seq, flows, TAX)
        b = warpmatch_all(seq, flows, TAX)
        for x, y in zip(a, b):
            assert x.instances.values.tobytes() == y.instances.values.tobytes()
            assert x.classes.values.tobytes() == y.classes.values.tobytes()

    def test_actor_exiting_the_frame(self):
        # actor slides off the left edge; once its warped support vanishes
        # nothing matches, and the run must not fail
        frames = 6
        seq = []
        flows = []
        for t in range(frames):
            classes = np.full((4, 8), 1, dtype=np.int64)
            inst = np.zeros((4, 8), dtype=np.int64)
            x0, x1 = max(0, 4 - 2 * t), max(0, 6 - 2 * t)
            if x0 < x1:
                classes[1:3, x0:x1] = 10
                inst[1:3, x0:x1] = 1
            seq.append(pmap(classes, inst))
        for t in range(1, frames):
            vec = np.zeros((4, 8, 2), dtype=np.float32)
            prev_inst = seq[t - 1].instances.values
            vec[prev_inst == 1, 0] = -2.0
            flows.append(FlowField(vec))
        out = warpmatch_all(seq, flows, TAX)
        assert int(out[1].instances.values.max()) == 1  # still matched while visible
        assert not out[3].instances.values.any()  # fully gone

    def test_translating_actor_with_exact_flow(self):
        # 2x2 actor sliding right by 1px/frame; ids shuffled per frame
        frames = 5
        seq = []
        flows = []
        for t in range(frames):
            classes = np.full((5, 10), 1, dtype=np.int64)
            inst = np.zeros((5, 10), dtype=np.int64)
            classes[1:3, 1 + t : 3 + t] = 10
            inst[1:3, 1 + t : 3 + t] = (t % 3) + 1  # arbitrary per-frame id
            seq.append(pmap(classes, inst))
        for t in range(1, frames):
            vec = np.zeros((5, 10, 2), dtype=np.float32)
            vec[1:3, t : 2 + t, 0] = 1.0  # actor pixels at t-1 move +1 in x
            flows.append(FlowField(vec))
        out = warpmatch_all(seq, flows, TAX)
        first_id = int(out[0].instances.values[1, 1])
        for t, frame in enumerate(out):
            actor_ids = set(np.unique(frame.instances.values)) - {0}
            assert actor_ids == {first_id}
