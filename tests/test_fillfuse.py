import numpy as np
import pytest

from helpers import brute_force_ownership
from vpskit.core import ClassEntry, ClassTaxonomy, LabelGrid, validate_panoptic
from vpskit.errors import UnknownClass
from vpskit.fillfuse import (
    TrackedBox,
    fill_and_fuse,
    rasterize_ownership,
    run_fillfuse_sequence,
)
from vpskit.rng import Xoshiro256StarStar

TAX = ClassTaxonomy(
    entries=(
        ClassEntry(0, "void", "stuff"),
        ClassEntry(1, "road", "stuff"),
        ClassEntry(10, "person", "thing"),
        ClassEntry(11, "rider", "thing"),
    )
)
BINDING = {10: 10, 11: 11}


def box(track_id, x0, y0, x1, y1, frame=0, class_id=10):
    return TrackedBox(frame=frame, track_id=track_id, class_id=class_id, x0=x0, y0=y0, x1=x1, y1=y1)


class TestTrackedBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            box(1, 3, 0, 3, 2)
        with pytest.raises(ValueError):
            box(0, 0, 0, 1, 1)  # track 0 reserved

    def test_rejects_track_id_beyond_uint32(self):
        assert box((1 << 32) - 1, 0, 0, 1, 1).track_id == (1 << 32) - 1
        with pytest.raises(ValueError, match="32-bit"):
            box(1 << 32, 0, 0, 1, 1)

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            TrackedBox(frame=-1, track_id=1, class_id=10, x0=0, y0=0, x1=1, y1=1)


class TestRasterizeOwnership:
    def test_no_boxes_all_zero(self):
        grid = rasterize_ownership([], 4, 4)
        assert not grid.values.any()

    def test_single_box_half_open_interior(self):
        grid = rasterize_ownership([box(5, 1, 1, 3, 3)], 4, 4)
        owned = {(x, y) for y in range(4) for x in range(4) if grid.values[y, x] == 5}
        assert owned == {(1, 1), (2, 1), (1, 2), (2, 2)}
        assert set(np.unique(grid.values)) == {0, 5}

    def test_overlap_goes_to_smaller_area(self):
        small = box(9, 0, 0, 2, 2)  # area 4
        large = box(2, 1, 1, 4, 4)  # area 9
        grid = rasterize_ownership([large, small], 5, 5)
        assert grid.values[1, 1] == 9  # overlap pixel
        expected = brute_force_ownership([large, small], 5, 5)
        assert np.array_equal(grid.values.astype(np.int64), expected)

    def test_area_tie_goes_to_lower_track(self):
        a = box(7, 0, 0, 2, 2)
        b = box(3, 1, 0, 3, 2)
        grid = rasterize_ownership([a, b], 4, 3)
        assert grid.values[0, 1] == 3

    def test_clipping_and_out_of_bounds(self):
        grid = rasterize_ownership([box(4, -2, -2, 1, 1)], 3, 3)
        assert grid.values[0, 0] == 4
        assert grid.values.sum() == 4
        empty = rasterize_ownership([box(4, 10, 10, 12, 12)], 3, 3)
        assert not empty.values.any()

    def test_fractional_coords_pixel_center_rule(self):
        # pixel x is inside iff x0 <= x + 0.5 < x1
        grid = rasterize_ownership([box(1, 0.4, 0.0, 1.6, 1.0)], 3, 1)
        assert grid.values.tolist() == [[1, 1, 0]]
        # [0.6, 1.4) straddles no pixel center (centers sit at x + 0.5)
        grid = rasterize_ownership([box(1, 0.6, 0.0, 1.4, 1.0)], 3, 1)
        assert grid.values.tolist() == [[0, 0, 0]]

    def test_same_track_boxes_merge(self):
        grid = rasterize_ownership([box(2, 0, 0, 1, 1), box(2, 2, 0, 3, 1)], 3, 1)
        assert grid.values.tolist() == [[2, 0, 2]]

    def test_mixed_frames_rejected(self):
        with pytest.raises(ValueError):
            rasterize_ownership([box(1, 0, 0, 1, 1, frame=0), box(2, 0, 0, 1, 1, frame=1)], 2, 2)

    def test_matches_brute_force_on_random_cases(self):
        rng = Xoshiro256StarStar(0xF1F0)
        for _ in range(100):
            w, h = rng.next_int(1, 16), rng.next_int(1, 16)
            boxes = []
            for _ in range(rng.next_int(0, 5)):
                x0 = rng.next_int(-3, w - 1) + rng.next_below(2) * 0.5
                y0 = rng.next_int(-3, h - 1) + rng.next_below(2) * 0.5
                boxes.append(
                    box(
                        rng.next_int(1, 6),
                        x0,
                        y0,
                        x0 + rng.next_int(1, 6),
                        y0 + rng.next_int(1, 6),
                    )
                )
            got = rasterize_ownership(boxes, w, h).values.astype(np.int64)
            assert np.array_equal(got, brute_force_ownership(boxes, w, h))

    def test_order_invariance(self):
        boxes = [box(3, 0, 0, 3, 3), box(5, 1, 1, 3, 4), box(2, 2, 0, 4, 2)]
        grids = [
            rasterize_ownership(order, 5, 5).values
            for order in (boxes, boxes[::-1], [boxes[1], boxes[0], boxes[2]])
        ]
        assert np.array_equal(grids[0], grids[1])
        assert np.array_equal(grids[0], grids[2])


def semantic_4x4_with_person_block():
    classes = np.full((4, 4), 1, dtype=np.int64)
    classes[1:3, 1:3] = 10
    return LabelGrid(classes)


class TestFillAndFuse:
    def test_no_boxes_identity_classes_zero_instances(self):
        semantic = semantic_4x4_with_person_block()
        out = fill_and_fuse(semantic, [], TAX, BINDING)
        assert out.classes == semantic
        assert not out.instances.values.any()

    def test_bitwise_and_of_class_mask_and_box(self):
        semantic = semantic_4x4_with_person_block()
        out = fill_and_fuse(semantic, [box(5, 1, 0, 3, 3)], TAX, BINDING)
        expected = np.zeros((4, 4), dtype=np.uint32)
        expected[1:3, 1:3] = 5  # person pixels inside the box
        assert np.array_equal(out.instances.values, expected)
        assert out.classes == semantic  # road inside the box keeps class + instance 0
        assert validate_panoptic(out.classes, out.instances, TAX) == []

    def test_person_outside_all_boxes_keeps_instance_zero(self):
        semantic = semantic_4x4_with_person_block()
        out = fill_and_fuse(semantic, [box(5, 0, 0, 1, 1)], TAX, BINDING)
        assert not out.instances.values.any()
        # the person pixels are still labeled person, just unassigned
        assert np.array_equal(out.classes.values[1:3, 1:3], np.full((2, 2), 10))

    def test_unknown_semantic_class(self):
        with pytest.raises(UnknownClass):
            fill_and_fuse(LabelGrid(np.array([[77]])), [], TAX, BINDING)

    def test_unbound_category_ignored(self):
        semantic = semantic_4x4_with_person_block()
        stray = box(5, 0, 0, 4, 4, class_id=42)  # category 42 not bound
        out = fill_and_fuse(semantic, [stray], TAX, BINDING)
        assert not out.instances.values.any()

    def test_binding_maps_category_to_class(self):
        semantic = semantic_4x4_with_person_block()
        binding = {1: 10}  # tracker category 1 -> person
        out = fill_and_fuse(semantic, [box(5, 1, 1, 3, 3, class_id=1)], TAX, binding)
        assert out.instances.values[1, 1] == 5

    def test_binding_must_map_to_thing(self):
        with pytest.raises(UnknownClass):
            fill_and_fuse(
                semantic_4x4_with_person_block(),
                [],
                TAX,
                {1: 1},  # road is stuff
            )

    def test_instance_support_subset_of_class_and_box(self):
        rng = Xoshiro256StarStar(0xAB)
        for _ in range(50):
            w, h = rng.next_int(2, 10), rng.next_int(2, 10)
            classes = np.array(
                [[(1, 10, 11)[rng.next_below(3)] for _ in range(w)] for _ in range(h)]
            )
            semantic = LabelGrid(classes)
            boxes = []
            for _ in range(rng.next_int(0, 3)):
                x0, y0 = rng.next_below(w), rng.next_below(h)
                track = rng.next_int(1, 4)
                boxes.append(
                    box(
                        track,
                        x0,
                        y0,
                        x0 + rng.next_int(1, 4),
                        y0 + rng.next_int(1, 4),
                        class_id=(10, 11)[track % 2],  # class consistent per track
                    )
                )
            out = fill_and_fuse(semantic, boxes, TAX, BINDING)
            own = rasterize_ownership(boxes, w, h)
            track_class = {b.track_id: b.class_id for b in boxes}
            nz = np.nonzero(out.instances.values)
            for y, x in zip(*nz):
                t = int(out.instances.values[y, x])
                assert int(own.values[y, x]) == t
                assert int(classes[y, x]) == track_class[t]

    def test_disjoint_boxes_rule_independent(self):
        # with disjoint boxes the output cannot depend on the overlap rule:
        # compare smallest-area-first against a largest-area-first variant
        semantic = semantic_4x4_with_person_block()
        boxes = [box(2, 0, 0, 2, 2), box(7, 2, 2, 4, 4)]
        out = fill_and_fuse(semantic, boxes, TAX, BINDING)
        alt_owner = np.zeros((4, 4), dtype=np.uint32)
        for b in sorted(boxes, key=lambda b: (b.area, b.track_id)):  # reversed rule
            alt_owner[int(b.y0) : int(b.y1), int(b.x0) : int(b.x1)] = b.track_id
        alt_instances = np.where(semantic.values == 10, alt_owner, 0)
        assert np.array_equal(out.instances.values, alt_instances)


class TestSequence:
    def test_per_frame_independence_and_track_persistence(self):
        semantic = semantic_4x4_with_person_block()
        tracks = [box(5, 1, 1, 3, 3, frame=0), box(5, 1, 1, 3, 3, frame=1)]
        out = list(run_fillfuse_sequence([semantic, semantic], tracks, TAX, BINDING))
        assert len(out) == 2
        assert np.array_equal(out[0].instances.values, out[1].instances.values)
        assert out[0].instances.values[1, 1] == 5

    def test_empty_tracks(self):
        semantic = semantic_4x4_with_person_block()
        out = list(run_fillfuse_sequence([semantic] * 3, [], TAX, BINDING))
        assert all(not m.instances.values.any() for m in out)

    def test_track_frame_out_of_range(self):
        semantic = semantic_4x4_with_person_block()
        with pytest.raises(ValueError, match="frame 5"):
            list(run_fillfuse_sequence([semantic], [box(1, 0, 0, 1, 1, frame=5)], TAX, BINDING))

    def test_box_order_does_not_change_output(self):
        semantic = semantic_4x4_with_person_block()
        tracks = [box(5, 0, 0, 3, 3), box(2, 1, 1, 4, 4), box(9, 2, 0, 4, 3)]
        a = list(run_fillfuse_sequence([semantic], tracks, TAX, BINDING))
        b = list(run_fillfuse_sequence([semantic], tracks[::-1], TAX, BINDING))
        assert np.array_equal(a[0].instances.values, b[0].instances.values)
