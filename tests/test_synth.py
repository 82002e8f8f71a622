import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_corrupt_masks, oracle_generate, small_taxonomy
from vpskit.core import LabelGrid, PanopticMap
from vpskit.errors import InvalidConfig
from vpskit.metrics import pq, vpq
from vpskit.synth import (
    Actor,
    Band,
    SceneConfig,
    corrupt_boxes,
    corrupt_masks,
    corrupt_shuffle_ids,
    _validate_config,
    generate,
)
from vpskit.warpmatch import warp_backward

TAX = small_taxonomy()


def scene(width=6, height=6, frames=2, actors=(), background=(Band(1),), seed=0):
    return SceneConfig(
        width=width,
        height=height,
        frames=frames,
        taxonomy=TAX,
        background=tuple(background),
        actors=tuple(actors),
        seed=seed,
    )


def rect(class_id=10, size=2, start=(1, 1), velocity=(0, 0), depth=0):
    return Actor("rectangle", class_id, size, start, velocity, depth)


class TestValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            generate(scene(frames=0))
        with pytest.raises(InvalidConfig):
            generate(scene(actors=[rect(size=1)]))
        with pytest.raises(InvalidConfig):
            generate(scene(actors=[rect(class_id=1)]))  # stuff actor
        with pytest.raises(InvalidConfig):
            generate(scene(background=[Band(10)]))  # thing band
        with pytest.raises(InvalidConfig):
            generate(scene(actors=[Actor("triangle", 10, 3, (0, 0), (0, 0))]))

    def test_rejects_more_pixels_than_the_readers_accept(self):
        # Only the validation runs: generating this scene would allocate about 40 GB.
        with pytest.raises(InvalidConfig, match="exceeds"):
            _validate_config(scene(width=100_000, height=100_000))
        with pytest.raises(InvalidConfig, match="exceeds"):
            _validate_config(scene(width=(1 << 14) + 1, height=1 << 14))
        _validate_config(scene(width=1 << 14, height=1 << 14))  # exactly the cap

    @pytest.mark.parametrize("height", ["5", 5.0, True])
    def test_rejects_non_integer_band_height(self, height):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            _validate_config(scene(background=[Band(1, height), Band(2)]))

    @pytest.mark.parametrize(
        "start, velocity, frames",
        [
            ((float("inf"), 0), (0, 0), 1),
            ((0, 0), (float("inf"), 0), 1),  # never moves, but 0 * inf is nan
            ((0, 0), (0, float("nan")), 3),
            ((1e308, 0), (1e308, 0), 3),  # finite inputs, 3e308 by the last frame
        ],
    )
    def test_rejects_positions_outside_the_float_range(self, start, velocity, frames):
        config = scene(frames=frames, actors=[rect(start=start, velocity=velocity)])
        with pytest.raises(InvalidConfig, match="finite"):
            _validate_config(config)

    @pytest.mark.parametrize(
        "start",
        [(1, 1), (-1e30, 0)],  # visible in frame 0, and never visible
    )
    def test_rejects_velocity_beyond_the_float32_range(self, start):
        # generate casts velocities to float32: 1e39 would become inf with a RuntimeWarning
        config = scene(actors=[rect(start=start, velocity=(1e39, 0))])
        with pytest.raises(InvalidConfig, match="float32"):
            _validate_config(config)

    def test_accepts_the_largest_float32_velocity(self):
        top = float(np.finfo(np.float32).max)
        _validate_config(scene(actors=[rect(start=(-1e30, 0), velocity=(top, -top))]))

    def test_config_json_round_trip(self):
        config = scene(
            actors=[rect(velocity=(1, 0)), Actor("disk", 11, 4, (2.0, 2.0), (0.5, -1.0), 3)],
            background=(Band(1, 4), Band(2)),
            seed=99,
        )
        assert SceneConfig.from_dict(config.to_dict()) == config


class TestGenerate:
    def test_static_actor_constant_frames_zero_flow(self):
        bundle = generate(scene(frames=4, actors=[rect()]))
        first = bundle.panoptic[0]
        for frame in bundle.panoptic[1:]:
            assert frame.classes == first.classes
            assert frame.instances == first.instances
        for flow in bundle.flows:
            assert not flow.vectors.any()

    def test_moving_rectangle_geometry(self):
        bundle = generate(scene(frames=2, actors=[rect(velocity=(1, 0))]))
        (box,) = [b for b in bundle.boxes if b.frame == 1]
        assert (box.x0, box.x1, box.y0, box.y1) == (2.0, 4.0, 1.0, 3.0)
        flow = bundle.flows[0].vectors
        moving = np.nonzero(flow[..., 0])
        assert set(zip(*moving)) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert np.all(flow[1:3, 1:3, 0] == 1.0)
        assert not flow[..., 1].any()

    def test_instance_ids_are_actor_indices(self):
        bundle = generate(
            scene(width=10, actors=[rect(start=(0, 0)), rect(class_id=11, start=(5, 3))])
        )
        values = set(np.unique(bundle.panoptic[0].instances.values)) - {0}
        assert values == {1, 2}

    def test_depth_occlusion(self):
        low = rect(start=(1, 1), depth=1)
        high = Actor("rectangle", 11, 2, (2, 2), (0, 0), depth=2)
        bundle = generate(scene(actors=[low, high]))
        inst = bundle.panoptic[0].instances.values
        assert inst[2, 2] == 2  # overlap pixel carries the deeper (higher) actor
        assert inst[1, 1] == 1

    def test_boxes_are_tight(self):
        config = scene(
            width=12,
            height=10,
            frames=3,
            actors=[rect(size=4, velocity=(1, 1)), Actor("disk", 11, 5, (6, 2), (-1, 0), 1)],
        )
        bundle = generate(config)
        for box in bundle.boxes:
            mask = bundle.panoptic[box.frame].instances.values == box.track_id
            ys, xs = np.nonzero(mask)
            assert xs.min() == box.x0 and xs.max() + 1 == box.x1
            assert ys.min() == box.y0 and ys.max() + 1 == box.y1

    def test_actor_exits_frame(self):
        bundle = generate(scene(frames=5, actors=[rect(start=(4, 1), velocity=(1, 0))]))
        # actor fully out after x start >= 6: frame 2 covers x in {6,7} -> gone
        assert [b.frame for b in bundle.boxes] == [0, 1]
        assert not bundle.panoptic[2].instances.values.any()

    def test_disk_shape_is_round(self):
        bundle = generate(scene(width=9, height=9, frames=1, actors=[Actor("disk", 10, 5, (2, 2), (0, 0))]))
        mask = bundle.panoptic[0].instances.values == 1
        assert not mask[2, 2]  # corner of the bounding square is outside the disk
        assert mask[4, 4]  # center is inside
        assert mask.sum() < 25

    def test_disk_covers_pixel_centres_on_its_circle(self):
        # centre (2.5, 2.5), radius 2: pixel centres (0.5, 2.5) and (2.5, 0.5) lie on the circle
        disk = Actor("disk", 10, 4, (0.5, 0.5), (0, 0))
        inst = generate(scene(frames=1, actors=[disk])).panoptic[0].instances.values
        assert inst[2, 0] == 1 and inst[0, 2] == 1
        assert inst[0, 0] == 0

    def test_deterministic_byte_identical(self):
        config = scene(frames=3, actors=[rect(velocity=(1, 0)), rect(class_id=11, start=(3, 3))])
        a = generate(config)
        b = generate(config)
        for ma, mb in zip(a.panoptic, b.panoptic):
            assert ma.instances.values.tobytes() == mb.instances.values.tobytes()
            assert ma.classes.values.tobytes() == mb.classes.values.tobytes()
        for fa, fb in zip(a.flows, b.flows):
            assert fa.vectors.tobytes() == fb.vectors.tobytes()
        assert a.boxes == b.boxes

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_grid_oracle(self, data):
        # overlaps, depth ties, disks of size 2-3, fractional motion, actors leaving the frame
        width, height = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 12))
        coords = st.integers(-60, 60).map(lambda n: n / 4)
        actors = data.draw(
            st.lists(
                st.builds(
                    Actor,
                    shape=st.sampled_from(["rectangle", "disk"]),
                    class_id=st.sampled_from([10, 11]),
                    size=st.sampled_from([2, 3]) | st.integers(2, 9),
                    start=st.tuples(coords, coords),
                    velocity=st.tuples(coords, coords),
                    depth=st.integers(0, 2),
                ),
                max_size=6,
            )
        )
        config = scene(width, height, data.draw(st.integers(1, 4)), actors, (Band(1, 1), Band(2)))
        bundle = generate(config)
        panoptic, boxes, flows = oracle_generate(config)
        for got, want in zip(bundle.panoptic, panoptic, strict=True):
            assert got.classes.values.tobytes() == want.classes.values.tobytes()
            assert got.instances.values.tobytes() == want.instances.values.tobytes()
        for got, want in zip(bundle.flows, flows, strict=True):
            assert got.vectors.tobytes() == want.vectors.tobytes()
        assert bundle.boxes == boxes

    def test_band_layout(self):
        bundle = generate(scene(height=7, background=(Band(1, 2), Band(2))))
        classes = bundle.panoptic[0].classes.values
        assert np.all(classes[:2] == 1)
        assert np.all(classes[2:] == 2)

    def test_gt_flow_reproduces_previous_frame_on_covisible_pixels(self):
        config = scene(
            width=16,
            height=12,
            frames=4,
            actors=[rect(size=3, velocity=(2, 1)), Actor("disk", 11, 4, (9, 2), (-1, 2), 1)],
        )
        bundle = generate(config)
        for t in range(1, config.frames):
            prev = bundle.panoptic[t - 1]
            curr = bundle.panoptic[t]
            warped_inst, _ = warp_backward(
                curr.instances, curr.classes, bundle.flows[t - 1], TAX.void_class_id
            )
            h, w = prev.instances.values.shape
            for y in range(h):
                for x in range(w):
                    i = int(prev.instances.values[y, x])
                    if i == 0:
                        if curr.instances.values[y, x] == 0:
                            assert warped_inst.values[y, x] == 0
                        continue
                    actor = config.actors[i - 1]
                    qx = x + int(actor.velocity[0])
                    qy = y + int(actor.velocity[1])
                    if 0 <= qx < w and 0 <= qy < h and curr.instances.values[qy, qx] == i:
                        assert warped_inst.values[y, x] == i


class TestCorruptShuffle:
    def make_bundle(self, frames=6):
        return generate(
            scene(
                width=10,
                height=8,
                frames=frames,
                actors=[rect(start=(1, 1)), rect(class_id=11, start=(6, 4))],
            )
        )

    def test_support_and_classes_untouched(self):
        bundle = self.make_bundle()
        shuffled, _ = corrupt_shuffle_ids(bundle.panoptic, seed=5)
        for orig, shuf in zip(bundle.panoptic, shuffled):
            assert shuf.classes == orig.classes
            assert np.array_equal(shuf.instances.values != 0, orig.instances.values != 0)

    def test_per_frame_pq_stays_one_while_vpq_degrades(self):
        bundle = self.make_bundle()
        shuffled, mappings = corrupt_shuffle_ids(bundle.panoptic, seed=5)
        assert any(m != {1: 1, 2: 2} for m in mappings)  # seed 5 actually shuffles
        for pred, gt in zip(shuffled, bundle.panoptic):
            assert pq(pred, gt, TAX).pq == 1.0
        report = vpq(shuffled, bundle.panoptic, TAX, window_sizes=(2, 3, 4))
        assert all(v < 1.0 for v in report.vpq_per_k.values())

    def test_recorded_permutations_invert(self):
        bundle = self.make_bundle()
        shuffled, mappings = corrupt_shuffle_ids(bundle.panoptic, seed=11)
        for orig, shuf, mapping in zip(bundle.panoptic, shuffled, mappings):
            inverse = {new: old for old, new in mapping.items()}
            restored = shuf.instances.values.copy()
            for new, old in inverse.items():
                restored[shuf.instances.values == np.uint32(new)] = old
            assert np.array_equal(restored, orig.instances.values)

    def test_replays_bit_exactly(self):
        bundle = self.make_bundle()
        a, _ = corrupt_shuffle_ids(bundle.panoptic, seed=3)
        b, _ = corrupt_shuffle_ids(bundle.panoptic, seed=3)
        for x, y in zip(a, b):
            assert x.instances.values.tobytes() == y.instances.values.tobytes()


class TestCorruptBoxes:
    def make_bundle(self):
        return generate(
            scene(width=12, height=10, frames=4, actors=[rect(size=3), rect(class_id=11, start=(7, 5), size=3)])
        )

    def test_identity_when_no_jitter_no_drop(self):
        bundle = self.make_bundle()
        assert corrupt_boxes(bundle.boxes, jitter=0, drop_rate=0.0, seed=1) == bundle.boxes

    def test_drop_rate_one_empties_everything(self):
        bundle = self.make_bundle()
        assert corrupt_boxes(bundle.boxes, jitter=0, drop_rate=1.0, seed=1) == []

    def test_jitter_offsets_replay(self):
        bundle = self.make_bundle()
        a = corrupt_boxes(bundle.boxes, jitter=1, drop_rate=0.0, seed=42)
        b = corrupt_boxes(bundle.boxes, jitter=1, drop_rate=0.0, seed=42)
        assert a == b
        assert any(x != y for x, y in zip(a, bundle.boxes))  # seed 42 moves something

    def test_jitter_bounded(self):
        bundle = self.make_bundle()
        jittered = corrupt_boxes(bundle.boxes, jitter=2, drop_rate=0.0, seed=7)
        by_key = {(b.frame, b.track_id): b for b in bundle.boxes}
        for box in jittered:
            orig = by_key[box.frame, box.track_id]
            for attr in ("x0", "y0", "x1", "y1"):
                assert abs(getattr(box, attr) - getattr(orig, attr)) <= 2

    def test_parameter_validation(self):
        bundle = self.make_bundle()
        with pytest.raises(ValueError):
            corrupt_boxes(bundle.boxes, jitter=-1, drop_rate=0.0, seed=0)
        with pytest.raises(ValueError):
            corrupt_boxes(bundle.boxes, jitter=0, drop_rate=1.5, seed=0)


class TestCorruptMasks:
    def test_zero_erosion_is_identity(self):
        bundle = generate(scene(actors=[rect()]))
        assert corrupt_masks(bundle.panoptic, bundle.background_classes, erode=0) == bundle.panoptic

    def test_small_actor_vanishes(self):
        bundle = generate(scene(actors=[rect(size=2)]))
        eroded = corrupt_masks(bundle.panoptic, bundle.background_classes, erode=1)
        assert not eroded[0].instances.values.any()
        assert (eroded[0].classes.values == 1).all()  # back to the band class

    def test_large_actor_loses_boundary_ring(self):
        bundle = generate(scene(width=12, height=12, actors=[rect(size=6, start=(3, 3))]))
        eroded = corrupt_masks(bundle.panoptic, bundle.background_classes, erode=1)
        before = int((bundle.panoptic[0].instances.values == 1).sum())
        after = int((eroded[0].instances.values == 1).sum())
        assert before == 36
        assert after == 16  # 6x6 minus its 1px ring = 4x4
        kept = eroded[0].instances.values == 1
        assert kept[4:8, 4:8].all()

    def test_radius_far_beyond_the_frame_costs_no_more_than_the_frame(self):
        bundle = generate(scene(actors=[rect(size=4)]))
        background = bundle.background_classes
        tracemalloc.start()
        try:
            far = corrupt_masks(bundle.panoptic, background, erode=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"erode 2000 on a 6x6 frame peaked at {peak} bytes"
        assert far == corrupt_masks(bundle.panoptic, background, erode=6)
        assert not any(m.instances.values.any() for m in far)

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 9), st.data())
    @settings(max_examples=150, deadline=None)  # the oracle imports scipy on first use
    def test_matches_per_instance_binary_erosion(self, h, w, erode, data):
        # ids near the top of the uint32 range; radii up to larger than the frame
        ids = st.sampled_from([0, 0, 1, 2, (1 << 32) - 2, (1 << 32) - 1])
        instances = np.array(
            data.draw(st.lists(ids, min_size=h * w, max_size=h * w)), dtype=np.uint32
        ).reshape(h, w)
        background = np.where(np.arange(h * w).reshape(h, w) < h * w // 2, 1, 2)
        classes = np.where(instances != 0, 10, background)
        frame = PanopticMap(LabelGrid(classes), LabelGrid(instances))
        eroded = corrupt_masks([frame], LabelGrid(background), erode)
        assert eroded == oracle_corrupt_masks([frame], background, erode)
