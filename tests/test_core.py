import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import filled_grid, iou, oracle_label_array, oracle_overlap_table, oracle_violations
from vpskit import core
from vpskit.core import (
    ClassEntry,
    ClassTaxonomy,
    FlowField,
    LabelGrid,
    PanopticMap,
    Segment,
    extract_segments,
    factorize,
    overlap_table,
    pack_keys,
    pixel_span,
    present_ids,
    remap,
    unpack_keys,
    validate_panoptic,
)
from vpskit.errors import (
    DimensionMismatch,
    InvalidTaxonomy,
    NonFinite,
    UnknownClass,
)


def make_taxonomy():
    return ClassTaxonomy(
        entries=(
            ClassEntry(0, "void", "stuff"),
            ClassEntry(1, "road", "stuff"),
            ClassEntry(2, "sky", "stuff"),
            ClassEntry(10, "person", "thing"),
            ClassEntry(11, "rider", "thing"),
        )
    )


TAX = make_taxonomy()


class TestTaxonomy:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidTaxonomy):
            ClassTaxonomy(entries=(ClassEntry(0, "void", "stuff"), ClassEntry(0, "dup", "thing")))

    def test_void_must_exist_and_be_stuff(self):
        with pytest.raises(InvalidTaxonomy):
            ClassTaxonomy(entries=(ClassEntry(1, "road", "stuff"),))
        with pytest.raises(InvalidTaxonomy):
            ClassTaxonomy(entries=(ClassEntry(0, "void", "thing"),))

    def test_kind_queries(self):
        assert TAX.is_thing(10)
        assert TAX.is_stuff(1)
        assert TAX.thing_class_ids().tolist() == [10, 11]
        with pytest.raises(UnknownClass):
            TAX.kind_of(99)

    def test_dict_round_trip(self):
        assert ClassTaxonomy.from_dict(TAX.to_dict()) == TAX

    def test_id_arrays_are_sorted_read_only_uint32(self):
        tax = ClassTaxonomy(
            entries=(ClassEntry(11, "rider", "thing"), ClassEntry(0, "void", "stuff"),
                     ClassEntry(10, "person", "thing"), ClassEntry(1, "road", "stuff"))
        )
        for ids, want in ((tax.class_ids(), [0, 1, 10, 11]), (tax.thing_class_ids(), [10, 11])):
            assert ids.dtype == np.uint32 and ids.tolist() == want
            with pytest.raises(ValueError):
                ids[0] = 5


# Ids near 2**32 - 1 push np.isin off its lookup-table path; more than a few
# dozen classes against a small grid take its sort path.
_CLASS_IDS = st.one_of(st.integers(1, 40), st.integers((1 << 32) - 41, (1 << 32) - 1))


@st.composite
def _taxonomy_and_grid(draw, unknown):
    kinds = draw(st.dictionaries(_CLASS_IDS, st.sampled_from(["stuff", "thing"]), max_size=40))
    tax = ClassTaxonomy(
        entries=(ClassEntry(0, "void", "stuff"),)
        + tuple(ClassEntry(c, f"c{c}", k) for c, k in kinds.items())
    )
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    values = st.sampled_from([0, *kinds])
    if unknown:
        values = st.one_of(values, _CLASS_IDS.filter(lambda c: c not in kinds))
    cells = draw(st.lists(values, min_size=h * w, max_size=h * w))
    return tax, np.array(cells, dtype=np.uint32).reshape(h, w)


class TestThingMask:
    @given(_taxonomy_and_grid(unknown=False))
    @settings(max_examples=200)
    def test_matches_per_pixel_is_thing(self, case):
        tax, grid = case
        want = [[tax.is_thing(c) for c in row] for row in grid.tolist()]
        got = tax.thing_mask(grid)
        assert got.dtype == bool and got.tolist() == want

    @given(_taxonomy_and_grid(unknown=True))
    @settings(max_examples=200)
    def test_unknown_class_names_lowest_id_at_first_pixel(self, case):
        tax, grid = case
        unknown = [
            (c, x, y)
            for y, row in enumerate(grid.tolist())
            for x, c in enumerate(row)
            if not tax.has(c)
        ]
        if not unknown:
            assert tax.thing_mask(grid).shape == grid.shape
            return
        class_id = min(c for c, _, _ in unknown)
        x, y = next((x, y) for c, x, y in unknown if c == class_id)
        with pytest.raises(UnknownClass) as exc:
            tax.thing_mask(grid)
        assert str(exc.value) == f"class {class_id} at pixel ({x}, {y}) not in taxonomy"


    @given(_taxonomy_and_grid(unknown=True))
    @settings(max_examples=200)
    def test_matches_np_isin_on_either_lookup_path(self, case):
        tax, grid = case
        top = (1 << 32) - 1  # too large an id for a kind table: the sorted-ids search
        wide = tax if tax.has(top) else ClassTaxonomy(tax.entries + (ClassEntry(top, "top", "stuff"),))
        for taxonomy in (tax, wide):
            known = np.isin(grid, taxonomy.class_ids())
            for values in (grid, grid.astype(np.int64)):
                if known.all():
                    want = np.isin(grid, taxonomy.thing_class_ids())
                    assert np.array_equal(taxonomy.thing_mask(values), want)
                    continue
                class_id = grid[~known].min()
                y, x = np.unravel_index(np.argmax(grid == class_id), grid.shape)
                with pytest.raises(UnknownClass) as exc:
                    taxonomy.thing_mask(values)
                assert str(exc.value) == f"class {class_id} at pixel ({x}, {y}) not in taxonomy"


    def test_negative_ids_are_unknown(self):
        with pytest.raises(UnknownClass, match=r"^class -1 at pixel \(1, 0\) not in taxonomy$"):
            TAX.thing_mask(np.array([[0, -1]]))


class TestGrids:
    def test_label_grid_shape_and_immutability(self):
        grid = LabelGrid(np.arange(6).reshape(2, 3))
        assert (grid.width, grid.height) == (3, 2)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 5

    def test_label_grid_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LabelGrid(np.array([1, 2, 3]))  # 1-D
        with pytest.raises(ValueError):
            LabelGrid(np.array([[-1]]))
        with pytest.raises(ValueError):
            LabelGrid(np.array([[1 << 33]]))
        with pytest.raises(ValueError):
            LabelGrid(np.zeros((0, 3), dtype=np.int64))

    @given(
        hnp.arrays(
            hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(),
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
        )
    )
    @example(np.array([[0, (1 << 32) - 1]], dtype=np.uint32))
    @example(np.array([[0, 1 << 32]], dtype=np.uint64))
    @example(np.array([[-1, 0]], dtype=np.int8))
    @example(np.array([[(1 << 32) - 1]], dtype=">u4"))
    @settings(max_examples=300)
    def test_label_grid_accepts_what_a_full_range_scan_accepts(self, values):
        try:
            want = oracle_label_array(values)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                LabelGrid(values)
            assert str(got.value) == str(exc)
        else:
            grid = LabelGrid(values)
            assert grid.values.dtype == np.uint32
            assert np.array_equal(grid.values, want)

    def test_panoptic_map_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PanopticMap(filled_grid(3, 2), filled_grid(2, 3))

    def test_public_constructors_copy_their_source(self):
        labels = np.arange(6, dtype=np.uint32).reshape(2, 3)
        vectors = np.ones((2, 3, 2), dtype=np.float32)
        grid, flow = LabelGrid(labels), FlowField(vectors)
        labels[0, 0], vectors[0, 0, 0] = 9, 5.0
        assert grid.values.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert (flow.vectors == 1.0).all()
        assert not grid.values.flags.writeable and not flow.vectors.flags.writeable

    def test_flow_field_rejects_non_finite(self):
        vec = np.zeros((2, 2, 2), dtype=np.float32)
        vec[0, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            FlowField(vec)

    def test_segment_requires_pixels(self):
        with pytest.raises(ValueError):
            Segment(1, 0, frozenset())


class TestIou:
    def test_identity(self):
        a = {(0, 0), (1, 1)}
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou({(0, 0)}, {(1, 1)}) == 0.0

    def test_hand_counted_third(self):
        # intersection 1, union 3
        assert iou({(0, 0), (1, 0)}, {(1, 0), (2, 0)}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert iou(set(), set()) == 0.0

    @given(
        st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))),
        st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))),
    )
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1))
    def test_self_is_one_empty_is_zero(self, a):
        assert iou(a, a) == 1.0
        assert iou(a, set()) == 0.0


def _map_from_rows(class_rows, inst_rows):
    return PanopticMap(LabelGrid(np.array(class_rows)), LabelGrid(np.array(inst_rows)))


class TestExtractSegments:
    def test_uniform_stuff_single_segment(self):
        pmap = _map_from_rows([[1, 1], [1, 1]], [[0, 0], [0, 0]])
        segments = extract_segments(pmap, TAX)
        assert len(segments) == 1
        assert segments[0].class_id == 1
        assert segments[0].area == 4

    def test_stuff_plus_two_things(self):
        pmap = _map_from_rows(
            [[1, 10, 1], [1, 10, 1], [1, 10, 1]],
            [[0, 3, 0], [0, 3, 0], [0, 5, 0]],
        )
        segments = extract_segments(pmap, TAX)
        assert [(s.class_id, s.instance_id) for s in segments] == [(1, 0), (10, 3), (10, 5)]

    def test_all_void_empty(self):
        pmap = _map_from_rows([[0, 0]], [[0, 0]])
        assert extract_segments(pmap, TAX) == []

    def test_unknown_class_raises(self):
        pmap = _map_from_rows([[99]], [[0]])
        with pytest.raises(UnknownClass):
            extract_segments(pmap, TAX)

    def test_unassigned_thing_pixels_form_a_segment(self):
        pmap = _map_from_rows([[10, 10]], [[0, 7]])
        segments = extract_segments(pmap, TAX)
        assert [(s.class_id, s.instance_id) for s in segments] == [(10, 0), (10, 7)]

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_partition_of_non_void(self, w, h, rnd):
        classes = np.array(
            [[rnd.choice([0, 1, 2, 10, 11]) for _ in range(w)] for _ in range(h)]
        )
        instances = np.zeros_like(classes)
        thing = (classes == 10) | (classes == 11)
        instances[thing] = [rnd.choice([1, 2, 3]) for _ in range(int(thing.sum()))]
        pmap = _map_from_rows(classes, instances)
        segments = extract_segments(pmap, TAX)
        seen = set()
        for s in segments:
            assert not (s.pixels & seen)  # pairwise disjoint
            seen |= s.pixels
        non_void = {(x, y) for y in range(h) for x in range(w) if classes[y][x] != 0}
        assert seen == non_void


class TestValidatePanoptic:
    def test_valid_map_no_violations(self):
        pmap = _map_from_rows([[1, 10]], [[0, 4]])
        assert validate_panoptic(pmap.classes, pmap.instances, TAX) == []

    def test_stuff_pixel_with_instance_named(self):
        violations = validate_panoptic(
            LabelGrid(np.array([[1, 1]])), LabelGrid(np.array([[0, 7]])), TAX
        )
        assert len(violations) == 1
        assert "(1, 0)" in violations[0] and "instance 7" in violations[0]

    def test_dimension_violation(self):
        violations = validate_panoptic(
            filled_grid(2, 2), filled_grid(3, 2), TAX
        )
        assert len(violations) == 1
        assert "dimension" in violations[0]

    def test_unknown_class_reported(self):
        violations = validate_panoptic(
            LabelGrid(np.array([[42]])), LabelGrid(np.array([[0]])), TAX
        )
        assert any("unknown class 42" in v for v in violations)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_agrees_with_brute_force_scan(self, rnd):
        w, h = rnd.randint(1, 5), rnd.randint(1, 5)
        classes = np.array([[rnd.choice([0, 1, 10]) for _ in range(w)] for _ in range(h)])
        instances = np.array([[rnd.choice([0, 1]) for _ in range(w)] for _ in range(h)])
        violations = validate_panoptic(LabelGrid(classes), LabelGrid(instances), TAX)
        # brute force: a violation exists iff some stuff pixel has instance != 0
        expected = sum(
            1
            for y in range(h)
            for x in range(w)
            if classes[y][x] in (0, 1) and instances[y][x] != 0
        )
        assert len(violations) == expected

    @given(_taxonomy_and_grid(unknown=True), st.data())
    @settings(max_examples=200)
    def test_violations_match_a_pixel_loop_on_either_lookup_path(self, case, data):
        tax, classes = case
        instances = data.draw(
            st.lists(st.sampled_from([0, 1, _TOP]), min_size=classes.size, max_size=classes.size)
        )
        instances = np.array(instances, dtype=np.uint32).reshape(classes.shape)
        # an id too large for a kind table sends the lookup to the sorted-ids search
        wide = tax if tax.has(_TOP) else ClassTaxonomy(tax.entries + (ClassEntry(_TOP, "top", "stuff"),))
        for taxonomy in (tax, wide):
            got = validate_panoptic(LabelGrid(classes), LabelGrid(instances), taxonomy)
            assert got == oracle_violations(classes, instances, taxonomy)


_TOP = (1 << 32) - 1


@st.composite
def _instance_grids(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ids = st.one_of(st.just(0), st.integers(1, 50), st.integers(_TOP - 20, _TOP))
    cells = draw(st.lists(ids, min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=np.uint32).reshape(h, w)


@given(_instance_grids())
@example(np.zeros((1, 1), dtype=np.uint32))
@example(np.full((1, 1), _TOP, dtype=np.uint32))
@example(np.zeros((3, 4), dtype=np.uint32))
@settings(max_examples=200)
def test_present_ids_are_the_sorted_nonzero_set(grid):
    assert present_ids(grid) == sorted(set(grid.ravel().tolist()) - {0})


_COORDS = st.one_of(
    st.floats(-20, 80, allow_nan=False), st.integers(-40, 160).map(lambda n: n / 2)
)


@given(_COORDS, _COORDS, st.integers(1, 64))
@settings(max_examples=300)
def test_pixel_span_is_centre_containment(lo, hi, limit):
    start, stop = pixel_span(lo, hi, limit)
    inside = [i for i in range(limit) if lo <= i + 0.5 < hi]
    assert 0 <= start <= stop
    assert list(range(start, stop)) == inside


_LABELS = st.sampled_from([0, 1, 2, 7, _TOP - 1, _TOP])

# remap's table bound and its neighbours up to the top of the label range
_BOUND = 1 << 16
_REMAP_EDGES = [0, 1, 2, _BOUND - 1, _BOUND, _BOUND + 1, _TOP - 1, _TOP]


@st.composite
def _remap_grids(draw):
    """Grids below the table bound (table path) or reaching it (search path)."""
    pool = draw(st.sampled_from([_REMAP_EDGES[:4], _REMAP_EDGES[:5], _REMAP_EDGES]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=np.uint32).reshape(h, w)


class TestKeysAndRemap:
    @given(st.lists(st.tuples(_LABELS, _LABELS), min_size=1, max_size=30))
    def test_pack_unpack_round_trip_and_order(self, pairs):
        high = np.array([h for h, _ in pairs], dtype=np.uint32)
        low = np.array([lo for _, lo in pairs], dtype=np.uint32)
        keys = pack_keys(high, low)
        assert keys.dtype == np.uint64
        back_high, back_low = unpack_keys(keys)
        assert back_high.dtype == back_low.dtype == np.uint32
        assert np.array_equal(back_high, high) and np.array_equal(back_low, low)
        assert sorted(keys.tolist()) == [(h << 32) | lo for h, lo in sorted(pairs)]

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
        st.dictionaries(_LABELS, st.integers(0, _TOP), max_size=5),
    )
    @settings(max_examples=150)
    def test_remap_matches_dict_loop(self, h, w, data, mapping):
        grid = np.array(
            data.draw(st.lists(_LABELS, min_size=h * w, max_size=h * w)), dtype=np.uint32
        ).reshape(h, w)
        before = grid.copy()
        want = np.array([[mapping.get(v, v) for v in row] for row in grid.tolist()])
        got = remap(grid, mapping)
        assert got.dtype == np.uint32 and got.shape == grid.shape
        assert np.array_equal(got, want)
        assert np.array_equal(grid, before)  # input untouched

    @given(
        _remap_grids(),
        st.dictionaries(st.sampled_from(_REMAP_EDGES), st.sampled_from(_REMAP_EDGES), max_size=6),
    )
    @example(np.zeros((2, 2), dtype=np.uint32), {})
    @example(np.array([[0, 1, 7]], dtype=np.uint32), {_TOP: 1, _BOUND: 2, 1: _TOP})
    @example(np.array([[1, _BOUND - 1, 9]], dtype=np.uint32), {1: _BOUND - 1, _BOUND - 1: 0})
    @example(np.array([[_BOUND, 1], [_TOP, 0]], dtype=np.uint32), {1: _BOUND, _TOP: 3})
    @settings(max_examples=300)
    def test_remap_table_and_search_paths_match_dict_loop(self, grid, mapping):
        before = grid.copy()
        got = remap(grid, mapping)
        assert got.dtype == np.uint32 and got.shape == grid.shape
        assert got.tolist() == [[mapping.get(v, v) for v in row] for row in before.tolist()]
        assert np.array_equal(grid, before)  # input untouched
        assert not np.shares_memory(got, grid)


class TestOverlapTable:
    @given(st.lists(st.integers(0, (1 << 64) - 1) | st.integers((1 << 64) - 4, (1 << 64) - 1)))
    def test_factorize_matches_unique_inverse_and_counts(self, values):
        keys = np.array(values, dtype=np.uint64)
        uniq, counts, index = factorize(keys)
        want_uniq, want_index, want_counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        assert uniq.dtype == np.uint64
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(index, want_index)

    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_matches_pixel_loop(self, h, w, a_packed, b_packed, data):
        def side(packed):
            return tuple(
                np.array(
                    data.draw(st.lists(_LABELS, min_size=h * w, max_size=h * w)), dtype=np.uint32
                ).reshape(h, w)
                for _ in range(1 + packed)
            )

        def labels(keys, grids):
            if len(grids) == 1:
                return [(k,) for k in keys.tolist()]
            return list(zip(*(part.tolist() for part in unpack_keys(keys))))

        a, b = side(a_packed), side(b_packed)
        a_area, b_area, shared = Counter(), Counter(), Counter()
        for y in range(h):
            for x in range(w):
                la = tuple(int(g[y, x]) for g in a)
                lb = tuple(int(g[y, x]) for g in b)
                a_area[la] += 1
                b_area[lb] += 1
                shared[la, lb] += 1

        table = overlap_table(a, b)
        a_labels, b_labels = labels(table.a_labels, a), labels(table.b_labels, b)
        assert a_labels == sorted(a_area)
        assert b_labels == sorted(b_area)
        assert dict(zip(a_labels, table.a_areas.tolist())) == a_area
        assert dict(zip(b_labels, table.b_areas.tolist())) == b_area
        pairs = [
            (a_labels[i], b_labels[j])
            for i, j in zip(table.a_index.tolist(), table.b_index.tolist())
        ]
        assert pairs == sorted(shared)
        assert dict(zip(pairs, table.shared.tolist())) == shared


def _assert_same_overlap(got, want):
    for name, g, w in zip(want._fields, got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


@st.composite
def _overlap_side(draw, h, w):
    pool = draw(st.sampled_from([[0], [0, 1, 2, 7], [0, 1, _TOP], [_TOP - 1, _TOP]]))
    return tuple(
        np.array(draw(st.lists(st.sampled_from(pool), min_size=h * w, max_size=h * w)), dtype=np.uint32)
        .reshape(h, w)
        for _ in range(draw(st.integers(1, 2)))
    )


class TestOverlapPaths:
    """overlap_table gives np.unique's arrays, whichever way it ranks and counts the labels.

    A side's labels are ranked by a presence table while its code range
    ``(max high + 1) * (max low + 1)`` is at most the pixel count, and sorted by
    factorize beyond; pairs are counted by np.bincount while the label counts
    multiplied are at most the pixel count, and by np.unique beyond.
    """

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=300)
    def test_each_path_matches_the_unique_oracle(self, h, w, data):
        a, b = data.draw(_overlap_side(h, w)), data.draw(_overlap_side(h, w))
        _assert_same_overlap(overlap_table(a, b), oracle_overlap_table(a, b))

    # A side's presence table has one bin per code of its range. Here a's range lands one step
    # below, at and one step above the 32 pixels of a 4x8 grid. The bound is the pixel count
    # whatever the run count: a's labels change at every pixel ("full") or at few ("sparse").
    @pytest.mark.parametrize(
        "a_max, ranked",
        [((30,), True), ((31,), True), ((32,), False),
         ((1, 14), True), ((1, 15), True), ((1, 16), False)],
    )
    @pytest.mark.parametrize("runs", ["full", "sparse"])
    def test_bin_bound(self, a_max, ranked, runs):
        pixels = np.arange(32).reshape(4, 8) if runs == "full" else np.zeros((4, 8), dtype=np.int64)
        a = tuple((pixels % (top + 1)).astype(np.uint32) for top in a_max)
        for grid, top in zip(a, a_max):
            grid.flat[31] = top
        b = ((pixels % 3).astype(np.uint32),)
        with mock.patch.object(core, "factorize", wraps=core.factorize) as spy:
            got = overlap_table(a, b)
        assert spy.called != ranked
        _assert_same_overlap(got, oracle_overlap_table(a, b))

    # 4x8 grids: a's 2 labels times b's 15, 16 or 17 land one step below, at and above 32 pixels
    @pytest.mark.parametrize("n_b", [15, 16, 17])
    def test_label_count_bound(self, n_b):
        pixels = np.arange(32).reshape(4, 8)
        a, b = ((pixels % 2).astype(np.uint32),), ((pixels % n_b).astype(np.uint32),)
        with mock.patch.object(np, "unique", wraps=np.unique) as spy:
            got = overlap_table(a, b)
        assert spy.called == (2 * n_b > 32)
        _assert_same_overlap(got, oracle_overlap_table(a, b))

    def test_frame_size_grids_take_the_bincount_path(self):
        # big-frames-sized: 640x320 pixels, 14 classes and 20 ids on each side
        rng = np.random.default_rng(5)
        a = (rng.integers(0, 14, (320, 640), dtype=np.uint32), rng.integers(0, 20, (320, 640), dtype=np.uint32))
        b = (a[0].copy(), rng.integers(0, 20, (320, 640), dtype=np.uint32))
        with mock.patch.object(core, "factorize", wraps=core.factorize) as ranks:
            with mock.patch.object(np, "unique", wraps=np.unique) as pairs:
                got = overlap_table(a, b)
        assert not ranks.called and not pairs.called
        _assert_same_overlap(got, oracle_overlap_table(a, b))

    def test_crowd_sized_frame_tables_do_not_sort(self):
        # the crowd scene's frame: 512x256, classes below 13 and 120 actor ids on each side
        h, w = 256, 512
        rng = np.random.default_rng(11)

        def side():
            classes = np.repeat(np.arange(1, 6, dtype=np.uint32), h // 5 + 1)[:h, None].repeat(w, axis=1)
            instances = np.zeros((h, w), dtype=np.uint32)
            for instance_id in range(1, 121):
                y, x, size = rng.integers(0, h - 24), rng.integers(0, w - 24), rng.integers(8, 25)
                classes[y : y + size, x : x + size] = rng.integers(6, 13)
                instances[y : y + size, x : x + size] = instance_id
            return (classes, instances)

        a, b = side(), side()
        with mock.patch.object(core, "factorize", wraps=core.factorize) as spy:
            got = overlap_table(a, b)
        assert not spy.called
        _assert_same_overlap(got, oracle_overlap_table(a, b))


@st.composite
def _run_side(draw, h, w, pool):
    """A side whose grids hold a few runs per row."""
    grids = []
    for _ in range(draw(st.integers(1, 2))):
        grid = np.empty((h, w), dtype=np.uint32)
        for y in range(h):
            cuts = sorted(draw(st.sets(st.integers(1, w - 1), max_size=3)))
            for lo, hi in zip([0, *cuts], [*cuts, w]):
                grid[y, lo:hi] = draw(st.sampled_from(pool))
        grids.append(grid)
    return tuple(grids)


class TestOverlapRuns:
    """overlap_table codes only the ends of the runs along which no grid of either side changes."""

    @pytest.mark.parametrize("ranking", ["presence", "factorize"])
    @given(st.integers(2, 6), st.integers(6, 24), st.data())
    @settings(max_examples=150)
    def test_label_runs_match_the_oracle(self, ranking, h, w, data):
        pool = [0, 1, 2] if ranking == "presence" else [0, 1, _TOP]
        a, b = data.draw(_run_side(h, w, pool)), data.draw(_run_side(h, w, pool))
        if ranking == "factorize":
            a[-1][-1, -1] = _TOP  # a code range past any pixel count
        with mock.patch.object(core, "factorize", wraps=core.factorize) as spy:
            got = overlap_table(a, b)
        spans = [math.prod(int(g.max()) + 1 for g in side) for side in (a, b)]
        assert spy.called == (max(spans) > h * w)
        if ranking == "factorize":
            assert spy.called
        _assert_same_overlap(got, oracle_overlap_table(a, b))

    def test_one_side_changing_inside_a_label_run_of_the_other(self):
        # one label over the row on a; b's labels change twice inside it and come back
        a = (np.full((1, 8), 3, dtype=np.uint32),)
        b = (np.array([[4, 4, 0, 0, 4, 4, 4, 4]], dtype=np.uint32),)
        got = overlap_table(a, b)
        assert (got.a_areas.tolist(), got.b_areas.tolist(), got.shared.tolist()) == ([8], [2, 6], [2, 6])
        _assert_same_overlap(got, oracle_overlap_table(a, b))


_BAND = core._GATHER_BAND


class TestGather:
    """core.gather gives np.take's result, band by band."""

    SHAPES = [(_BAND - 1,), (255, 257), (_BAND,), (256, 256), (_BAND + 1,), (1, _BAND + 1), (0,), (3, 5)]

    @given(
        st.sampled_from(SHAPES), st.sampled_from([(), (3,)]), st.integers(1, 300), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_np_take(self, shape, row, rows, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 256, (rows, *row), dtype=np.uint8)
        index = rng.integers(0, rows, shape, dtype=np.uint32)
        got = core.gather(table, index)
        want = np.take(table, index, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_clip_sends_ids_past_the_kind_table_to_its_unknown_last_entry(self, shape, seed):
        rng = np.random.default_rng(seed)
        table = TAX._kind_table
        near = rng.integers(0, 2 * table.size, shape, dtype=np.uint32)
        far = rng.integers(0, 1 << 32, shape, dtype=np.uint64).astype(np.uint32)
        classes = np.where(rng.random(shape) < 0.5, near, far)
        got = core.gather(table, classes, mode="clip")
        assert np.array_equal(got, np.take(table, classes, mode="clip"))
        assert (got[classes >= table.size - 1] == core._KIND_UNKNOWN).all()

    def test_an_index_past_the_table_raises_as_np_take_does(self):
        index = np.zeros(_BAND + 1, dtype=np.uint32)
        index[-1] = 5  # in the second band
        with pytest.raises(IndexError):
            np.take(np.arange(5), index)
        with pytest.raises(IndexError):
            core.gather(np.arange(5), index)
