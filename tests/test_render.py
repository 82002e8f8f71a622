import numpy as np
import pytest

from helpers import small_taxonomy
from vpskit.core import LabelGrid, PanopticMap
from vpskit.errors import UnknownClass
from vpskit.render import (
    STUFF_PALETTE,
    colorize,
    encode_ppm,
    instance_color,
    render_sequence,
    stuff_color,
    write_ppm,
)
from vpskit.rng import splitmix64

TAX = small_taxonomy()


def pmap(class_rows, inst_rows):
    return PanopticMap(LabelGrid(np.array(class_rows)), LabelGrid(np.array(inst_rows)))


class TestColors:
    def test_instance_color_is_splitmix_low_24_bits(self):
        v = splitmix64((10 << 32) + 7)
        assert instance_color(10, 7) == ((v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    def test_stuff_palette_indexed_by_class_modulo(self):
        assert stuff_color(1) == STUFF_PALETTE[1]
        assert stuff_color(len(STUFF_PALETTE) + 1) == STUFF_PALETTE[1]

    def test_same_pair_same_color_across_frames(self):
        a = pmap([[10, 1]], [[5, 0]])
        b = pmap([[1, 10]], [[0, 5]])
        img_a = colorize(a, TAX)
        img_b = colorize(b, TAX)
        assert img_a[0, 0].tolist() == img_b[0, 1].tolist()

    def test_distinct_instances_distinct_colors(self):
        img = colorize(pmap([[10, 10, 10]], [[1, 2, 3]]), TAX)
        colors = {tuple(img[0, i]) for i in range(3)}
        assert len(colors) == 3  # no collision among these pairs; frozen by hash

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownClass):
            colorize(pmap([[42]], [[0]]), TAX)

    def test_unassigned_thing_renders_with_class_zero_hash(self):
        img = colorize(pmap([[10]], [[0]]), TAX)
        assert tuple(img[0, 0]) == instance_color(10, 0)


class TestPpm:
    def test_1x1_byte_layout(self):
        image = np.zeros((1, 1, 3), dtype=np.uint8)
        image[0, 0] = (255, 0, 0)
        data = encode_ppm(image)
        assert data == b"P6\n1 1\n255\n" + bytes([255, 0, 0])
        assert len(data) == 14  # 11-byte header + 3 payload bytes

    def test_header_dimensions(self):
        image = np.zeros((3, 7, 3), dtype=np.uint8)
        assert encode_ppm(image).startswith(b"P6\n7 3\n255\n")

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            encode_ppm(np.zeros((0, 4, 3), dtype=np.uint8))

    def test_wrong_shape_or_dtype_rejected(self):
        with pytest.raises(ValueError):
            encode_ppm(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_ppm(np.zeros((2, 2, 3), dtype=np.float32))

    def test_write_and_sequence(self, tmp_path):
        maps = [pmap([[10, 1]], [[4, 0]]), pmap([[10, 1]], [[4, 0]])]
        paths = render_sequence(maps, TAX, tmp_path)
        assert [p.name for p in paths] == ["frame_0000.ppm", "frame_0001.ppm"]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_a_one_shot_generator_renders_as_its_list(self, tmp_path):
        maps = [pmap([[10, 1]], [[4, 0]]), pmap([[1, 11]], [[0, 2]])]
        paths = render_sequence((m for m in maps), TAX, tmp_path / "gen")
        want = render_sequence(maps, TAX, tmp_path / "list")
        assert [p.name for p in paths] == ["frame_0000.ppm", "frame_0001.ppm"]
        assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in want]

    def test_unknown_class_in_a_later_frame_writes_nothing(self, tmp_path):
        maps = [pmap([[10, 1]], [[4, 0]]), pmap([[42, 1]], [[4, 0]])]
        with pytest.raises(UnknownClass):
            render_sequence(maps, TAX, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_rendering_is_byte_deterministic(self, tmp_path):
        image = colorize(pmap([[10, 1], [11, 2]], [[9, 0], [3, 0]]), TAX)
        write_ppm(image, tmp_path / "a.ppm")
        write_ppm(image, tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
