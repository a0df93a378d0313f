import numpy as np
import pytest

from pcmem.images import (
    GUTTER_VALUE,
    SEPARATOR,
    image_grid,
    rescale_tile,
    write_pgm,
)

from conftest import read_pgm


class TestRescaleTile:
    def test_full_range(self):
        tile = np.array([[0.0, 0.5], [1.0, 0.25]])
        out = rescale_tile(tile)
        assert out.dtype == np.uint8
        assert out[0, 0] == 0 and out[1, 0] == 255
        assert out[0, 1] == 128  # rint(0.5 * 255)

    def test_constant_tile_is_black(self):
        np.testing.assert_array_equal(
            rescale_tile(np.full((3, 3), 7.0)), np.zeros((3, 3), dtype=np.uint8)
        )

    def test_negative_values_allowed(self):
        out = rescale_tile(np.array([[-2.0, 2.0]]))
        assert out[0, 0] == 0 and out[0, 1] == 255


class TestImageGrid:
    def test_dimensions(self):
        imgs = np.random.default_rng(0).uniform(0, 1, (6, 16))
        grid = image_grid(imgs, n_cols=3)
        assert grid.shape == (2 * 4 + SEPARATOR, 3 * 4 + 2 * SEPARATOR)

    def test_gutters_are_gray(self):
        imgs = np.zeros((4, 4))  # 4 constant tiles -> all-black tiles
        grid = image_grid(imgs, n_cols=2)
        assert grid[2, 0] == GUTTER_VALUE  # horizontal gutter row
        assert grid[0, 2] == GUTTER_VALUE  # vertical gutter column

    def test_tiles_rescaled_independently(self):
        a = np.full(4, 0.1)
        b = np.array([0.0, 0.0, 0.0, 10.0])
        grid = image_grid(np.stack([a, b]), n_cols=2)
        assert grid[0, 0] == 0  # constant tile -> black
        assert grid[1, 5] == 255  # max of second tile

    def test_ragged_last_row_filled_with_gutter(self):
        imgs = np.ones((3, 4))
        grid = image_grid(imgs, n_cols=2)
        # position of missing 4th tile
        assert np.all(grid[4:6, 4:6] == GUTTER_VALUE)

    def test_side_is_the_square_root_of_the_row_length(self):
        assert image_grid(np.zeros((2, 25)), n_cols=2).shape == (5, 12)
        assert image_grid(np.zeros((1, 784)), n_cols=1).shape == (28, 28)

    @pytest.mark.parametrize("length", [2, 24, 783])
    def test_non_square_row_length_rejected(self, length):
        with pytest.raises(ValueError, match=f"row length {length} is not a square"):
            image_grid(np.zeros((3, length)), n_cols=2)


class TestPgm:
    def test_round_trip(self, tmp_path):
        raster = np.random.default_rng(0).integers(0, 256, (7, 5), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, raster)
        np.testing.assert_array_equal(read_pgm(path), raster)

    def test_header_exact(self, tmp_path):
        raster = np.zeros((2, 3), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, raster)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_strided_raster_written_row_major(self, tmp_path):
        raster = np.arange(15, dtype=np.uint8).reshape(3, 5).T
        path = tmp_path / "img.pgm"
        write_pgm(path, raster)
        assert path.read_bytes() == b"P5\n3 5\n255\n" + raster.tobytes()

    def test_whitespace_valued_pixels_survive(self, tmp_path):
        # payload starting with 0x0a/0x20 must not be eaten by header parsing
        raster = np.array([[0x0A, 0x20], [0x0A, 0x0A]], dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, raster)
        np.testing.assert_array_equal(read_pgm(path), raster)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError, match="PGM"):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)
