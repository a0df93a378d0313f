"""Grayscale image grids and binary PGM (P5) export.

Each tile is rescaled independently (min -> 0, max -> 255; constant tiles
map to 0) so individual digits and weight columns stay legible, and tiles
are separated by 2-pixel gray gutters.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write

SEPARATOR = 2
GUTTER_VALUE = 128


def rescale_tile(tile: np.ndarray) -> np.ndarray:
    """Linear per-tile rescale to uint8; constant tiles become 0."""
    lo, hi = float(tile.min()), float(tile.max())
    if hi == lo:
        return np.zeros(tile.shape, dtype=np.uint8)
    return np.rint((tile - lo) / (hi - lo) * 255.0).astype(np.uint8)


def image_grid(images: np.ndarray, n_cols: int) -> np.ndarray:
    """Tile (n, side*side) images row-major into one raster, n_cols wide;
    side is the square root of the row length, which must be a square."""
    images = np.asarray(images)
    n, length = images.shape
    side = math.isqrt(length)
    if side * side != length:
        raise ValueError(f"row length {length} is not a square")
    images = images.reshape(n, side, side)
    n_rows = -(-n // n_cols)
    h = n_rows * side + (n_rows - 1) * SEPARATOR
    w = n_cols * side + (n_cols - 1) * SEPARATOR
    grid = np.full((h, w), GUTTER_VALUE, dtype=np.uint8)
    for k in range(n):
        r, c = divmod(k, n_cols)
        r0 = r * (side + SEPARATOR)
        c0 = c * (side + SEPARATOR)
        grid[r0 : r0 + side, c0 : c0 + side] = rescale_tile(images[k])
    return grid


def write_pgm(path: str | Path, raster: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM (P5, maxval 255), atomically."""
    if raster.ndim != 2 or raster.dtype != np.uint8:
        raise ValueError("raster must be a 2-D uint8 array")
    h, w = raster.shape
    atomic_write(Path(path), f"P5\n{w} {h}\n255\n".encode("ascii"), np.ascontiguousarray(raster))

