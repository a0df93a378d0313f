"""Deterministic synthetic digit corpus in standard MNIST IDX layout.

This sandbox-friendly stand-in for MNIST draws stroke-template digits with
per-image rotation, shift, intensity and stroke-noise variation. The label
counts are chosen so the filtered 4/7 subsets have exactly the standard
MNIST sizes (12107 on the train side, 2010 on the test side), which is
what the split builder requires.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write

# Stroke skeletons as ((row0, col0), (row1, col1)) segments on a 28x28 grid.
# Margins of >= 4 px keep shifted strokes away from the border.
_SEGMENTS: dict[int, list[tuple[tuple[int, int], tuple[int, int]]]] = {
    0: [((6, 11), (6, 17)), ((6, 17), (13, 19)), ((13, 19), (21, 17)),
        ((21, 17), (21, 11)), ((21, 11), (13, 9)), ((13, 9), (6, 11))],
    1: [((8, 11), (5, 14)), ((5, 14), (22, 14)), ((22, 10), (22, 18))],
    2: [((8, 9), (5, 14)), ((5, 14), (8, 18)), ((8, 18), (12, 17)),
        ((12, 17), (22, 9)), ((22, 9), (22, 19))],
    3: [((6, 9), (5, 15)), ((5, 15), (9, 18)), ((9, 18), (13, 14)),
        ((13, 14), (18, 18)), ((18, 18), (22, 15)), ((22, 15), (21, 9))],
    4: [((5, 15), (15, 7)), ((15, 7), (15, 19)), ((5, 15), (22, 15))],
    5: [((5, 18), (5, 9)), ((5, 9), (12, 9)), ((12, 9), (12, 16)),
        ((12, 16), (18, 18)), ((18, 18), (22, 13)), ((22, 13), (21, 9))],
    6: [((5, 16), (13, 9)), ((13, 9), (22, 10)), ((22, 10), (22, 16)),
        ((22, 16), (15, 17)), ((15, 17), (13, 10))],
    7: [((5, 8), (5, 19)), ((5, 19), (22, 11))],
    8: [((5, 14), (10, 10)), ((10, 10), (14, 14)), ((5, 14), (10, 18)),
        ((10, 18), (14, 14)), ((14, 14), (21, 10)), ((21, 10), (22, 14)),
        ((22, 14), (21, 18)), ((21, 18), (14, 14))],
    9: [((5, 12), (10, 9)), ((10, 9), (13, 14)), ((13, 14), (7, 17)),
        ((7, 17), (5, 12)), ((6, 17), (22, 13))],
}

_N_ANGLES = 9
# scipy.ndimage.gaussian_filter's sigma 0.8 at its default truncate=4.0
_SIGMA = 0.8
_RADIUS = int(4.0 * _SIGMA + 0.5)
_MAX_SHIFT = 3
# images rendered per float work array, 1.6 MB each, within a core's 2 MiB L2;
# any size writes the same bytes. The seed-0 corpus took 1.54 CPU-s at 4096,
# 1.20 at 256, 1.28 at 128 (2-core Xeon VM, medians of 6 interleaved runs)
_CHUNK = 256

# Filtered 4/7 counts the split builder expects from standard MNIST.
_TRAIN_FOURS, _TRAIN_SEVENS = 6054, 6053
_TEST_FOURS, _TEST_SEVENS = 1005, 1005
_TRAIN_TOTAL, _TEST_TOTAL = 60000, 10000


def _blur(canvas: np.ndarray) -> np.ndarray:
    """Gaussian blur of the last two axes, sigma _SIGMA and radius _RADIUS,
    bit for bit scipy.ndimage.gaussian_filter's: along each axis in turn, a
    symmetric-reflect correlation summed in its order, x[i] w0, then
    += (x[i - j] + x[i + j]) wj for j = radius ... 1."""
    x = np.arange(-_RADIUS, _RADIUS + 1)
    weights = np.exp(-0.5 / (_SIGMA * _SIGMA) * x**2)
    weights = weights / weights.sum()
    for axis in (-2, -1):
        lines = np.moveaxis(canvas, axis, 0)
        n = lines.shape[0]
        pad = [(_RADIUS, _RADIUS)] + [(0, 0)] * (lines.ndim - 1)
        padded = np.pad(lines, pad, mode="symmetric")

        def at(j):
            return padded[_RADIUS + j : _RADIUS + j + n]

        out = at(0) * weights[_RADIUS]
        for j in range(_RADIUS, 0, -1):
            out += (at(-j) + at(j)) * weights[_RADIUS + j]
        canvas = np.moveaxis(out, 0, axis)
    return canvas


def _rotate(images: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(len(images), len(angles), side, side): each square image turned by
    each angle (degrees) about its centre, bilinear, in the operation order
    of scipy.ndimage.rotate(reshape=False, order=1): source coordinates
    offset + i m00 + j m01, weights w0 = 1 - frac and w1 = 1 - w0, and the
    taps (0,0), (0,1), (1,0), (1,1) summed as (v w_row) w_col.

    A tap outside the image reads the nearest edge pixel, where rotate's
    constant mode reads 0. This is rotate bit for bit only because every
    image it turns, a blurred stroke template, has a zero border at least
    2 px wide, so both read 0 there.
    """
    side = images.shape[-1]
    rows, cols = np.indices((side, side))
    centre = np.full(2, (side - 1) / 2)
    out = np.empty((images.shape[0], angles.size, side, side))
    for k, angle in enumerate(angles):
        cos, sin = np.cos(np.deg2rad(angle)), np.sin(np.deg2rad(angle))
        matrix = np.array([[cos, sin], [-sin, cos]])
        offset = centre - matrix @ centre
        taps = []  # per axis: (index, weight) of the low and the high tap
        for axis in (0, 1):
            coord = offset[axis] + rows * matrix[axis, 0] + cols * matrix[axis, 1]
            low = np.floor(coord)
            w0 = 1.0 - (coord - low)
            low = low.astype(int)
            taps.append([(np.clip(low, 0, side - 1), w0),
                         (np.clip(low + 1, 0, side - 1), 1.0 - w0)])
        total = 0.0
        for r, wr in taps[0]:
            for c, wc in taps[1]:
                total = total + images[:, r, c] * wr * wc
        out[:, k] = total
    return out


def _strokes() -> np.ndarray:
    """(10, 28, 28): each digit's stroke skeleton, 1 on a stroke and 0 off it."""
    canvas = np.zeros((10, 28, 28))
    for digit, segments in _SEGMENTS.items():
        for (r0, c0), (r1, c1) in segments:
            n = 2 * max(abs(r1 - r0), abs(c1 - c0)) + 1
            rows = np.rint(np.linspace(r0, r1, n)).astype(int)
            cols = np.rint(np.linspace(c0, c1, n)).astype(int)
            canvas[digit, rows, cols] = 1.0
    return canvas


def template_bank() -> np.ndarray:
    """(10, n_angles, 28, 28) float array of rotated digit templates."""
    canvas = _blur(_strokes())
    base = np.clip(canvas / canvas.max(axis=(1, 2), keepdims=True), 0.0, 1.0)
    return np.clip(_rotate(base, np.linspace(-12.0, 12.0, _N_ANGLES)), 0.0, 1.0)


def _label_vector(rng, fours: int, sevens: int, total: int) -> np.ndarray:
    other_digits = [d for d in range(10) if d not in (4, 7)]
    remaining = total - fours - sevens
    per, extra = divmod(remaining, len(other_digits))
    labels = [4] * fours + [7] * sevens
    for i, d in enumerate(other_digits):
        labels += [d] * (per + (1 if i < extra else 0))
    labels = np.array(labels, dtype=np.uint8)
    rng.shuffle(labels)
    return labels


def _render(labels: np.ndarray, bank: np.ndarray, rng) -> np.ndarray:
    """Draw every image's variant, shift and gain, then render _CHUNK images at
    a time into one uint8 array; the noise stream is drawn in the same order.

    Every template is rolled by every shift once, into a table; each chunk
    is gathered from it into one reused buffer, and its noise is drawn into
    another, the same draws as one standard_normal call of the chunk's shape.
    """
    n = labels.shape[0]
    variants = rng.integers(0, _N_ANGLES, size=n)
    shifts = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=(n, 2))
    gains = rng.uniform(0.55, 1.0, size=n)

    span = range(-_MAX_SHIFT, _MAX_SHIFT + 1)
    table = np.empty(bank.shape[:2] + (len(span), len(span)) + bank.shape[2:])
    for i, dr in enumerate(span):
        for j, dc in enumerate(span):
            table[:, :, i, j] = np.roll(bank, (dr, dc), axis=(2, 3))
    index = np.ravel_multi_index((labels, variants, *(shifts + _MAX_SHIFT).T), table.shape[:4])
    table = table.reshape((-1,) + bank.shape[2:])

    out = np.empty((n,) + bank.shape[2:], dtype=np.uint8)
    buffer = np.empty((min(n, _CHUNK),) + bank.shape[2:])
    noise = np.empty_like(buffer)
    stroke = np.empty(buffer.shape, dtype=bool)
    for start in range(0, n, _CHUNK):
        part = slice(start, start + _CHUNK)
        cells = index[part]
        images, z, mask = buffer[: cells.size], noise[: cells.size], stroke[: cells.size]
        # mode="clip" (every index is in range) lets take write into out
        # unbuffered
        np.take(table, cells, axis=0, out=images, mode="clip")
        np.greater(images, 0.08, out=mask)
        images *= gains[part, None, None]
        rng.standard_normal(out=z)
        z *= 0.06
        np.add(images, z, out=images, where=mask)
        np.clip(images, 0.0, 1.0, out=images)
        images *= 255
        np.rint(images, out=out[part], casting="unsafe")
    return out


def write_idx(path: Path, array: np.ndarray) -> None:
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    header += struct.pack(f">{array.ndim}I", *array.shape)
    atomic_write(path, header, np.ascontiguousarray(array))


def write_corpus(out_dir: str | Path, seed: int = 0) -> Path:
    """Write the four IDX files into out_dir; returns out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    bank = template_bank()

    train_labels = _label_vector(rng, _TRAIN_FOURS, _TRAIN_SEVENS, _TRAIN_TOTAL)
    test_labels = _label_vector(rng, _TEST_FOURS, _TEST_SEVENS, _TEST_TOTAL)
    train_images = _render(train_labels, bank, rng)
    test_images = _render(test_labels, bank, rng)

    write_idx(out_dir / "train-images-idx3-ubyte", train_images)
    write_idx(out_dir / "train-labels-idx1-ubyte", train_labels)
    write_idx(out_dir / "t10k-images-idx3-ubyte", test_images)
    write_idx(out_dir / "t10k-labels-idx1-ubyte", test_labels)
    return out_dir
