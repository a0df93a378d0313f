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
from scipy import ndimage

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
_MAX_SHIFT = 3
_CHUNK = 4096  # images rendered per float work array

# Filtered 4/7 counts the split builder expects from standard MNIST.
_TRAIN_FOURS, _TRAIN_SEVENS = 6054, 6053
_TEST_FOURS, _TEST_SEVENS = 1005, 1005
_TRAIN_TOTAL, _TEST_TOTAL = 60000, 10000


def _rasterize(segments) -> np.ndarray:
    canvas = np.zeros((28, 28))
    for (r0, c0), (r1, c1) in segments:
        n = 2 * max(abs(r1 - r0), abs(c1 - c0)) + 1
        rows = np.rint(np.linspace(r0, r1, n)).astype(int)
        cols = np.rint(np.linspace(c0, c1, n)).astype(int)
        canvas[rows, cols] = 1.0
    canvas = ndimage.gaussian_filter(canvas, sigma=0.8)
    return np.clip(canvas / canvas.max(), 0.0, 1.0)


def template_bank() -> np.ndarray:
    """(10, n_angles, 28, 28) float array of rotated digit templates."""
    bank = np.zeros((10, _N_ANGLES, 28, 28))
    angles = np.linspace(-12.0, 12.0, _N_ANGLES)
    for digit, segments in _SEGMENTS.items():
        base = _rasterize(segments)
        for j, angle in enumerate(angles):
            rotated = ndimage.rotate(base, angle, reshape=False, order=1)
            bank[digit, j] = np.clip(rotated, 0.0, 1.0)
    return bank


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
    a time into one uint8 array; the noise stream is drawn in the same order."""
    n = labels.shape[0]
    variants = rng.integers(0, _N_ANGLES, size=n)
    shifts = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=(n, 2))
    gains = rng.uniform(0.55, 1.0, size=n)
    out = np.empty((n, 28, 28), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        part = slice(start, start + _CHUNK)
        images = bank[labels[part], variants[part]]
        rows, cols = shifts[part].T
        for dr in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
            for dc in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
                idx = np.flatnonzero((rows == dr) & (cols == dc))
                if idx.size and (dr or dc):
                    images[idx] = np.roll(images[idx], (dr, dc), axis=(1, 2))
        stroke = images > 0.08
        images *= gains[part, None, None]
        images += 0.06 * rng.standard_normal(images.shape) * stroke
        out[part] = (np.clip(images, 0.0, 1.0) * 255).round()
    return out


def write_idx(path: Path, array: np.ndarray) -> None:
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    header += struct.pack(f">{array.ndim}I", *array.shape)
    atomic_write(path, header + array.tobytes())


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
