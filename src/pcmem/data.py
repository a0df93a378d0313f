"""MNIST IDX parsing, two-digit filtering and splits.

The pipeline finds the four standard MNIST files (each plain or .gz) in a
data directory, filters them down to digits 4 and 7, shuffles the
filtered training subset with a seed and takes the first 10097 examples as
the training set (the remaining 2010 become validation); the filtered test
subset (2010 examples) is the test set. Pixels are scaled to [0, 1] and
labels mapped 4 -> 0, 7 -> 1. The training split's own seeded order is
the one pick of examples: training, the recall suite and the memory
commands all read a prefix of it.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_UBYTE = 0x08

DIGITS = (4, 7)  # the kept labels; the second one is label 1
IMAGE_SIDE = 28  # every image is IMAGE_SIDE x IMAGE_SIDE pixels
TRAIN_SIZE = 10097
VAL_SIZE = 2010
TEST_SIZE = 2010

DEFAULT_FILENAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxFormatError(ValueError):
    """Malformed IDX container (bad magic, type code, or payload length) or
    corrupt gzip data around it."""


def parse_idx(data: bytes) -> np.ndarray:
    """Parse one IDX byte stream into a uint8 array of the declared shape."""
    if len(data) < 4:
        raise IdxFormatError("truncated IDX header")
    zero0, zero1, type_code, n_dims = struct.unpack(">BBBB", data[:4])
    if zero0 != 0 or zero1 != 0:
        raise IdxFormatError(f"bad IDX magic bytes ({zero0:#x}, {zero1:#x})")
    if type_code != IDX_UBYTE:
        raise IdxFormatError(f"unsupported IDX type code {type_code:#x}")
    header_len = 4 + 4 * n_dims
    if n_dims == 0:
        raise IdxFormatError("IDX header declares no dimensions")
    if len(data) < header_len:
        raise IdxFormatError("truncated IDX dimension header")
    dims = struct.unpack(f">{n_dims}I", data[4:header_len])
    expected = math.prod(dims)
    payload = memoryview(data)[header_len:]
    if len(payload) != expected:
        raise IdxFormatError(
            f"IDX payload length {len(payload)} != expected {expected} for dims {dims}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(path: str | Path) -> np.ndarray:
    """Load an IDX file, transparently decompressing gzip.

    Raises IdxFormatError naming the file on a malformed IDX stream or on
    truncated or damaged gzip data.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        if raw[:2] == b"\x1f\x8b":
            raw = gzip.decompress(raw)
        return parse_idx(raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: corrupt gzip data: {exc}") from None
    except IdxFormatError as exc:
        raise IdxFormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RawImageSet:
    """Unfiltered images (count x IMAGE_SIDE x IMAGE_SIDE, uint8) with digit
    labels 0-9."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        side = (IMAGE_SIDE, IMAGE_SIDE)
        if self.images.ndim != 3 or self.images.shape[1:] != side or self.labels.ndim != 1:
            raise ValueError(
                f"expected count x {IMAGE_SIDE} x {IMAGE_SIDE} images and 1-D labels, "
                f"got images of shape {self.images.shape} and labels of shape "
                f"{self.labels.shape}"
            )
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("image count != label count")


def data_file(data_dir: str | Path, name: str) -> Path:
    """The MNIST file `name` in data_dir: the plain file if present, else its .gz."""
    for candidate in (Path(data_dir) / name, Path(data_dir) / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"missing MNIST file: {Path(data_dir) / name}[.gz]")


def load_raw(data_dir: str | Path) -> tuple[RawImageSet, RawImageSet]:
    """Load the four standard MNIST files (optionally .gz) from data_dir."""

    def load(key: str) -> np.ndarray:
        return load_idx(data_file(data_dir, DEFAULT_FILENAMES[key]))

    train = RawImageSet(images=load("train_images"), labels=load("train_labels"))
    test = RawImageSet(images=load("test_images"), labels=load("test_labels"))
    return train, test


@dataclass(frozen=True)
class Split:
    """Images flattened to (count, 784) float64 in [0,1]; labels in {0,1}."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class DatasetSplits:
    train: Split
    validation: Split
    test: Split


def _filter(raw: RawImageSet) -> tuple[np.ndarray, np.ndarray]:
    """The DIGITS examples: uint8 images flattened to rows, and labels 0/1."""
    mask = np.isin(raw.labels, DIGITS)
    images = raw.images[mask].reshape(-1, raw.images.shape[1] * raw.images.shape[2])
    labels = (raw.labels[mask] == DIGITS[1]).astype(np.uint8)
    return images, labels


def _split(images: np.ndarray, labels: np.ndarray) -> Split:
    """A Split of uint8 image rows, scaled to [0, 1] in one float64 array."""
    scaled = images.astype(np.float64)
    scaled /= 255.0
    return Split(scaled, labels)


def build_splits(
    train_raw: RawImageSet,
    test_raw: RawImageSet,
    split_seed: int = 0,
) -> DatasetSplits:
    """Filter to DIGITS and produce the fixed-size splits.

    Fails hard (naming the observed counts) if the filtered subsets do not
    have the standard-MNIST sizes 12107 (train side) and 2010 (test side).
    """
    train_images, train_labels = _filter(train_raw)
    test_images, test_labels = _filter(test_raw)

    n_train_side = train_images.shape[0]
    if n_train_side != TRAIN_SIZE + VAL_SIZE:
        raise ValueError(
            f"filtered train-side count {n_train_side} != {TRAIN_SIZE + VAL_SIZE}"
        )
    if test_images.shape[0] != TEST_SIZE:
        raise ValueError(f"filtered test-side count {test_images.shape[0]} != {TEST_SIZE}")

    order = np.random.default_rng(split_seed).permutation(n_train_side)
    train_idx, val_idx = order[:TRAIN_SIZE], order[TRAIN_SIZE:]
    return DatasetSplits(
        train=_split(train_images[train_idx], train_labels[train_idx]),
        validation=_split(train_images[val_idx], train_labels[val_idx]),
        test=_split(test_images, test_labels),
    )
