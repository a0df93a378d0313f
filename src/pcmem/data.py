"""MNIST IDX reading, the digit 4 and 7 subset, and splits.

The pipeline finds the four standard MNIST files (each plain or .gz) in a
data directory and keeps the images of digits 4 and 7 as they are read,
in chunks, so that no other image is ever held. It shuffles the training
side's 4/7 subset with a seed and takes the first 10097 examples as the
training set (the remaining 2010 become validation); the test side's 4/7
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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_UBYTE = 0x08
# bytes per read of a data file, into one buffer reused for the file: about
# 1 MiB, small beside a 47 MB images file, and under 1 MiB so that reading
# a file holds less than 1 MiB beyond what is kept
CHUNK_BYTES = 1_000_000

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


def _read_header(stream) -> tuple[int, ...]:
    """Read an IDX header from stream; returns its declared dims."""
    head = stream.read(4)
    if len(head) < 4:
        raise IdxFormatError("truncated IDX header")
    zero0, zero1, type_code, n_dims = struct.unpack(">BBBB", head)
    if zero0 != 0 or zero1 != 0:
        raise IdxFormatError(f"bad IDX magic bytes ({zero0:#x}, {zero1:#x})")
    if type_code != IDX_UBYTE:
        raise IdxFormatError(f"unsupported IDX type code {type_code:#x}")
    if n_dims == 0:
        raise IdxFormatError("IDX header declares no dimensions")
    dims = stream.read(4 * n_dims)
    if len(dims) < 4 * n_dims:
        raise IdxFormatError("truncated IDX dimension header")
    return struct.unpack(f">{n_dims}I", dims)


def _append_kept(out: bytearray, data: np.ndarray, start: int, row: int, keep: np.ndarray) -> None:
    """Append to out the bytes of data, which begin at payload offset start
    and end within the declared payload, that lie in rows keep marks."""
    r, offset = divmod(start, row)
    if offset:
        head = row - offset
        if keep[r]:
            out += memoryview(data[:head])
        data, r = data[head:], r + 1
    full = data.size // row
    out += memoryview(data[: full * row].reshape(full, row)[keep[r : r + full]])
    if data.size > full * row and keep[r + full]:
        out += memoryview(data[full * row :])


def _read_payload(stream, dims: tuple[int, ...], keep: np.ndarray | None = None) -> np.ndarray:
    """Read the payload that follows a header declaring dims, to the end of
    stream, in CHUNK_BYTES reads into one reused buffer. Returns every row
    (along the first dim), or only the rows the boolean mask keep (one
    entry per declared row) marks. What it holds grows with the bytes read,
    never with the declared dims, and a payload of any other length, even
    a longer one, is an IdxFormatError that gives the length read."""
    expected, row = math.prod(dims), math.prod(dims[1:])
    buffer = np.empty(CHUNK_BYTES, dtype=np.uint8)
    out = bytearray()
    length = 0
    while n := stream.readinto(buffer):
        data = buffer[: max(0, min(n, expected - length))]
        if keep is None:
            out += memoryview(data)
        elif data.size:
            _append_kept(out, data, length, row, keep)
        length += n
    if length != expected:
        raise IdxFormatError(f"IDX payload length {length} != expected {expected} for dims {dims}")
    if keep is not None:
        dims = (int(np.count_nonzero(keep)), *dims[1:])
    return np.frombuffer(out, dtype=np.uint8).reshape(dims)


@contextmanager
def _idx_stream(path: Path):
    """The IDX stream of the file at path, decompressed as it is read if the
    file is gzip. An IdxFormatError inside, and truncated or damaged gzip
    data, become an IdxFormatError naming the file. On a ValueError inside,
    a gzip stream is first read to its end, so that a corrupt file is
    reported as such."""
    with open(path, "rb") as file:
        zipped = file.read(2) == b"\x1f\x8b"
        file.seek(0)
        stream = gzip.GzipFile(fileobj=file) if zipped else file
        try:
            try:
                yield stream
            except ValueError:
                while zipped and stream.read(CHUNK_BYTES):
                    pass
                raise
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"{path}: corrupt gzip data: {exc}") from None
        except IdxFormatError as exc:
            raise IdxFormatError(f"{path}: {exc}") from None


def load_idx(path: str | Path) -> np.ndarray:
    """Load an IDX file, transparently decompressing gzip, in CHUNK_BYTES
    reads.

    Raises IdxFormatError naming the file on a malformed IDX stream or on
    truncated or damaged gzip data.
    """
    with _idx_stream(Path(path)) as stream:
        return _read_payload(stream, _read_header(stream))


def _check_shapes(images_shape: tuple[int, ...], labels_shape: tuple[int, ...]) -> None:
    """Raise ValueError unless the shapes are count x IMAGE_SIDE x
    IMAGE_SIDE images and count labels."""
    side = (IMAGE_SIDE, IMAGE_SIDE)
    if len(images_shape) != 3 or images_shape[1:] != side or len(labels_shape) != 1:
        raise ValueError(
            f"expected count x {IMAGE_SIDE} x {IMAGE_SIDE} images and 1-D labels, "
            f"got images of shape {images_shape} and labels of shape {labels_shape}"
        )
    if images_shape[0] != labels_shape[0]:
        raise ValueError("image count != label count")


@dataclass(frozen=True)
class RawImageSet:
    """Images (count x IMAGE_SIDE x IMAGE_SIDE, uint8) with their digit
    labels 0-9. load_raw's sets hold only the DIGITS rows, and
    build_splits takes no other."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _check_shapes(self.images.shape, self.labels.shape)


def data_file(data_dir: str | Path, name: str) -> Path:
    """The MNIST file `name` in data_dir: the plain file if present, else its .gz."""
    for candidate in (Path(data_dir) / name, Path(data_dir) / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"missing MNIST file: {Path(data_dir) / name}[.gz]")


def load_raw(data_dir: str | Path) -> tuple[RawImageSet, RawImageSet]:
    """The DIGITS examples of the four standard MNIST files (each plain or
    .gz) in data_dir, as a train-side and a test-side RawImageSet.

    Each side reads its labels file first, then checks the images file's
    header against it (count x IMAGE_SIDE x IMAGE_SIDE, one image per
    label) before any pixel is read. The images are read in CHUNK_BYTES
    reads and only the rows whose label is in DIGITS are kept, so no whole
    images payload is ever held: on the standard counts, 12107 + 2010 rows
    (11 MB) instead of 70000 (55 MB).
    """

    def load(side: str) -> RawImageSet:
        labels = load_idx(data_file(data_dir, DEFAULT_FILENAMES[f"{side}_labels"]))
        with _idx_stream(data_file(data_dir, DEFAULT_FILENAMES[f"{side}_images"])) as stream:
            dims = _read_header(stream)
            _check_shapes(dims, labels.shape)
            keep = np.isin(labels, DIGITS)
            images = _read_payload(stream, dims, keep)
        return RawImageSet(images=images, labels=labels[keep])

    return load("train"), load("test")


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


def _rows(raw: RawImageSet, side: str) -> tuple[np.ndarray, np.ndarray]:
    """raw's uint8 images flattened to rows (a view of load_raw's) and its
    labels mapped to 0/1. A label outside DIGITS is a ValueError naming it."""
    stray = np.setdiff1d(raw.labels, DIGITS)
    if stray.size:
        raise ValueError(f"{side}-side labels {stray.tolist()} are not among {DIGITS}")
    images = raw.images.reshape(-1, IMAGE_SIDE * IMAGE_SIDE)
    return images, (raw.labels == DIGITS[1]).astype(np.uint8)


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
    """The fixed-size splits of load_raw's two sets of DIGITS examples.

    Fails hard on a label outside DIGITS (naming it), or (naming the
    observed counts) unless the sets have the standard-MNIST 4/7 sizes
    12107 (train side) and 2010 (test side).
    """
    train_images, train_labels = _rows(train_raw, "train")
    test_images, test_labels = _rows(test_raw, "test")

    n_train_side = train_images.shape[0]
    if n_train_side != TRAIN_SIZE + VAL_SIZE:
        raise ValueError(f"train-side count {n_train_side} != {TRAIN_SIZE + VAL_SIZE}")
    if test_images.shape[0] != TEST_SIZE:
        raise ValueError(f"test-side count {test_images.shape[0]} != {TEST_SIZE}")

    order = np.random.default_rng(split_seed).permutation(n_train_side)
    train_idx, val_idx = order[:TRAIN_SIZE], order[TRAIN_SIZE:]
    return DatasetSplits(
        train=_split(train_images[train_idx], train_labels[train_idx]),
        validation=_split(train_images[val_idx], train_labels[val_idx]),
        test=_split(test_images, test_labels),
    )
