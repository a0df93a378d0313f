import gzip
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_splits
from pcmem.data import (
    IdxFormatError,
    RawImageSet,
    build_splits,
    load_idx,
    parse_idx,
)


def idx_bytes(dims, payload):
    header = struct.pack(">BBBB", 0, 0, 0x08, len(dims))
    header += struct.pack(f">{len(dims)}I", *dims)
    return header + payload


def two_image_idx():
    """A plain IDX file of two 28x28 images with sparse, varied pixels."""
    rng = np.random.default_rng(0)
    pixels = (rng.uniform(0, 1, (2, 28, 28)) ** 4 * 255).astype(np.uint8)
    return idx_bytes((2, 28, 28), pixels.tobytes())


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx")


class TestParseIdx:
    def test_minimal_image_file(self):
        data = idx_bytes((2, 28, 28), bytes(2 * 28 * 28))
        arr = parse_idx(data)
        assert arr.shape == (2, 28, 28) and arr.dtype == np.uint8

    def test_minimal_label_file(self):
        arr = parse_idx(idx_bytes((5,), bytes(range(5))))
        assert arr.shape == (5,)
        assert list(arr) == [0, 1, 2, 3, 4]

    def test_bad_magic(self):
        data = b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="magic"):
            parse_idx(data)

    def test_unsupported_type_code(self):
        data = b"\x00\x00\x0d\x01" + struct.pack(">I", 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="type code"):
            parse_idx(data)

    def test_truncated_payload(self):
        data = idx_bytes((10,), bytes(4))
        with pytest.raises(IdxFormatError, match="payload"):
            parse_idx(data)

    def test_gzip_transparent(self, tmp_path):
        raw = idx_bytes((3,), bytes([7, 8, 9]))
        path = tmp_path / "labels.gz"
        path.write_bytes(gzip.compress(raw))
        arr = load_idx(path)
        assert list(arr) == [7, 8, 9]

    def test_empty_dimension_list_rejected(self):
        with pytest.raises(IdxFormatError, match="no dimensions"):
            parse_idx(b"\x00\x00\x08\x00")

    def test_every_gzip_truncation_rejected(self, tmp_path):
        blob = gzip.compress(two_image_idx())
        path = tmp_path / "images.gz"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(IdxFormatError, match="images.gz"):
                load_idx(path)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flip_loads_or_raises_idx_error(self, idx_dir, compress, data):
        raw = two_image_idx()
        blob = gzip.compress(raw, mtime=0) if compress else raw
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(blob)
        damaged[offset] ^= flip
        path = idx_dir / "flipped"
        path.write_bytes(bytes(damaged))
        try:
            load_idx(path)
        except IdxFormatError:
            pass

    def test_parses_full_synthetic_corpus(self, corpus_dir):
        images = load_idx(corpus_dir / "train-images-idx3-ubyte")
        assert images.shape == (60000, 28, 28)


class TestBuildSplits:
    def test_sizes(self, splits):
        assert len(splits.train) == 10097
        assert len(splits.validation) == 2010
        assert len(splits.test) == 2010

    def test_independent_label_scan(self, raw_sets):
        train_raw, test_raw = raw_sets
        n47 = sum(1 for v in train_raw.labels if v == 4 or v == 7)
        assert n47 == 12107
        assert sum(1 for v in test_raw.labels if v in (4, 7)) == 2010

    def test_deterministic(self, raw_sets):
        a = build_splits(*raw_sets, split_seed=3)
        b = build_splits(*raw_sets, split_seed=3)
        np.testing.assert_array_equal(a.train.images, b.train.images)
        np.testing.assert_array_equal(a.validation.labels, b.validation.labels)

    @pytest.mark.parametrize("split_seed", [0, 1])
    def test_equals_the_float_first_form(self, raw_sets, split_seed):
        """Rows taken as uint8 and scaled per split are the rows of the
        whole filtered set scaled first, bit for bit."""
        got, want = build_splits(*raw_sets, split_seed=split_seed), direct_splits(*raw_sets, split_seed)
        for name in ("train", "validation", "test"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.images.dtype == b.images.dtype == np.float64
            assert a.images.tobytes() == b.images.tobytes()
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_changes_assignment(self, raw_sets, splits):
        other = build_splits(*raw_sets, split_seed=1)
        assert not np.array_equal(other.train.images, splits.train.images)

    def test_pixels_and_labels(self, splits):
        for split in (splits.train, splits.validation, splits.test):
            assert split.images.min() >= 0.0 and split.images.max() <= 1.0
            assert set(np.unique(split.labels)) <= {0, 1}

    def test_train_val_partition(self, raw_sets, splits):
        # train and validation together are a permutation of the filtered subset
        train_raw, _ = raw_sets
        mask = np.isin(train_raw.labels, (4, 7))
        filtered = train_raw.images[mask].reshape(-1, 784) / 255.0
        combined = np.vstack([splits.train.images, splits.validation.images])
        assert combined.shape == filtered.shape
        order = np.lexsort(filtered.T)
        order_c = np.lexsort(combined.T)
        np.testing.assert_allclose(filtered[order], combined[order_c])

    @pytest.mark.parametrize(
        "images, labels",
        [(np.zeros(10, np.uint8), np.zeros(10, np.uint8)),
         (np.zeros((10, 784), np.uint8), np.zeros(10, np.uint8)),
         (np.zeros((10, 28, 28), np.uint8), np.zeros((10, 1), np.uint8)),
         (np.zeros((10, 28, 32), np.uint8), np.zeros(10, np.uint8))],
        ids=["1-d images", "2-d images", "2-d labels", "28x32 images"],
    )
    def test_bad_raw_shapes_rejected(self, images, labels):
        shapes = f"{re.escape(str(images.shape))}.*{re.escape(str(labels.shape))}"
        with pytest.raises(ValueError, match=shapes):
            RawImageSet(images, labels)

    def test_wrong_counts_rejected(self):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(100, 28, 28), dtype=np.uint8)
        labels = np.full(100, 4, dtype=np.uint8)
        raw = RawImageSet(imgs, labels)
        with pytest.raises(ValueError, match="100"):
            build_splits(raw, raw)
