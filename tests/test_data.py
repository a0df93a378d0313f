import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_splits, read_idx_bytes, whole_buffer_parse_idx, whole_file_raw_sets
from pcmem import data
from pcmem.data import (
    DEFAULT_FILENAMES,
    IdxFormatError,
    RawImageSet,
    build_splits,
    load_idx,
    load_raw,
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
        arr = read_idx_bytes(data)
        assert arr.shape == (2, 28, 28) and arr.dtype == np.uint8

    def test_minimal_label_file(self):
        arr = read_idx_bytes(idx_bytes((5,), bytes(range(5))))
        assert arr.shape == (5,)
        assert list(arr) == [0, 1, 2, 3, 4]

    def test_bad_magic(self):
        data = b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx_bytes(data)

    def test_unsupported_type_code(self):
        data = b"\x00\x00\x0d\x01" + struct.pack(">I", 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="type code"):
            read_idx_bytes(data)

    def test_truncated_payload(self):
        data = idx_bytes((10,), bytes(4))
        with pytest.raises(IdxFormatError, match="payload"):
            read_idx_bytes(data)

    def test_gzip_transparent(self, tmp_path):
        raw = idx_bytes((3,), bytes([7, 8, 9]))
        path = tmp_path / "labels.gz"
        path.write_bytes(gzip.compress(raw))
        arr = load_idx(path)
        assert list(arr) == [7, 8, 9]

    def test_empty_dimension_list_rejected(self):
        with pytest.raises(IdxFormatError, match="no dimensions"):
            read_idx_bytes(b"\x00\x00\x08\x00")

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

    def test_independent_label_scan(self, whole_raw_sets):
        train_raw, test_raw = whole_raw_sets
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

    def test_train_val_partition(self, whole_raw_sets, splits):
        # train and validation together are a permutation of the filtered subset
        train_raw, _ = whole_raw_sets
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

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_label_outside_the_digits_rejected(self, raw_sets, side):
        """build_splits takes load_raw's 4/7 rows as they are; a set that
        holds another digit is refused, not filtered."""
        sets = dict(zip(("train", "test"), raw_sets))
        labels = sets[side].labels.copy()
        labels[5] = 3
        sets[side] = RawImageSet(sets[side].images, labels)
        with pytest.raises(ValueError, match=rf"{side}-side labels \[3\]"):
            build_splits(sets["train"], sets["test"])

    def test_peak_memory(self, raw_sets):
        """The splits' float64 arrays are 88.6 MB. build_splits peaked at
        90.3 MB in tracemalloc on the seed-0 corpus; when it boolean-indexed
        load_raw's rows into a second uint8 copy, at 99.7 MB."""
        tracemalloc.start()
        try:
            build_splits(*raw_sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 95e6


def write_raw_dir(path, images, labels, compress=False):
    """A data directory whose train and test sides both hold images and
    labels, each file plain or gzipped; returns the plain IDX bytes of
    the images file and of the labels file."""
    path.mkdir()
    blobs = {"images": idx_bytes(images.shape, images.tobytes()),
             "labels": idx_bytes(labels.shape, labels.tobytes())}
    for key, name in DEFAULT_FILENAMES.items():
        blob = blobs[key.split("_")[1]]
        if compress:
            (path / (name + ".gz")).write_bytes(gzip.compress(blob, mtime=0))
        else:
            (path / name).write_bytes(blob)
    return blobs["images"], blobs["labels"]


MASK_LABELS = {"all": [4, 7, 4, 7, 4], "none": [0, 1, 2, 3, 5], "alternating": [4, 0, 7, 1, 4]}


class TestChunkedReader:
    @pytest.mark.parametrize("chunk", [1, 7, 783, 785])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("kept", MASK_LABELS)
    def test_any_chunk_size_reads_what_the_whole_buffer_parse_does(
            self, tmp_path, monkeypatch, chunk, compress, kept):
        """Reads that split the header and the 784-byte rows give the
        whole-buffer parse's arrays, and load_raw exactly its DIGITS rows."""
        monkeypatch.setattr(data, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(chunk)
        images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        labels = np.array(MASK_LABELS[kept], dtype=np.uint8)
        image_blob, label_blob = write_raw_dir(tmp_path / "d", images, labels, compress)
        want_images, want_labels = whole_buffer_parse_idx(image_blob), whole_buffer_parse_idx(label_blob)
        suffix = ".gz" if compress else ""
        np.testing.assert_array_equal(load_idx(tmp_path / "d" / ("train-images-idx3-ubyte" + suffix)),
                                      want_images)
        np.testing.assert_array_equal(read_idx_bytes(image_blob), want_images)
        np.testing.assert_array_equal(read_idx_bytes(label_blob), want_labels)
        keep = np.isin(want_labels, (4, 7))
        for raw in load_raw(tmp_path / "d"):
            assert raw.images.shape == (keep.sum(), 28, 28)
            np.testing.assert_array_equal(raw.images, want_images[keep])
            np.testing.assert_array_equal(raw.labels, want_labels[keep])

    def test_declared_size_is_never_allocated(self, tmp_path):
        """A 20-byte file declaring (2**32 - 1) x 28 x 28 fails with the
        whole-buffer parse's message, holding under 1 MiB on the way."""
        blob = idx_bytes((2**32 - 1, 28, 28), bytes(4))
        with pytest.raises(IdxFormatError) as want:
            whole_buffer_parse_idx(blob)
        path = tmp_path / "huge"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(IdxFormatError) as got:
                load_idx(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == f"{path}: {want.value}"
        assert peak < 1 << 20
        with pytest.raises(IdxFormatError) as parsed:
            read_idx_bytes(blob)
        assert str(parsed.value) == str(want.value)

    @pytest.mark.parametrize("split_seed", [0, 1])
    @pytest.mark.parametrize("corpus", ["corpus_dir", "gzip_corpus_dir"], ids=["plain", "gzip"])
    def test_splits_equal_those_of_whole_file_reads(self, request, corpus, split_seed):
        data_dir = request.getfixturevalue(corpus)
        got = build_splits(*load_raw(data_dir), split_seed=split_seed)
        want = direct_splits(*whole_file_raw_sets(data_dir), split_seed)
        for name in ("train", "validation", "test"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.images.tobytes() == b.images.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_load_raw_holds_no_whole_payload(self, corpus_dir):
        """The corpus's images payloads are 55 MB, its 4/7 rows 11 MB."""
        tracemalloc.start()
        try:
            load_raw(corpus_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.parametrize("extra", [1, 785])
    def test_trailing_image_bytes_rejected(self, tmp_path, extra):
        """Bytes past the declared payload are read, counted and reported,
        not taken as rows past the labels."""
        image_blob, _ = write_raw_dir(tmp_path / "d", np.zeros((5, 28, 28), np.uint8),
                                      np.array(MASK_LABELS["all"], np.uint8))
        path = tmp_path / "d" / "train-images-idx3-ubyte"
        path.write_bytes(image_blob + bytes(extra))
        with pytest.raises(IdxFormatError) as want:
            whole_buffer_parse_idx(image_blob + bytes(extra))
        with pytest.raises(IdxFormatError) as got:
            load_raw(tmp_path / "d")
        assert str(got.value) == f"{path}: {want.value}"

    def test_corrupt_gzip_reported_before_a_bad_header(self, tmp_path):
        """A gzip file is read to its end before an IDX fault is raised, so
        damaged gzip data is what is reported, as a whole-file read does."""
        blob = bytearray(gzip.compress(b"\x00\x00\x0d\x01" + struct.pack(">I", 1) + b"\x00"))
        blob[-8] ^= 1  # the CRC
        path = tmp_path / "labels.gz"
        path.write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match="labels.gz: corrupt gzip data: CRC check failed"):
            load_idx(path)

    @pytest.mark.parametrize(
        "labels, message",
        [(np.full(10, 4, np.uint8), "image count != label count"),
         (np.full((12, 1), 4, np.uint8), re.escape("(12, 28, 28)") + ".*" + re.escape("(12, 1)"))],
        ids=["10 labels for 12 images", "2-d labels"],
    )
    def test_header_shapes_checked_before_the_payload(self, tmp_path, labels, message):
        """The images file holds its header alone, so only a check made
        before its payload is read gives RawImageSet's ValueError."""
        write_raw_dir(tmp_path / "d", np.zeros((12, 28, 28), np.uint8), labels)
        (tmp_path / "d" / "train-images-idx3-ubyte").write_bytes(idx_bytes((12, 28, 28), b""))
        with pytest.raises(ValueError, match=message) as exc:
            load_raw(tmp_path / "d")
        assert type(exc.value) is ValueError
