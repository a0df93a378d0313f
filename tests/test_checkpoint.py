import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmem.checkpoint import (
    MAGIC,
    CheckpointError,
    RunManifest,
    file_digests,
    load_checkpoint,
    save_checkpoint,
)
from pcmem import core
from pcmem.core import ModelParams, init_params
from pcmem.experiments import preset
from pcmem.optim import AdamState

from conftest import checkpoint_extras, read_pgm, save_zero_width_checkpoint


def small_params(seed=0, dims=(6, 4, 2)):
    return init_params(dims, np.random.default_rng(seed))


def small_adam(params, rate=1e-4, steps=3):
    rng = np.random.default_rng(1)
    a1 = AdamState.fresh(params.theta1.shape)
    a2 = AdamState.fresh(params.theta2.shape)
    from pcmem.optim import adam_step

    t1, t2 = params.theta1.copy(), params.theta2.copy()
    for _ in range(steps):
        adam_step(t1, rng.standard_normal(t1.shape), a1, rate)
        adam_step(t2, rng.standard_normal(t2.shape), a2, rate)
    return ModelParams(t1, t2), (a1, a2)


class TestRoundTrip:
    def test_weights_bit_exact(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.pcn"
        saved_adam, manifest = checkpoint_extras(params)
        save_checkpoint(path, params, saved_adam, manifest)
        loaded, adam, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta1, params.theta1)
        np.testing.assert_array_equal(loaded.theta2, params.theta2)
        for saved, got in zip(saved_adam, adam):
            np.testing.assert_array_equal(got.m, saved.m)
            np.testing.assert_array_equal(got.v, saved.v)
            assert got.t == saved.t

    def test_adam_state_round_trip(self, tmp_path):
        config = preset("exp1")
        params, (a1, a2) = small_adam(small_params(), rate=config.beta)
        manifest = RunManifest(config=config.to_dict())
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, (a1, a2), manifest)
        _, adam, _ = load_checkpoint(path)
        for saved, loaded in zip((a1, a2), adam):
            np.testing.assert_array_equal(saved.m, loaded.m)
            np.testing.assert_array_equal(saved.v, loaded.v)
            assert saved.t == loaded.t

    def test_legacy_tanh_manifest_loads(self, tmp_path):
        # manifests written before the activation left the config name it
        params, adam = small_adam(small_params())
        config = {**preset("exp1").to_dict(), "activation": "tanh", "beta": 1e-4}
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam, RunManifest(config=config))
        loaded, loaded_adam, manifest = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta1, params.theta1)
        assert loaded_adam[0].t == adam[0].t
        assert manifest.config == config

    def test_legacy_alpha_manifest_loads(self, tmp_path):
        # manifests written while alpha was a config field name it
        params, adam = small_adam(small_params())
        config = {**preset("exp1").to_dict(), "alpha": core.ALPHA}
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam, RunManifest(config=config))
        loaded, _, manifest = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta1, params.theta1)
        assert manifest.config == config

    def test_legacy_iters_and_stop_rule_manifest_loads(self, tmp_path):
        # manifests written while T and the convergence rule were config fields
        params, adam = small_adam(small_params())
        config = {**preset("exp1").to_dict(), "n_iters": core.DEFAULT_ITERS,
                  "epsilon": 1e-5, "patience": 5}
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam, RunManifest(config=config))
        loaded, _, manifest = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta1, params.theta1)
        assert manifest.config == config

    def test_config_keys_not_read(self, tmp_path):
        """load_checkpoint reads no key of the config: one that
        ExperimentConfig.from_dict refuses still loads, unchanged."""
        params, adam = small_adam(small_params())
        config = {**preset("exp1").to_dict(), "alpha": 0.02, "n_iters": 10,
                  "activation": "relu", "mode": "x"}
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam, RunManifest(config=config))
        loaded, _, manifest = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta1, params.theta1)
        assert manifest.config == config

    def test_manifest_config_round_trip(self, tmp_path):
        config = preset("exp2")
        path = tmp_path / "model.pcn"
        params = small_params()
        adam, _ = checkpoint_extras(params)
        save_checkpoint(path, params, adam, RunManifest(config=config.to_dict()))
        _, _, manifest = load_checkpoint(path)
        from pcmem.experiments import ExperimentConfig

        assert ExperimentConfig.from_dict(manifest.config) == config


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """(directory, bytes) of a 25-8-2 checkpoint with Adam state."""
    out = tmp_path_factory.mktemp("toy_checkpoint")
    params, adam = small_adam(small_params(dims=(25, 8, 2)))
    path = out / "model.pcn"
    save_checkpoint(path, params, adam, RunManifest(config=preset("exp1").to_dict()))
    return out, path.read_bytes()


class TestFormat:
    def test_magic_and_version_header(self, tmp_path):
        path = tmp_path / "model.pcn"
        params = small_params()
        save_checkpoint(path, params, *checkpoint_extras(params))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, n_layers = struct.unpack_from("<II", raw, 4)
        dims = struct.unpack_from("<III", raw, 12)
        assert version == 1 and n_layers == 3
        assert dims == (6, 4, 2)

    def test_weights_stored_row_major_float64(self, tmp_path):
        params = small_params(seed=2)
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, *checkpoint_extras(params))
        raw = path.read_bytes()
        n1 = 6 * 4 * 8
        theta1 = np.frombuffer(raw[24 : 24 + n1], dtype="<f8").reshape(6, 4)
        np.testing.assert_array_equal(theta1, params.theta1)

    def test_whole_layout_from_any_memory_order(self, tmp_path):
        """The file is the documented fields concatenated, each matrix row
        major whatever the memory order of the array it was saved from."""
        params, adam = small_adam(small_params(seed=3))
        params = ModelParams(np.asfortranarray(params.theta1), params.theta2.T.copy().T)
        manifest = RunManifest(config=preset("exp1").to_dict())
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam, manifest)
        want = MAGIC + struct.pack("<II", 1, 3) + struct.pack("<III", 6, 4, 2)
        want += params.theta1.tobytes() + params.theta2.tobytes() + struct.pack("<B", 1)
        for state in adam:
            want += state.m.tobytes() + state.v.tobytes() + struct.pack("<Q", state.t)
        blob = manifest.to_json().encode("utf-8")
        want += struct.pack("<I", len(blob)) + blob
        assert path.read_bytes() == want

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "model.pcn"
        params = small_params()
        save_checkpoint(path, params, *checkpoint_extras(params))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_save_is_deterministic(self, tmp_path):
        params, adam = small_adam(small_params())
        manifest = RunManifest(config=preset("exp1").to_dict())
        a, b = tmp_path / "a.pcn", tmp_path / "b.pcn"
        save_checkpoint(a, params, adam, manifest)
        save_checkpoint(b, params, adam, manifest)
        assert a.read_bytes() == b.read_bytes()

    def test_every_truncation_rejected(self, tmp_path):
        params, adam = small_adam(small_params(dims=(25, 8, 2)))
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam, RunManifest(config=preset("exp1").to_dict()))
        raw = path.read_bytes()
        cut = tmp_path / "cut.pcn"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flip_loads_or_raises_checkpoint_error(self, toy_checkpoint, data):
        out, raw = toy_checkpoint
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(raw)
        damaged[offset] ^= flip
        path = out / "flipped.pcn"
        path.write_bytes(bytes(damaged))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    @pytest.mark.parametrize("dims", [(0, 4, 2), (784, 0, 2), (784, 35, 0)])
    def test_zero_dim_rejected(self, tmp_path, dims):
        path = tmp_path / "model.pcn"
        save_zero_width_checkpoint(path, dims)
        with pytest.raises(CheckpointError, match=r"bad weights: model dims .* must all be >= 1"):
            load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "model.pcn"
        params = small_params()
        save_checkpoint(path, params, *checkpoint_extras(params))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_bad_adam_flag_rejected(self, tmp_path):
        path = tmp_path / "model.pcn"
        params = small_params()
        save_checkpoint(path, params, *checkpoint_extras(params))
        raw = bytearray(path.read_bytes())
        raw[24 + 8 * (6 * 4 + 4 * 2)] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="adam flag 7"):
            load_checkpoint(path)

    def test_adam_flag_zero_rejected(self, tmp_path):
        # pcmem writes no checkpoint without Adam state, and reads none
        path = tmp_path / "model.pcn"
        params, adam = small_adam(small_params())
        save_checkpoint(path, params, adam, RunManifest(config=preset("exp1").to_dict()))
        raw = bytearray(path.read_bytes())
        flag = 24 + 8 * (6 * 4 + 4 * 2)
        assert raw[flag] == 1
        raw[flag] = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"bad adam flag 0 at offset {flag}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "blob", [b"\xff", b"{", b"[]", b'{"config": {}, "data_digests": []}']
    )
    def test_bad_manifest_rejected(self, tmp_path, blob):
        path = tmp_path / "model.pcn"
        params = small_params()
        adam, manifest = checkpoint_extras(params)
        save_checkpoint(path, params, adam, manifest)
        raw = path.read_bytes()
        head = raw[: len(raw) - 4 - len(manifest.to_json())]  # through the adam state
        path.write_bytes(head + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize("matrix", [0, 1], ids=["theta1", "theta2"])
    @pytest.mark.parametrize("moment, value", [("m", float("nan")), ("v", -1.0)])
    def test_bad_adam_moments_rejected(self, tmp_path, matrix, moment, value):
        params, adam = small_adam(small_params())
        bad = getattr(adam[matrix], moment).copy()
        bad[0, 0] = value
        adam = list(adam)
        adam[matrix] = replace(adam[matrix], **{moment: bad})
        path = tmp_path / "model.pcn"
        _, manifest = checkpoint_extras(params)
        save_checkpoint(path, params, tuple(adam), manifest)
        with pytest.raises(CheckpointError, match=f"adam {moment} of theta{matrix + 1}"):
            load_checkpoint(path)

    def test_no_leftover_tmp_file(self, tmp_path):
        path = tmp_path / "model.pcn"
        params = small_params()
        save_checkpoint(path, params, *checkpoint_extras(params))
        assert list(tmp_path.iterdir()) == [path]


class TestAtomicWriters:
    @pytest.mark.parametrize("writer", ["pgm", "idx", "csv", "trainlog"])
    def test_no_leftover_tmp_file(self, tmp_path, writer):
        from pcmem.experiments import EpochStats, TrainLog, write_csv
        from pcmem.images import write_pgm
        from pcmem.synthetic import write_idx

        path = tmp_path / "out"
        if writer == "pgm":
            write_pgm(path, np.arange(6, dtype=np.uint8).reshape(2, 3))
            assert read_pgm(path).shape == (2, 3)
        elif writer == "idx":
            write_idx(path, np.arange(6, dtype=np.uint8).reshape(2, 3))
            assert path.read_bytes()[3] == 2  # two dimensions
        elif writer == "csv":
            write_csv(path, ["a", "b"], [(1, 2.5)])
            assert path.read_bytes() == b"a,b\r\n1,2.5\r\n"
        else:
            TrainLog([EpochStats(1, np.ones(3), np.zeros(3), 0.5)]).to_csv(path)
            assert path.read_text().splitlines()[1] == "1,1.0,1.0,1.0,0.0,0.0,0.0,0.500"
        assert list(tmp_path.iterdir()) == [path]


class TestManifest:
    def test_json_sorted_and_timestamp_free_by_default(self):
        manifest = RunManifest(config={"b": 1, "a": 2})
        text = manifest.to_json()
        assert "created" not in text
        assert text == RunManifest(config={"a": 2, "b": 1}).to_json()

    def test_timestamp_included_on_request(self):
        text = RunManifest(config={}).to_json(include_timestamp=True)
        assert "created" in json.loads(text)

    def test_file_digests(self, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"hello")
        digests = file_digests([f])
        assert digests == {"x.bin": hashlib.sha256(b"hello").hexdigest()}

    def test_file_digests_of_chunked_reads(self, corpus_dir, gzip_corpus_dir):
        """Files larger than one read, plain and gzip, digest as their bytes do."""
        paths = [corpus_dir / "train-images-idx3-ubyte",
                 gzip_corpus_dir / "t10k-images-idx3-ubyte.gz"]
        assert file_digests(paths) == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                       for p in paths}

    def test_file_digests_hold_no_whole_file(self, corpus_dir):
        """The corpus's largest file is 47 MB."""
        tracemalloc.start()
        try:
            file_digests(sorted(corpus_dir.iterdir()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
