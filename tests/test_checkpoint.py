import json
import struct

import numpy as np
import pytest

from pcmem.checkpoint import (
    MAGIC,
    CheckpointError,
    RunManifest,
    file_digests,
    load_checkpoint,
    save_checkpoint,
)
from pcmem.core import Activation, ModelParams, init_params
from pcmem.experiments import preset
from pcmem.optim import AdamState


def small_params(seed=0, dims=(6, 4, 2)):
    return init_params(dims, np.random.default_rng(seed))


def small_adam(params, rate=1e-4, steps=3):
    rng = np.random.default_rng(1)
    a1 = AdamState.fresh(params.theta1.shape, rate)
    a2 = AdamState.fresh(params.theta2.shape, rate)
    from pcmem.optim import adam_step

    t1, t2 = params.theta1, params.theta2
    for _ in range(steps):
        t1, a1 = adam_step(t1, rng.standard_normal(t1.shape), a1)
        t2, a2 = adam_step(t2, rng.standard_normal(t2.shape), a2)
    return ModelParams(t1, t2, params.activation), (a1, a2)


class TestRoundTrip:
    def test_weights_bit_exact(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params)
        loaded, adam, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta1, params.theta1)
        np.testing.assert_array_equal(loaded.theta2, params.theta2)
        assert adam is None

    def test_adam_state_round_trip(self, tmp_path):
        config = preset("exp1")
        params, (a1, a2) = small_adam(small_params(), rate=config.beta)
        manifest = RunManifest(config=config.to_dict())
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam=(a1, a2), manifest=manifest)
        _, adam, _ = load_checkpoint(path)
        for saved, loaded in zip((a1, a2), adam):
            np.testing.assert_array_equal(saved.m, loaded.m)
            np.testing.assert_array_equal(saved.v, loaded.v)
            assert saved.t == loaded.t
            assert loaded.rate == config.beta

    def test_activation_restored_from_manifest(self, tmp_path):
        dims = (6, 4, 2)
        params = ModelParams(
            np.ones((6, 4)), np.ones((4, 2)), activation=Activation.IDENTITY
        )
        config = preset("exp1").to_dict()
        config["activation"] = "identity"
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, manifest=RunManifest(config=config))
        loaded, _, _ = load_checkpoint(path)
        assert loaded.activation is Activation.IDENTITY

    def test_manifest_config_round_trip(self, tmp_path):
        config = preset("exp2")
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params(), manifest=RunManifest(config=config.to_dict()))
        _, _, manifest = load_checkpoint(path)
        from pcmem.experiments import ExperimentConfig

        assert ExperimentConfig.from_dict(manifest.config) == config


class TestFormat:
    def test_magic_and_version_header(self, tmp_path):
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params())
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, n_layers = struct.unpack_from("<II", raw, 4)
        dims = struct.unpack_from("<III", raw, 12)
        assert version == 1 and n_layers == 3
        assert dims == (6, 4, 2)

    def test_weights_stored_row_major_float64(self, tmp_path):
        params = small_params(seed=2)
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        n1 = 6 * 4 * 8
        theta1 = np.frombuffer(raw[24 : 24 + n1], dtype="<f8").reshape(6, 4)
        np.testing.assert_array_equal(theta1, params.theta1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params())
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_save_is_deterministic(self, tmp_path):
        params, adam = small_adam(small_params())
        manifest = RunManifest(config=preset("exp1").to_dict())
        a, b = tmp_path / "a.pcn", tmp_path / "b.pcn"
        save_checkpoint(a, params, adam=adam, manifest=manifest)
        save_checkpoint(b, params, adam=adam, manifest=manifest)
        assert a.read_bytes() == b.read_bytes()

    def test_every_truncation_rejected(self, tmp_path):
        params, adam = small_adam(small_params(dims=(25, 8, 2)))
        path = tmp_path / "model.pcn"
        save_checkpoint(path, params, adam=adam, manifest=RunManifest(config=preset("exp1").to_dict()))
        raw = path.read_bytes()
        cut = tmp_path / "cut.pcn"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_bad_adam_flag_rejected(self, tmp_path):
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params())
        raw = bytearray(path.read_bytes())
        raw[24 + 8 * (6 * 4 + 4 * 2)] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="adam flag 7"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "blob", [b"\xff", b"{", b"[]", b'{"config": {"activation": "relu"}}']
    )
    def test_bad_manifest_rejected(self, tmp_path, blob):
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params())
        head = path.read_bytes()[: 24 + 8 * (6 * 4 + 4 * 2) + 1]  # through the adam flag
        path.write_bytes(head + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    def test_no_leftover_tmp_file(self, tmp_path):
        path = tmp_path / "model.pcn"
        save_checkpoint(path, small_params())
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
        import hashlib

        assert digests == {"x.bin": hashlib.sha256(b"hello").hexdigest()}
