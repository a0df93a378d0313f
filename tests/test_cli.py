import csv
import json

import numpy as np
import pytest

from pcmem.checkpoint import load_checkpoint
from pcmem.cli import main
from pcmem.images import read_pgm


@pytest.fixture(scope="module")
def trained_run(corpus_dir, tmp_path_factory):
    """A short real CLI training run shared by the command tests."""
    out = tmp_path_factory.mktemp("run")
    config = out / "config.json"
    config.write_text(json.dumps({"max_epochs": 30, "val_every": 30}))
    rc = main([
        "train", "--preset", "exp1", "--config", str(config),
        "--data-dir", str(corpus_dir), "--out", str(out), "--seed", "0",
    ])
    assert rc == 0
    return out


class TestTrain:
    def test_artifacts_written(self, trained_run):
        for name in ("checkpoint.pcn", "manifest.json", "trainlog.csv"):
            assert (trained_run / name).exists()

    def test_manifest_has_config_and_digests(self, trained_run):
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "pc"
        assert manifest["config"]["beta"] == 1e-4
        assert len(manifest["data_digests"]) == 4
        assert "created" in manifest

    def test_trainlog_rows(self, trained_run):
        with open(trained_run / "trainlog.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 30
        assert float(rows[-1]["train_e1"]) < float(rows[0]["train_e1"])

    def test_checkpoint_loads(self, trained_run):
        params, adam, manifest = load_checkpoint(trained_run / "checkpoint.pcn")
        assert params.dims == (784, 35, 2)
        assert adam is not None and adam[0].t == 30

    @pytest.mark.parametrize(
        "override, field",
        [({"mode": "pcx"}, "mode"), ({"val_every": 0}, "val_every"),
         ({"max_epoch": 3}, "max_epoch"), ([1], "JSON object")],
    )
    def test_bad_config_fails_cleanly(self, corpus_dir, tmp_path, capsys, override, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(override))
        rc = main([
            "train", "--config", str(config), "--data-dir", str(corpus_dir),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PCN_DATA_DIR", raising=False)
        rc = main(["train", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestReconstruct:
    def test_outputs(self, trained_run, corpus_dir, tmp_path):
        out = tmp_path / "recon"
        rc = main([
            "reconstruct", "--checkpoint", str(trained_run / "checkpoint.pcn"),
            "--data-dir", str(corpus_dir), "--out", str(out), "--split", "train",
        ])
        assert rc == 0
        grid = read_pgm(out / "reconstruct_train.pgm")
        # 64 pairs -> 64 rows x 2 cols of 28px tiles with 2px gutters
        assert grid.shape == (64 * 28 + 63 * 2, 2 * 28 + 2)
        with open(out / "reconstruct_train.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 64
        assert all(float(r["mse"]) >= 0 for r in rows)


class TestReplay:
    def test_outputs(self, trained_run, corpus_dir, tmp_path):
        out = tmp_path / "replay"
        rc = main([
            "replay", "--checkpoint", str(trained_run / "checkpoint.pcn"),
            "--data-dir", str(corpus_dir), "--out", str(out),
        ])
        assert rc == 0
        assert (out / "replay.pgm").exists()
        with open(out / "replay.csv") as f:
            assert len(list(csv.DictReader(f))) == 64


class TestRecall:
    def test_outputs(self, trained_run, corpus_dir, tmp_path, capsys):
        out = tmp_path / "recall"
        rc = main([
            "recall", "--checkpoint", str(trained_run / "checkpoint.pcn"),
            "--data-dir", str(corpus_dir), "--out", str(out),
        ])
        assert rc == 0
        assert "mean masked MSE" in capsys.readouterr().out
        grid = read_pgm(out / "recall.pgm")
        # 10 images x (presented | recalled | original)
        assert grid.shape == (10 * 28 + 9 * 2, 3 * 28 + 2 * 2)
        with open(out / "recall.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 10


class TestExports:
    def test_weights_grid(self, trained_run, tmp_path):
        out = tmp_path / "weights"
        rc = main([
            "export-weights", "--checkpoint", str(trained_run / "checkpoint.pcn"),
            "--out", str(out),
        ])
        assert rc == 0
        grid = read_pgm(out / "weights.pgm")
        # 35 tiles in a 6-wide grid
        assert grid.shape == (6 * 28 + 5 * 2, 6 * 28 + 5 * 2)

    def test_latents_csv(self, trained_run, corpus_dir, tmp_path):
        out = tmp_path / "latents"
        rc = main([
            "export-latents", "--checkpoint", str(trained_run / "checkpoint.pcn"),
            "--data-dir", str(corpus_dir), "--out", str(out),
        ])
        assert rc == 0
        with open(out / "latents.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2010
        assert set(rows[0]) == (
            {"label", "input_energy"}
            | {f"phi3_{j}" for j in range(2)}
            | {f"phi2_{j}" for j in range(35)}
        )
        assert {r["label"] for r in rows} == {"0", "1"}


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[ok]") == 5

    def test_fails_at_impossible_tolerance(self, capsys):
        rc = main(["gradcheck", "--tol", "1e-18"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_checkpoint_reports_error(self, tmp_path, capsys, corpus_dir):
        bad = tmp_path / "bad.pcn"
        bad.write_bytes(b"garbage")
        rc = main([
            "export-weights", "--checkpoint", str(bad), "--out", str(tmp_path / "o")
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_truncated_checkpoint_reports_error(self, trained_run, corpus_dir, tmp_path, capsys):
        cut = tmp_path / "cut.pcn"
        cut.write_bytes((trained_run / "checkpoint.pcn").read_bytes()[:1000])
        rc = main([
            "recall", "--checkpoint", str(cut), "--data-dir", str(corpus_dir),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_checkpoint_directory_reports_error(self, tmp_path, capsys):
        rc = main(["export-weights", "--checkpoint", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
