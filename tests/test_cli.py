import csv
import gzip
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from pcmem import cli, core, gradcheck
from pcmem.checkpoint import RunManifest, load_checkpoint, save_checkpoint
from pcmem.cli import main
from pcmem.core import free_energy, init_params
from pcmem.data import build_splits, load_idx, load_raw
from pcmem.experiments import preset, run_recall_suite
from pcmem.memory import infer_latents, reconstruct, replay
from pcmem.synthetic import write_idx

from conftest import GRAM_ENERGY_RTOL, checkpoint_extras, read_pgm, save_zero_width_checkpoint


@pytest.fixture(scope="module")
def trained_run(corpus_dir, tmp_path_factory):
    """A short real CLI training run shared by the command tests."""
    out = tmp_path_factory.mktemp("run")
    rc = main([
        "train", "--preset", "exp1", "--max-epochs", "30",
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

    def test_prints_epochs_trained(self, corpus_dir, tmp_path, capsys):
        rc = main(["train", "--preset", "exp1", "--max-epochs", "1",
                   "--data-dir", str(corpus_dir), "--out", str(tmp_path / "run")])
        assert rc == 0
        assert capsys.readouterr().out == "epochs trained: 1\n"

    @pytest.mark.parametrize(
        "flags, field",
        [
            # the override ids are literals, fixed at the names pytest once
            # numbered them by position, so removing a case renames no other
            pytest.param(["--limit-train", "0"], "limit_train", id="override10-limit_train"),
            pytest.param(["--limit-train", "-4"], "limit_train", id="override11-limit_train"),
            pytest.param(["--seed", "-1"], "seed", id="override13-seed"),
            pytest.param(["--beta", "0"], "beta", id="beta-zero"),
            # "=" because argparse reads a bare -1e-4 as an option
            pytest.param(["--beta=-1e-4"], "beta", id="beta-negative"),
            pytest.param(["--beta", "inf"], "beta", id="beta-inf"),
            pytest.param(["--beta", "nan"], "beta", id="beta-nan"),
            pytest.param(["--max-epochs", "0"], "max_epochs", id="max_epochs-zero"),
        ],
    )
    def test_bad_config_fails_cleanly(self, tmp_path, capsys, flags, field):
        # the data directory does not exist: a config checked only after
        # loading would report the missing data instead
        rc = main([
            "train", *flags, "--data-dir", str(tmp_path / "no-data"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "MNIST" not in err
        assert not (tmp_path / "x").exists()

    def test_negative_beta_needs_the_equals_sign(self, tmp_path, capsys):
        """argparse reads a bare -1e-4 as an option, so --beta -1e-4 is a
        usage error (exit 2) before the config check; beta-negative above
        spells it --beta=-1e-4."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--beta", "-1e-4", "--data-dir", str(tmp_path / "no-data"),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "argument --beta: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_file_is_not_an_option(self, tmp_path, capsys):
        """A run is a preset plus flags; there is no second route through a file."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(tmp_path / "x.json"),
                  "--data-dir", str(tmp_path / "no-data"), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_flag_prefixes_are_not_read_as_flags(self, tmp_path, capsys):
        """Each prefix below is unique to one flag, yet none of them sets it:
        a flag counts only as spelled in full."""
        flags = ["--max-epoch", "3", "--lim", "5", "--be", "1e-3"]
        with pytest.raises(SystemExit) as exc:
            main(["train", *flags, "--data-dir", str(tmp_path / "no-data"),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_alpha_config_key_rejected(self, tmp_path, capsys):
        """The inference step size is core.ALPHA; no flag sets it."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--alpha", "0.5", "--data-dir", str(tmp_path / "no-data"),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 0.5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-iters", "50"],
            ["--epsilon", "1e-5"],
            ["--patience", "5"],
            ["--patience", "5", "--n-iters", "50", "--epsilon", "1e-5"],
            ["--dims", "784", "35", "2"],
        ],
        ids=["n_iters", "epsilon", "patience", "all", "dims"],
    )
    def test_fixed_setting_config_keys_rejected(self, tmp_path, capsys, flags):
        """T is core.DEFAULT_ITERS, training has no stop rule for epsilon
        and patience to set, and the model is (image width,
        *experiments.LATENT_DIMS); no flag sets them, even at their values."""
        with pytest.raises(SystemExit) as exc:
            main(["train", *flags, "--data-dir", str(tmp_path / "no-data"),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("given", [False, True], ids=["preset", "flag"])
    @pytest.mark.parametrize(
        "flag, field, value",
        [("--seed", "seed", 2), ("--limit-train", "limit_train", 32),
         ("--max-epochs", "max_epochs", 3), ("--beta", "beta", 2e-4)],
        ids=["seed", "limit_train", "max_epochs", "beta"],
    )
    def test_flag_reaches_manifest_else_preset_stands(
        self, corpus_dir, tmp_path, monkeypatch, flag, field, value, given
    ):
        """Each flag replaces its field of the preset in manifest.json's
        config; without it the preset's value stands. Training runs one
        epoch whatever max_epochs says: only the recorded config is read."""
        real_train = cli.train
        monkeypatch.setattr(
            cli, "train", lambda config, splits: real_train(replace(config, max_epochs=1), splits)
        )
        out = tmp_path / "run"
        rc = main(["train", "--data-dir", str(corpus_dir), "--out", str(out),
                   *([flag, str(value)] if given else [])])
        assert rc == 0
        expected = value if given else getattr(preset("exp1"), field)
        assert json.loads((out / "manifest.json").read_text())["config"][field] == expected

    def test_manifest_digests_the_data_training_read(self, corpus_dir, tmp_path, monkeypatch):
        """A data file replaced while training runs does not reach the
        manifest: it holds the digest of the file training loaded."""
        data = _corpus_copy(corpus_dir, tmp_path / "data")
        labels = data / "t10k-labels-idx1-ubyte"
        loaded = hashlib.sha256(labels.read_bytes()).hexdigest()
        real_train = cli.train

        def train_then_relabel(config, splits):
            result = real_train(config, splits)
            write_idx(labels, np.roll(load_idx(labels), 1))
            return result

        monkeypatch.setattr(cli, "train", train_then_relabel)
        out = tmp_path / "run"
        rc = main(["train", "--max-epochs", "1", "--data-dir", str(data), "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(labels.read_bytes()).hexdigest() != loaded
        digests = json.loads((out / "manifest.json").read_text())["data_digests"]
        assert digests["t10k-labels-idx1-ubyte"] == loaded

    def test_truncated_gzip_data_fails_cleanly(self, corpus_dir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for name in ("train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (data_dir / name).write_bytes((corpus_dir / name).read_bytes())
        blob = gzip.compress((corpus_dir / "train-images-idx3-ubyte").read_bytes()[:4096])
        (data_dir / "train-images-idx3-ubyte.gz").write_bytes(blob[: len(blob) // 2])
        rc = main(["train", "--data-dir", str(data_dir), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train-images-idx3-ubyte.gz" in err
        assert not (tmp_path / "x").exists()

    def test_one_dimensional_images_fail_cleanly(self, corpus_dir, tmp_path, capsys):
        data_dir = _corpus_copy(corpus_dir, tmp_path / "data")
        write_idx(data_dir / "train-images-idx3-ubyte", np.zeros(10, dtype=np.uint8))
        rc = main(["train", "--data-dir", str(data_dir), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(10,)" in err and "(60000,)" in err
        assert not (tmp_path / "x").exists()

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "the following arguments are required: --data-dir" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_is_a_file_fails_before_training(self, corpus_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train ran"))
        out = tmp_path / "taken"
        out.write_bytes(b"")
        rc = main(["train", "--data-dir", str(corpus_dir), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["reconstruct", "replay"])
def test_mse_column_matches_api_on_prefix_rows(
    trained_run, corpus_dir, tmp_path, command, monkeypatch
):
    """The CLI takes the first batch_size training rows of the splits
    rebuilt with the checkpoint's seed, and settles them from that seed;
    on a checkpoint with seed 3 its MSE column equals the API call on those
    rows at seed 3."""
    monkeypatch.setattr(core, "DEFAULT_ITERS", 50)
    checkpoint = _with_config(trained_run, tmp_path, seed=3)
    out = tmp_path / command
    rc = main([
        command, "--checkpoint", str(checkpoint), "--data-dir", str(corpus_dir),
        "--out", str(out),
    ])
    assert rc == 0
    params, _, _ = load_checkpoint(checkpoint)
    x = build_splits(*load_raw(corpus_dir), split_seed=3).train.images[:64]
    if command == "reconstruct":
        expected = reconstruct(params, x, init_seed=3)
    else:
        expected = replay(params, x, init_seed=3)
    name = "reconstruct_train.csv" if command == "reconstruct" else "replay.csv"
    with open(out / name) as f:
        mse = [float(r["mse"]) for r in csv.DictReader(f)]
    assert mse == list(np.mean((x - expected) ** 2, axis=1))


def test_splits_ignore_seed_flag_without_checkpoint_config(
    trained_run, corpus_dir, tmp_path, monkeypatch
):
    """A checkpoint whose config names only its seed (3) runs with the
    config defaults (64 rows) at T = 50, and that one seed both rebuilds
    the splits and draws the latent init; there is no --seed flag."""
    monkeypatch.setattr(core, "DEFAULT_ITERS", 50)
    params, adam, _ = load_checkpoint(trained_run / "checkpoint.pcn")
    bare = tmp_path / "bare.pcn"
    save_checkpoint(bare, params, adam, RunManifest(config={"seed": 3}))
    x = build_splits(*load_raw(corpus_dir), split_seed=3).train.images[:64]
    expected = {
        "replay": replay(params, x, init_seed=3),
        "reconstruct": reconstruct(params, x, init_seed=3),
    }
    for command, out_images in expected.items():
        out = tmp_path / command
        rc = main([command, "--checkpoint", str(bare), "--data-dir", str(corpus_dir),
                   "--out", str(out)])
        assert rc == 0
        name = "replay.csv" if command == "replay" else "reconstruct_train.csv"
        with open(out / name) as f:
            mse = [float(r["mse"]) for r in csv.DictReader(f)]
        assert mse == list(np.mean((x - out_images) ** 2, axis=1))


@pytest.mark.parametrize("command", ["recall", "export-latents"])
def test_recall_and_latents_settle_from_checkpoint_seed(
    trained_run, corpus_dir, tmp_path, command
):
    """On a checkpoint with seed 3, recall.csv and latents.csv equal the
    library calls at seed 3 on the splits rebuilt with seed 3."""
    checkpoint = _with_config(trained_run, tmp_path, seed=3)
    out = tmp_path / command
    rc = main([command, "--checkpoint", str(checkpoint), "--data-dir", str(corpus_dir),
               "--out", str(out)])
    assert rc == 0
    params, _, _ = load_checkpoint(checkpoint)
    splits = build_splits(*load_raw(corpus_dir), split_seed=3)
    if command == "recall":
        with open(out / "recall.csv") as f:
            got = [float(r["masked_mse"]) for r in csv.DictReader(f)]
        assert got == list(run_recall_suite(params, splits, seed=3).masked_mse)
    else:
        state = infer_latents(params, splits.test.images, init_seed=3)
        with open(out / "latents.csv") as f:
            got = [[float(r[f"phi3_{j}"]) for j in range(2)] for r in csv.DictReader(f)]
        assert got == state.phi3.tolist()


@pytest.mark.parametrize(
    "command", ["reconstruct", "replay", "recall", "export-latents", "export-weights"]
)
def test_memory_commands_take_no_seed(trained_run, corpus_dir, tmp_path, capsys, command):
    """Only train and gradcheck take --seed; the memory commands settle
    from the checkpoint's seed."""
    data = [] if command == "export-weights" else ["--data-dir", str(corpus_dir)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--checkpoint", str(trained_run / "checkpoint.pcn"), *data,
              "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _with_config(trained_run, tmp_path, **settings):
    """The trained checkpoint re-saved with the given settings merged into
    its embedded config."""
    params, adam, manifest = load_checkpoint(trained_run / "checkpoint.pcn")
    manifest.config = {**manifest.config, **settings}
    path = tmp_path / "edited.pcn"
    save_checkpoint(path, params, adam, manifest)
    return path


@pytest.mark.parametrize("command", ["reconstruct", "replay", "recall", "export-latents"])
@pytest.mark.parametrize(
    "setting", [{"alpha": None}, {"batch_size": None}, {"seed": [1]}, {"n_iters": "x"},
                {"activation": "identity"}],
    ids=lambda s: next(iter(s)),
)
def test_malformed_checkpoint_settings_fail_cleanly(
    trained_run, corpus_dir, tmp_path, capsys, command, setting
):
    checkpoint = _with_config(trained_run, tmp_path, **setting)
    rc = main([command, "--checkpoint", str(checkpoint), "--data-dir", str(corpus_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(setting)) in err
    assert "Traceback" not in err


def test_checkpoint_with_another_alpha_fails_cleanly(trained_run, corpus_dir, tmp_path, capsys):
    checkpoint = _with_config(trained_run, tmp_path, alpha=0.02)
    rc = main(["recall", "--checkpoint", str(checkpoint), "--data-dir", str(corpus_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: bad config in {checkpoint}: alpha 0.02, the model has 0.01\n"
    )
    assert not (tmp_path / "o").exists()


def test_export_weights_reads_no_config(trained_run, tmp_path):
    """export-weights settles nothing, so a config at another alpha does not stop it."""
    checkpoint = _with_config(trained_run, tmp_path, alpha=0.02)
    out = tmp_path / "o"
    assert main(["export-weights", "--checkpoint", str(checkpoint), "--out", str(out)]) == 0
    assert (out / "weights.pgm").exists()


def test_checkpoint_with_another_n_iters_fails_cleanly(trained_run, corpus_dir, tmp_path, capsys):
    """A checkpoint trained at another T is not settled at core.DEFAULT_ITERS
    without a word; the error names the checkpoint."""
    checkpoint = _with_config(trained_run, tmp_path, n_iters=20)
    rc = main(["replay", "--checkpoint", str(checkpoint), "--data-dir", str(corpus_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: bad config in {checkpoint}: n_iters 20, the model has 50\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, work",
    [("reconstruct", "reconstruct"), ("replay", "replay"), ("recall", "run_recall_suite"),
     ("export-latents", "infer_latents"), ("export-weights", "image_grid")],
)
def test_out_is_a_file_fails_before_work(
    trained_run, corpus_dir, tmp_path, capsys, monkeypatch, command, work
):
    """Each memory command creates --out before its work, so an --out that
    is a file fails without running it."""
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: pytest.fail(f"{work} ran"))
    out = tmp_path / "taken"
    out.write_bytes(b"")
    data = [] if command == "export-weights" else ["--data-dir", str(corpus_dir)]
    rc = main([command, "--checkpoint", str(trained_run / "checkpoint.pcn"), *data,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_legacy_config_key_ignored(trained_run, corpus_dir, tmp_path):
    """A checkpoint whose config names fields the config no longer has
    (scope, and activation, alpha, n_iters, epsilon, patience and dims as
    checkpoints wrote them while they were fields) gives every memory
    command the same bytes as without them."""
    legacy = _with_config(trained_run, tmp_path, scope="single-batch", activation="tanh",
                          alpha=0.01, n_iters=50, epsilon=1e-5, patience=5, dims=[784, 35, 2])
    _assert_same_outputs(trained_run, corpus_dir, tmp_path, legacy)


def test_stop_rule_keys_ignored_whatever_their_values(trained_run, corpus_dir, tmp_path):
    """epsilon and patience only decided when a run stopped, so values the
    config once rejected change no memory command's bytes."""
    legacy = _with_config(trained_run, tmp_path, epsilon=-1.0, patience=0)
    _assert_same_outputs(trained_run, corpus_dir, tmp_path, legacy)


def _assert_same_outputs(trained_run, corpus_dir, tmp_path, legacy):
    """Every memory command writes the same bytes from the checkpoint
    `legacy` as from the trained run's own."""
    outputs = {
        "reconstruct": ["reconstruct_train.csv", "reconstruct_train.pgm"],
        "replay": ["replay.csv", "replay.pgm"],
        "recall": ["recall.csv", "recall.pgm"],
        "export-weights": ["weights.pgm"],
        "export-latents": ["latents.csv"],
    }
    for command, names in outputs.items():
        for path, out in ((legacy, tmp_path / "legacy"),
                          (trained_run / "checkpoint.pcn", tmp_path / "plain")):
            data = [] if command == "export-weights" else ["--data-dir", str(corpus_dir)]
            rc = main([command, "--checkpoint", str(path), *data, "--out", str(out / command)])
            assert rc == 0
        for name in names:
            assert (tmp_path / "legacy" / command / name).read_bytes() == (
                tmp_path / "plain" / command / name).read_bytes()


def _corpus_copy(corpus_dir, path, relabel=False):
    """A copy of the test corpus at path; with relabel, its test labels
    rolled by one, which keeps every label's count and so the split sizes."""
    path.mkdir()
    for f in corpus_dir.iterdir():
        (path / f.name).write_bytes(f.read_bytes())
    if relabel:
        labels = load_idx(corpus_dir / "t10k-labels-idx1-ubyte")
        write_idx(path / "t10k-labels-idx1-ubyte", np.roll(labels, 1))
    return path


def test_recall_on_other_data_fails_cleanly(trained_run, corpus_dir, tmp_path, capsys):
    """A --data-dir whose bytes differ from what training read fails with
    one error line naming the first file that differs, before --out is
    created."""
    other = _corpus_copy(corpus_dir, tmp_path / "relabelled", relabel=True)
    rc = main(["recall", "--checkpoint", str(trained_run / "checkpoint.pcn"),
               "--data-dir", str(other), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --data-dir ") and err.count("\n") == 1
    assert err.endswith(": t10k-labels-idx1-ubyte differs\n")
    assert not (tmp_path / "o").exists()


def test_recall_on_copied_data_gives_same_bytes(trained_run, corpus_dir, tmp_path):
    """The check reads file bytes, not the directory: an unchanged copy of
    the corpus gives the same recall.csv."""
    copy = _corpus_copy(corpus_dir, tmp_path / "copy")
    for data, out in ((corpus_dir, tmp_path / "a"), (copy, tmp_path / "b")):
        rc = main(["recall", "--checkpoint", str(trained_run / "checkpoint.pcn"),
                   "--data-dir", str(data), "--out", str(out)])
        assert rc == 0
    assert (tmp_path / "a" / "recall.csv").read_bytes() == (
        tmp_path / "b" / "recall.csv").read_bytes()


def test_checkpoint_without_digests_is_not_checked(trained_run, corpus_dir, tmp_path):
    """A manifest with no data digests, as the library's RunManifest(config=...)
    writes, loads on any data that builds the splits."""
    params, adam, manifest = load_checkpoint(trained_run / "checkpoint.pcn")
    bare = tmp_path / "bare.pcn"
    save_checkpoint(bare, params, adam, RunManifest(config=manifest.config))
    other = _corpus_copy(corpus_dir, tmp_path / "relabelled", relabel=True)
    rc = main(["recall", "--checkpoint", str(bare), "--data-dir", str(other),
               "--out", str(tmp_path / "o")])
    assert rc == 0


@pytest.mark.parametrize("command", ["recall", "reconstruct", "replay", "export-latents"])
def test_recall_on_wrong_input_size_fails_cleanly(tmp_path, capsys, monkeypatch, command):
    """A 25-8-2 checkpoint cannot settle 28x28 images: every memory command
    says so before it reads any data or creates --out."""
    monkeypatch.setattr(cli, "load_raw", lambda *args: pytest.fail("data read"))
    path = tmp_path / "toy.pcn"
    params = init_params((25, 8, 2), np.random.default_rng(0))
    save_checkpoint(path, params, *checkpoint_extras(params))
    rc = main([command, "--checkpoint", str(path), "--data-dir", str(tmp_path / "no-data"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: model input size 25 != image size 784\n"
    assert not (tmp_path / "o").exists()


def test_export_weights_on_wrong_input_size_fails_cleanly(tmp_path, capsys):
    """A 25-8-2 checkpoint's theta1 columns are not 28x28 tiles."""
    path = tmp_path / "toy.pcn"
    params = init_params((25, 8, 2), np.random.default_rng(0))
    save_checkpoint(path, params, *checkpoint_extras(params))
    rc = main(["export-weights", "--checkpoint", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: model input size 25 != image size 784\n"


@pytest.mark.parametrize("dims", [(0, 4, 2), (784, 0, 2), (784, 35, 0)])
def test_zero_width_checkpoint_fails_cleanly(tmp_path, capsys, dims):
    path = tmp_path / "zero.pcn"
    save_zero_width_checkpoint(path, dims)
    rc = main(["export-weights", "--checkpoint", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad weights: model dims") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "o").exists()


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
        params, _, manifest = load_checkpoint(trained_run / "checkpoint.pcn")
        splits = build_splits(*load_raw(corpus_dir), split_seed=manifest.config["seed"])
        suite = run_recall_suite(params, splits, seed=manifest.config["seed"])
        assert [int(r["iterations"]) for r in rows] == list(suite.iterations)
        assert [r["converged"] for r in rows] == [str(c) for c in suite.converged]
        assert [float(r["masked_mse"]) for r in rows] == list(suite.masked_mse)
        assert [float(r["last_delta"]) for r in rows] == list(suite.last_delta)


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
        # input_energy is the input-layer column of the energies of the
        # settle the checkpoint's seed draws, read back bit for bit, and
        # free_energy's at its latents within GRAM_ENERGY_RTOL
        params, _, manifest = load_checkpoint(trained_run / "checkpoint.pcn")
        seed = manifest.config["seed"]
        images = build_splits(*load_raw(corpus_dir), split_seed=seed).test.images
        state = infer_latents(params, images, init_seed=seed)
        got = np.array([float(r["input_energy"]) for r in rows])
        assert got.tobytes() == state.energies()[:, 0].tobytes()
        direct = free_energy(params, state, images)[:, 0]
        np.testing.assert_allclose(got, direct, rtol=GRAM_ENERGY_RTOL, atol=0)


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[ok]") == 5

    def test_negative_seed_fails_cleanly(self, capsys):
        rc = main(["gradcheck", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"

    def test_fails_at_impossible_tolerance(self, capsys, monkeypatch):
        monkeypatch.setattr(gradcheck, "DEFAULT_TOL", 1e-18)
        rc = main(["gradcheck"])
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
