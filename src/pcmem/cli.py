"""Command-line surface: training runs, memory-task exports, gradient checks.

Subcommands: train, reconstruct, replay, recall, export-weights,
export-latents, gradcheck. A training run is a preset with any of --seed,
--limit-train, --max-epochs and --beta replacing its field (flags >
preset); its config and the digests of the data files it loaded are
frozen into the run manifest. `--seed` sets the config's one seed, from
which the weight init, the latent draws, the epoch order and the split
each start a generator; the model is (image width,
*experiments.LATENT_DIMS). The memory commands take no seed: they read
the checkpoint's config through ExperimentConfig.from_dict, rebuild the
splits with its seed, draw the latent init from that seed too, and read a
prefix of a split: reconstruct and replay its first batch_size images,
recall the recall suite's first 10 training images. gradcheck's `--seed`
draws its random instance. Every settle runs core.DEFAULT_ITERS steps of
size core.ALPHA; nothing sets either. A command refuses a checkpoint whose
model input is not one image, and a --data-dir whose files differ from
those training read, before it creates --out. Runs are bit-reproducible
with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1
before pcmem starts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck
from .checkpoint import (CheckpointError, RunManifest, atomic_write, file_digests,
                         load_checkpoint, save_checkpoint)
from .data import DEFAULT_FILENAMES, IMAGE_SIDE, build_splits, data_file, load_raw
from .experiments import ExperimentConfig, preset, run_recall_suite, train, write_csv
from .images import image_grid, write_pgm
from .memory import infer_latents, reconstruct, replay


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmem",
        allow_abbrev=False,
        description="Hierarchical predictive coding network: training, replay, "
        "and auto-associative recall on a two-digit MNIST subset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        # a flag is read only as spelled in full, never from a prefix
        return sub.add_parser(name, help=text, allow_abbrev=False)

    def common(p, checkpoint=False, data=False):
        p.add_argument("--out", type=Path, required=True, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", type=Path, required=True)
        if data:
            p.add_argument("--data-dir", type=Path, required=True, help="MNIST IDX directory")

    p = command("train", "train a model (PC or iPC preset)")
    common(p, data=True)
    # each flag not given leaves the preset's field as it is
    p.add_argument("--seed", type=int, help="the run's one seed")
    p.add_argument("--preset", choices=("exp1", "exp2"), default="exp1")
    p.add_argument("--limit-train", type=int, help="desk-scale cap on training examples")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--beta", type=float)

    for name in ("reconstruct", "replay", "recall"):
        p = command(name, f"run {name} on a trained checkpoint")
        common(p, checkpoint=True, data=True)
        if name == "reconstruct":
            p.add_argument("--split", choices=("train", "test"), default="train")
        elif name == "replay":
            p.set_defaults(split="train")

    p = command("export-weights", "theta1 columns as a PGM tile grid")
    common(p, checkpoint=True)

    p = command("export-latents", "per-test-image latent CSV")
    common(p, checkpoint=True, data=True)

    p = command("gradcheck", "finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _data_digests(data_dir) -> dict:
    """SHA-256 of the bytes of the four MNIST files data_file finds, by file name."""
    return file_digests([data_file(data_dir, name) for name in DEFAULT_FILENAMES.values()])


def _load_model(path):
    """The checkpoint's weights and manifest, if its model's input is one image."""
    params, _, manifest = load_checkpoint(path)
    if params.dims[0] != IMAGE_SIDE**2:
        raise ValueError(f"model input size {params.dims[0]} != image size {IMAGE_SIDE**2}")
    return params, manifest


def _load_run(args):
    """The checkpoint's weights, its config as ExperimentConfig.from_dict
    reads it (a refusal becomes CheckpointError "bad config in C: ..."),
    and the splits rebuilt with the config's seed, which the caller also
    settles from. If the manifest holds data digests, --data-dir must hold
    the files training read, byte for byte (a .gz and its plain file
    differ), or CheckpointError names the first file, in sorted order,
    that differs. Creates --out once all three have loaded, so an unusable
    --out fails before the command's work."""
    params, manifest = _load_model(args.checkpoint)
    try:
        config = ExperimentConfig.from_dict(manifest.config)
    except ValueError as exc:
        raise CheckpointError(f"bad config in {args.checkpoint}: {exc}") from None
    if manifest.data_digests:
        found, trained = _data_digests(args.data_dir), manifest.data_digests
        for name in sorted(found.keys() | trained.keys()):
            if found.get(name) != trained.get(name):
                raise CheckpointError(f"--data-dir {args.data_dir} is not the data "
                                      f"{args.checkpoint} was trained on: {name} differs")
    splits = build_splits(*load_raw(args.data_dir), split_seed=config.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    return params, config, splits


def cmd_train(args) -> int:
    flags = {name: getattr(args, name) for name in ("seed", "limit_train", "max_epochs", "beta")
             if getattr(args, name) is not None}
    config = replace(preset(args.preset), **flags)
    splits = build_splits(*load_raw(args.data_dir), split_seed=config.seed)
    # the files as loaded, not as they may be once training ends
    manifest = RunManifest(config=config.to_dict(), data_digests=_data_digests(args.data_dir))
    # before training, so an unusable --out fails before any epoch runs
    args.out.mkdir(parents=True, exist_ok=True)
    result = train(config, splits)
    save_checkpoint(args.out / "checkpoint.pcn", result.params,
                    (result.adam1, result.adam2), manifest)
    atomic_write(args.out / "manifest.json",
                 manifest.to_json(include_timestamp=True).encode("utf-8"))
    result.log.to_csv(args.out / "trainlog.csv")
    print(f"epochs trained: {len(result.log.rows)}")
    return 0


def _write_grid(path, *columns):
    """A PGM grid with one column per array and one row per image."""
    tiles = np.stack(columns, axis=1).reshape(-1, columns[0].shape[1])
    write_pgm(path, image_grid(tiles, n_cols=len(columns)))


def cmd_reconstruct_or_replay(args) -> int:
    """Reconstruct or replay the first batch_size images of a split; write
    the input/output pairs as a PGM grid and each pair's MSE as CSV."""
    params, config, splits = _load_run(args)
    x = getattr(splits, args.split).images[: config.batch_size]
    if args.command == "reconstruct":
        name = f"reconstruct_{args.split}"
        out = reconstruct(params, x, init_seed=config.seed)
    else:
        name = "replay"
        out = replay(params, x, init_seed=config.seed)
    _write_grid(args.out / f"{name}.pgm", x, out)
    mse = np.mean((x - out) ** 2, axis=1)
    write_csv(args.out / f"{name}.csv", ["image", "mse"], enumerate(map(float, mse)))
    return 0


def cmd_recall(args) -> int:
    params, config, splits = _load_run(args)
    suite = run_recall_suite(params, splits, seed=config.seed)
    _write_grid(args.out / "recall.pgm", suite.presented, suite.recalled, suite.originals)
    write_csv(args.out / "recall.csv",
              ["image", "masked_mse", "iterations", "converged", "last_delta"],
              zip(range(len(suite.originals)), map(float, suite.masked_mse),
                  map(int, suite.iterations), map(bool, suite.converged),
                  map(float, suite.last_delta)))
    print(f"mean masked MSE: {suite.mean_mse:.6f}")
    return 0


def cmd_export_weights(args) -> int:
    params, _ = _load_model(args.checkpoint)  # each tile is one image
    args.out.mkdir(parents=True, exist_ok=True)
    tiles = params.theta1.T  # one tile per hidden unit
    n_cols = int(np.ceil(np.sqrt(tiles.shape[0])))
    write_pgm(args.out / "weights.pgm", image_grid(tiles, n_cols=n_cols))
    return 0


def cmd_export_latents(args) -> int:
    """Settle the test split from the checkpoint's seed and write, per
    image, its label, phi3, phi2 and input_energy: 1/2 |xi1|^2 at the
    settled latents, the first column of the settle's own energies."""
    params, config, splits = _load_run(args)
    images = splits.test.images
    labels = splits.test.labels
    _, d2, d3 = params.dims
    state = infer_latents(params, images, init_seed=config.seed)
    e1 = state.energies()[:, 0]
    rows = [[int(labels[k]), *map(float, state.phi3[k]), *map(float, state.phi2[k]),
             float(e1[k])] for k in range(state.batch)]
    header = (["label"] + [f"phi3_{j}" for j in range(d3)]
              + [f"phi2_{j}" for j in range(d2)] + ["input_energy"])
    write_csv(args.out / "latents.csv", header, rows)
    return 0


def cmd_gradcheck(args) -> int:
    """Exit 1 if any gradient block fails gradcheck.DEFAULT_TOL, read at call time."""
    failed = False
    for block, err in gradcheck.gradient_report(seed=args.seed).items():
        ok = err < gradcheck.DEFAULT_TOL
        print(f"{block}: max rel err {err:.3e} [{'ok' if ok else 'FAIL'}]")
        failed |= not ok
    return 1 if failed else 0


_COMMANDS = {
    "train": cmd_train,
    "reconstruct": cmd_reconstruct_or_replay,
    "replay": cmd_reconstruct_or_replay,
    "recall": cmd_recall,
    "export-weights": cmd_export_weights,
    "export-latents": cmd_export_latents,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
