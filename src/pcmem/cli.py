"""Command-line surface: training runs, memory-task exports, gradient checks.

Subcommands: train, reconstruct, replay, recall, export-weights,
export-latents, gradcheck. Config precedence is CLI flags > --config file
> preset defaults; the resolved config is frozen into the run manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DATA_DIR_ENV = "PCN_DATA_DIR"


def _single_thread_env() -> None:
    # must happen before numpy first loads its BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmem",
        description="Hierarchical predictive coding network: training, replay, "
        "and auto-associative recall on a two-digit MNIST subset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, data=False):
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed for all RNG streams")
        p.add_argument("--single-thread", action="store_true",
                       help="force single-threaded BLAS (deterministic mode)")
        if checkpoint:
            p.add_argument("--checkpoint", type=Path, required=True)
        if data:
            p.add_argument("--data-dir", type=Path,
                           default=os.environ.get(DATA_DIR_ENV),
                           help=f"MNIST IDX directory (default ${DATA_DIR_ENV})")

    p = sub.add_parser("train", help="train a model (PC or iPC preset)")
    common(p, data=True)
    p.add_argument("--preset", choices=("exp1", "exp2"), default="exp1")
    p.add_argument("--config", type=Path, help="JSON file overriding preset fields")
    p.add_argument("--limit-train", type=int, help="desk-scale cap on training examples")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--beta", type=float)

    for name in ("reconstruct", "replay", "recall"):
        p = sub.add_parser(name, help=f"run {name} on a trained checkpoint")
        common(p, checkpoint=True, data=True)
        if name == "reconstruct":
            p.add_argument("--split", choices=("train", "test"), default="train")

    p = sub.add_parser("export-weights", help="theta1 columns as a PGM tile grid")
    common(p, checkpoint=True)

    p = sub.add_parser("export-latents", help="per-test-image latent CSV")
    common(p, checkpoint=True, data=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_data(args):
    from . import data as data_mod

    if args.data_dir is None:
        raise FileNotFoundError(
            f"no data directory: pass --data-dir or set ${DATA_DIR_ENV}"
        )
    train_raw, test_raw = data_mod.load_raw(args.data_dir)
    return train_raw, test_raw


def _data_paths(data_dir: Path) -> list[Path]:
    from .data import DEFAULT_FILENAMES

    paths = []
    for name in DEFAULT_FILENAMES.values():
        for candidate in (data_dir / name, data_dir / (name + ".gz")):
            if candidate.exists():
                paths.append(candidate)
                break
    return paths


def _splits_for(args, split_seed: int):
    from .data import build_splits

    train_raw, test_raw = _load_data(args)
    return build_splits(train_raw, test_raw, split_seed=split_seed)


def _load_model(args):
    from .checkpoint import load_checkpoint

    return load_checkpoint(args.checkpoint)


def cmd_train(args) -> int:
    from .checkpoint import RunManifest, file_digests, save_checkpoint
    from .experiments import ExperimentConfig, preset, train

    cfg = preset(args.preset).to_dict()
    if args.config:
        overrides = json.loads(args.config.read_text())
        if not isinstance(overrides, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object")
        cfg.update(overrides)
    for seed_field in ("weight_seed", "latent_seed", "split_seed", "shuffle_seed"):
        cfg[seed_field] = args.seed
    if args.limit_train is not None:
        cfg["limit_train"] = args.limit_train
    if args.max_epochs is not None:
        cfg["max_epochs"] = args.max_epochs
    if args.beta is not None:
        cfg["beta"] = args.beta
    config = ExperimentConfig.from_dict(cfg)

    splits = _splits_for(args, config.split_seed)
    result = train(config, splits)

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config=config.to_dict(),
        data_digests=file_digests(_data_paths(Path(args.data_dir))),
    )
    save_checkpoint(args.out / "checkpoint.pcn", result.params,
                    adam=(result.adam1, result.adam2), manifest=manifest)
    (args.out / "manifest.json").write_text(manifest.to_json(include_timestamp=True))
    result.log.to_csv(args.out / "trainlog.csv")
    print(f"stopped: {result.stop_reason} after {len(result.log.rows)} epochs")
    return 0


def _write_pair_grid(out_dir, name, left, right):
    from .images import image_grid, write_pgm

    import numpy as np

    n = left.shape[0]
    interleaved = np.empty((2 * n, left.shape[1]))
    interleaved[0::2] = left
    interleaved[1::2] = right
    write_pgm(out_dir / name, image_grid(interleaved, n_cols=2))


def _write_metric_csv(path, header, rows):
    import csv

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    tmp.replace(path)


def cmd_reconstruct(args) -> int:
    import numpy as np

    from .data import batches
    from .memory import reconstruct

    params, _, manifest = _load_model(args)
    cfg = manifest.config
    splits = _splits_for(args, int(cfg.get("split_seed", args.seed)))
    split = splits.train if args.split == "train" else splits.test
    x, _ = next(batches(split, int(cfg.get("batch_size", 64)), shuffle_seed=args.seed))
    recon = reconstruct(params, x, iters=int(cfg.get("n_iters", 50)),
                        alpha=float(cfg.get("alpha", 0.01)), init_seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_pair_grid(args.out, f"reconstruct_{args.split}.pgm", x, recon)
    mse = np.mean((x - recon) ** 2, axis=1)
    _write_metric_csv(args.out / f"reconstruct_{args.split}.csv",
                      ["image", "mse"], list(enumerate(map(float, mse))))
    return 0


def cmd_replay(args) -> int:
    import numpy as np

    from .data import batches
    from .memory import replay

    params, _, manifest = _load_model(args)
    cfg = manifest.config
    splits = _splits_for(args, int(cfg.get("split_seed", args.seed)))
    x, _ = next(batches(splits.train, int(cfg.get("batch_size", 64)),
                        shuffle_seed=args.seed))
    replayed = replay(params, x, alpha=float(cfg.get("alpha", 0.01)),
                      init_seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_pair_grid(args.out, "replay.pgm", x, replayed)
    mse = np.mean((x - replayed) ** 2, axis=1)
    _write_metric_csv(args.out / "replay.csv",
                      ["image", "mse"], list(enumerate(map(float, mse))))
    return 0


def cmd_recall(args) -> int:
    import numpy as np

    from .experiments import run_recall_suite
    from .images import image_grid, write_pgm

    params, _, manifest = _load_model(args)
    cfg = manifest.config
    splits = _splits_for(args, int(cfg.get("split_seed", args.seed)))
    suite = run_recall_suite(params, splits, seed=args.seed, shuffle_seed=args.seed,
                             alpha=float(cfg.get("alpha", 0.01)))
    args.out.mkdir(parents=True, exist_ok=True)
    n = suite.originals.shape[0]
    columns = np.empty((3 * n, suite.originals.shape[1]))
    columns[0::3] = suite.presented
    columns[1::3] = suite.recalled
    columns[2::3] = suite.originals
    write_pgm(args.out / "recall.pgm", image_grid(columns, n_cols=3))
    _write_metric_csv(args.out / "recall.csv", ["image", "masked_mse"],
                      list(enumerate(map(float, suite.per_image_mse))))
    print(f"mean masked MSE: {suite.mean_mse:.6f}")
    return 0


def cmd_export_weights(args) -> int:
    import numpy as np

    from .images import image_grid, write_pgm

    params, _, _ = _load_model(args)
    tiles = params.theta1.T  # one tile per hidden unit
    n_cols = int(np.ceil(np.sqrt(tiles.shape[0])))
    args.out.mkdir(parents=True, exist_ok=True)
    write_pgm(args.out / "weights.pgm", image_grid(tiles, n_cols=n_cols))
    return 0


def cmd_export_latents(args) -> int:
    import numpy as np

    from .core import compute_errors
    from .memory import infer_latents

    params, _, manifest = _load_model(args)
    cfg = manifest.config
    splits = _splits_for(args, int(cfg.get("split_seed", args.seed)))
    images = splits.test.images
    labels = splits.test.labels
    _, d2, d3 = params.dims
    state = infer_latents(params, images, iters=int(cfg.get("n_iters", 50)),
                          alpha=float(cfg.get("alpha", 0.01)), init_seed=args.seed)
    errors = compute_errors(params, state, images)
    e1 = 0.5 * np.sum(errors.xi1**2, axis=1)
    rows = [[int(labels[k]), *map(float, state.phi3[k]), *map(float, state.phi2[k]),
             float(e1[k])] for k in range(state.batch)]
    header = (["label"] + [f"phi3_{j}" for j in range(d3)]
              + [f"phi2_{j}" for j in range(d2)] + ["input_energy"])
    args.out.mkdir(parents=True, exist_ok=True)
    _write_metric_csv(args.out / "latents.csv", header, rows)
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import gradient_report

    report = gradient_report(seed=args.seed)
    failed = False
    for block, err in report.items():
        status = "ok" if err < args.tol else "FAIL"
        print(f"{block}: max rel err {err:.3e} [{status}]")
        failed |= err >= args.tol
    return 1 if failed else 0


_COMMANDS = {
    "train": cmd_train,
    "reconstruct": cmd_reconstruct,
    "replay": cmd_replay,
    "recall": cmd_recall,
    "export-weights": cmd_export_weights,
    "export-latents": cmd_export_latents,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--single-thread" in argv:
        _single_thread_env()  # before any numpy import below
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
