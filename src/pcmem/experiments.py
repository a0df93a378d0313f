"""Training orchestration (PC and iPC) and the evaluation battery
(per-layer error curves, recall suite).

PC and iPC share one batch step: fresh latents, T = core.DEFAULT_ITERS
inference iterations, and Adam updates of both weight matrices from
core.learning_gradients at the current latents. They differ only in how
often the weights move: PC updates them once, after all T iterations; iPC
after every iteration, which keeps full-dataset training stable at the
cost of T updates per batch. The logged energies are those of the batch's
last settle, read through its SettledState.energies.

Every run trains on the first limit_train images of the training split
(all of them when limit_train is None), in a fresh seeded order each
epoch. The split is already a seeded permutation, so that prefix is a
random sample, and the recall suite reads its images from the same
prefix: a run with limit_train >= n_images has trained on every image it
recalls.

Evaluation settles a whole split in one memory.infer_latents call (which
descends core.BLOCK_ROWS rows at a time) and reads its energies from that
settle. Neither forms a batch x d1 array. write_csv is the one CSV
writer, for the training log and the command-line metric files.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import core
from .checkpoint import atomic_write
from .core import (
    DivergenceError,
    ModelParams,
    descend_latents,
    init_latents,
    init_params,
    learning_gradients,
)
from .data import DatasetSplits, Split
from .memory import OcclusionMask, RecallResult, infer_latents, recall
from .optim import AdamState, adam_step

# (d2, d3), read when train is called; d1 is the training images' width
LATENT_DIMS = (35, 2)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full run configuration; persisted with every checkpoint. Every field
    has a default, so a checkpoint's config that names only some of them
    (or none) still reads as one. Fixed values are module constants:
    core.ALPHA, core.DEFAULT_ITERS and LATENT_DIMS; the model's input
    width is the data's. A run trains exactly max_epochs epochs."""

    mode: str = "pc"  # "pc" | "ipc"
    beta: float = 1e-4
    batch_size: int = 64
    # weight init, training latent draws, epoch order, split, infer_latents
    # (validation and the memory commands) and recall: each starts its own
    # default_rng(seed), so all six read the same bit stream
    seed: int = 0
    max_epochs: int = 500
    limit_train: Optional[int] = None
    # validation inference costs far more than training itself; evaluate
    # every val_every epochs (plus first and last) and carry rows forward
    val_every: int = 1

    def __post_init__(self):
        if self.mode not in ("pc", "ipc"):
            raise ValueError(f"mode must be 'pc' or 'ipc', got {self.mode!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("batch_size", "max_epochs", "val_every"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        limit = self.limit_train
        if limit is not None and not (_is_int(limit) and limit >= 1):
            raise ValueError(f"limit_train must be null or an integer >= 1, got {limit!r}")
        if not (_is_real(self.beta) and math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a finite number > 0, got {self.beta!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The one reader of a stored config. Keys that are not fields are
        ignored (legacy scope, epsilon, patience, dims); activation, alpha
        and n_iters, which older checkpoints name, must be the model's
        "tanh", core.ALPHA and core.DEFAULT_ITERS; __post_init__ checks the rest."""
        for key, fixed in (("activation", "tanh"), ("alpha", core.ALPHA),
                           ("n_iters", core.DEFAULT_ITERS)):
            if d.get(key, fixed) != fixed:
                raise ValueError(f"{key} {d[key]!r}, the model has {fixed!r}")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def preset(name: str) -> ExperimentConfig:
    """The two paper experiments: exp1 = PC on the first 64 training images
    (one batch per epoch), exp2 = iPC on the full training set."""
    if name == "exp1":
        return ExperimentConfig(
            mode="pc", beta=1e-4, limit_train=64, max_epochs=8000, val_every=250
        )
    if name == "exp2":
        return ExperimentConfig(mode="ipc", beta=1e-5, max_epochs=150, val_every=10)
    raise ValueError(f"unknown preset {name!r}")


@dataclass
class EpochStats:
    epoch: int
    train_energies: np.ndarray  # per-layer means of 1/2 |xi_i|^2
    val_energies: np.ndarray
    seconds: float


@dataclass
class TrainLog:
    rows: list[EpochStats] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        write_csv(
            path,
            ["epoch", "train_e1", "train_e2", "train_e3",
             "val_e1", "val_e2", "val_e3", "seconds"],
            [[r.epoch, *(repr(float(e)) for e in r.train_energies),
              *(repr(float(e)) for e in r.val_energies), f"{r.seconds:.3f}"]
             for r in self.rows],
        )


def write_csv(path: str | Path, header: list, rows) -> None:
    """Write one header row and the given rows as CSV, atomically."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    atomic_write(Path(path), buf.getvalue().encode("utf-8"))


@dataclass
class TrainResult:
    params: ModelParams
    adam1: AdamState
    adam2: AdamState
    log: TrainLog


def _train_batch(params, x, config, adam1, adam2, rng):
    """One mini-batch of PC or iPC from fresh latents.

    Both run core.DEFAULT_ITERS inference iterations; PC updates the weights
    once after all of them, iPC after each one. An update steps the latents
    at the current weights, takes the weight gradients at the new latents,
    then moves params.theta1, params.theta2 and both Adam states in place.
    Raises DivergenceError, naming the batch's inference iteration, before
    any update from a non-finite gradient (it checks the summed squared
    gradients, formed under np.errstate). Returns the per-layer mean
    energies of the last settle, which the weight updates after it leave
    as they are.
    """
    n_iters = core.DEFAULT_ITERS
    steps = n_iters if config.mode == "pc" else 1
    n_updates = n_iters // steps
    state = init_latents(params.dims, x.shape[0], rng)
    for update in range(n_updates):
        try:
            state = descend_latents(params, state, x, steps)
        except DivergenceError as exc:
            n = update * steps + exc.step  # the kernel counts from 0 on every call
            message = f"non-finite latents after inference iteration {n}"
            raise DivergenceError(message, step=n) from None
        with np.errstate(over="ignore", invalid="ignore"):
            d_theta1, d_theta2 = learning_gradients(params, state, x)
            finite = np.isfinite(np.vdot(d_theta1, d_theta1) + np.vdot(d_theta2, d_theta2))
        if not finite:
            # an overflowing gradient would turn the weights non-finite next
            n = (update + 1) * steps - 1
            raise DivergenceError(f"non-finite weight gradient at inference iteration {n}", step=n)
        adam_step(params.theta1, d_theta1, adam1, config.beta)
        adam_step(params.theta2, d_theta2, adam2, config.beta)
    return state.energies().mean(axis=0)


def train(config: ExperimentConfig, splits: DatasetSplits) -> TrainResult:
    """Train on splits.train.images[:limit_train] for max_epochs epochs.

    A fresh seeded example order every epoch and fresh seeded latents every
    batch; Adam state persists across the whole run (one state per weight
    matrix). The run builds one ModelParams of dims (image width,
    *LATENT_DIMS), and every update writes its weights and the Adam states
    in place; the result holds those objects. A DivergenceError from a
    batch or from validation is raised again with its step, its message
    prefixed "epoch E, batch K: " or "epoch E, validation: ".
    """
    train_images = splits.train.images[: config.limit_train]
    rng_w = np.random.default_rng(config.seed)
    params = init_params((train_images.shape[1], *LATENT_DIMS), rng_w)
    adam1 = AdamState.fresh(params.theta1.shape)
    adam2 = AdamState.fresh(params.theta2.shape)
    rng_l = np.random.default_rng(config.seed)
    rng_s = np.random.default_rng(config.seed)

    log = TrainLog()
    last_val = np.full(3, np.nan)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng_s.permutation(len(train_images))
        weighted = np.zeros(3)
        try:
            for start in range(0, len(order), config.batch_size):
                where = f"epoch {epoch}, batch {start // config.batch_size}"
                x = train_images[order[start : start + config.batch_size]]
                energies = _train_batch(params, x, config, adam1, adam2, rng_l)
                weighted += energies * x.shape[0]
            train_energies = weighted / len(order)
            if epoch in (1, config.max_epochs) or epoch % config.val_every == 0:
                where = f"epoch {epoch}, validation"
                last_val = evaluate_errors(params, splits.validation, config.seed)
        except DivergenceError as exc:
            raise DivergenceError(f"{where}: {exc}", exc.step) from exc
        log.rows.append(
            EpochStats(epoch, train_energies, last_val, time.perf_counter() - t0)
        )
    return TrainResult(params, adam1, adam2, log)


def evaluate_errors(
    params: ModelParams,
    split: Split,
    seed: int = 0,
) -> np.ndarray:
    """Mean per-layer energies over a split after seeded inference
    (one memory.infer_latents call on all rows, T steps settled in blocks
    of core.BLOCK_ROWS rows): the column means of the settle's own
    energies, core.free_energy in Gram form. Never updates weights."""
    return infer_latents(params, split.images, seed).energies().mean(axis=0)


def run_recall_suite(
    params: ModelParams,
    splits: DatasetSplits,
    n_images: int = 10,
    mask: Optional[OcclusionMask] = None,
    seed: int = 0,
) -> RecallResult:
    """Recall the first n training images, the ones every run with
    limit_train >= n trained on, through the given mask (top half visible
    by default), all in one batch, with recall's budget
    memory.DEFAULT_BUDGET. `seed` draws the latent init every image starts
    from."""
    if mask is None:
        mask = OcclusionMask.top_half()
    return recall(params, splits.train.images[:n_images], mask, init_seed=seed)
