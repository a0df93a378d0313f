"""Training orchestration (PC and iPC), convergence tracking, and the
evaluation battery (per-layer error curves, recall suite).

PC runs T inference iterations per mini-batch and then a single Adam
update on the weights from the final errors. iPC additionally performs an
Adam weight update after every one of the T inference iterations, which
keeps full-dataset training stable at the cost of T updates per batch.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    Activation,
    DivergenceError,
    LatentState,
    ModelParams,
    compute_errors,
    descend_latents,
    init_latents,
    init_params,
    learning_gradients,
)
from .data import DatasetSplits, Split, batch_order
from .memory import OcclusionMask, recall
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class ExperimentConfig:
    """Full run configuration; persisted with every checkpoint."""

    mode: str  # "pc" | "ipc"
    beta: float
    scope: str  # "single-batch" | "full"
    dims: tuple[int, int, int] = (784, 35, 2)
    activation: Activation = Activation.TANH
    batch_size: int = 64
    n_iters: int = 50
    alpha: float = 0.01
    weight_seed: int = 0
    latent_seed: int = 0
    split_seed: int = 0
    shuffle_seed: int = 0
    epsilon: float = 1e-5
    patience: int = 5
    max_epochs: int = 500
    limit_train: Optional[int] = None
    eval_batch_size: int = 1024
    # validation inference costs far more than training itself; evaluate
    # every val_every epochs (plus first and last) and carry rows forward
    val_every: int = 1

    def __post_init__(self):
        if self.mode not in ("pc", "ipc"):
            raise ValueError(f"mode must be 'pc' or 'ipc', got {self.mode!r}")
        if self.scope not in ("single-batch", "full"):
            raise ValueError(f"scope must be 'single-batch' or 'full', got {self.scope!r}")
        for name in ("batch_size", "n_iters", "max_epochs", "patience", "val_every",
                     "eval_batch_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["activation"] = self.activation.value
        d["dims"] = list(self.dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        d = dict(d)
        d["activation"] = Activation(d.get("activation", "tanh"))
        d["dims"] = tuple(d.get("dims", (784, 35, 2)))
        return cls(**d)


def preset(name: str) -> ExperimentConfig:
    """The two paper experiments: exp1 = PC on a single mini-batch,
    exp2 = iPC on the full training set."""
    if name == "exp1":
        return ExperimentConfig(
            mode="pc", beta=1e-4, scope="single-batch", max_epochs=8000, val_every=250
        )
    if name == "exp2":
        return ExperimentConfig(
            mode="ipc", beta=1e-5, scope="full", max_epochs=150, val_every=10
        )
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

    def train_history(self) -> list[np.ndarray]:
        return [r.train_energies for r in self.rows]

    def to_csv(self, path: str | Path) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["epoch", "train_e1", "train_e2", "train_e3",
                 "val_e1", "val_e2", "val_e3", "seconds"]
            )
            for r in self.rows:
                w.writerow(
                    [r.epoch, *(repr(float(e)) for e in r.train_energies),
                     *(repr(float(e)) for e in r.val_energies), f"{r.seconds:.3f}"]
                )
        tmp.replace(path)


@dataclass
class TrainResult:
    params: ModelParams
    adam1: AdamState
    adam2: AdamState
    log: TrainLog
    converged: bool
    stop_reason: str


def convergence_check(
    history: list[np.ndarray], epsilon: float, patience: int
) -> bool:
    """True when every per-layer train energy has been stable (relative
    spread below epsilon) over the last `patience` epochs."""
    if len(history) < patience:
        return False
    window = np.stack(history[-patience:])
    spread = window.max(axis=0) - window.min(axis=0)
    scale = np.maximum(np.abs(window[-1]), 1e-300)
    return bool(np.all(spread <= epsilon * scale))


def _pc_batch(params, x, n_iters, alpha, adam1, adam2, rng):
    state = init_latents(params.dims, x.shape[0], rng)
    state = descend_latents(params, state, x, alpha, n_iters)
    errors = compute_errors(params, state, x)
    d_theta1, d_theta2 = learning_gradients(params, state, errors)
    theta1, adam1 = adam_step(params.theta1, d_theta1, adam1)
    theta2, adam2 = adam_step(params.theta2, d_theta2, adam2)
    params = ModelParams(theta1, theta2, params.activation)
    return params, adam1, adam2, errors.layer_energies


def _ipc_batch(params, x, n_iters, alpha, adam1, adam2, rng):
    state = init_latents(params.dims, x.shape[0], rng)
    energies = None
    for i in range(n_iters):
        # one kernel step per weight update, so the kernel's own iteration
        # count is always 0; name the step of this batch instead
        try:
            state = descend_latents(params, state, x, alpha, 1)
        except DivergenceError:
            raise DivergenceError(f"non-finite latents after inference iteration {i}") from None
        errors = compute_errors(params, state, x)
        if not np.all(np.isfinite(errors.layer_energies)):
            # overflowing errors would turn the weights non-finite next
            raise DivergenceError(f"non-finite free energy at inference iteration {i}")
        d_theta1, d_theta2 = learning_gradients(params, state, errors)
        theta1, adam1 = adam_step(params.theta1, d_theta1, adam1)
        theta2, adam2 = adam_step(params.theta2, d_theta2, adam2)
        params = ModelParams(theta1, theta2, params.activation)
        energies = errors.layer_energies
    return params, adam1, adam2, energies


def train(config: ExperimentConfig, splits: DatasetSplits) -> TrainResult:
    """Train until every per-layer train energy has converged or max_epochs.

    Fresh seeded latents every batch; Adam state persists across the whole
    run (one state per weight matrix).
    """
    rng_w = np.random.default_rng(config.weight_seed)
    params = init_params(config.dims, rng_w, config.activation)
    adam1 = AdamState.fresh(params.theta1.shape, config.beta)
    adam2 = AdamState.fresh(params.theta2.shape, config.beta)
    rng_l = np.random.default_rng(config.latent_seed)
    rng_s = np.random.default_rng(config.shuffle_seed)

    train_images = splits.train.images
    if config.limit_train is not None:
        train_images = train_images[: config.limit_train]
    if config.scope == "single-batch":
        first = batch_order(len(splits.train), config.shuffle_seed, True)[: config.batch_size]
        train_images = splits.train.images[first]

    step = {"pc": _pc_batch, "ipc": _ipc_batch}[config.mode]
    log = TrainLog()
    converged = False
    reason = "max_epochs"
    last_val = np.full(3, np.nan)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        if config.scope == "full":
            order = rng_s.permutation(len(train_images))
        else:
            order = np.arange(len(train_images))
        weighted = np.zeros(3)
        for start in range(0, len(order), config.batch_size):
            x = train_images[order[start : start + config.batch_size]]
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            try:
                params, adam1, adam2, energies = step(
                    params, x, config.n_iters, config.alpha, adam1, adam2, rng_l
                )
            except DivergenceError as exc:
                raise DivergenceError(f"{where}: {exc}") from exc
            if not np.all(np.isfinite(energies)):
                raise RuntimeError(f"non-finite train energy at {where}")
            weighted += energies * x.shape[0]
        train_energies = weighted / len(order)
        stop = (
            convergence_check(
                log.train_history() + [train_energies], config.epsilon, config.patience
            )
            or epoch == config.max_epochs
        )
        if epoch == 1 or stop or epoch % config.val_every == 0:
            last_val = evaluate_errors(
                params,
                splits.validation,
                config.n_iters,
                config.alpha,
                config.latent_seed,
                batch_size=config.eval_batch_size,
            )
        log.rows.append(
            EpochStats(epoch, train_energies, last_val, time.perf_counter() - t0)
        )
        if stop and epoch != config.max_epochs:
            converged = True
            reason = "converged"
            break
    return TrainResult(params, adam1, adam2, log, converged, reason)


def evaluate_errors(
    params: ModelParams,
    split: Split,
    n_iters: int = 50,
    alpha: float = 0.01,
    seed: int = 0,
    batch_size: int = 1024,
) -> np.ndarray:
    """Mean per-layer energies over a split after seeded inference.

    Latent inits for all examples are drawn in one pass, so results are
    batch-size invariant (up to float reduction order). Never updates
    weights.
    """
    images = split.images
    n = images.shape[0]
    init = init_latents(params.dims, n, np.random.default_rng(seed))
    totals = np.zeros(3)
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        x = images[sl]
        state = LatentState(phi2=init.phi2[sl], phi3=init.phi3[sl])
        state = descend_latents(params, state, x, alpha, n_iters)
        errors = compute_errors(params, state, x)
        totals += errors.layer_energies * x.shape[0]
    return totals / n


@dataclass
class RecallSuiteResult:
    per_image_mse: np.ndarray
    mean_mse: float
    presented: np.ndarray
    recalled: np.ndarray
    originals: np.ndarray
    iterations: list[int]


def run_recall_suite(
    params: ModelParams,
    splits: DatasetSplits,
    n_images: int = 10,
    mask: Optional[OcclusionMask] = None,
    seed: int = 0,
    shuffle_seed: int = 0,
    iters: int = 5000,
    alpha: float = 0.01,
) -> RecallSuiteResult:
    """Recall the first n images of the seeded training order through the
    given mask; reports per-image and mean masked MSE."""
    if mask is None:
        mask = OcclusionMask.top_half()
    idx = batch_order(len(splits.train), shuffle_seed, True)[:n_images]
    originals = splits.train.images[idx]
    presented = np.where(mask.visible, originals, 0.0)
    recalled = np.empty_like(originals)
    mses = np.empty(n_images)
    iterations = []
    for k in range(n_images):
        result = recall(params, originals[k], mask, iters=iters, alpha=alpha, init_seed=seed)
        recalled[k] = result.images[0]
        mses[k] = result.masked_mse[0]
        iterations.append(result.iterations)
    return RecallSuiteResult(
        per_image_mse=mses,
        mean_mse=float(mses.mean()),
        presented=presented,
        recalled=recalled,
        originals=originals,
        iterations=iterations,
    )
