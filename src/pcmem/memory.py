"""Memory procedures on a trained model: reconstruction, replay, and
auto-associative recall of partially occluded inputs.

Reconstruction and replay settle through infer_latents: core.DEFAULT_ITERS
steps of core.descend_latents, as in training and evaluation. Replay then
regenerates the input from the settled top-level representation alone: with
the input errors gated off, phi2 settles at the top-down fixpoint
f(theta2 phi3), so regenerate returns theta1 f(theta2 phi3) directly. None
of these procedures changes the weights.
Recall clamps the known pixels v. The free energy is minimised over the
hidden pixels h at h = phi2 theta1_h^T exactly, so recall settles the
visible-row model ModelParams(theta1[visible], theta2) on v with the same
kernel, in chunks between which each row stops on its own tolerance, and
forms h once, at the end. The one divergence rule is the kernel's check
on the latents, plus a check that the h recall returns is finite (the
theta1_h products run under np.errstate, so no NumPy warning precedes it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DivergenceError,
    LatentState,
    ModelParams,
    SettledState,
    descend_latents,
    init_latents,
)
from .data import IMAGE_SIDE

DEFAULT_BUDGET = 5000
RECALL_PHI1_TOL = 1e-6


@dataclass(frozen=True)
class OcclusionMask:
    """Boolean visibility over the pixels; True = clamped/known."""

    visible: np.ndarray

    def __post_init__(self):
        if self.visible.dtype != np.bool_ or self.visible.ndim != 1:
            raise ValueError("mask must be a 1-D boolean vector")
        if not self.visible.any() or self.visible.all():
            raise ValueError("mask needs at least one visible and one hidden pixel")

    @property
    def hidden(self) -> np.ndarray:
        return ~self.visible

    @classmethod
    def top_half(cls) -> "OcclusionMask":
        """The top IMAGE_SIDE // 2 rows of an IMAGE_SIDE x IMAGE_SIDE image visible."""
        visible = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=bool)
        visible[: IMAGE_SIDE // 2] = True
        return cls(visible=visible.ravel())


@dataclass
class RecallResult:
    """Per-row recall outputs: the originals, the presented images (hidden
    pixels zeroed), the recalled images and their masked MSE against the
    originals. last_delta is the inf-norm change of a row's hidden pixels
    phi2 theta1_h^T in its last step (NaN if it took none); converged says
    whether that change fell below RECALL_PHI1_TOL."""

    originals: np.ndarray
    presented: np.ndarray
    recalled: np.ndarray
    masked_mse: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    last_delta: np.ndarray

    @property
    def mean_mse(self) -> float:
        return float(self.masked_mse.mean())


def masked_mse(a: np.ndarray, b: np.ndarray, mask: OcclusionMask) -> float | np.ndarray:
    """Mean squared difference over the hidden pixels only: a float for
    two images, one value per row for two batches."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a[..., mask.hidden] - b[..., mask.hidden]
    return np.mean(d * d, axis=-1)


def infer_latents(
    params: ModelParams,
    x: np.ndarray,
    init_seed: int = 0,
) -> SettledState:
    """Seeded random latent init, then T = core.DEFAULT_ITERS steps of size
    core.ALPHA (both read at call time) through core.descend_latents, which
    settles the batch core.BLOCK_ROWS rows at a time; its energies() are
    F at the settled latents."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(init_seed)
    state = init_latents(params.dims, x.shape[0], rng)
    return descend_latents(params, state, x, core.DEFAULT_ITERS)


def reconstruct(
    params: ModelParams,
    x: np.ndarray,
    init_seed: int = 0,
) -> np.ndarray:
    """Layer-1 prediction theta1 @ phi2 after inferring latents for x."""
    state = infer_latents(params, x, init_seed=init_seed)
    return state.phi2 @ params.theta1.T


def regenerate(params: ModelParams, phi3: np.ndarray) -> np.ndarray:
    """Top-down regeneration from a frozen phi3 with input errors gated off.

    Gated, phi2 sees only xi2 = phi2 - f(theta2 phi3), and its fixpoint is
    phi2 = f(theta2 phi3); the images are that prediction read out through
    theta1. Reads no input and depends on each row of phi3 alone.
    """
    return np.tanh(phi3 @ params.theta2.T) @ params.theta1.T


def replay(
    params: ModelParams,
    x: np.ndarray,
    init_seed: int = 0,
) -> np.ndarray:
    """Replay inputs through the gated top-down pathway: settle the latents
    with infer_latents' T steps, like every other settle, then regenerate
    the images from the settled phi3 alone. The weights are left untouched.
    """
    return regenerate(params, infer_latents(params, x, init_seed=init_seed).phi3)


def recall(
    params: ModelParams,
    target: np.ndarray,
    mask: OcclusionMask,
    init_seed: int = 0,
) -> RecallResult:
    """Pattern-complete the hidden pixels of a batch of partially presented
    images.

    With v the visible and h the hidden pixels, F is minimised over h at
    h = phi2 theta1_h^T exactly, and what remains is the free energy of the
    visible-row model ModelParams(theta1[visible], theta2) on v. So recall
    settles that model with core.descend_latents and then sets
    h = phi2 theta1_h^T; visible pixels are clamped bit-exactly. Every row
    starts from the same latent draw, init_latents(dims, 1,
    default_rng(init_seed)), so a row's result does not depend on its batch.

    The rows still settling go on in chunks of core.DEFAULT_ITERS steps,
    the last chunk capped at what is left of DEFAULT_BUDGET (both read when
    recall is called). After each chunk a row whose hidden pixels changed
    by less than RECALL_PHI1_TOL (inf-norm) in its last step is frozen, so
    iterations is a multiple of the chunk size, or the budget. Raises
    ValueError on an empty batch and DivergenceError, naming the 0-based
    recall iteration counted across chunks, on non-finite latents or, after
    the last step, non-finite hidden pixels.
    """
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n, d1 = target.shape
    if n == 0:
        raise ValueError(f"empty batch: target shape {target.shape}")
    if d1 != mask.visible.shape[0]:
        raise ValueError("mask length does not match image size")
    if params.dims[0] != d1:
        raise ValueError(f"model input size {params.dims[0]} != image size {d1}")

    visible = ModelParams(params.theta1[mask.visible], params.theta2)
    theta1_h = params.theta1[mask.hidden]
    v = target[:, mask.visible]
    init = init_latents(params.dims, 1, np.random.default_rng(init_seed))
    phi2 = np.repeat(init.phi2, n, axis=0)
    phi3 = np.repeat(init.phi3, n, axis=0)
    iterations = np.zeros(n, dtype=np.int64)
    last_delta = np.full(n, np.nan)

    # the rows still settling, all of them `done` steps in
    active, done = np.arange(n), 0
    while active.size and done < DEFAULT_BUDGET:
        steps = min(core.DEFAULT_ITERS, DEFAULT_BUDGET - done)
        v_a = v[active]
        try:
            # the chunk's last step apart, for the hidden pixels' change in it
            before = descend_latents(visible, LatentState(phi2[active], phi3[active]), v_a, steps - 1)
            done += steps - 1
            after = descend_latents(visible, before, v_a, 1)
            done += 1
        except DivergenceError as exc:
            step = done + exc.step
            raise DivergenceError(f"non-finite latents after recall iteration {step}", step) from None
        with np.errstate(over="ignore", invalid="ignore"):
            delta = np.max(np.abs((after.phi2 - before.phi2) @ theta1_h.T), axis=1)
        phi2[active], phi3[active] = after.phi2, after.phi3
        iterations[active], last_delta[active] = done, delta
        active = active[delta >= RECALL_PHI1_TOL]

    with np.errstate(over="ignore", invalid="ignore"):
        hidden = phi2 @ theta1_h.T
    if not np.all(np.isfinite(hidden)):
        step = done - 1
        raise DivergenceError(f"non-finite recalled pixels after recall iteration {step}", step)
    images = target.copy()
    images[:, mask.hidden] = hidden
    return RecallResult(
        originals=target,
        presented=np.where(mask.visible, target, 0.0),
        recalled=images,
        masked_mse=masked_mse(images, target, mask),
        iterations=iterations,
        converged=last_delta < RECALL_PHI1_TOL,
        last_delta=last_delta,
    )
