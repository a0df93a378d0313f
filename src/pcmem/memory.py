"""Memory procedures on a trained model: reconstruction, replay, and
auto-associative recall of partially occluded inputs.

Reconstruction and replay's settle phase run on core.descend_latents.
Replay then regenerates the input from its frozen top-level representation
with the input-error pathway gated off; that gated descent has a closed
form, which regenerate returns directly. Recall clamps the known pixels
and runs joint gradient descent on the hidden pixels and both latent
levels, directly on compute_errors and inference_gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    DivergenceError,
    LatentState,
    ModelParams,
    activation_eval,
    compute_errors,
    descend_latents,
    free_energy,
    inference_gradients,
    init_latents,
    learning_gradients,
)

DEFAULT_BUDGET = 5000
REPLAY_REL_TOL = 1e-8
REPLAY_XI2_TOL = 1e-6
RECALL_PHI1_TOL = 1e-6


@dataclass(frozen=True)
class OcclusionMask:
    """Boolean visibility over the 784 pixels; True = clamped/known."""

    visible: np.ndarray
    tag: str = ""

    def __post_init__(self):
        if self.visible.dtype != np.bool_ or self.visible.ndim != 1:
            raise ValueError("mask must be a 1-D boolean vector")
        if not self.visible.any() or self.visible.all():
            raise ValueError("mask needs at least one visible and one hidden pixel")

    @property
    def hidden(self) -> np.ndarray:
        return ~self.visible

    @classmethod
    def top_half(cls, side: int = 28) -> "OcclusionMask":
        visible = np.zeros((side, side), dtype=bool)
        visible[: side // 2] = True
        return cls(visible=visible.ravel(), tag="top-half")


@dataclass
class MemoryTaskResult:
    images: np.ndarray
    iterations: int
    final_free_energy: float
    masked_mse: Optional[np.ndarray] = None


def masked_mse(a: np.ndarray, b: np.ndarray, mask: OcclusionMask) -> float:
    """Mean squared difference over the hidden pixels only."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a[..., mask.hidden] - b[..., mask.hidden]
    return float(np.mean(d * d))


def infer_latents(
    params: ModelParams,
    x: np.ndarray,
    iters: int = 50,
    alpha: float = 0.01,
    init_seed: int = 0,
) -> LatentState:
    """Seeded random latent init followed by `iters` inference steps."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(init_seed)
    state = init_latents(params.dims, x.shape[0], rng)
    return descend_latents(params, state, x, alpha, iters)


def reconstruct(
    params: ModelParams,
    x: np.ndarray,
    iters: int = 50,
    alpha: float = 0.01,
    init_seed: int = 0,
) -> np.ndarray:
    """Layer-1 prediction theta1 @ phi2 after inferring latents for x."""
    state = infer_latents(params, x, iters=iters, alpha=alpha, init_seed=init_seed)
    return state.phi2 @ params.theta1.T


def regenerate(
    params: ModelParams,
    phi3: np.ndarray,
    phi2_init: np.ndarray,
    alpha: float = 0.01,
    budget: int = DEFAULT_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-down regeneration from a frozen phi3 with input errors gated off.

    The gated phi2 update phi2 -= alpha*xi2 scales xi2 = phi2 - f(theta2 phi3)
    by (1 - alpha) per step, so k steps give the closed form
    phi2_k = f(theta2 phi3) + (1 - alpha)^k (phi2_init - f(theta2 phi3)).
    k is where that descent stops: the first step with xi2 inf-norm below
    REPLAY_XI2_TOL (the free-energy change can flatten out first), or
    budget. Takes no input at all, so the result is trivially invariant to
    input perturbations. Returns (images, phi2).
    """
    target, _ = activation_eval(params.activation, phi3 @ params.theta2.T)
    gap = phi2_init - target
    decay = (1.0 - alpha) ** np.arange(budget + 1)
    below = np.abs(decay) * np.max(np.abs(gap)) < REPLAY_XI2_TOL
    k = int(np.argmax(below)) if below.any() else budget
    phi2 = target + decay[k] * gap
    return phi2 @ params.theta1.T, phi2


def replay(
    params: ModelParams,
    x: np.ndarray,
    consolidate: bool = False,
    alpha: float = 0.01,
    budget: int = DEFAULT_BUDGET,
    init_seed: int = 0,
    consolidate_rate: float = 1e-4,
) -> np.ndarray:
    """Replay inputs through the gated top-down pathway.

    1. full inference to convergence; 2. freeze phi3 and gate the input
    errors off; 3. re-infer phi2 alone (fixpoint phi2 = f(theta2 phi3));
    4. optionally one theta2 consolidation update (in place). Returns the
    replayed images theta1 @ phi2.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(init_seed)
    state = init_latents(params.dims, x.shape[0], rng)
    state = descend_latents(params, state, x, alpha, budget, rel_tol=REPLAY_REL_TOL)

    images, phi2 = regenerate(params, state.phi3, state.phi2, alpha=alpha, budget=budget)

    if consolidate:
        final = replace(state, phi2=phi2)
        errors = compute_errors(params, final, x, input_gate=False)
        _, d_theta2 = learning_gradients(params, final, errors)
        params.theta2[...] = params.theta2 - consolidate_rate * d_theta2

    return images


def recall(
    params: ModelParams,
    target: np.ndarray,
    mask: OcclusionMask,
    iters: int = DEFAULT_BUDGET,
    alpha: float = 0.01,
    init_seed: int = 0,
    tol: float = RECALL_PHI1_TOL,
) -> MemoryTaskResult:
    """Pattern-complete the hidden pixels of a partially presented image.

    phi1 starts at the corrupted input (hidden pixels zeroed); each
    iteration jointly descends phi1 (hidden coordinates only), phi2 and
    phi3. Stops after `iters` iterations or when the inf-norm change of
    phi1 drops below tol. Visible pixels are clamped bit-exactly.
    """
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n, d1 = target.shape
    if d1 != mask.visible.shape[0]:
        raise ValueError("mask length does not match image size")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")

    phi1 = np.where(mask.visible, target, 0.0)
    rng = np.random.default_rng(init_seed)
    state = init_latents(params.dims, n, rng)

    # the errors of each new state serve its divergence check, the next
    # step and, after the last step, the final free energy
    errors = compute_errors(params, state, phi1)
    _, mean_f = free_energy(errors)
    used = 0
    for i in range(iters):
        d_phi2, d_phi3 = inference_gradients(params, state, errors)
        state = LatentState(phi2=state.phi2 - alpha * d_phi2, phi3=state.phi3 - alpha * d_phi3)
        # dF/dphi1 = xi1; only the hidden pixels move
        new_phi1 = np.where(mask.hidden, phi1 - alpha * errors.xi1, phi1)
        delta = np.max(np.abs(new_phi1 - phi1))
        phi1 = new_phi1
        used = i + 1
        errors = compute_errors(params, state, phi1)
        _, mean_f = free_energy(errors)
        if not np.isfinite(mean_f):
            raise DivergenceError(f"non-finite free energy at recall iteration {used}")
        if delta < tol:
            break

    mses = np.array([masked_mse(phi1[k], target[k], mask) for k in range(n)])
    return MemoryTaskResult(
        images=phi1,
        iterations=used,
        final_free_energy=mean_f,
        masked_mse=mses,
    )
