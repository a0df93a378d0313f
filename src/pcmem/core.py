"""Three-level predictive coding network: prediction errors, free energy,
and the hand-derived inference/learning gradients.

The generative model is

    u    ~ N(theta1 @ phi2, I)      (input layer, identity activation)
    phi2 ~ N(f(theta2 @ phi3), I)
    phi3 ~ N(0, I)

so the free energy per example is l = 1/2 (|xi1|^2 + |xi2|^2 + |xi3|^2)
with xi1 = u - theta1 @ phi2, xi2 = phi2 - f(theta2 @ phi3), xi3 = phi3.

All functions are pure: they take value state and return new values.
Arrays are float64, batch-major (batch x dim). "diag[f']" is always an
element-wise product, never a materialized diagonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np


class DivergenceError(RuntimeError):
    """Inference produced non-finite latents or a non-finite free energy."""


class Activation(Enum):
    """Activation for the layer-2 prediction (layer 1 is always identity)."""

    IDENTITY = "identity"
    TANH = "tanh"


def activation_eval(kind: Activation, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f(x) and f'(x) element-wise.

    Raises ValueError on non-finite input.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("activation input contains non-finite values")
    if kind is Activation.TANH:
        value = np.tanh(x)
        return value, 1.0 - value * value
    if kind is Activation.IDENTITY:
        return x, np.ones_like(x)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass(frozen=True)
class ModelParams:
    """The learned generative model: two weight matrices and the activation.

    theta1 has shape (d1, d2), theta2 has shape (d2, d3). Shapes are fixed
    at construction.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    activation: Activation = Activation.TANH

    def __post_init__(self):
        if self.theta1.ndim != 2 or self.theta2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if self.theta1.shape[1] != self.theta2.shape[0]:
            raise ValueError(
                f"incompatible weight shapes {self.theta1.shape} and {self.theta2.shape}"
            )
        if not (np.all(np.isfinite(self.theta1)) and np.all(np.isfinite(self.theta2))):
            raise ValueError("weights contain non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.theta1.shape[0], self.theta1.shape[1], self.theta2.shape[1])


def init_params(
    dims: tuple[int, int, int],
    rng: np.random.Generator,
    activation: Activation = Activation.TANH,
) -> ModelParams:
    """Seeded uniform weight init in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    fan_in is the input dimension of each linear map (d2 for theta1,
    d3 for theta2); keeps tanh pre-activations in the linear regime early.
    """
    d1, d2, d3 = dims
    b1 = 1.0 / np.sqrt(d2)
    b2 = 1.0 / np.sqrt(d3)
    theta1 = rng.uniform(-b1, b1, size=(d1, d2))
    theta2 = rng.uniform(-b2, b2, size=(d2, d3))
    return ModelParams(theta1=theta1, theta2=theta2, activation=activation)


@dataclass(frozen=True)
class LatentState:
    """Per-example hidden activities (the E-step state).

    phi2: (batch, d2); phi3: (batch, d3).
    """

    phi2: np.ndarray
    phi3: np.ndarray

    def __post_init__(self):
        if self.phi2.shape[0] != self.phi3.shape[0]:
            raise ValueError("batch dimension mismatch between phi2 and phi3")

    @property
    def batch(self) -> int:
        return self.phi2.shape[0]


LATENT_INIT_SCALE = 0.3


def init_latents(
    dims: tuple[int, int, int],
    batch: int,
    rng: np.random.Generator,
    scale: float = LATENT_INIT_SCALE,
) -> LatentState:
    """Seeded i.i.d. small random latent init.

    The scale matters: with T = 50 inference steps at alpha = 0.01 a
    unit-variance init leaves most of its noise in phi2, so the top layer
    learns the init noise's principal components instead of the data's;
    a near-zero init instead lets subtle train/validation energy gaps
    dominate. 0.3 keeps the settled latents signal-dominated while
    retaining enough exploration noise.
    """
    _, d2, d3 = dims
    return LatentState(
        phi2=scale * rng.standard_normal((batch, d2)),
        phi3=scale * rng.standard_normal((batch, d3)),
    )


@dataclass(frozen=True)
class ErrorState:
    """Per-example prediction errors and derived per-layer energies.

    layer_energies[i] is the batch mean of 1/2 |xi_{i+1}|^2. fprime2 caches
    f'(theta2 @ phi3) for reuse by the gradient computations.
    """

    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    layer_energies: np.ndarray
    fprime2: np.ndarray


def compute_errors(
    params: ModelParams,
    state: LatentState,
    x: np.ndarray,
    input_gate: bool = True,
) -> ErrorState:
    """Compute the three prediction errors for a batch of inputs.

    When input_gate is False the input-layer precision is gated to zero, so
    xi1 is exactly the zero matrix regardless of the input (the mechanism
    behind replay).
    """
    x = np.asarray(x, dtype=np.float64)
    d1, d2, d3 = params.dims
    if x.ndim != 2 or x.shape != (state.batch, d1):
        raise ValueError(f"input shape {x.shape} != ({state.batch}, {d1})")
    if state.phi2.shape[1] != d2 or state.phi3.shape[1] != d3:
        raise ValueError("latent shapes do not match model dims")

    if input_gate:
        xi1 = x - state.phi2 @ params.theta1.T
    else:
        xi1 = np.zeros((state.batch, d1))
    pred2, fprime2 = activation_eval(params.activation, state.phi3 @ params.theta2.T)
    xi2 = state.phi2 - pred2
    xi3 = state.phi3
    energies = np.array(
        [
            0.5 * np.mean(np.sum(xi1 * xi1, axis=1)),
            0.5 * np.mean(np.sum(xi2 * xi2, axis=1)),
            0.5 * np.mean(np.sum(xi3 * xi3, axis=1)),
        ]
    )
    return ErrorState(xi1=xi1, xi2=xi2, xi3=xi3, layer_energies=energies, fprime2=fprime2)


def free_energy(errors: ErrorState) -> tuple[np.ndarray, float]:
    """Per-example free energy and its batch mean (additive constant dropped)."""
    per_example = 0.5 * (
        np.sum(errors.xi1 * errors.xi1, axis=1)
        + np.sum(errors.xi2 * errors.xi2, axis=1)
        + np.sum(errors.xi3 * errors.xi3, axis=1)
    )
    return per_example, float(np.mean(per_example))


def inference_gradients(
    params: ModelParams, state: LatentState, errors: ErrorState
) -> tuple[np.ndarray, np.ndarray]:
    """Per-example gradients (d_phi2, d_phi3) of l with respect to the latents.

    d_phi2 = -theta1^T xi1 + xi2
    d_phi3 = -theta2^T (f'(theta2 phi3) * xi2) + xi3

    The gradient with respect to the input layer itself is xi1 (recall
    descends the hidden pixels along it).
    """
    d_phi2 = errors.xi2 - errors.xi1 @ params.theta1
    d_phi3 = errors.xi3 - (errors.xi2 * errors.fprime2) @ params.theta2
    return d_phi2, d_phi3


def learning_gradients(
    params: ModelParams, state: LatentState, errors: ErrorState
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-mean gradients (d_theta1, d_theta2) of F with respect to the weights.

    d_theta1 = -<xi1 phi2^T>, d_theta2 = -<(xi2 * f') phi3^T>, with <.>
    the mini-batch mean.
    """
    b = state.batch
    d_theta1 = -(errors.xi1.T @ state.phi2) / b
    d_theta2 = -((errors.xi2 * errors.fprime2).T @ state.phi3) / b
    return d_theta1, d_theta2


def descend_latents(
    params: ModelParams,
    state: LatentState,
    x: np.ndarray,
    alpha: float,
    n_iters: int,
    rel_tol: Optional[float] = None,
) -> LatentState:
    """Up to n_iters gradient-descent steps on phi2 and phi3 with theta1 fixed.

    While theta1 is fixed, d_phi2 = xi2 - x theta1 + phi2 theta1^T theta1,
    so the Gram matrix G = theta1^T theta1 (d2 x d2) and the drive
    b = x theta1 (batch x d2) are formed once per call and no batch x d1
    product runs per step unless rel_tol needs the free energy. Equal to
    the direct form (compute_errors + inference_gradients, stepped n_iters
    times) up to rounding.

    With rel_tol set, each iteration first evaluates the free energy from
    the full d1-dimensional residual (so no cancellation) and stops,
    before stepping, once it changed by at most rel_tol relative to the
    previous iteration. Raises DivergenceError, naming the iteration, on a
    non-finite free energy or non-finite latents after a step.
    """
    x = np.asarray(x, dtype=np.float64)
    d1, d2, d3 = params.dims
    if x.ndim != 2 or x.shape != (state.batch, d1):
        raise ValueError(f"input shape {x.shape} != ({state.batch}, {d1})")
    if state.phi2.shape[1] != d2 or state.phi3.shape[1] != d3:
        raise ValueError("latent shapes do not match model dims")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    theta1, theta2 = params.theta1, params.theta2
    gram = theta1.T @ theta1
    drive = x @ theta1
    phi2, phi3 = state.phi2, state.phi3
    prev = None
    for i in range(n_iters):
        pred2, fprime2 = activation_eval(params.activation, phi3 @ theta2.T)
        xi2 = phi2 - pred2
        if rel_tol is not None:
            xi1 = x - phi2 @ theta1.T
            mean_f = float(np.mean(0.5 * (
                np.sum(xi1 * xi1, axis=1) + np.sum(xi2 * xi2, axis=1)
                + np.sum(phi3 * phi3, axis=1)
            )))
            if not np.isfinite(mean_f):
                raise DivergenceError(f"non-finite free energy at inference iteration {i}")
            if prev is not None and abs(prev - mean_f) <= rel_tol * max(abs(prev), 1e-300):
                break
            prev = mean_f
        d_phi2 = xi2 - drive + phi2 @ gram
        d_phi3 = phi3 - (xi2 * fprime2) @ theta2
        phi2 = phi2 - alpha * d_phi2
        phi3 = phi3 - alpha * d_phi3
        if not (np.all(np.isfinite(phi2)) and np.all(np.isfinite(phi3))):
            raise DivergenceError(f"non-finite latents after inference iteration {i}")
    return replace(state, phi2=phi2, phi3=phi3)
