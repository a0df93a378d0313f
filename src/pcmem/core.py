"""Three-level predictive coding network: the free energy, the weight
gradients and the latent descent kernel.

The generative model is

    u    ~ N(theta1 @ phi2, I)      (input layer, identity activation)
    phi2 ~ N(tanh(theta2 @ phi3), I)
    phi3 ~ N(0, I)

so the free energy per example is l = 1/2 (|xi1|^2 + |xi2|^2 + |xi3|^2)
with xi1 = u - theta1 @ phi2, xi2 = phi2 - tanh(theta2 @ phi3), xi3 = phi3.
The activation is fixed: f = tanh, f' = 1 - tanh^2, computed inline.

All functions are pure: they take value state and return new values.
Arrays are float64, batch-major (batch x dim). "diag[f']" is always an
element-wise product, never a materialized diagonal matrix. F has two
readings, both per-example and per-layer. The settle's own,
SettledState.energies, forms 1/2 |xi1|^2 in Gram form from the
theta1^T theta1 and x theta1 that descend_latents already holds; training
logs, evaluation and export-latents read it. free_energy is the direct
form, the one function here that forms the batch x d1 input error xi1:
gradcheck differentiates it and the tests check the settle's energies
against it. The kernel and the weight gradients use Gram forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

# the inference step size alpha and the steps T of every settle (training,
# evaluation, reconstruction, replay), both read at call time
ALPHA = 0.01
DEFAULT_ITERS = 50
# descend_latents settles a batch in blocks of this many rows
# (read at call time). The rule: a block's six rows x d2 arrays (latents,
# drive, four work arrays) stay within about 1 MiB at d2 = 35, half a core's
# L2, so they stay in cache across the steps. At B = 2010, T = 50 blocks of
# 256, 512 and 1024 rows settled in 91%, 82% and 87% of the unblocked time.
BLOCK_ROWS = 512


class DivergenceError(RuntimeError):
    """Inference produced non-finite latents, weight gradients or recalled
    pixels.

    step is the 0-based step after which they were non-finite, counted from
    the start of the descend_latents call, the training batch or the recall
    that raised it; the message ends in "iteration {step}".
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class Activation(Enum):
    """The layer-2 activation, always tanh (layer 1 is always identity)."""

    TANH = "tanh"


@dataclass(frozen=True)
class ModelParams:
    """The learned generative model: two weight matrices.

    theta1 has shape (d1, d2), theta2 has shape (d2, d3), all dims >= 1.
    Shapes are fixed at construction; training moves both arrays in place.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    # fixed, not a setting; only perfbench's workloads read it (.activation.value)
    activation: ClassVar[Activation] = Activation.TANH

    def __post_init__(self):
        if self.theta1.ndim != 2 or self.theta2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if 0 in self.theta1.shape or 0 in self.theta2.shape:
            raise ValueError(f"model dims {self.dims} must all be >= 1")
        if self.theta1.shape[1] != self.theta2.shape[0]:
            raise ValueError(
                f"incompatible weight shapes {self.theta1.shape} and {self.theta2.shape}"
            )
        if not (np.all(np.isfinite(self.theta1)) and np.all(np.isfinite(self.theta2))):
            raise ValueError("weights contain non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.theta1.shape[0], self.theta1.shape[1], self.theta2.shape[1])


def init_params(dims: tuple[int, int, int], rng: np.random.Generator) -> ModelParams:
    """Seeded uniform weight init in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    fan_in is the input dimension of each linear map (d2 for theta1,
    d3 for theta2); keeps tanh pre-activations in the linear regime early.
    """
    d1, d2, d3 = dims
    b1 = 1.0 / np.sqrt(d2)
    b2 = 1.0 / np.sqrt(d3)
    theta1 = rng.uniform(-b1, b1, size=(d1, d2))
    theta2 = rng.uniform(-b2, b2, size=(d2, d3))
    return ModelParams(theta1=theta1, theta2=theta2)


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
) -> LatentState:
    """Seeded i.i.d. normal latent init with standard deviation LATENT_INIT_SCALE.

    The scale matters: with T = 50 inference steps at alpha = 0.01 a
    unit-variance init leaves most of its noise in phi2, so the top layer
    learns the init noise's principal components instead of the data's;
    a near-zero init instead lets subtle train/validation energy gaps
    dominate. 0.3 keeps the settled latents signal-dominated while
    retaining enough exploration noise.
    """
    _, d2, d3 = dims
    return LatentState(
        phi2=LATENT_INIT_SCALE * rng.standard_normal((batch, d2)),
        phi3=LATENT_INIT_SCALE * rng.standard_normal((batch, d3)),
    )


def _check_batch(params: ModelParams, state: LatentState, x: np.ndarray) -> np.ndarray:
    """x as a float64 array, checked against the batch and the model dims;
    an empty batch is rejected."""
    x = np.asarray(x, dtype=np.float64)
    d1, d2, d3 = params.dims
    if x.ndim != 2 or x.shape != (state.batch, d1):
        raise ValueError(f"input shape {x.shape} != ({state.batch}, {d1})")
    if state.batch == 0:
        raise ValueError(f"empty batch: input shape {x.shape}")
    if state.phi2.shape[1] != d2 or state.phi3.shape[1] != d3:
        raise ValueError("latent shapes do not match model dims")
    return x


def free_energy(params: ModelParams, state: LatentState, x: np.ndarray) -> np.ndarray:
    """Per-example, per-layer free energy (additive constant dropped) in
    direct form: [k, l] is 1/2 |xi_{l+1}|^2 of example k, from the errors
    this call forms. It is column-major, so a column mean is NumPy's
    pairwise sum: at B = 2010 within 3e-16 of an exact sum, where a
    row-major one was 3.5e-15 off."""
    x = _check_batch(params, state, x)
    # xi1 = x - phi2 theta1^T, written over the product: one batch x d1 array
    xi1 = state.phi2 @ params.theta1.T
    np.subtract(x, xi1, out=xi1)
    return _energies(np.einsum("ij,ij->i", xi1, xi1), params.theta2, state)


def _energies(sq_xi1: np.ndarray, theta2: np.ndarray, state: LatentState) -> np.ndarray:
    """The column-major batch x 3 energies given |xi1|^2 per row, with
    1/2 |xi2|^2 and 1/2 |phi3|^2 formed here from theta2 and the latents."""
    xi2 = state.phi2 - np.tanh(state.phi3 @ theta2.T)
    energies = np.empty((3, state.batch))
    energies[0] = sq_xi1
    for layer, xi in ((1, xi2), (2, state.phi3)):
        np.einsum("ij,ij->i", xi, xi, out=energies[layer])
    energies *= 0.5
    return energies.T


@dataclass(frozen=True)
class SettledState(LatentState):
    """The latents descend_latents returns, with the terms of the model and
    input they were settled on: a copy of theta2, the Gram matrix
    G = theta1^T theta1 and the drive x theta1 (both made by the settle),
    and x. Moving the weights in place later changes none of them."""

    theta2: np.ndarray
    gram: np.ndarray
    drive: np.ndarray
    x: np.ndarray

    def energies(self) -> np.ndarray:
        """free_energy at these latents, formed when called, with no
        batch x d1 array: 1/2 |xi1|^2 = 1/2 |x|^2 - <x theta1, phi2>
        + 1/2 <phi2 G, phi2>; 1/2 |xi2|^2 and 1/2 |phi3|^2 as free_energy
        forms them, so those two columns equal its bit for bit. The Gram
        form cancels: on the 64 memorised images of an 8000-epoch exp1
        model, where 1/2 |x|^2 is up to 134 e1, an example's e1 stayed
        within 9.2e-14 relative of the direct form."""
        cross = self.phi2 @ self.gram - 2.0 * self.drive
        sq_xi1 = np.einsum("ij,ij->i", self.x, self.x)
        sq_xi1 += np.einsum("ij,ij->i", cross, self.phi2)
        return _energies(sq_xi1, self.theta2, self)


def learning_gradients(
    params: ModelParams, state: LatentState, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-mean gradients (d_theta1, d_theta2) of F with respect to the weights.

    d_theta1 = -<xi1 phi2^T> = theta1 (phi2^T p) - x^T p,  p = phi2 / b
    d_theta2 = -<(xi2 * f') phi3^T>

    with <.> the mini-batch mean. The Gram form of d_theta1 forms no batch x d1
    array. It cancels, but on a 2000-epoch exp1 model it stayed within
    6e-15 of max|d_theta1| of the direct form -xi1^T phi2 / b.
    """
    x = _check_batch(params, state, x)
    phi2, phi3, b = state.phi2, state.phi3, state.batch
    p = phi2 / b
    d_theta1 = params.theta1 @ (phi2.T @ p)
    d_theta1 -= x.T @ p
    pred2 = np.tanh(phi3 @ params.theta2.T)
    d_theta2 = -(((phi2 - pred2) * (1.0 - pred2 * pred2)).T @ phi3) / b
    return d_theta1, d_theta2


def descend_latents(
    params: ModelParams,
    state: LatentState,
    x: np.ndarray,
    n_iters: int,
) -> SettledState:
    """n_iters descent steps of size ALPHA on phi2 and phi3, theta1 fixed.

    While theta1 is fixed, d_phi2 = xi2 - x theta1 + phi2 theta1^T theta1,
    so the Gram matrix G = theta1^T theta1 (d2 x d2) and the drive
    b = x theta1 (batch x d2) are formed once per call and no batch x d1
    product runs per step. Equal to the direct form
    d_phi2 = xi2 - xi1 theta1, d_phi3 = phi3 - (xi2 * f') theta2,
    stepped n_iters times, up to rounding. The result keeps G and b, so
    its energies() form F at the final latents only when read.

    No row reads another, so the batch is settled one block of BLOCK_ROWS
    rows at a time (a batch of at most BLOCK_ROWS rows is one block), all
    n_iters steps per block, on block-sized work arrays that stay in cache
    across the steps. No step allocates: the kernel steps its own copies
    of phi2 and phi3 in place and writes every temporary into work arrays
    made once per block, in the operation order of the fresh-array
    expressions, so the result is bit-identical to them run on the same
    row blocks.

    Raises DivergenceError, naming the iteration (in the first block, in
    row order, that diverges) and carrying it as its step, on non-finite
    latents after a step. The check sums |phi2|^2 + |phi3|^2 and scans the
    elements only when that sum is not finite, so finite latents whose
    squares overflow pass. The call runs under np.errstate: that check, not
    a NumPy warning, reports an overflow.
    """
    x = _check_batch(params, state, x)
    theta1, theta2 = params.theta1, params.theta2
    phi2 = np.array(state.phi2, dtype=np.float64, order="C")
    phi3 = np.array(state.phi3, dtype=np.float64, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = theta1.T @ theta1
        drive = x @ theta1
        for start in range(0, state.batch, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            _descend_block(theta2, gram, drive[rows], phi2[rows], phi3[rows], n_iters)
    return SettledState(phi2, phi3, theta2.copy(), gram, drive, x)


def _finite(phi2: np.ndarray, phi3: np.ndarray) -> bool:
    """Every latent finite: |phi2|^2 + |phi3|^2 is, or an element scan says so."""
    return bool(
        np.isfinite(np.vdot(phi2, phi2) + np.vdot(phi3, phi3))
        or (np.all(np.isfinite(phi2)) and np.all(np.isfinite(phi3)))
    )


def _descend_block(
    theta2: np.ndarray,
    gram: np.ndarray,
    drive: np.ndarray,
    phi2: np.ndarray,
    phi3: np.ndarray,
    n_iters: int,
) -> None:
    """descend_latents' steps on one block of rows, phi2 and phi3 (C-ordered
    rows, possibly views of the whole batch) stepped in place.

    The latents are checked once, after the last step: a step subtracts
    from the latents, so a non-finite one stays non-finite. A block that
    ends non-finite is rerun from its start with a check after every step,
    which raises at the step the divergence began."""
    start2, start3 = phi2.copy(), phi3.copy()
    # work arrays: pred2 becomes xi2 * f' in place, step2/step3 the scaled steps
    pred2, xi2, phi2_gram, step2 = (np.empty_like(phi2) for _ in range(4))
    step3 = np.empty_like(phi3)
    for check_each in (False, True):
        for i in range(n_iters):
            np.matmul(phi3, theta2.T, out=pred2)
            np.tanh(pred2, out=pred2)
            np.subtract(phi2, pred2, out=xi2)
            np.matmul(phi2, gram, out=phi2_gram)
            # d_phi2 = (xi2 - drive) + phi2 G
            np.subtract(xi2, drive, out=step2)
            np.add(step2, phi2_gram, out=step2)
            # d_phi3 = phi3 - (xi2 * (1 - pred2^2)) theta2
            np.multiply(pred2, pred2, out=pred2)
            np.subtract(1.0, pred2, out=pred2)
            np.multiply(xi2, pred2, out=pred2)
            np.matmul(pred2, theta2, out=step3)
            np.subtract(phi3, step3, out=step3)
            np.multiply(step2, ALPHA, out=step2)
            np.subtract(phi2, step2, out=phi2)
            np.multiply(step3, ALPHA, out=step3)
            np.subtract(phi3, step3, out=phi3)
            if check_each and not _finite(phi2, phi3):
                raise DivergenceError(f"non-finite latents after inference iteration {i}", step=i)
        if check_each or _finite(phi2, phi3):
            return
        phi2[...], phi3[...] = start2, start3
