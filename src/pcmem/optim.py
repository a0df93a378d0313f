"""Hand-rolled Adam with explicit, persistable state.

Adam (standard bias-corrected form, fixed decays 0.9 / 0.999 and
epsilon 1e-8) drives weight learning; it is pure value-in/value-out and
bit-deterministic. The state holds only the moments and the step count:
the learning rate is the caller's, and training passes the run config's
beta on every step. Inference descends the latents with plain gradient
steps inside core.descend_latents and memory.recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments and step count for one parameter matrix.

    m and v match the parameter shape permanently; t increments by exactly
    one per update.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, shape: tuple[int, ...]) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


def adam_step(
    param: np.ndarray, grad: np.ndarray, state: AdamState, rate: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new parameter and state.

    m <- d1*m + (1-d1)*g;  v <- d2*v + (1-d2)*g^2
    param <- param - rate * m_hat / (sqrt(v_hat) + eps)
    """
    if param.shape != grad.shape or state.m.shape != param.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, m {state.m.shape}"
        )
    t = state.t + 1
    m = ADAM_DECAY1 * state.m + (1.0 - ADAM_DECAY1) * grad
    v = ADAM_DECAY2 * state.v + (1.0 - ADAM_DECAY2) * grad * grad
    m_hat = m / (1.0 - ADAM_DECAY1**t)
    v_hat = v / (1.0 - ADAM_DECAY2**t)
    new_param = param - rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return new_param, AdamState(m=m, v=v, t=t)
