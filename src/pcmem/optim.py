"""Hand-rolled Adam with explicit, persistable state.

Adam (standard bias-corrected form, defaults 0.9 / 0.999 / 1e-8) drives
weight learning; it is pure value-in/value-out and bit-deterministic.
Inference descends the latents with plain gradient steps inside
core.descend_latents and memory.recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    """Adam moments and step count for one parameter matrix.

    m and v match the parameter shape permanently; t increments by exactly
    one per update.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    rate: float = 1e-4
    decay1: float = 0.9
    decay2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def fresh(cls, shape: tuple[int, ...], rate: float) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0, rate=rate)


def adam_step(
    param: np.ndarray, grad: np.ndarray, state: AdamState
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
    m = state.decay1 * state.m + (1.0 - state.decay1) * grad
    v = state.decay2 * state.v + (1.0 - state.decay2) * grad * grad
    m_hat = m / (1.0 - state.decay1**t)
    v_hat = v / (1.0 - state.decay2**t)
    new_param = param - state.rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    new_state = AdamState(
        m=m,
        v=v,
        t=t,
        rate=state.rate,
        decay1=state.decay1,
        decay2=state.decay2,
        epsilon=state.epsilon,
    )
    return new_param, new_state
