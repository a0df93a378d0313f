"""Hand-rolled Adam with explicit, persistable state.

Adam (bias-corrected, decays 0.9 / 0.999, epsilon 1e-8, in the efficient
form of Kingma & Ba 2015, section 2) drives weight learning. adam_step
updates the parameter and the moments in place, allocating nothing after
a state's first step, and is bit-deterministic. The state holds only the
moments and the step count: the learning rate is the caller's (training
passes the config's beta). Inference descends the latents with plain
gradient steps inside core.descend_latents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments and step count for one parameter matrix.

    m and v match the parameter shape permanently; t increments by exactly
    one per update. adam_step overwrites m and v in place.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, shape: tuple[int, ...]) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)

    @cached_property
    def _scratch(self) -> np.ndarray:
        """A work array of m's shape for adam_step; never persisted."""
        return np.empty_like(self.m)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, rate: float) -> None:
    """One bias-corrected Adam update of param, state.m and state.v in place.

    m <- d1*m + (1-d1)*g;  v <- d2*v + (1-d2)*g^2
    param <- param - m / (sqrt(v) + eps_t) * rate_t

    with rate_t = rate * sqrt(1-d2^t) / (1-d1^t), eps_t = eps * sqrt(1-d2^t):
    rate * m_hat / (sqrt(v_hat) + eps) with one divide and one square root
    per element. Each line is evaluated in the order the formula reads, so
    the result is the same bits as the fresh-array expressions.
    """
    if param.shape != grad.shape or state.m.shape != param.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, m {state.m.shape}"
        )
    state.t += 1
    m, v = state.m, state.v
    s = state._scratch
    np.multiply(m, ADAM_DECAY1, out=m)
    np.multiply(grad, 1.0 - ADAM_DECAY1, out=s)
    np.add(m, s, out=m)
    np.multiply(v, ADAM_DECAY2, out=v)
    np.multiply(grad, 1.0 - ADAM_DECAY2, out=s)
    np.multiply(s, grad, out=s)
    np.add(v, s, out=v)
    root2 = math.sqrt(1.0 - ADAM_DECAY2**state.t)
    np.sqrt(v, out=s)
    np.add(s, ADAM_EPSILON * root2, out=s)
    np.divide(m, s, out=s)
    np.multiply(s, rate * root2 / (1.0 - ADAM_DECAY1**state.t), out=s)
    np.subtract(param, s, out=param)
