"""Hand-rolled Adam with explicit, persistable state.

Adam (standard bias-corrected form, fixed decays 0.9 / 0.999 and
epsilon 1e-8) drives weight learning. adam_step updates the parameter and
the moments in place, allocating nothing after a state's first step, and
is bit-deterministic. The state holds only the moments and the step
count: the learning rate is the caller's, and training passes the run
config's beta on every step. Inference descends the latents with plain
gradient steps inside core.descend_latents and memory.recall.
"""

from __future__ import annotations

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
    def _scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Two work arrays of m's shape for adam_step; never persisted."""
        return np.empty_like(self.m), np.empty_like(self.m)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, rate: float) -> None:
    """One bias-corrected Adam update of param, state.m and state.v in place.

    m <- d1*m + (1-d1)*g;  v <- d2*v + (1-d2)*g^2
    param <- param - rate * m_hat / (sqrt(v_hat) + eps)

    Each line is evaluated in the order the formula reads, so the result is
    the same bits as the expressions written out with fresh arrays.
    """
    if param.shape != grad.shape or state.m.shape != param.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, m {state.m.shape}"
        )
    state.t += 1
    m, v = state.m, state.v
    s1, s2 = state._scratch
    np.multiply(m, ADAM_DECAY1, out=m)
    np.multiply(grad, 1.0 - ADAM_DECAY1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, ADAM_DECAY2, out=v)
    np.multiply(grad, 1.0 - ADAM_DECAY2, out=s1)
    np.multiply(s1, grad, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, 1.0 - ADAM_DECAY1**state.t, out=s1)  # m_hat
    np.divide(v, 1.0 - ADAM_DECAY2**state.t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    np.add(s2, ADAM_EPSILON, out=s2)
    np.multiply(s1, rate, out=s1)
    np.divide(s1, s2, out=s1)
    np.subtract(param, s1, out=param)
