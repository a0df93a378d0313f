"""Central finite-difference verification of the analytic gradients.

Runs on a small random model (DIMS, BATCH examples) and compares every
analytic gradient coordinate, latent and weight, against a central
difference of step H of core.free_energy's row sums: F in direct form,
formed apart from the Gram forms under check (the energies training,
evaluation and export-latents log are the settle's Gram form of the
same F). The analytic side is
computed apart from it: d_phi2 and d_phi3 are read off one step of
core.descend_latents, the Gram-form kernel that training, evaluation,
reconstruction, replay and recall descend with; d_phi1 is the input
error xi1 = phi1 - phi2 theta1^T, formed here; the weight gradients are
core.learning_gradients, the function training steps Adam with.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import (
    LatentState,
    ModelParams,
    descend_latents,
    free_energy,
    init_params,
    learning_gradients,
)

DEFAULT_TOL = 1e-4
H = 1e-5  # central-difference step
DIMS = (6, 4, 2)
BATCH = 3


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)


def kernel_latent_gradients(
    params: ModelParams, state: LatentState, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_phi2, d_phi3) read off one descend_latents step: (phi - phi') / ALPHA."""
    step = descend_latents(params, state, x, 1)
    return (state.phi2 - step.phi2) / core.ALPHA, (state.phi3 - step.phi3) / core.ALPHA


def gradient_report(seed: int = 0) -> dict[str, float]:
    """Max relative error per gradient block on the instance `seed` draws."""
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    params = init_params(DIMS, rng)
    d1, d2, d3 = DIMS
    phi1 = rng.uniform(0.0, 1.0, size=(BATCH, d1))
    phi2 = rng.standard_normal((BATCH, d2))
    phi3 = rng.standard_normal((BATCH, d3))
    state = LatentState(phi2=phi2, phi3=phi3)

    xi1 = phi1 - phi2 @ params.theta1.T  # dl/dphi1 is the input error itself
    d_phi2, d_phi3 = kernel_latent_gradients(params, state, phi1)
    d_theta1, d_theta2 = learning_gradients(params, state, phi1)

    def energy(p1=phi1, p2=phi2, p3=phi3, t1=params.theta1, t2=params.theta2):
        return free_energy(ModelParams(t1, t2), LatentState(p2, p3), p1).sum(axis=1)

    def check(name, analytic, base, per_row):
        """Worst coordinate of `analytic` against a central difference of
        the energy in argument `name`: the coordinate's own row's energy
        for a latent (per_row), the batch mean for a weight."""
        worst = 0.0
        for idx in np.ndindex(base.shape):
            plus, minus = base.copy(), base.copy()
            plus[idx] += H
            minus[idx] -= H
            e_plus, e_minus = energy(**{name: plus}), energy(**{name: minus})
            if per_row:
                diff = e_plus[idx[0]] - e_minus[idx[0]]
            else:
                diff = np.mean(e_plus) - np.mean(e_minus)
            worst = max(worst, _rel_err(analytic[idx], diff / (2 * H)))
        return worst

    return {
        "d_phi1": check("p1", xi1, phi1, True),
        "d_phi2": check("p2", d_phi2, phi2, True),
        "d_phi3": check("p3", d_phi3, phi3, True),
        "d_theta1": check("t1", d_theta1, params.theta1, False),
        "d_theta2": check("t2", d_theta2, params.theta2, False),
    }
