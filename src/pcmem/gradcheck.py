"""Central finite-difference verification of the analytic gradients.

Runs on a small random model (default dims [6, 4, 2]) and compares every
analytic gradient coordinate, latent and weight, against a central
difference of the scalar free energy.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Activation,
    LatentState,
    activation_eval,
    compute_errors,
    inference_gradients,
    init_params,
    learning_gradients,
)

DEFAULT_TOL = 1e-4
DEFAULT_H = 1e-5


def _per_example_energy(theta1, theta2, activation, phi1, phi2, phi3):
    xi1 = phi1 - phi2 @ theta1.T
    pred2, _ = activation_eval(activation, phi3 @ theta2.T)
    xi2 = phi2 - pred2
    xi3 = phi3
    return 0.5 * (
        np.sum(xi1 * xi1, axis=1) + np.sum(xi2 * xi2, axis=1) + np.sum(xi3 * xi3, axis=1)
    )


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)


def gradient_report(
    dims: tuple[int, int, int] = (6, 4, 2),
    batch: int = 3,
    seed: int = 0,
    h: float = DEFAULT_H,
) -> dict[str, float]:
    """Max relative error per gradient block on a random instance."""
    rng = np.random.default_rng(seed)
    params = init_params(dims, rng, Activation.TANH)
    d1, d2, d3 = dims
    phi1 = rng.uniform(0.0, 1.0, size=(batch, d1))
    phi2 = rng.standard_normal((batch, d2))
    phi3 = rng.standard_normal((batch, d3))
    state = LatentState(phi2=phi2, phi3=phi3)

    errors = compute_errors(params, state, phi1)
    d_phi2, d_phi3 = inference_gradients(params, state, errors)
    d_theta1, d_theta2 = learning_gradients(params, state, errors)

    def energy(p1=phi1, p2=phi2, p3=phi3, t1=params.theta1, t2=params.theta2):
        return _per_example_energy(t1, t2, params.activation, p1, p2, p3)

    report: dict[str, float] = {}

    def check_latent(name, analytic, base):
        worst = 0.0
        for k in range(base.shape[0]):
            for j in range(base.shape[1]):
                plus, minus = base.copy(), base.copy()
                plus[k, j] += h
                minus[k, j] -= h
                numeric = (
                    energy(**{name: plus})[k] - energy(**{name: minus})[k]
                ) / (2 * h)
                worst = max(worst, _rel_err(analytic[k, j], numeric))
        return worst

    # dl/dphi1 is the input error itself
    report["d_phi1"] = check_latent("p1", errors.xi1, phi1)
    report["d_phi2"] = check_latent("p2", d_phi2, phi2)
    report["d_phi3"] = check_latent("p3", d_phi3, phi3)

    def check_weight(name, analytic, base):
        worst = 0.0
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                plus, minus = base.copy(), base.copy()
                plus[i, j] += h
                minus[i, j] -= h
                numeric = (
                    np.mean(energy(**{name: plus})) - np.mean(energy(**{name: minus}))
                ) / (2 * h)
                worst = max(worst, _rel_err(analytic[i, j], numeric))
        return worst

    report["d_theta1"] = check_weight("t1", d_theta1, params.theta1)
    report["d_theta2"] = check_weight("t2", d_theta2, params.theta2)
    return report
