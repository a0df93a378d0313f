import numpy as np
import pytest

import pcmem.gradcheck as gradcheck
from pcmem.core import LatentState
from pcmem.gradcheck import DEFAULT_TOL, gradient_report

from conftest import compute_errors, inference_gradients


class TestGradientReport:
    def test_all_blocks_within_tolerance(self):
        report = gradient_report(seed=0)
        assert set(report) == {"d_phi1", "d_phi2", "d_phi3", "d_theta1", "d_theta2"}
        for block, err in report.items():
            assert err < DEFAULT_TOL, f"{block}: {err}"

    def test_multiple_seeds(self):
        for seed in (1, 2, 3):
            assert max(gradient_report(seed=seed).values()) < DEFAULT_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kernel_read_matches_direct_form(self, monkeypatch, seed):
        """The latent gradients gradcheck reads off the kernel step equal the
        direct-form oracle up to rounding."""
        real = gradcheck.kernel_latent_gradients
        calls = []

        def spy(params, state, x):
            calls.append((params, state, x, real(params, state, x)))
            return calls[-1][-1]

        monkeypatch.setattr(gradcheck, "kernel_latent_gradients", spy)
        gradient_report(seed=seed)
        [(params, state, x, got)] = calls
        want = inference_gradients(params, state, compute_errors(params, state, x))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_catches_wrong_gradients(self, monkeypatch):
        """Mutation check: a kernel step that moves phi2 1.5 times too far
        must be flagged, proving the finite-difference oracle has teeth."""
        real = gradcheck.descend_latents

        def corrupted(params, state, x, n_iters):
            step = real(params, state, x, n_iters)
            return LatentState(phi2=state.phi2 + 1.5 * (step.phi2 - state.phi2), phi3=step.phi3)

        monkeypatch.setattr(gradcheck, "descend_latents", corrupted)
        report = gradient_report(seed=0)
        assert report["d_phi2"] > DEFAULT_TOL

    def test_catches_wrong_weight_gradients(self, monkeypatch):
        real = gradcheck.learning_gradients

        def corrupted(params, state, x):
            d_theta1, d_theta2 = real(params, state, x)
            return d_theta1, -d_theta2

        monkeypatch.setattr(gradcheck, "learning_gradients", corrupted)
        report = gradient_report(seed=0)
        assert report["d_theta2"] > DEFAULT_TOL

    def test_differentiates_the_library_free_energy(self, monkeypatch):
        """The numeric side is core.free_energy: scaled by 1.5 in its
        layer-2 column, it no longer matches the analytic gradients that
        read xi2 (d_phi2, d_phi3, d_theta2)."""
        real = gradcheck.free_energy

        def scaled(params, state, x):
            energies = real(params, state, x)
            energies[:, 1] *= 1.5
            return energies

        monkeypatch.setattr(gradcheck, "free_energy", scaled)
        report = gradient_report(seed=0)
        for block in ("d_phi2", "d_phi3", "d_theta2"):
            assert report[block] > DEFAULT_TOL, block
