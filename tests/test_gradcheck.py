import numpy as np
import pytest

import pcmem.gradcheck as gradcheck
from pcmem.gradcheck import DEFAULT_TOL, gradient_report


class TestGradientReport:
    def test_all_blocks_within_tolerance(self):
        report = gradient_report(seed=0)
        assert set(report) == {"d_phi1", "d_phi2", "d_phi3", "d_theta1", "d_theta2"}
        for block, err in report.items():
            assert err < DEFAULT_TOL, f"{block}: {err}"

    def test_multiple_seeds(self):
        for seed in (1, 2, 3):
            assert max(gradient_report(seed=seed).values()) < DEFAULT_TOL

    def test_catches_wrong_gradients(self, monkeypatch):
        """Mutation check: a deliberately scaled latent gradient must be
        flagged, proving the finite-difference oracle has teeth."""
        real = gradcheck.inference_gradients

        def corrupted(params, state, errors):
            d_phi2, d_phi3 = real(params, state, errors)
            return 1.5 * d_phi2, d_phi3

        monkeypatch.setattr(gradcheck, "inference_gradients", corrupted)
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
