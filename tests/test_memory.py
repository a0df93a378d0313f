import numpy as np
import pytest

from pcmem.core import (
    LatentState,
    ModelParams,
    activation_eval,
    compute_errors,
    descend_latents,
    free_energy,
    inference_gradients,
    init_latents,
    init_params,
)
from pcmem.memory import (
    REPLAY_REL_TOL,
    REPLAY_XI2_TOL,
    DivergenceError,
    OcclusionMask,
    infer_latents,
    masked_mse,
    recall,
    reconstruct,
    regenerate,
    replay,
)

from conftest import TOY_DIMS, toy_patterns


def toy_mask():
    visible = np.zeros(25, dtype=bool)
    visible[:13] = True
    return OcclusionMask(visible, tag="toy-top")


class TestOcclusionMask:
    def test_top_half_rows(self):
        mask = OcclusionMask.top_half()
        grid = mask.visible.reshape(28, 28)
        assert grid[:14].all() and not grid[14:].any()

    def test_degenerate_masks_rejected(self):
        with pytest.raises(ValueError):
            OcclusionMask(np.ones(25, dtype=bool))
        with pytest.raises(ValueError):
            OcclusionMask(np.zeros(25, dtype=bool))


class TestMaskedMse:
    def test_identical_images(self):
        a = np.random.default_rng(0).uniform(0, 1, 25)
        assert masked_mse(a, a, toy_mask()) == 0.0

    def test_unit_difference(self):
        mask = toy_mask()
        a = np.zeros(25)
        b = np.where(mask.hidden, 1.0, 0.0)
        assert masked_mse(a, b, mask) == 1.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0, 1, 25), rng.uniform(0, 1, 25)
        mask = toy_mask()
        hidden = np.flatnonzero(mask.hidden)
        expected = sum((a[i] - b[i]) ** 2 for i in hidden) / len(hidden)
        assert masked_mse(a, b, mask) == pytest.approx(expected, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_mse(np.zeros(25), np.zeros(24), toy_mask())


class TestInferLatents:
    def test_descent_at_paper_rates(self, toy_trained):
        x = toy_patterns(4, seed=11)[:4]
        state = infer_latents(toy_trained, x, iters=50, alpha=0.01, init_seed=0)
        rng = np.random.default_rng(0)
        init = init_latents(toy_trained.dims, 4, rng)
        _, f_init = free_energy(compute_errors(toy_trained, init, x))
        _, f_final = free_energy(compute_errors(toy_trained, state, x))
        assert f_final < f_init

    def test_zero_weights_pull_to_prior(self):
        params = ModelParams(np.zeros(( 25, 8)), np.zeros((8, 2)))
        x = np.zeros((2, 25))
        state = infer_latents(params, x, iters=2000, alpha=0.01, init_seed=0)
        assert np.max(np.abs(state.phi2)) < 1e-6
        assert np.max(np.abs(state.phi3)) < 1e-6

    def test_same_seed_bit_identical(self, toy_trained):
        x = toy_patterns(2, seed=12)
        a = infer_latents(toy_trained, x, iters=30, init_seed=42)
        b = infer_latents(toy_trained, x, iters=30, init_seed=42)
        np.testing.assert_array_equal(a.phi2, b.phi2)
        np.testing.assert_array_equal(a.phi3, b.phi3)

    def test_divergence_reported_with_iteration(self, toy_trained):
        x = toy_patterns(2, seed=13)
        with pytest.raises(DivergenceError, match="iteration"):
            infer_latents(toy_trained, x, iters=500, alpha=1e6)


class TestReconstruct:
    def test_zero_weights_zero_output(self):
        params = ModelParams(np.zeros((25, 8)), np.zeros((8, 2)))
        out = reconstruct(params, toy_patterns(3, seed=1))
        np.testing.assert_array_equal(out, np.zeros((3, 25)))

    def test_trained_model_beats_untrained(self, toy_trained, toy_data, toy_params):
        x = toy_data.train.images
        mse_trained = np.mean((reconstruct(toy_trained, x) - x) ** 2)
        mse_untrained = np.mean((reconstruct(toy_params, x) - x) ** 2)
        assert mse_trained < mse_untrained


class TestReplay:
    def test_fixpoint_reached(self, toy_trained):
        x = toy_patterns(4, seed=2)
        rng = np.random.default_rng(0)
        state = init_latents(toy_trained.dims, 4, rng)
        settled = descend_latents(toy_trained, state, x, 0.01, 5000, rel_tol=REPLAY_REL_TOL)
        _, phi2 = regenerate(toy_trained, settled.phi3, settled.phi2)
        target, _ = activation_eval(
            toy_trained.activation, settled.phi3 @ toy_trained.theta2.T
        )
        assert np.max(np.abs(phi2 - target)) < 1e-4

    def test_consolidate_off_leaves_params(self, toy_trained):
        theta1 = toy_trained.theta1.copy()
        theta2 = toy_trained.theta2.copy()
        replay(toy_trained, toy_patterns(2, seed=3))
        np.testing.assert_array_equal(toy_trained.theta1, theta1)
        np.testing.assert_array_equal(toy_trained.theta2, theta2)

    def test_consolidate_updates_theta2_only(self, toy_data):
        params = init_params(TOY_DIMS, np.random.default_rng(9))
        theta1 = params.theta1.copy()
        theta2 = params.theta2.copy()
        replay(params, toy_data.train.images[:2], consolidate=True)
        np.testing.assert_array_equal(params.theta1, theta1)
        assert not np.array_equal(params.theta2, theta2)

    def test_regeneration_ignores_input(self, toy_trained):
        # the top-down phase takes no input: identical frozen states give
        # identical output no matter what happened to the input afterwards
        x = toy_patterns(2, seed=4)
        rng = np.random.default_rng(0)
        state = init_latents(toy_trained.dims, 2, rng)
        settled = descend_latents(toy_trained, state, x, 0.01, 5000, rel_tol=REPLAY_REL_TOL)
        img_a, _ = regenerate(toy_trained, settled.phi3, settled.phi2)
        img_b, _ = regenerate(toy_trained, settled.phi3.copy(), settled.phi2.copy())
        np.testing.assert_array_equal(img_a, img_b)

    @pytest.mark.parametrize("budget", [0, 7, 5000])
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5, 1.0, 1.5])
    def test_regenerate_matches_loop(self, alpha, budget):
        """The closed form against the gated descent loop it replaces."""
        rng = np.random.default_rng(4)
        params = init_params((784, 35, 2), rng)
        state = init_latents(params.dims, 6, rng)
        images, phi2 = regenerate(params, state.phi3, state.phi2, alpha=alpha, budget=budget)

        target, _ = activation_eval(params.activation, state.phi3 @ params.theta2.T)
        ref = state.phi2
        for _ in range(budget):
            xi2 = ref - target
            if np.max(np.abs(xi2)) < REPLAY_XI2_TOL:
                break
            ref = ref - alpha * xi2
        np.testing.assert_allclose(phi2, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(images, ref @ params.theta1.T, rtol=0, atol=1e-12)

    def test_deterministic(self, toy_trained):
        x = toy_patterns(2, seed=5)
        np.testing.assert_array_equal(
            replay(toy_trained, x, init_seed=1), replay(toy_trained, x, init_seed=1)
        )


class TestRecall:
    def test_visible_pixels_clamped_bit_exact(self, toy_trained):
        mask = toy_mask()
        target = toy_patterns(1, seed=6)[0]
        result = recall(toy_trained, target, mask, iters=500)
        np.testing.assert_array_equal(
            result.images[0][mask.visible], target[mask.visible]
        )

    def test_free_energy_decreases(self, toy_trained):
        mask = toy_mask()
        target = toy_patterns(1, seed=7)[0]
        # initial state: corrupted phi1, fresh random latents
        phi1 = np.where(mask.visible, target, 0.0)[None, :]
        rng = np.random.default_rng(0)
        init = init_latents(toy_trained.dims, 1, rng)
        _, f_init = free_energy(compute_errors(toy_trained, init, phi1))
        result = recall(toy_trained, target, mask, iters=2000, init_seed=0)
        assert result.final_free_energy < f_init

    def test_deterministic(self, toy_trained):
        mask = toy_mask()
        target = toy_patterns(1, seed=8)[0]
        a = recall(toy_trained, target, mask, iters=200, init_seed=5)
        b = recall(toy_trained, target, mask, iters=200, init_seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        assert a.iterations == b.iterations

    def test_masked_mse_nonnegative_and_reported(self, toy_trained):
        mask = toy_mask()
        target = toy_patterns(1, seed=9)[0]
        result = recall(toy_trained, target, mask, iters=300)
        assert result.masked_mse.shape == (1,)
        assert result.masked_mse[0] >= 0

    @pytest.mark.parametrize("iters", [40, 10000])
    def test_matches_inference_step_loop(self, toy_trained, iters):
        """Bit-identical to the direct-form loop that recomputes the errors
        before every step, both when the budget runs out (40) and when the
        tolerance stops it (10000)."""
        mask = toy_mask()
        target = toy_patterns(2, seed=10)
        result = recall(toy_trained, target, mask, iters=iters, init_seed=3)

        state = init_latents(toy_trained.dims, 2, np.random.default_rng(3))
        phi1 = np.where(mask.visible, target, 0.0)
        used = 0
        for i in range(iters):
            errors = compute_errors(toy_trained, state, phi1)
            d_phi2, d_phi3 = inference_gradients(toy_trained, state, errors)
            state = LatentState(state.phi2 - 0.01 * d_phi2, state.phi3 - 0.01 * d_phi3)
            new_phi1 = np.where(mask.hidden, phi1 - 0.01 * errors.xi1, phi1)
            delta = np.max(np.abs(new_phi1 - phi1))
            phi1, used = new_phi1, i + 1
            if delta < 1e-6:
                break
        _, final_f = free_energy(compute_errors(toy_trained, state, phi1))

        assert (iters == 40) == (used == iters)
        assert result.iterations == used
        np.testing.assert_array_equal(result.images, phi1)
        assert result.final_free_energy == final_f
        np.testing.assert_array_equal(
            result.masked_mse, [masked_mse(phi1[k], target[k], mask) for k in range(2)]
        )
