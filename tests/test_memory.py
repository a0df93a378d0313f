import numpy as np
import pytest

from pcmem import core, memory
from pcmem.core import (
    LatentState,
    ModelParams,
    descend_latents,
    free_energy,
    init_latents,
)
from pcmem.memory import (
    RECALL_PHI1_TOL,
    DivergenceError,
    OcclusionMask,
    infer_latents,
    masked_mse,
    recall,
    reconstruct,
    regenerate,
    replay,
)

from conftest import compute_errors, inference_gradients, overflowing_recall, toy_patterns


def toy_mask():
    visible = np.zeros(25, dtype=bool)
    visible[:13] = True
    return OcclusionMask(visible)


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

    def test_batch_gives_one_value_per_row(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, (3, 25)), rng.uniform(0, 1, (3, 25))
        mask = toy_mask()
        np.testing.assert_array_equal(
            masked_mse(a, b, mask), [masked_mse(a[k], b[k], mask) for k in range(3)]
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_mse(np.zeros(25), np.zeros(24), toy_mask())


class TestInferLatents:
    def test_descent_at_paper_rates(self, toy_trained, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ITERS", 50)
        x = toy_patterns(4, seed=11)[:4]
        state = infer_latents(toy_trained, x, init_seed=0)
        rng = np.random.default_rng(0)
        init = init_latents(toy_trained.dims, 4, rng)
        f_init = free_energy(toy_trained, init, x).sum(axis=1).mean()
        f_final = free_energy(toy_trained, state, x).sum(axis=1).mean()
        assert f_final < f_init

    def test_zero_weights_pull_to_prior(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ITERS", 2000)
        params = ModelParams(np.zeros((25, 8)), np.zeros((8, 2)))
        x = np.zeros((2, 25))
        state = infer_latents(params, x, init_seed=0)
        assert np.max(np.abs(state.phi2)) < 1e-6
        assert np.max(np.abs(state.phi3)) < 1e-6

    def test_same_seed_bit_identical(self, toy_trained, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ITERS", 30)
        x = toy_patterns(2, seed=12)
        a = infer_latents(toy_trained, x, init_seed=42)
        b = infer_latents(toy_trained, x, init_seed=42)
        np.testing.assert_array_equal(a.phi2, b.phi2)
        np.testing.assert_array_equal(a.phi3, b.phi3)

    def test_divergence_reported_with_iteration(self, toy_trained, monkeypatch):
        monkeypatch.setattr(core, "ALPHA", 1e6)
        monkeypatch.setattr(core, "DEFAULT_ITERS", 500)
        x = toy_patterns(2, seed=13)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                infer_latents(toy_trained, x)


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
        """regenerate's images are the readout of phi2 = f(theta2 phi3): theta1
        has full column rank, so least squares recovers that phi2 from them."""
        settled = infer_latents(toy_trained, toy_patterns(4, seed=2), init_seed=0)
        images = regenerate(toy_trained, settled.phi3)
        phi2 = np.linalg.lstsq(toy_trained.theta1, images.T, rcond=None)[0].T
        target = np.tanh(settled.phi3 @ toy_trained.theta2.T)
        assert np.max(np.abs(phi2 - target)) < 1e-10

    @pytest.mark.parametrize("init_seed", [0, 7, 5000])
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 1.5])
    def test_regenerate_matches_loop(self, toy_trained, alpha, init_seed):
        """Reference: the gated descent phi2 -= alpha * xi2, input errors
        off, from a phi2 settled from init_seed until max|xi2| < 1e-12. Its
        readout phi2 theta1^T is regenerate's images to 1e-10 at every alpha
        and from every start."""
        settled = infer_latents(toy_trained, toy_patterns(6, seed=2), init_seed=init_seed)
        target = np.tanh(settled.phi3 @ toy_trained.theta2.T)
        phi2 = settled.phi2
        for _ in range(100_000):
            xi2 = phi2 - target
            if np.max(np.abs(xi2)) < 1e-12:
                break
            phi2 = phi2 - alpha * xi2
        else:
            pytest.fail(f"gated loop did not reach 1e-12 at alpha {alpha}")
        np.testing.assert_allclose(
            regenerate(toy_trained, settled.phi3), phi2 @ toy_trained.theta1.T, rtol=0, atol=1e-10
        )

    def test_rows_are_independent(self, toy_trained):
        """Each row of a 64-row settled batch, regenerated alone, is that
        row of the batch call up to BLAS rounding (1e-13)."""
        settled = infer_latents(toy_trained, toy_patterns(64, seed=7), init_seed=0)
        batch = regenerate(toy_trained, settled.phi3)
        for i in range(64):
            alone = regenerate(toy_trained, settled.phi3[i : i + 1])
            np.testing.assert_allclose(alone[0], batch[i], rtol=0, atol=1e-13)

    def test_consolidate_off_leaves_params(self, toy_trained):
        theta1 = toy_trained.theta1.copy()
        theta2 = toy_trained.theta2.copy()
        replay(toy_trained, toy_patterns(2, seed=3))
        np.testing.assert_array_equal(toy_trained.theta1, theta1)
        np.testing.assert_array_equal(toy_trained.theta2, theta2)

    def test_regeneration_ignores_input(self, toy_trained):
        # the top-down phase takes no input: identical frozen states give
        # identical output no matter what happened to the input afterwards
        x = toy_patterns(2, seed=4)
        settled = infer_latents(toy_trained, x, init_seed=0)
        img_a = regenerate(toy_trained, settled.phi3)
        img_b = regenerate(toy_trained, settled.phi3.copy())
        np.testing.assert_array_equal(img_a, img_b)

    def test_deterministic(self, toy_trained):
        x = toy_patterns(2, seed=5)
        np.testing.assert_array_equal(
            replay(toy_trained, x, init_seed=1), replay(toy_trained, x, init_seed=1)
        )

    @pytest.mark.parametrize("n_iters", [3, 50])
    def test_equals_regenerate_of_infer_latents(self, toy_trained, monkeypatch, n_iters):
        """replay is the gated regeneration of an ordinary T-step settle,
        bit for bit, with T read when it is called; a batch of more than
        BLOCK_ROWS rows settles in row blocks like any other."""
        monkeypatch.setattr(core, "DEFAULT_ITERS", n_iters)
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        for batch in (3, 2 * core.BLOCK_ROWS + 3):
            x = toy_patterns(batch, seed=6)
            settled = infer_latents(toy_trained, x, init_seed=2)
            want = regenerate(toy_trained, settled.phi3)
            got = replay(toy_trained, x, init_seed=2)
            assert got.tobytes() == want.tobytes()


def spy_kernel(monkeypatch, calls=None):
    """Wrap memory.descend_latents; returns the list of its outputs, and
    appends each call's n_iters to `calls` if given."""
    settled = []

    def kernel(params, state, x, n_iters):
        if calls is not None:
            calls.append(n_iters)
        settled.append(descend_latents(params, state, x, n_iters))
        return settled[-1]

    monkeypatch.setattr(memory, "descend_latents", kernel)
    return settled


def stack_latents(states):
    return LatentState(np.concatenate([s.phi2 for s in states]),
                       np.concatenate([s.phi3 for s in states]))


def direct_recall(params, target, mask, iters, tol, alpha=0.01, init_seed=0):
    """Reference: the joint direct-form recall of one image from the n=1
    seeded init, compute_errors and inference_gradients once per iteration,
    with phi1 moved along xi1 on the hidden pixels, until phi1's inf-norm
    change in a step falls below tol."""
    state = init_latents(params.dims, 1, np.random.default_rng(init_seed))
    phi1 = np.where(mask.visible, target, 0.0)[None, :]
    for _ in range(iters):
        errors = compute_errors(params, state, phi1)
        d_phi2, d_phi3 = inference_gradients(params, state, errors)
        state = LatentState(state.phi2 - alpha * d_phi2, state.phi3 - alpha * d_phi3)
        new_phi1 = np.where(mask.hidden, phi1 - alpha * errors.xi1, phi1)
        delta = np.max(np.abs(new_phi1 - phi1))
        phi1 = new_phi1
        if delta < tol:
            return state, phi1[0]
    raise AssertionError(f"direct recall did not reach tol {tol} in {iters} iterations")


class TestRecall:
    def test_visible_pixels_clamped_bit_exact(self, toy_trained, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 500)
        mask = toy_mask()
        target = toy_patterns(1, seed=6)[0]
        result = recall(toy_trained, target, mask)
        np.testing.assert_array_equal(
            result.recalled[0][mask.visible], target[mask.visible]
        )

    def test_free_energy_decreases(self, toy_trained, monkeypatch):
        """The full model's F at the recalled image and the final latents
        (the kernel's last output, for one row) is below F at the presented
        image and the seeded init."""
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 2000)
        settled = spy_kernel(monkeypatch)
        mask = toy_mask()
        target = toy_patterns(1, seed=7)[0]
        # initial state: corrupted phi1, fresh random latents
        phi1 = np.where(mask.visible, target, 0.0)[None, :]
        rng = np.random.default_rng(0)
        init = init_latents(toy_trained.dims, 1, rng)
        f_init = free_energy(toy_trained, init, phi1).sum(axis=1).mean()
        result = recall(toy_trained, target, mask, init_seed=0)
        f_final = free_energy(toy_trained, settled[-1], result.recalled).sum(axis=1).mean()
        assert f_final < f_init

    def test_deterministic(self, toy_trained, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 200)
        mask = toy_mask()
        target = toy_patterns(1, seed=8)[0]
        a = recall(toy_trained, target, mask, init_seed=5)
        b = recall(toy_trained, target, mask, init_seed=5)
        np.testing.assert_array_equal(a.recalled, b.recalled)
        np.testing.assert_array_equal(a.iterations, b.iterations)

    def test_masked_mse_nonnegative_and_reported(self, toy_trained, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 300)
        mask = toy_mask()
        target = toy_patterns(1, seed=9)[0]
        result = recall(toy_trained, target, mask)
        assert result.masked_mse.shape == (1,)
        assert result.masked_mse[0] >= 0

    def test_is_a_settle_of_the_visible_row_model(self, toy_trained, monkeypatch):
        """A one-row recall stopped after k steps holds, bit for bit, the
        phi2 and phi3 of one descend_latents call of k steps on the
        visible-row model from the seeded init. Its chunks are kernel calls
        of T - 1 and 1 steps, the last one capped at the budget; each
        kernel step reads only phi2, phi3, G and the drive, which every
        call forms alike. The hidden pixels are phi2 theta1_h^T."""
        t = core.DEFAULT_ITERS
        k = 2 * t + 23
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", k)
        monkeypatch.setattr(memory, "RECALL_PHI1_TOL", 0.0)  # only the budget stops
        calls = []
        settled = spy_kernel(monkeypatch, calls)
        mask = toy_mask()
        target = toy_patterns(1, seed=10)
        result = recall(toy_trained, target, mask, init_seed=3)

        visible = ModelParams(toy_trained.theta1[mask.visible], toy_trained.theta2)
        init = init_latents(toy_trained.dims, 1, np.random.default_rng(3))
        want = descend_latents(visible, init, target[:, mask.visible], k)
        assert calls == [t - 1, 1, t - 1, 1, 22, 1]
        assert settled[-1].phi2.tobytes() == want.phi2.tobytes()
        assert settled[-1].phi3.tobytes() == want.phi3.tobytes()
        images = target.copy()
        images[:, mask.hidden] = want.phi2 @ toy_trained.theta1[mask.hidden].T
        assert result.recalled.tobytes() == images.tobytes()
        np.testing.assert_array_equal(result.iterations, [k])

    def test_reaches_the_joint_loops_stationary_point(self, toy_trained, monkeypatch):
        """Minimising F over the hidden pixels leaves the visible-row
        model's F, so both problems have the same stationary points. Run
        to a per-step change below 1e-12, recall and the joint direct-form
        loop (phi1, phi2 and phi3 descended together, one row at a time)
        give the same images to 1e-8 (measured: 4e-10; each stops while
        still moving by about 1e-12 per step, at its own rate) and the
        same final free energy to 1e-12. Recall's latents are the kernel's
        last output, so it recalls one row per call."""
        tol = 1e-12
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 50_000)
        monkeypatch.setattr(memory, "RECALL_PHI1_TOL", tol)
        settled = spy_kernel(monkeypatch)
        mask = toy_mask()
        target = toy_patterns(2, seed=10)
        recalled, latents = [], []
        for row in target:
            result = recall(toy_trained, row, mask, init_seed=3)
            assert result.converged.all()
            recalled.append(result.recalled[0])
            latents.append(settled[-1])
        recalled = np.stack(recalled)
        recall_f = free_energy(toy_trained, stack_latents(latents), recalled).sum(axis=1).mean()

        runs = [direct_recall(toy_trained, t, mask, 50_000, tol, init_seed=3) for t in target]
        phi1 = np.stack([img for _, img in runs])
        final = stack_latents([s for s, _ in runs])
        final_f = free_energy(toy_trained, final, phi1).sum(axis=1).mean()

        np.testing.assert_allclose(recalled, phi1, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(recalled[:, mask.visible], target[:, mask.visible])
        assert recall_f == pytest.approx(final_f, rel=0, abs=1e-12)

    def test_batch_matches_sequential(self, toy_trained, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 10000)
        mask = toy_mask()
        target = toy_patterns(5, seed=14)
        batch = recall(toy_trained, target, mask, init_seed=2)
        for k in range(5):
            alone = recall(toy_trained, target[k], mask, init_seed=2)
            np.testing.assert_array_equal(batch.iterations[k:k + 1], alone.iterations)
            np.testing.assert_allclose(batch.recalled[k:k + 1], alone.recalled, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                batch.last_delta[k:k + 1], alone.last_delta, rtol=0, atol=1e-12
            )

    def test_early_row_frozen_in_mixed_batch(self, toy_trained, toy_data, monkeypatch):
        """A row that converges first stops there: its output and count in a
        batch with slower rows are those it gets alone."""
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 10000)
        mask = toy_mask()
        trained = toy_data.train.images[0]
        noise = np.random.default_rng(15).uniform(0, 1, (2, 25))
        target = np.vstack([noise[0], trained, noise[1]])
        mixed = recall(toy_trained, target, mask, init_seed=1)
        early = int(np.argmin(mixed.iterations))
        assert mixed.iterations[early] < mixed.iterations.max()
        assert mixed.converged.all()
        alone = recall(toy_trained, target[early], mask, init_seed=1)
        assert alone.iterations[0] == mixed.iterations[early]
        np.testing.assert_allclose(mixed.recalled[early], alone.recalled[0], rtol=0, atol=1e-12)

    def test_budget_stop_reported(self, toy_trained, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 5)
        mask = toy_mask()
        result = recall(toy_trained, toy_patterns(3, seed=16), mask)
        np.testing.assert_array_equal(result.iterations, [5, 5, 5])
        assert not result.converged.any()
        assert np.all(result.last_delta >= RECALL_PHI1_TOL)

    def test_last_delta_is_the_hidden_pixels_last_step_change(self, toy_trained, monkeypatch):
        """last_delta is the inf-norm change of a row's hidden pixels in its
        last step: recall after k steps against recall after k - 1, to
        rounding (the two sides take the difference before and after the
        product with theta1_h)."""
        monkeypatch.setattr(memory, "RECALL_PHI1_TOL", 0.0)  # only the budget stops
        mask = toy_mask()
        target = toy_patterns(3, seed=18)
        k = 2 * core.DEFAULT_ITERS
        results = []
        for budget in (k - 1, k):
            monkeypatch.setattr(memory, "DEFAULT_BUDGET", budget)
            results.append(recall(toy_trained, target, mask))
        change = np.abs(results[1].recalled - results[0].recalled)[:, mask.hidden].max(axis=1)
        np.testing.assert_allclose(results[1].last_delta, change, rtol=1e-9, atol=0)

    def test_divergence_names_recall_iteration(self, toy_trained, monkeypatch):
        """The error names the 0-based recall step after which the latents
        are non-finite: the step at which one descend_latents call of the
        visible-row model, from the same init, diverges. Here that is step
        45, which chunks of 50, 7 and 23 steps reach in the first chunk, in
        a later chunk's first call and in a chunk's one-step last call."""
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 500)
        monkeypatch.setattr(core, "ALPHA", 1e6)
        mask = toy_mask()
        target = toy_patterns(2, seed=17)
        visible = ModelParams(toy_trained.theta1[mask.visible], toy_trained.theta2)
        init = init_latents(toy_trained.dims, 1, np.random.default_rng(0))
        start = LatentState(np.repeat(init.phi2, 2, axis=0), np.repeat(init.phi3, 2, axis=0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as kernel:
                descend_latents(visible, start, target[:, mask.visible], 500)
            step = kernel.value.step
            assert step == 45
            for chunk in (50, 7, 23):
                monkeypatch.setattr(core, "DEFAULT_ITERS", chunk)
                with pytest.raises(DivergenceError, match=rf"recall iteration {step}$") as err:
                    recall(toy_trained, target, mask)
                assert err.value.step == step

    def test_non_finite_recalled_pixels_raise_at_the_last_step(self, monkeypatch):
        """Hidden theta1 rows of 1e308 leave the visible-row settle finite
        but overflow phi2 theta1_h^T: recall raises, naming its last step,
        the kernel's steps in all less one."""
        calls = []
        spy_kernel(monkeypatch, calls)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"recalled pixels .* iteration \d+$") as err:
                recall(*overflowing_recall())
        assert err.value.step == sum(calls) - 1

    def test_model_input_size_must_match_image(self, toy_trained, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 5)
        # a 25-8-2 model asked to recall 28x28 images
        with pytest.raises(ValueError, match="model input size 25 != image size 784"):
            recall(toy_trained, np.zeros(784), OcclusionMask.top_half())


@pytest.mark.parametrize(
    "call",
    [
        lambda params, x: recall(params, x, toy_mask()),
        lambda params, x: replay(params, x),
        lambda params, x: infer_latents(params, x),
        lambda params, x: free_energy(
            params, init_latents(params.dims, 0, np.random.default_rng(0)), x
        ),
    ],
    ids=["recall", "replay", "infer_latents", "free_energy"],
)
def test_empty_batch_rejected(toy_trained, call):
    """Zero rows are bad input, not a divergence."""
    with pytest.raises(ValueError, match=r"empty batch: .* \(0, 25\)"):
        call(toy_trained, np.zeros((0, 25)))
