import numpy as np
import pytest

from pcmem.core import (
    LATENT_INIT_SCALE,
    DivergenceError,
    LatentState,
    compute_errors,
    init_latents,
    init_params,
    learning_gradients,
)
from pcmem.data import batch_order
from pcmem.experiments import (
    ExperimentConfig,
    convergence_check,
    evaluate_errors,
    preset,
    run_recall_suite,
    train,
)
from pcmem.optim import AdamState, adam_step

from conftest import TOY_DIMS, direct_descent


class TestConvergenceCheck:
    def test_short_history_never_converged(self):
        history = [np.ones(3)] * 3
        assert not convergence_check(history, epsilon=1.0, patience=5)

    def test_flat_history_converged(self):
        history = [np.array([1.0, 2.0, 3.0])] * 6
        assert convergence_check(history, epsilon=1e-12, patience=5)

    def test_decreasing_history_not_converged(self):
        history = [np.full(3, 10.0 - k) for k in range(8)]
        assert not convergence_check(history, epsilon=1e-3, patience=5)

    def test_fires_exactly_when_window_settles(self):
        # 5 noisy epochs then perfectly flat ones; with patience 3 the check
        # first passes when the last 3 entries are all flat
        noisy = [np.array([5.0]), np.array([3.0]), np.array([4.0]), np.array([2.0]), np.array([2.5])]
        flat = [np.array([2.0])] * 3
        for k in range(1, 4):
            history = noisy + flat[:k]
            expected = k >= 3
            assert convergence_check(history, epsilon=1e-9, patience=3) == expected

    def test_relative_not_absolute(self):
        # 1% wobble around 1000 fails eps=1e-3 but passes eps=0.05
        history = [np.array([1000.0]), np.array([1005.0]), np.array([995.0])]
        assert not convergence_check(history, epsilon=1e-3, patience=3)
        assert convergence_check(history, epsilon=0.05, patience=3)


class TestConfig:
    def test_presets(self):
        e1, e2 = preset("exp1"), preset("exp2")
        assert e1.mode == "pc" and e1.beta == 1e-4 and e1.scope == "single-batch"
        assert e2.mode == "ipc" and e2.beta == 1e-5 and e2.scope == "full"
        for c in (e1, e2):
            assert c.dims == (784, 35, 2)
            assert c.batch_size == 64 and c.n_iters == 50 and c.alpha == 0.01

    def test_dict_round_trip(self):
        config = preset("exp1")
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "name", ["batch_size", "n_iters", "max_epochs", "patience", "val_every", "eval_batch_size"]
    )
    def test_sizes_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(mode="pc", beta=1e-3, scope="full", **{name: 0})

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("exp3")


class TestTrain:
    def test_pc_single_epoch_matches_hand_unrolled(self, toy_data):
        """One epoch of PC on one batch equals an independently unrolled
        inference/update loop, bit for bit."""
        config = ExperimentConfig(
            mode="pc", beta=1e-3, scope="single-batch", dims=TOY_DIMS,
            batch_size=4, n_iters=5, max_epochs=1, epsilon=0.0,
        )
        result = train(config, toy_data)

        params = init_params(TOY_DIMS, np.random.default_rng(config.weight_seed))
        first = batch_order(len(toy_data.train), config.shuffle_seed, True)[:4]
        x = toy_data.train.images[first]
        rng_l = np.random.default_rng(config.latent_seed)
        state = direct_descent(params, init_latents(TOY_DIMS, 4, rng_l), x, 0.01, 5)
        errors = compute_errors(params, state, x)
        d_theta1, d_theta2 = learning_gradients(params, state, errors)
        theta1, _ = adam_step(params.theta1, d_theta1, AdamState.fresh(params.theta1.shape, 1e-3))
        theta2, _ = adam_step(params.theta2, d_theta2, AdamState.fresh(params.theta2.shape, 1e-3))

        np.testing.assert_array_equal(result.params.theta1, theta1)
        np.testing.assert_array_equal(result.params.theta2, theta2)
        np.testing.assert_array_equal(result.log.rows[0].train_energies, errors.layer_energies)

    def test_ipc_equals_pc_at_one_iteration(self, toy_data):
        """With a single inference iteration per batch the incremental
        variant performs exactly the same updates as the batched one."""
        base = dict(beta=1e-3, scope="full", dims=TOY_DIMS, batch_size=8,
                    n_iters=1, max_epochs=3, epsilon=0.0)
        pc = train(ExperimentConfig(mode="pc", **base), toy_data)
        ipc = train(ExperimentConfig(mode="ipc", **base), toy_data)
        np.testing.assert_array_equal(pc.params.theta1, ipc.params.theta1)
        np.testing.assert_array_equal(pc.params.theta2, ipc.params.theta2)

    def test_training_reduces_input_energy(self, toy_data):
        config = ExperimentConfig(
            mode="pc", beta=1e-3, scope="full", dims=TOY_DIMS,
            batch_size=16, max_epochs=120, epsilon=0.0, val_every=60,
        )
        result = train(config, toy_data)
        first = result.log.rows[0].train_energies[0]
        last = result.log.rows[-1].train_energies[0]
        assert last < first

    def test_deterministic(self, toy_data):
        config = ExperimentConfig(
            mode="ipc", beta=1e-3, scope="full", dims=TOY_DIMS,
            batch_size=8, n_iters=5, max_epochs=5, epsilon=0.0,
        )
        a = train(config, toy_data)
        b = train(config, toy_data)
        np.testing.assert_array_equal(a.params.theta1, b.params.theta1)
        np.testing.assert_array_equal(a.params.theta2, b.params.theta2)

    def test_single_batch_scope_uses_batch_size_images(self, toy_data):
        config = ExperimentConfig(
            mode="pc", beta=1e-3, scope="single-batch", dims=TOY_DIMS,
            batch_size=4, n_iters=2, max_epochs=2, epsilon=0.0,
        )
        result = train(config, toy_data)
        assert result.stop_reason == "max_epochs"
        assert len(result.log.rows) == 2

    def test_convergence_stops_early(self, toy_data):
        # huge epsilon: any history is "stable" once patience epochs exist
        config = ExperimentConfig(
            mode="pc", beta=1e-3, scope="single-batch", dims=TOY_DIMS,
            batch_size=4, n_iters=2, max_epochs=50, epsilon=1e6, patience=3,
        )
        result = train(config, toy_data)
        assert result.converged and result.stop_reason == "converged"
        assert len(result.log.rows) == 3

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            ExperimentConfig(mode="pc", beta=1e-3, scope="half", dims=TOY_DIMS)

    @pytest.mark.parametrize("mode", ["pc", "ipc"])
    def test_divergence_names_epoch_batch_and_iteration(self, toy_data, mode):
        config = ExperimentConfig(
            mode=mode, beta=1e-3, scope="full", dims=TOY_DIMS, batch_size=8,
            alpha=1e6, max_epochs=3, epsilon=0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 1, batch 0: .* iteration \d+"):
                train(config, toy_data)

    def test_val_rows_carried_forward(self, toy_data):
        config = ExperimentConfig(
            mode="pc", beta=1e-3, scope="single-batch", dims=TOY_DIMS,
            batch_size=4, n_iters=2, max_epochs=6, epsilon=0.0, val_every=3,
        )
        result = train(config, toy_data)
        rows = result.log.rows
        # epochs 1, 3, 6 evaluated; 2 carries epoch 1's numbers
        np.testing.assert_array_equal(rows[1].val_energies, rows[0].val_energies)
        assert np.all(np.isfinite(rows[2].val_energies))


class TestEvaluateErrors:
    def test_batch_size_invariant(self, toy_trained, toy_data):
        full = evaluate_errors(toy_trained, toy_data.validation, n_iters=10, batch_size=1024)
        tiny = evaluate_errors(toy_trained, toy_data.validation, n_iters=10, batch_size=3)
        np.testing.assert_allclose(full, tiny, rtol=1e-10)

    def test_matches_per_example_loop(self, toy_trained, toy_data):
        split = toy_data.validation
        batched = evaluate_errors(toy_trained, split, n_iters=10, seed=4)
        n = len(split)
        rng = np.random.default_rng(4)
        phi2_all = LATENT_INIT_SCALE * rng.standard_normal((n, TOY_DIMS[1]))
        phi3_all = LATENT_INIT_SCALE * rng.standard_normal((n, TOY_DIMS[2]))
        totals = np.zeros(3)
        for k in range(n):
            state = LatentState(phi2=phi2_all[k : k + 1].copy(), phi3=phi3_all[k : k + 1].copy())
            x = split.images[k : k + 1]
            state = direct_descent(toy_trained, state, x, 0.01, 10)
            totals += compute_errors(toy_trained, state, x).layer_energies
        np.testing.assert_allclose(batched, totals / n, rtol=1e-10)


class TestTrainLog:
    def test_csv_round_trips_exact_floats(self, toy_data, tmp_path):
        import csv

        config = ExperimentConfig(
            mode="pc", beta=1e-3, scope="single-batch", dims=TOY_DIMS,
            batch_size=4, n_iters=2, max_epochs=3, epsilon=0.0,
        )
        result = train(config, toy_data)
        path = tmp_path / "log.csv"
        result.log.to_csv(path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        for row, stats in zip(rows, result.log.rows):
            assert int(row["epoch"]) == stats.epoch
            for i, col in enumerate(("train_e1", "train_e2", "train_e3")):
                assert float(row[col]) == stats.train_energies[i]


class TestRecallSuite:
    def test_shapes_and_mse(self, toy_trained, toy_data):
        from pcmem.memory import OcclusionMask

        visible = np.zeros(25, dtype=bool)
        visible[:13] = True
        mask = OcclusionMask(visible)
        suite = run_recall_suite(
            toy_trained, toy_data, n_images=3, mask=mask, iters=300
        )
        assert suite.per_image_mse.shape == (3,)
        assert suite.recalled.shape == (3, 25)
        assert suite.mean_mse == pytest.approx(suite.per_image_mse.mean())
        # presented images hide exactly the masked pixels
        np.testing.assert_array_equal(
            suite.presented[:, ~visible], np.zeros((3, 12))
        )
        np.testing.assert_array_equal(
            suite.presented[:, visible], suite.originals[:, visible]
        )
