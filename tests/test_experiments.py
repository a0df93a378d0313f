import warnings

import numpy as np
import pytest

from pcmem import core, experiments, memory
from pcmem.core import (
    LATENT_INIT_SCALE,
    DivergenceError,
    LatentState,
    ModelParams,
    descend_latents,
    free_energy,
    init_latents,
    init_params,
    learning_gradients,
)
from pcmem.experiments import (
    ExperimentConfig,
    evaluate_errors,
    preset,
    run_recall_suite,
    train,
)
from pcmem.memory import OcclusionMask, infer_latents, recall
from pcmem.optim import AdamState, adam_step

from conftest import (
    GRAM_ENERGY_RTOL,
    TOY_DIMS,
    direct_descent,
    overflowing_recall,
    value_form_adam_step,
)


class TestConfig:
    def test_presets(self):
        e1, e2 = preset("exp1"), preset("exp2")
        assert e1.mode == "pc" and e1.beta == 1e-4 and e1.limit_train == 64
        assert e2.mode == "ipc" and e2.beta == 1e-5 and e2.limit_train is None
        for c in (e1, e2):
            assert c.batch_size == 64

    def test_dict_round_trip(self):
        config = preset("exp1")
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "name, message",
        [
            pytest.param("batch_size", "batch_size", id="batch_size"),
            # T is the module constant core.DEFAULT_ITERS, which a stored n_iters must equal
            pytest.param("n_iters", "^n_iters 0, the model has 50$", id="n_iters"),
            pytest.param("max_epochs", "max_epochs", id="max_epochs"),
            pytest.param("val_every", "val_every", id="val_every"),
        ],
    )
    def test_sizes_below_one_rejected(self, name, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({"mode": "pc", "beta": 1e-3, name: 0})

    @pytest.mark.parametrize(
        "override, name",
        [
            # the ids are literals, fixed at the names pytest once numbered them
            # by position, so removing a case renames no other
            pytest.param({"batch_size": True}, "batch_size", id="override0-batch_size"),
            # a stored n_iters must be T = core.DEFAULT_ITERS
            pytest.param({"n_iters": True}, "^n_iters True, the model", id="override1-n_iters"),
            pytest.param({"max_epochs": False}, "max_epochs", id="override2-max_epochs"),
            pytest.param({"val_every": True}, "val_every", id="override4-val_every"),
            pytest.param({"n_iters": 2.0}, "^n_iters 2.0, the model", id="override5-n_iters"),
            pytest.param({"beta": "x"}, "beta", id="override6-beta"),
            pytest.param({"beta": 0.0}, "beta", id="override7-beta"),
            pytest.param({"beta": -1e-4}, "beta", id="override8-beta"),
            pytest.param({"beta": float("inf")}, "beta", id="override9-beta"),
            pytest.param({"beta": True}, "beta", id="override10-beta"),
            # a stored alpha must be the step size core.ALPHA
            pytest.param({"alpha": -1}, "^alpha -1, the model", id="override12-alpha"),
            pytest.param({"alpha": None}, "^alpha None, the model", id="override13-alpha"),
            pytest.param({"limit_train": "x"}, "limit_train", id="override24-limit_train"),
            pytest.param({"limit_train": 0}, "limit_train", id="override25-limit_train"),
            pytest.param({"limit_train": -4}, "limit_train", id="override26-limit_train"),
            pytest.param({"limit_train": True}, "limit_train", id="override27-limit_train"),
            pytest.param({"seed": -1}, "seed", id="override28-seed"),
            pytest.param({"seed": 1.5}, "seed", id="override29-seed"),
            pytest.param({"seed": True}, "seed", id="override30-seed"),
            pytest.param({"seed": "3"}, "seed", id="override31-seed"),
        ],
    )
    def test_bad_values_rejected(self, override, name):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig.from_dict({"mode": "pc", "beta": 1e-3, **override})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha", 0.02, "alpha 0.02, the model has 0.01"),
            ("n_iters", 10, "n_iters 10, the model has 50"),
            ("activation", "relu", "activation 'relu', the model has 'tanh'"),
            ("activation", "identity", "activation 'identity', the model has 'tanh'"),
        ],
        ids=["alpha", "n_iters", "activation-relu", "activation-identity"],
    )
    def test_stored_fixed_setting_must_be_the_models(self, key, value, message):
        """Older configs name the step size, T and the activation; a config
        that names another value than the model's was not trained at it."""
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig.from_dict({**preset("exp1").to_dict(), key: value})
        assert str(excinfo.value) == message

    def test_stored_legacy_keys_ignored(self):
        """Keys that are not fields, as older checkpoints wrote them, change
        nothing: the stop rule's, scope, dims, and the fixed settings at
        the model's values."""
        legacy = {"scope": "single-batch", "epsilon": 1e-5, "patience": 5,
                  "dims": [784, 35, 2], "activation": "tanh", "alpha": core.ALPHA,
                  "n_iters": core.DEFAULT_ITERS}
        config = preset("exp2")
        assert ExperimentConfig.from_dict({**config.to_dict(), **legacy}) == config

    def test_edge_rates_accepted(self):
        config = ExperimentConfig.from_dict({"mode": "pc", "beta": 1})
        assert config.beta == 1

    def test_unnamed_fields_take_the_defaults(self):
        config = ExperimentConfig.from_dict({"val_every": 7})
        assert config == ExperimentConfig(val_every=7)
        assert (config.mode, config.beta, config.batch_size) == ("pc", 1e-4, 64)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("exp3")


@pytest.mark.usefixtures("toy_latent_dims")
class TestTrain:
    def test_pc_single_epoch_matches_hand_unrolled(self, toy_data, monkeypatch):
        """One epoch of PC on one batch equals a hand-unrolled
        inference/update loop, bit for bit: the batch is the first
        limit_train images in the epoch's seeded order. The latent loop is
        the kernel train calls, since the direct form agrees with it only
        up to rounding (TestDescendLatents in test_core checks that). The
        logged energies are the settle's own, and free_energy's within
        GRAM_ENERGY_RTOL."""
        monkeypatch.setattr(core, "DEFAULT_ITERS", 5)
        config = ExperimentConfig(
            mode="pc", beta=1e-3, limit_train=4, batch_size=4, max_epochs=1,
        )
        result = train(config, toy_data)

        params = init_params(TOY_DIMS, np.random.default_rng(config.seed))
        x = toy_data.train.images[:4][np.random.default_rng(config.seed).permutation(4)]
        rng_l = np.random.default_rng(config.seed)
        state = descend_latents(params, init_latents(TOY_DIMS, 4, rng_l), x, 5)
        energies = state.energies().mean(axis=0)
        d_theta1, d_theta2 = learning_gradients(params, state, x)
        theta1, theta2 = params.theta1.copy(), params.theta2.copy()
        adam_step(theta1, d_theta1, AdamState.fresh(theta1.shape), 1e-3)
        adam_step(theta2, d_theta2, AdamState.fresh(theta2.shape), 1e-3)

        np.testing.assert_array_equal(result.params.theta1, theta1)
        np.testing.assert_array_equal(result.params.theta2, theta2)
        logged = result.log.rows[0].train_energies
        np.testing.assert_array_equal(logged, energies)
        direct = free_energy(params, state, x).mean(axis=0)
        np.testing.assert_allclose(logged, direct, rtol=GRAM_ENERGY_RTOL, atol=0)

    def test_ipc_batches_match_hand_unrolled(self, toy_data, monkeypatch):
        """Two batches of iPC at T=5 equal a hand-unrolled loop, bit for
        bit: one kernel step, then the weight gradients and a fresh-array
        Adam update, five times per batch, with the logged energies those
        of the last step's settle, and free_energy's there within
        GRAM_ENERGY_RTOL."""
        monkeypatch.setattr(core, "DEFAULT_ITERS", 5)
        config = ExperimentConfig(
            mode="ipc", beta=1e-3, limit_train=8, batch_size=4, max_epochs=1,
        )
        result = train(config, toy_data)

        params = init_params(TOY_DIMS, np.random.default_rng(config.seed))
        theta1, theta2 = params.theta1, params.theta2
        adam1 = AdamState.fresh(theta1.shape)
        adam2 = AdamState.fresh(theta2.shape)
        images = toy_data.train.images[:8]
        order = np.random.default_rng(config.seed).permutation(8)
        rng_l = np.random.default_rng(config.seed)
        weighted, direct = np.zeros(3), np.zeros(3)
        for batch in (order[:4], order[4:]):
            x = images[batch]
            state = init_latents(TOY_DIMS, 4, rng_l)
            for _ in range(5):
                params = ModelParams(theta1, theta2)
                state = descend_latents(params, state, x, 1)
                d_theta1, d_theta2 = learning_gradients(params, state, x)
                energies = state.energies().mean(axis=0)
                direct_energies = free_energy(params, state, x).mean(axis=0)
                theta1, adam1 = value_form_adam_step(theta1, d_theta1, adam1, 1e-3)
                theta2, adam2 = value_form_adam_step(theta2, d_theta2, adam2, 1e-3)
            weighted += energies * 4
            direct += direct_energies * 4
        train_energies = weighted / 8

        np.testing.assert_array_equal(result.params.theta1, theta1)
        np.testing.assert_array_equal(result.params.theta2, theta2)
        for got, want in ((result.adam1, adam1), (result.adam2, adam2)):
            np.testing.assert_array_equal(got.m, want.m)
            np.testing.assert_array_equal(got.v, want.v)
            assert got.t == want.t == 10
        logged = result.log.rows[0].train_energies
        np.testing.assert_array_equal(logged, train_energies)
        np.testing.assert_allclose(logged, direct / 8, rtol=GRAM_ENERGY_RTOL, atol=0)

    def test_ipc_equals_pc_at_one_iteration(self, toy_data, monkeypatch):
        """With a single inference iteration per batch the incremental
        variant performs exactly the same updates as the batched one."""
        monkeypatch.setattr(core, "DEFAULT_ITERS", 1)
        base = dict(beta=1e-3, batch_size=8, max_epochs=3)
        pc = train(ExperimentConfig(mode="pc", **base), toy_data)
        ipc = train(ExperimentConfig(mode="ipc", **base), toy_data)
        np.testing.assert_array_equal(pc.params.theta1, ipc.params.theta1)
        np.testing.assert_array_equal(pc.params.theta2, ipc.params.theta2)

    def test_training_reduces_input_energy(self, toy_data, monkeypatch):
        config = ExperimentConfig(
            mode="pc", beta=1e-3, batch_size=16, max_epochs=120, val_every=60,
        )
        result = train(config, toy_data)
        first = result.log.rows[0].train_energies[0]
        last = result.log.rows[-1].train_energies[0]
        assert last < first

    def test_deterministic(self, toy_data, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ITERS", 5)
        config = ExperimentConfig(mode="ipc", beta=1e-3, batch_size=8, max_epochs=5)
        a = train(config, toy_data)
        b = train(config, toy_data)
        np.testing.assert_array_equal(a.params.theta1, b.params.theta1)
        np.testing.assert_array_equal(a.params.theta2, b.params.theta2)

    def test_single_batch_limit_below_batch_size_trains_on_capped_rows(self, toy_data, monkeypatch):
        """With limit_train=3 < batch_size the single batch is the three
        capped images in their seeded order, nothing else. The logged
        energies are those of the kernel's settle of that batch, and
        free_energy's at the direct-form latents within GRAM_ENERGY_RTOL."""
        monkeypatch.setattr(core, "DEFAULT_ITERS", 5)
        config = ExperimentConfig(
            mode="pc", beta=1e-3, batch_size=4, max_epochs=1, limit_train=3,
        )
        result = train(config, toy_data)

        params = init_params(TOY_DIMS, np.random.default_rng(config.seed))
        x = toy_data.train.images[:3][np.random.default_rng(config.seed).permutation(3)]
        init = init_latents(TOY_DIMS, 3, np.random.default_rng(config.seed))
        state = direct_descent(params, init, x, core.ALPHA, 5)
        d_theta1, _ = learning_gradients(params, state, x)
        theta1 = params.theta1.copy()
        adam_step(theta1, d_theta1, AdamState.fresh(theta1.shape), 1e-3)
        np.testing.assert_array_equal(result.params.theta1, theta1)
        logged = result.log.rows[0].train_energies
        settled = descend_latents(params, init, x, 5)
        np.testing.assert_array_equal(logged, settled.energies().mean(axis=0))
        direct = free_energy(params, state, x).mean(axis=0)
        np.testing.assert_allclose(logged, direct, rtol=GRAM_ENERGY_RTOL, atol=0)

    @pytest.mark.parametrize("limit", [16, 100])
    def test_single_batch_limit_at_or_above_train_size_changes_nothing(
        self, toy_data, limit, monkeypatch
    ):
        # all 16 toy images fit in one batch, capped or not
        monkeypatch.setattr(core, "DEFAULT_ITERS", 3)
        base = dict(mode="pc", beta=1e-3, batch_size=16, max_epochs=2)
        capped = train(ExperimentConfig(limit_train=limit, **base), toy_data)
        uncapped = train(ExperimentConfig(**base), toy_data)
        assert capped.params.theta1.tobytes() == uncapped.params.theta1.tobytes()
        assert capped.params.theta2.tobytes() == uncapped.params.theta2.tobytes()

    def test_flat_run_trains_every_epoch(self, toy_data, monkeypatch):
        # identical energies every epoch: a run still lasts max_epochs
        monkeypatch.setattr(experiments, "_train_batch", lambda *args: np.ones(3))
        config = ExperimentConfig(mode="pc", beta=1e-3, batch_size=8, max_epochs=8, val_every=8)
        result = train(config, toy_data)
        assert [r.epoch for r in result.log.rows] == list(range(1, 9))

    @pytest.mark.parametrize("mode", ["pc", "ipc"])
    def test_divergence_names_epoch_batch_and_iteration(self, toy_data, mode, monkeypatch):
        message = {
            "pc": "epoch 1, batch 0: non-finite latents after inference iteration 47",
            # latents stay finite while the summed squared weight gradient
            # overflows mid-batch; it grows like |phi2|^4, the errors' like |phi2|^2
            "ipc": "epoch 1, batch 0: non-finite weight gradient at inference iteration 11",
        }[mode]
        config = ExperimentConfig(mode=mode, beta=1e-3, batch_size=8, max_epochs=3)
        monkeypatch.setattr(core, "ALPHA", 1e6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                train(config, toy_data)
        assert str(excinfo.value) == message
        assert excinfo.value.step == {"pc": 47, "ipc": 11}[mode]

    @pytest.mark.usefixtures("toy_latent_dims")
    def test_divergence_in_validation_names_epoch(self, toy_data):
        """At beta 1e6 the first batch settles finitely, but its Adam update
        sends the validation settle off; the error names the epoch and
        validation, and carries that settle's step."""
        config = ExperimentConfig(mode="pc", beta=1e6, batch_size=16, max_epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                train(config, toy_data)
        message = "epoch 1, validation: non-finite latents after inference iteration 24"
        assert str(excinfo.value) == message
        assert excinfo.value.step == 24

    @pytest.mark.parametrize("mode", ["pc", "ipc"])
    def test_no_update_from_non_finite_gradient(self, toy_data, mode, monkeypatch):
        """A diverging run raises before adam_step ever sees a non-finite
        gradient."""
        grads = []

        def checked(param, grad, state, rate):
            assert np.all(np.isfinite(grad)), f"update {len(grads)}: non-finite gradient"
            grads.append(grad.shape)
            adam_step(param, grad, state, rate)

        config = ExperimentConfig(mode=mode, beta=1e-3, batch_size=8, max_epochs=3)
        monkeypatch.setattr(experiments, "adam_step", checked)
        monkeypatch.setattr(core, "ALPHA", 1e6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train(config, toy_data)
        # iPC makes 11 updates of two Adam steps first; PC diverges in its first kernel call
        assert len(grads) == (22 if mode == "ipc" else 0)

    def test_val_rows_carried_forward(self, toy_data, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ITERS", 2)
        config = ExperimentConfig(
            mode="pc", beta=1e-3, limit_train=4, batch_size=4, max_epochs=6, val_every=3,
        )
        result = train(config, toy_data)
        rows = result.log.rows
        # epochs 1, 3, 6 evaluated; 2 carries epoch 1's numbers
        np.testing.assert_array_equal(rows[1].val_energies, rows[0].val_energies)
        assert np.all(np.isfinite(rows[2].val_energies))


def test_model_input_width_is_the_images(toy_data, monkeypatch):
    """train builds (image width, *LATENT_DIMS) with no setting: on the
    25-pixel toy splits, a 25-35-2 model."""
    monkeypatch.setattr(core, "DEFAULT_ITERS", 2)
    config = ExperimentConfig(mode="pc", beta=1e-3, limit_train=4, batch_size=4, max_epochs=1)
    result = train(config, toy_data)
    assert result.params.dims == (25, *experiments.LATENT_DIMS) == (25, 35, 2)


def diverge_kernel(params, data, monkeypatch):
    monkeypatch.setattr(core, "ALPHA", 1e6)
    state = init_latents(params.dims, 4, np.random.default_rng(0))
    descend_latents(params, state, data.train.images[:4], 500)


def diverge_infer_latents(params, data, monkeypatch):
    monkeypatch.setattr(core, "ALPHA", 1e6)
    monkeypatch.setattr(core, "DEFAULT_ITERS", 500)
    infer_latents(params, data.train.images[:4])


def diverge_train(alpha, latent_dims, **config):
    """A training run that diverges with the step size alpha and the
    model's latent dims."""
    def run(params, data, monkeypatch):
        monkeypatch.setattr(core, "ALPHA", alpha)
        monkeypatch.setattr(experiments, "LATENT_DIMS", latent_dims)
        train(ExperimentConfig(max_epochs=3, **config), data)
    return run


def diverge_gradient_products(params, data, monkeypatch):
    """Finite latents whose products overflow: the kernel's check passes
    them, the weight gradients' does not."""
    def huge(params, state, x, n_iters):
        return LatentState(np.full_like(state.phi2, 1e200), state.phi3)

    monkeypatch.setattr(experiments, "descend_latents", huge)
    monkeypatch.setattr(experiments, "LATENT_DIMS", TOY_DIMS[1:])
    train(ExperimentConfig(max_epochs=1, batch_size=16), data)


def diverge_recall_kernel(params, data, monkeypatch):
    monkeypatch.setattr(core, "ALPHA", 1e6)
    visible = np.zeros(25, dtype=bool)
    visible[:13] = True
    recall(params, data.train.images[:2], OcclusionMask(visible))


def diverge_recall_pixels(params, data, monkeypatch):
    recall(*overflowing_recall())


@pytest.mark.parametrize(
    "site, where",
    [
        (diverge_kernel, "^non-finite latents after inference"),
        (diverge_infer_latents, "^non-finite latents after inference"),
        (diverge_train(1e6, (35, 2), mode="pc", beta=1e-3, batch_size=8),
         "^epoch 1, batch 0: non-finite latents"),
        (diverge_train(1e6, (35, 2), mode="ipc", beta=1e-3, batch_size=8),
         "^epoch 1, batch 0: non-finite weight gradient"),
        (diverge_train(core.ALPHA, TOY_DIMS[1:], mode="pc", beta=1e6, batch_size=16),
         "^epoch 1, validation: non-finite latents"),
        (diverge_gradient_products, "^epoch 1, batch 0: non-finite weight gradient"),
        (diverge_recall_kernel, "^non-finite latents after recall"),
        (diverge_recall_pixels, "^non-finite recalled pixels after recall"),
    ],
    ids=["kernel", "infer_latents", "train-pc-kernel", "train-ipc-gradient",
         "train-validation", "train-gradient-products", "recall-kernel", "recall-pixels"],
)
def test_every_divergence_names_its_step(toy_trained, toy_data, monkeypatch, site, where):
    """The one divergence rule: wherever a DivergenceError is raised, its
    step is an int and its message ends in "iteration {step}". NumPy warns
    of nothing on the way: the check reports the overflow, not a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match=where) as excinfo:
            site(toy_trained, toy_data, monkeypatch)
    step = excinfo.value.step
    assert isinstance(step, int)
    assert str(excinfo.value).endswith(f"iteration {step}")


class TestEvaluateErrors:
    def test_equals_compute_errors_on_infer_latents(self, toy_trained, toy_data, monkeypatch):
        """The column means of infer_latents' settle energies, bit for bit,
        and of free_energy at its latents within GRAM_ENERGY_RTOL."""
        monkeypatch.setattr(core, "ALPHA", 0.02)
        monkeypatch.setattr(core, "DEFAULT_ITERS", 10)
        split = toy_data.validation
        state = infer_latents(toy_trained, split.images, init_seed=5)
        got = evaluate_errors(toy_trained, split, seed=5)
        np.testing.assert_array_equal(got, state.energies().mean(axis=0))
        direct = free_energy(toy_trained, state, split.images).mean(axis=0)
        np.testing.assert_allclose(got, direct, rtol=GRAM_ENERGY_RTOL, atol=0)

    def test_matches_per_example_loop(self, toy_trained, toy_data, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ITERS", 10)
        split = toy_data.validation
        batched = evaluate_errors(toy_trained, split, seed=4)
        n = len(split)
        rng = np.random.default_rng(4)
        phi2_all = LATENT_INIT_SCALE * rng.standard_normal((n, TOY_DIMS[1]))
        phi3_all = LATENT_INIT_SCALE * rng.standard_normal((n, TOY_DIMS[2]))
        totals = np.zeros(3)
        for k in range(n):
            state = LatentState(phi2=phi2_all[k : k + 1].copy(), phi3=phi3_all[k : k + 1].copy())
            x = split.images[k : k + 1]
            state = direct_descent(toy_trained, state, x, core.ALPHA, 10)
            totals += free_energy(toy_trained, state, x)[0]
        np.testing.assert_allclose(batched, totals / n, rtol=1e-10)


@pytest.mark.usefixtures("toy_latent_dims")
class TestTrainLog:
    def test_csv_round_trips_exact_floats(self, toy_data, tmp_path, monkeypatch):
        import csv

        monkeypatch.setattr(core, "DEFAULT_ITERS", 2)
        config = ExperimentConfig(
            mode="pc", beta=1e-3, limit_train=4, batch_size=4, max_epochs=3,
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
    def test_shapes_and_mse(self, toy_trained, toy_data, monkeypatch):
        from pcmem.memory import OcclusionMask

        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 300)
        visible = np.zeros(25, dtype=bool)
        visible[:13] = True
        mask = OcclusionMask(visible)
        suite = run_recall_suite(toy_trained, toy_data, n_images=3, mask=mask)
        assert suite.masked_mse.shape == (3,)
        assert suite.recalled.shape == (3, 25)
        assert suite.mean_mse == pytest.approx(suite.masked_mse.mean())
        # presented images hide exactly the masked pixels
        np.testing.assert_array_equal(
            suite.presented[:, ~visible], np.zeros((3, 12))
        )
        np.testing.assert_array_equal(
            suite.presented[:, visible], suite.originals[:, visible]
        )

    def test_one_batch_recall(self, toy_trained, toy_data, monkeypatch):
        """The suite is one recall call on its images, with per-image
        telemetry passed through."""
        from pcmem.memory import OcclusionMask, recall

        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 50)
        visible = np.zeros(25, dtype=bool)
        visible[:13] = True
        mask = OcclusionMask(visible)
        suite = run_recall_suite(toy_trained, toy_data, n_images=4, mask=mask, seed=2)
        result = recall(toy_trained, toy_data.train.images[:4], mask, init_seed=2)
        np.testing.assert_array_equal(suite.recalled, result.recalled)
        np.testing.assert_array_equal(suite.masked_mse, result.masked_mse)
        np.testing.assert_array_equal(suite.iterations, result.iterations)
        np.testing.assert_array_equal(suite.converged, result.converged)
        np.testing.assert_array_equal(suite.last_delta, result.last_delta)

    @pytest.mark.usefixtures("toy_latent_dims")
    def test_recalls_images_train_used(self, toy_data, monkeypatch):
        """With limit_train >= n_images, every recalled image is one that
        training fed to a batch step, and training fed nothing else."""
        import pcmem.experiments as experiments
        from pcmem.memory import OcclusionMask

        monkeypatch.setattr(memory, "DEFAULT_BUDGET", 10)
        fed = []
        train_batch = experiments._train_batch

        def spy(params, x, *rest):
            fed.append(x.copy())
            return train_batch(params, x, *rest)

        monkeypatch.setattr(experiments, "_train_batch", spy)
        monkeypatch.setattr(core, "DEFAULT_ITERS", 2)
        config = ExperimentConfig(
            mode="pc", beta=1e-3, limit_train=6, batch_size=4, max_epochs=2,
        )
        result = train(config, toy_data)
        fed = np.concatenate(fed)
        assert len(fed) == 2 * 6
        assert {r.tobytes() for r in fed} == {r.tobytes() for r in toy_data.train.images[:6]}

        visible = np.zeros(25, dtype=bool)
        visible[:13] = True
        suite = run_recall_suite(result.params, toy_data, n_images=5, mask=OcclusionMask(visible))
        assert {r.tobytes() for r in suite.originals} <= {r.tobytes() for r in fed}
