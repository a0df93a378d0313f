from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmem import core
from pcmem.core import (
    ALPHA,
    DivergenceError,
    LatentState,
    ModelParams,
    descend_latents,
    free_energy,
    init_latents,
    init_params,
    learning_gradients,
)
from pcmem.experiments import preset, train
from pcmem.gradcheck import kernel_latent_gradients
from pcmem.memory import regenerate

from conftest import (
    assert_energies_match_free_energy,
    compute_errors,
    direct_descent,
    direct_learning_gradients,
    value_form_descent,
)

DIMS = (6, 4, 2)


def small_instance(seed=0, batch=3):
    rng = np.random.default_rng(seed)
    params = init_params(DIMS, rng)
    x = rng.uniform(0, 1, size=(batch, DIMS[0]))
    state = init_latents(DIMS, batch, rng)
    return params, state, x


def scalar_free_energy(params, phi1, phi2, phi3):
    """Independent scalar-loop evaluation of l per example."""
    out = np.zeros(phi2.shape[0])
    for k in range(phi2.shape[0]):
        total = 0.0
        for i in range(params.theta1.shape[0]):
            pred = sum(params.theta1[i, j] * phi2[k, j] for j in range(phi2.shape[1]))
            total += 0.5 * (phi1[k, i] - pred) ** 2
        for j in range(phi2.shape[1]):
            pre = sum(params.theta2[j, m] * phi3[k, m] for m in range(phi3.shape[1]))
            total += 0.5 * (phi2[k, j] - np.tanh(pre)) ** 2
        for m in range(phi3.shape[1]):
            total += 0.5 * phi3[k, m] ** 2
        out[k] = total
    return out


def tanh_layer(pre: float):
    """The library's layer-2 prediction at one pre-activation, read out by
    memory.regenerate, and the activation derivative descend_latents steps
    phi3 with there, both on a 1-1-1 model with theta1 = theta2 = 1 and
    phi3 = pre, where regenerate returns tanh(pre) exactly."""
    params = ModelParams(np.ones((1, 1)), np.ones((1, 1)))
    phi3 = np.array([[pre]])
    value = regenerate(params, phi3)[0, 0]
    # phi2 one above the prediction (xi2 = 1) and x = phi2 (xi1 = 0): d_phi3 = pre - f'
    phi2 = np.tanh(phi3) + 1.0
    _, d_phi3 = kernel_latent_gradients(params, LatentState(phi2=phi2, phi3=phi3), phi2)
    return value, pre - d_phi3[0, 0]


class TestActivation:
    def test_tanh_at_zero(self):
        v, d = tanh_layer(0.0)
        assert v == 0.0 and d == 1.0

    def test_tanh_derivative_finite_difference(self):
        h = 1e-6
        v, d = tanh_layer(0.5)
        assert v == np.tanh(0.5)
        numeric = (np.tanh(0.5 + h) - np.tanh(0.5 - h)) / (2 * h)
        assert abs(d - numeric) / abs(numeric) < 1e-6


# free_energy's einsum row sums and the element-wise square-and-sum forms
# add the same squares in another order. Over 306 cases (784-35-2, B <= 70
# and B = 2010, random and settled latents, random and trained weights) the
# largest relative gap measured 1.6e-15 for one example's layer energy,
# 6.0e-16 for a layer's batch mean and 1.6e-15 for an example's F.
ENERGY_RTOL = 1e-14


class TestComputeErrors:
    def test_zero_state_zero_errors(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((2, 4)), phi3=np.zeros((2, 2)))
        errors = compute_errors(params, state, np.zeros((2, 6)))
        assert np.all(errors.xi1 == 0) and np.all(errors.xi2 == 0) and np.all(errors.xi3 == 0)
        assert np.all(free_energy(params, state, np.zeros((2, 6))) == 0)

    def test_energies_match_scalar_loop(self):
        params, state, x = small_instance(seed=2)
        errors = compute_errors(params, state, x)
        layer_energies = free_energy(params, state, x).mean(axis=0)
        for i, xi in enumerate((errors.xi1, errors.xi2, errors.xi3)):
            expected = np.mean(
                [0.5 * sum(v * v for v in xi[k]) for k in range(xi.shape[0])]
            )
            assert layer_energies[i] == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 70), trained=st.booleans(), seed=st.integers(0, 2**16))
    @example(batch=2010, trained=False, seed=0)
    def test_dot_energies_match_elementwise_sums(self, toy_trained, batch, trained, seed):
        """free_energy (einsum row sums), its column means and its row sums
        against the element-wise square-and-sum forms of the oracle's
        errors."""
        rng = np.random.default_rng(seed)
        params = toy_trained if trained else init_params((784, 35, 2), rng)
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = init_latents(params.dims, batch, rng)
        errors = compute_errors(params, state, x)
        energies = free_energy(params, state, x)
        assert energies.shape == (batch, 3)
        layers = (errors.xi1, errors.xi2, errors.xi3)
        old_rows = np.stack([0.5 * np.sum(xi * xi, axis=1) for xi in layers], axis=1)
        np.testing.assert_allclose(energies, old_rows, rtol=ENERGY_RTOL, atol=0)
        old_layers = [0.5 * np.mean(np.sum(xi * xi, axis=1)) for xi in layers]
        np.testing.assert_allclose(energies.mean(axis=0), old_layers, rtol=ENERGY_RTOL, atol=0)
        old_per = 0.5 * sum(np.sum(xi * xi, axis=1) for xi in layers)
        np.testing.assert_allclose(energies.sum(axis=1), old_per, rtol=ENERGY_RTOL, atol=0)

    def test_shape_mismatch_rejected(self):
        """free_energy's batch-input check, the kernel's, with its messages."""
        params, state, _ = small_instance()
        for shape in [(3, 7), (2, 6), (3, 6, 1), (6,)]:
            with pytest.raises(ValueError, match=r"input shape \(.*\) != \(3, 6\)$"):
                free_energy(params, state, np.zeros(shape))
        wrong = LatentState(phi2=np.zeros((3, 5)), phi3=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^latent shapes do not match model dims$"):
            free_energy(params, wrong, np.zeros((3, 6)))


class TestFreeEnergy:
    def test_zero(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((1, 4)), phi3=np.zeros((1, 2)))
        energies = free_energy(params, state, np.zeros((1, 6)))
        np.testing.assert_array_equal(energies, np.zeros((1, 3)))

    def test_single_unit_error(self):
        params, _, _ = small_instance()
        # zero latents predict zero input, so a unit pixel is a unit input error
        state = LatentState(phi2=np.zeros((1, 4)), phi3=np.zeros((1, 2)))
        x = np.zeros((1, 6))
        x[0, 0] = 1.0
        energies = free_energy(params, state, x)
        np.testing.assert_array_equal(energies, [[0.5, 0.0, 0.0]])
        assert energies.sum(axis=1)[0] == 0.5

    def test_matches_independent_summation(self):
        import math

        params, state, x = small_instance(seed=9)
        errors = compute_errors(params, state, x)
        per = free_energy(params, state, x).sum(axis=1)
        for k in range(state.batch):
            terms = [0.5 * v * v for xi in (errors.xi1, errors.xi2, errors.xi3) for v in xi[k]]
            assert per[k] == pytest.approx(math.fsum(terms), rel=1e-12)


def assert_matches_direct_form(params, state, x):
    got = learning_gradients(params, state, x)
    want = direct_learning_gradients(params, state, x)
    scale = np.max(np.abs(want[0]))
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12 * scale)
    np.testing.assert_array_equal(got[1], want[1])


class TestGradients:
    def test_zero_errors_zero_gradients(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((2, 4)), phi3=np.zeros((2, 2)))
        d_phi2, d_phi3 = kernel_latent_gradients(params, state, np.zeros((2, 6)))
        d_theta1, d_theta2 = learning_gradients(params, state, np.zeros((2, 6)))
        assert np.all(d_phi2 == 0) and np.all(d_phi3 == 0)
        assert np.all(d_theta1 == 0) and np.all(d_theta2 == 0)

    def test_rank_one_weight_gradient(self):
        params, _, _ = small_instance()
        phi2 = np.zeros((1, 4))
        phi2[0, 0] = 1.0
        state = LatentState(phi2=phi2, phi3=np.zeros((1, 2)))
        x = (params.theta1 @ phi2[0])[None, :]
        x[0, 0] += 1.0  # xi1 = e1
        d_theta1, _ = learning_gradients(params, state, x)
        expected = np.zeros((6, 4))
        expected[0, 0] = -1.0
        np.testing.assert_allclose(d_theta1, expected, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 70), trained=st.booleans(), seed=st.integers(0, 2**16))
    def test_gram_form_matches_direct_form(self, toy_trained, batch, trained, seed):
        """d_theta1 agrees with -<xi1 phi2^T> up to rounding at settled
        latents; d_theta2 is the direct form's arithmetic, bit for bit."""
        rng = np.random.default_rng(seed)
        params = toy_trained if trained else init_params((784, 35, 2), rng)
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = descend_latents(params, init_latents(params.dims, batch, rng), x, 50)
        assert_matches_direct_form(params, state, x)

    def test_gram_form_matches_direct_form_on_trained_exp1(self, splits):
        """Where the Gram form cancels most: an exp1 model trained 500
        epochs, at the settled latents of its training batch."""
        config = replace(preset("exp1"), max_epochs=500, val_every=500)
        params = train(config, splits).params
        x = splits.train.images[:64]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            state = descend_latents(params, init_latents(params.dims, 64, rng), x, 50)
            assert_matches_direct_form(params, state, x)

    def test_finite_difference_all_blocks(self):
        params, state, x = small_instance(seed=11)
        errors = compute_errors(params, state, x)
        d_phi2, d_phi3 = kernel_latent_gradients(params, state, x)
        d_theta1, d_theta2 = learning_gradients(params, state, x)
        h = 1e-5

        def fd_latent(arr, analytic, which):
            for k in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    args = {
                        "phi1": x.copy(),
                        "phi2": state.phi2.copy(),
                        "phi3": state.phi3.copy(),
                    }
                    args[which][k, j] += h
                    fp = scalar_free_energy(params, **args)[k]
                    args[which][k, j] -= 2 * h
                    fm = scalar_free_energy(params, **args)[k]
                    numeric = (fp - fm) / (2 * h)
                    assert abs(analytic[k, j] - numeric) / max(
                        abs(analytic[k, j]) + abs(numeric), 1e-8
                    ) < 1e-4

        fd_latent(x, errors.xi1, "phi1")
        fd_latent(state.phi2, d_phi2, "phi2")
        fd_latent(state.phi3, d_phi3, "phi3")

        for name, analytic in (("theta1", d_theta1), ("theta2", d_theta2)):
            base = getattr(params, name)
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    plus, minus = base.copy(), base.copy()
                    plus[i, j] += h
                    minus[i, j] -= h
                    pp = ModelParams(**{"theta1": params.theta1, "theta2": params.theta2,
                                        name: plus})
                    pm = ModelParams(**{"theta1": params.theta1, "theta2": params.theta2,
                                        name: minus})
                    fp = np.mean(scalar_free_energy(pp, x, state.phi2, state.phi3))
                    fm = np.mean(scalar_free_energy(pm, x, state.phi2, state.phi3))
                    numeric = (fp - fm) / (2 * h)
                    assert abs(analytic[i, j] - numeric) / max(
                        abs(analytic[i, j]) + abs(numeric), 1e-8
                    ) < 1e-4


# The Gram form reorders the sums of the direct form, so the two agree only
# up to rounding: over 200 random cases at d1 = 784, B <= 70, T <= 60 the
# largest gap measured 1.6e-15.
KERNEL_ATOL = 1e-10


class TestDescendLatents:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 70),
        n_iters=st.integers(1, 60),
        trained=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_direct_form(self, toy_trained, batch, n_iters, trained, seed):
        rng = np.random.default_rng(seed)
        params = toy_trained if trained else init_params((784, 35, 2), rng)
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = init_latents(params.dims, batch, rng)
        got = descend_latents(params, state, x, n_iters)
        want = direct_descent(params, state, x, ALPHA, n_iters)
        np.testing.assert_allclose(got.phi2, want.phi2, rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(got.phi3, want.phi3, rtol=0, atol=KERNEL_ATOL)

    @pytest.mark.parametrize("n_iters", [1, 50])
    @pytest.mark.parametrize("batch", [1, 64, 2010])
    @pytest.mark.parametrize("trained", [False, True])
    def test_in_place_equals_value_form_bitwise(self, toy_trained, batch, n_iters, trained):
        """The in-place steps do the fresh-array loop's arithmetic in its order."""
        rng = np.random.default_rng(batch + n_iters)
        params = toy_trained if trained else init_params((784, 35, 2), rng)
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = init_latents(params.dims, batch, rng)
        got = descend_latents(params, state, x, n_iters)
        # BLAS rounds a row's product differently at another row count, so
        # the reference runs on the kernel's row blocks
        for rows in kernel_blocks(batch):
            want = value_form_descent(params, row_slice(state, rows), x[rows], ALPHA, n_iters)
            np.testing.assert_array_equal(got.phi2[rows], want.phi2)
            np.testing.assert_array_equal(got.phi3[rows], want.phi3)

    def test_zero_error_fixed_point(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((2, 4)), phi3=np.zeros((2, 2)))
        out = descend_latents(params, state, np.zeros((2, 6)), 1)
        np.testing.assert_array_equal(out.phi2, state.phi2)
        np.testing.assert_array_equal(out.phi3, state.phi3)

    def test_alpha_zero_identity(self, monkeypatch):
        monkeypatch.setattr(core, "ALPHA", 0.0)
        params, state, x = small_instance(seed=4)
        out = descend_latents(params, state, x, 1)
        np.testing.assert_array_equal(out.phi2, state.phi2)
        np.testing.assert_array_equal(out.phi3, state.phi3)

    def test_descent_on_trained_toy(self, toy_trained):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(4, 25))
        state = init_latents(toy_trained.dims, 4, rng)
        before = free_energy(toy_trained, state, x).sum(axis=1).mean()
        state = descend_latents(toy_trained, state, x, 50)
        after = free_energy(toy_trained, state, x).sum(axis=1).mean()
        assert after < before

    def test_input_is_not_modified(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ROWS", 2)
        params, state, x = small_instance(seed=5, batch=7)  # blocks of 2, 2, 2, 1 rows
        phi2, phi3, x0 = state.phi2.copy(), state.phi3.copy(), x.copy()
        descend_latents(params, state, x, 10)
        np.testing.assert_array_equal(state.phi2, phi2)
        np.testing.assert_array_equal(state.phi3, phi3)
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 6), (3, 6, 1), (6,)])
    def test_wrong_input_shape_rejected(self, shape):
        params, state, _ = small_instance()
        with pytest.raises(ValueError, match="input shape"):
            descend_latents(params, state, np.zeros(shape), 1)

    def test_wrong_latent_shape_rejected(self):
        params, _, x = small_instance()
        state = LatentState(phi2=np.zeros((3, 5)), phi3=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="latent shapes"):
            descend_latents(params, state, x, 1)

    def test_divergence_names_iteration(self, monkeypatch):
        monkeypatch.setattr(core, "ALPHA", 1e6)
        params, state, x = small_instance(seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"iteration \d+"):
                descend_latents(params, state, x, 500)

    def test_finite_latents_with_overflowing_squares_pass(self, monkeypatch):
        # |phi2|^2 overflows to inf, so the summed check falls back to the
        # element scan, which finds every latent finite
        monkeypatch.setattr(core, "ALPHA", 0.0)
        params, state, x = small_instance(seed=6)
        big = LatentState(phi2=np.full_like(state.phi2, 1e200), phi3=state.phi3)
        assert not np.isfinite(np.vdot(big.phi2, big.phi2))
        out = descend_latents(params, big, x, 3)
        np.testing.assert_array_equal(out.phi2, big.phi2)
        np.testing.assert_array_equal(out.phi3, big.phi3)

    def test_non_finite_phi3_diverges_at_iteration_0(self):
        # the kernel's after-step check is what stops a non-finite phi3
        params, state, x = small_instance()
        for value in (np.nan, np.inf, -np.inf):
            phi3 = state.phi3.copy()
            phi3[1, 0] = value
            bad = LatentState(phi2=state.phi2, phi3=phi3)
            with np.errstate(invalid="ignore"):
                with pytest.raises(DivergenceError, match=r"iteration 0$") as err:
                    descend_latents(params, bad, x, 5)
            assert err.value.step == 0

    @pytest.mark.parametrize("n_iters", [1, 50])
    @pytest.mark.parametrize("trained", [False, True])
    def test_blocks_equal_separate_calls(self, monkeypatch, toy_trained, n_iters, trained):
        monkeypatch.setattr(core, "BLOCK_ROWS", 8)
        sizes = spy_block_sizes(monkeypatch)
        rng = np.random.default_rng(n_iters)
        params = toy_trained if trained else init_params((784, 35, 2), rng)
        batch = 2 * core.BLOCK_ROWS + 3
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = init_latents(params.dims, batch, rng)
        got = descend_latents(params, state, x, n_iters)
        assert sizes == [8, 8, 3]
        for rows in kernel_blocks(batch):
            want = descend_latents(params, row_slice(state, rows), x[rows], n_iters)
            np.testing.assert_array_equal(got.phi2[rows], want.phi2)
            np.testing.assert_array_equal(got.phi3[rows], want.phi3)
        want = direct_descent(params, state, x, ALPHA, n_iters)
        np.testing.assert_allclose(got.phi2, want.phi2, rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(got.phi3, want.phi3, rtol=0, atol=KERNEL_ATOL)

    def test_divergence_in_second_block_names_its_iteration(self, monkeypatch):
        # rows at the zero-error fixed point stay there at any step size;
        # only the second block's rows leave it
        monkeypatch.setattr(core, "ALPHA", 1e6)
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        params, seeded, x_seeded = small_instance(seed=3, batch=4)
        rows = slice(4, 8)
        x = np.zeros((11, DIMS[0]))
        x[rows] = x_seeded
        phi2, phi3 = np.zeros((11, DIMS[1])), np.zeros((11, DIMS[2]))
        phi2[rows], phi3[rows] = seeded.phi2, seeded.phi3
        state = LatentState(phi2=phi2, phi3=phi3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as alone:
                descend_latents(params, seeded, x_seeded, 500)
            sizes = spy_block_sizes(monkeypatch)
            with pytest.raises(DivergenceError) as blocked:
                descend_latents(params, state, x, 500)
        assert sizes == [4, 4]  # the third block never ran
        assert str(blocked.value) == str(alone.value)
        assert not str(alone.value).endswith("iteration 0")

    @pytest.mark.parametrize("case", ["first-step", "middle-step", "last-step"])
    def test_check_once_names_the_per_step_step(self, monkeypatch, case):
        """A block is checked once, after its last step, and rerun with a
        check after every step when it ends non-finite: the step named is
        the first after which the per-step check of the reference loop
        finds a non-finite latent, wherever in the block it lies."""
        monkeypatch.setattr(core, "ALPHA", 1e6)
        params, state, x = small_instance(seed=3)
        if case == "first-step":
            x = x * 1e303  # the first step's drive term overflows
        step = per_step_divergence(params, state, x, 500)
        n_iters = step + 1 if case == "last-step" else 500
        assert (step == 0) == (case == "first-step") and step < n_iters
        with pytest.raises(DivergenceError) as err:
            descend_latents(params, state, x, n_iters)
        assert err.value.step == step
        assert str(err.value) == f"non-finite latents after inference iteration {step}"
        if step:
            # one step short of the divergence, the same block passes
            short = descend_latents(params, state, x, step)
            assert np.all(np.isfinite(short.phi2)) and np.all(np.isfinite(short.phi3))

    def test_divergence_in_last_of_several_blocks_names_its_step(self, monkeypatch):
        # rows at the zero-error fixed point stay there at any step size;
        # only the last block's rows leave it
        monkeypatch.setattr(core, "ALPHA", 1e6)
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        params, seeded, x_seeded = small_instance(seed=3, batch=3)
        x = np.zeros((11, DIMS[0]))
        x[8:] = x_seeded
        phi2, phi3 = np.zeros((11, DIMS[1])), np.zeros((11, DIMS[2]))
        phi2[8:], phi3[8:] = seeded.phi2, seeded.phi3
        step = per_step_divergence(params, seeded, x_seeded, 500)
        sizes = spy_block_sizes(monkeypatch)
        with pytest.raises(DivergenceError) as err:
            descend_latents(params, LatentState(phi2=phi2, phi3=phi3), x, 500)
        assert sizes == [4, 4, 3]
        assert 0 < err.value.step == step
        assert str(err.value).endswith(f"iteration {step}")


def per_step_divergence(params, state, x, n_iters):
    """Reference: the first step after which value_form_descent's latents
    are not all finite, checked after every step, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_iters):
            state = value_form_descent(params, state, x, core.ALPHA, 1)
            if not (np.all(np.isfinite(state.phi2)) and np.all(np.isfinite(state.phi3))):
                return i
    return None


class TestSettledEnergies:
    @pytest.mark.parametrize("n_iters", [0, 50])
    @pytest.mark.parametrize("batch", [1, 64, 2010])
    @pytest.mark.parametrize("trained", [False, True])
    def test_match_free_energy(self, toy_trained, batch, trained, n_iters):
        rng = np.random.default_rng(batch)
        params = toy_trained if trained else init_params((784, 35, 2), rng)
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = descend_latents(params, init_latents(params.dims, batch, rng), x, n_iters)
        assert state.energies().shape == (batch, 3)
        assert_energies_match_free_energy(params, state, x)

    def test_weights_moved_in_place_change_nothing(self, toy_trained):
        """As training does after the settle: theta1 and theta2 move in
        place, and the energies stay those of the weights settled with."""
        params = ModelParams(toy_trained.theta1.copy(), toy_trained.theta2.copy())
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=(6, params.dims[0]))
        state = descend_latents(params, init_latents(params.dims, 6, rng), x, 20)
        before = state.energies()
        settled_with = ModelParams(params.theta1.copy(), params.theta2.copy())
        params.theta1[...] += 0.5
        params.theta2[...] *= -2.0
        np.testing.assert_array_equal(state.energies(), before)
        assert_energies_match_free_energy(settled_with, state, x)


def kernel_blocks(batch):
    """The row blocks descend_latents settles a batch in."""
    return [slice(s, s + core.BLOCK_ROWS) for s in range(0, batch, core.BLOCK_ROWS)]


def row_slice(state, rows):
    """The latents of the given rows."""
    return LatentState(phi2=state.phi2[rows], phi3=state.phi3[rows])


def spy_block_sizes(monkeypatch):
    """The row count of every block descend_latents steps, in call order."""
    sizes, inner = [], core._descend_block

    def spy(theta2, gram, drive, phi2, *rest):
        sizes.append(phi2.shape[0])
        return inner(theta2, gram, drive, phi2, *rest)

    monkeypatch.setattr(core, "_descend_block", spy)
    return sizes


class TestModelParams:
    def test_rejects_non_finite_weights(self):
        bad = np.full((6, 4), np.nan)
        with pytest.raises(ValueError):
            ModelParams(bad, np.zeros((4, 2)))

    def test_rejects_incompatible_shapes(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros((6, 4)), np.zeros((3, 2)))

    @pytest.mark.parametrize("dims", [(0, 4, 2), (6, 0, 2), (6, 4, 0)])
    def test_rejects_zero_dims(self, dims):
        d1, d2, d3 = dims
        with pytest.raises(ValueError, match=r"must all be >= 1"):
            ModelParams(np.zeros((d1, d2)), np.zeros((d2, d3)))

    def test_init_bounds(self):
        params = init_params((784, 35, 2), np.random.default_rng(0))
        assert np.max(np.abs(params.theta1)) <= 1 / np.sqrt(35)
        assert np.max(np.abs(params.theta2)) <= 1 / np.sqrt(2)
