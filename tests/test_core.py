import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmem.core import (
    Activation,
    DivergenceError,
    LatentState,
    ModelParams,
    activation_eval,
    compute_errors,
    descend_latents,
    free_energy,
    inference_gradients,
    init_latents,
    init_params,
    learning_gradients,
)

from conftest import direct_descent

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


class TestActivation:
    def test_tanh_at_zero(self):
        v, d = activation_eval(Activation.TANH, np.array([0.0]))
        assert v[0] == 0.0 and d[0] == 1.0

    def test_identity(self):
        v, d = activation_eval(Activation.IDENTITY, np.array([3.7]))
        assert v[0] == 3.7 and d[0] == 1.0

    def test_tanh_derivative_finite_difference(self):
        x = np.array([0.5])
        h = 1e-6
        _, d = activation_eval(Activation.TANH, x)
        numeric = (np.tanh(x + h) - np.tanh(x - h)) / (2 * h)
        assert abs(d[0] - numeric[0]) / abs(numeric[0]) < 1e-6

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            activation_eval(Activation.TANH, np.array([np.nan]))


class TestComputeErrors:
    def test_zero_state_zero_errors(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((2, 4)), phi3=np.zeros((2, 2)))
        errors = compute_errors(params, state, np.zeros((2, 6)))
        assert np.all(errors.xi1 == 0) and np.all(errors.xi2 == 0) and np.all(errors.xi3 == 0)
        assert np.all(errors.layer_energies == 0)

    def test_gate_zeroes_xi1(self):
        params, state, x = small_instance()
        errors = compute_errors(params, state, x, input_gate=False)
        assert np.all(errors.xi1 == 0)
        # the other errors are unaffected by the input
        errors2 = compute_errors(params, state, x + 5.0, input_gate=False)
        np.testing.assert_array_equal(errors.xi2, errors2.xi2)

    def test_xi3_is_phi3(self):
        params, state, x = small_instance(seed=5)
        errors = compute_errors(params, state, x)
        np.testing.assert_array_equal(errors.xi3, state.phi3)

    def test_energies_match_scalar_loop(self):
        params, state, x = small_instance(seed=2)
        errors = compute_errors(params, state, x)
        for i, xi in enumerate((errors.xi1, errors.xi2, errors.xi3)):
            expected = np.mean(
                [0.5 * sum(v * v for v in xi[k]) for k in range(xi.shape[0])]
            )
            assert errors.layer_energies[i] == pytest.approx(expected, rel=1e-14)

    def test_shape_mismatch_rejected(self):
        params, state, _ = small_instance()
        with pytest.raises(ValueError):
            compute_errors(params, state, np.zeros((3, 7)))


class TestFreeEnergy:
    def test_zero(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((1, 4)), phi3=np.zeros((1, 2)))
        _, mean_f = free_energy(compute_errors(params, state, np.zeros((1, 6))))
        assert mean_f == 0.0

    def test_single_unit_error(self):
        errors_xi1 = np.zeros((1, 6))
        errors_xi1[0, 0] = 1.0
        params, _, _ = small_instance()
        # build an ErrorState by hand through compute_errors on zeros, then patch
        state = LatentState(phi2=np.zeros((1, 4)), phi3=np.zeros((1, 2)))
        base = compute_errors(params, state, np.zeros((1, 6)))
        from dataclasses import replace

        patched = replace(base, xi1=errors_xi1)
        per, mean_f = free_energy(patched)
        assert per[0] == 0.5 and mean_f == 0.5

    def test_matches_independent_summation(self):
        import math

        params, state, x = small_instance(seed=9)
        errors = compute_errors(params, state, x)
        per, _ = free_energy(errors)
        for k in range(state.batch):
            terms = [0.5 * v * v for xi in (errors.xi1, errors.xi2, errors.xi3) for v in xi[k]]
            assert per[k] == pytest.approx(math.fsum(terms), rel=1e-12)


class TestGradients:
    def test_zero_errors_zero_gradients(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((2, 4)), phi3=np.zeros((2, 2)))
        errors = compute_errors(params, state, np.zeros((2, 6)))
        d_phi2, d_phi3 = inference_gradients(params, state, errors)
        d_theta1, d_theta2 = learning_gradients(params, state, errors)
        assert np.all(d_phi2 == 0) and np.all(d_phi3 == 0)
        assert np.all(d_theta1 == 0) and np.all(d_theta2 == 0)

    def test_gated_phi2_gradient_is_xi2(self):
        params, state, x = small_instance(seed=3)
        errors = compute_errors(params, state, x, input_gate=False)
        d_phi2, _ = inference_gradients(params, state, errors)
        np.testing.assert_array_equal(d_phi2, errors.xi2)

    def test_rank_one_weight_gradient(self):
        params, _, _ = small_instance()
        phi2 = np.zeros((1, 4))
        phi2[0, 0] = 1.0
        state = LatentState(phi2=phi2, phi3=np.zeros((1, 2)))
        x = (params.theta1 @ phi2[0])[None, :]
        x[0, 0] += 1.0  # xi1 = e1
        errors = compute_errors(params, state, x)
        d_theta1, _ = learning_gradients(params, state, errors)
        expected = np.zeros((6, 4))
        expected[0, 0] = -1.0
        np.testing.assert_allclose(d_theta1, expected, atol=1e-12)

    def test_finite_difference_all_blocks(self):
        params, state, x = small_instance(seed=11)
        errors = compute_errors(params, state, x)
        d_phi2, d_phi3 = inference_gradients(params, state, errors)
        d_theta1, d_theta2 = learning_gradients(params, state, errors)
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
                    pp = ModelParams(**{**{"theta1": params.theta1, "theta2": params.theta2,
                                           "activation": params.activation}, name: plus})
                    pm = ModelParams(**{**{"theta1": params.theta1, "theta2": params.theta2,
                                           "activation": params.activation}, name: minus})
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
        activation=st.sampled_from([Activation.TANH, Activation.IDENTITY]),
        trained=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_direct_form(self, toy_trained, batch, n_iters, activation, trained, seed):
        rng = np.random.default_rng(seed)
        if trained:
            params = ModelParams(toy_trained.theta1, toy_trained.theta2, activation)
        else:
            params = init_params((784, 35, 2), rng, activation)
        x = rng.uniform(0, 1, size=(batch, params.dims[0]))
        state = init_latents(params.dims, batch, rng)
        got = descend_latents(params, state, x, 0.01, n_iters)
        want = direct_descent(params, state, x, 0.01, n_iters)
        np.testing.assert_allclose(got.phi2, want.phi2, rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(got.phi3, want.phi3, rtol=0, atol=KERNEL_ATOL)

    def test_rel_tol_stops_before_stepping(self, toy_trained):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(4, 25))
        state = init_latents(toy_trained.dims, 4, rng)
        # reference: check the free-energy change, then step
        ref, prev, used = state, None, 0
        for _ in range(5000):
            _, f = free_energy(compute_errors(toy_trained, ref, x))
            if prev is not None and abs(prev - f) <= 1e-8 * abs(prev):
                break
            ref = direct_descent(toy_trained, ref, x, 0.01, 1)
            prev, used = f, used + 1
        assert used < 5000
        got = descend_latents(toy_trained, state, x, 0.01, 5000, rel_tol=1e-8)
        np.testing.assert_allclose(got.phi2, ref.phi2, rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(got.phi3, ref.phi3, rtol=0, atol=KERNEL_ATOL)
        # a budget below the stopping point takes exactly budget steps
        short = descend_latents(toy_trained, state, x, 0.01, 7, rel_tol=1e-8)
        np.testing.assert_allclose(
            short.phi2, direct_descent(toy_trained, state, x, 0.01, 7).phi2,
            rtol=0, atol=KERNEL_ATOL,
        )

    def test_zero_error_fixed_point(self):
        params, _, _ = small_instance()
        state = LatentState(phi2=np.zeros((2, 4)), phi3=np.zeros((2, 2)))
        out = descend_latents(params, state, np.zeros((2, 6)), 0.01, 1)
        np.testing.assert_array_equal(out.phi2, state.phi2)
        np.testing.assert_array_equal(out.phi3, state.phi3)

    def test_alpha_zero_identity(self):
        params, state, x = small_instance(seed=4)
        out = descend_latents(params, state, x, 0.0, 1)
        np.testing.assert_array_equal(out.phi2, state.phi2)
        np.testing.assert_array_equal(out.phi3, state.phi3)

    def test_descent_on_trained_toy(self, toy_trained):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(4, 25))
        state = init_latents(toy_trained.dims, 4, rng)
        _, before = free_energy(compute_errors(toy_trained, state, x))
        state = descend_latents(toy_trained, state, x, 0.01, 50)
        _, after = free_energy(compute_errors(toy_trained, state, x))
        assert after < before

    def test_input_is_not_modified(self):
        params, state, x = small_instance(seed=5)
        phi2, phi3, x0 = state.phi2.copy(), state.phi3.copy(), x.copy()
        descend_latents(params, state, x, 0.01, 10)
        np.testing.assert_array_equal(state.phi2, phi2)
        np.testing.assert_array_equal(state.phi3, phi3)
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 6), (3, 6, 1), (6,)])
    def test_wrong_input_shape_rejected(self, shape):
        params, state, _ = small_instance()
        with pytest.raises(ValueError, match="input shape"):
            descend_latents(params, state, np.zeros(shape), 0.01, 1)

    def test_wrong_latent_shape_rejected(self):
        params, _, x = small_instance()
        state = LatentState(phi2=np.zeros((3, 5)), phi3=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="latent shapes"):
            descend_latents(params, state, x, 0.01, 1)

    def test_divergence_names_iteration(self):
        params, state, x = small_instance(seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"iteration \d+"):
                descend_latents(params, state, x, 1e6, 500)


class TestModelParams:
    def test_rejects_non_finite_weights(self):
        bad = np.full((6, 4), np.nan)
        with pytest.raises(ValueError):
            ModelParams(bad, np.zeros((4, 2)))

    def test_rejects_incompatible_shapes(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros((6, 4)), np.zeros((3, 2)))

    def test_init_bounds(self):
        params = init_params((784, 35, 2), np.random.default_rng(0))
        assert np.max(np.abs(params.theta1)) <= 1 / np.sqrt(35)
        assert np.max(np.abs(params.theta2)) <= 1 / np.sqrt(2)
