import numpy as np
import pytest

from pcmem.optim import AdamState, adam_step

from conftest import value_form_adam_step


class TestAdam:
    def test_zero_grad_fresh_state(self):
        p = np.ones((3, 2))
        state = AdamState.fresh(p.shape)
        out = p.copy()
        adam_step(out, np.zeros_like(p), state, rate=1e-3)
        np.testing.assert_array_equal(out, p)
        assert np.all(state.m == 0) and np.all(state.v == 0) and state.t == 1

    def test_first_step_is_signed_rate(self):
        # bias correction makes |m_hat/sqrt(v_hat)| ~ 1 when eps << |g|
        g = np.array([[1.0, -1.0]])
        p = np.zeros_like(g)
        out = p.copy()
        adam_step(out, g, AdamState.fresh(g.shape), rate=1e-4)
        delta = out - p
        assert np.all(np.abs(delta + 1e-4 * np.sign(g)) < 1e-4 * 1e-3)

    def test_trajectory_matches_reference_loop(self):
        # quadratic f(p) = 0.5 |p - target|^2, grad = p - target
        target = np.array([[1.0, -2.0], [0.5, 3.0]])
        rate, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8

        p_ref = np.zeros_like(target)
        m = np.zeros_like(target)
        v = np.zeros_like(target)
        trace = []
        for t in range(1, 11):
            g = p_ref - target
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            p_ref = p_ref - rate * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(p_ref.copy())

        p = np.zeros_like(target)
        state = AdamState.fresh(target.shape)
        for t in range(10):
            adam_step(p, p - target, state, rate=rate)
            np.testing.assert_allclose(p, trace[t], rtol=1e-12)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3))
        out1, s1 = p.copy(), AdamState.fresh(p.shape)
        out2, s2 = p.copy(), AdamState.fresh(p.shape)
        adam_step(out1, g, s1, rate=1e-3)
        adam_step(out2, g, s2, rate=1e-3)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(s1.m, s2.m)
        np.testing.assert_array_equal(s1.v, s2.v)

    def test_v_nonnegative_and_t_counts(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal((2, 2))
        state = AdamState.fresh(p.shape)
        for expected_t in range(1, 6):
            adam_step(p, rng.standard_normal((2, 2)), state, rate=1e-3)
            assert state.t == expected_t
            assert np.all(state.v >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamState.fresh((2, 2)), 1e-3)

    def test_in_place_equals_value_form_bitwise(self):
        """20 in-place steps give the same bits as the fresh-array form,
        for the parameter, both moments and the step count."""
        rng = np.random.default_rng(3)
        p = rng.standard_normal((7, 5))
        state = AdamState.fresh(p.shape)
        p_ref, ref = p.copy(), AdamState.fresh(p.shape)
        for _ in range(20):
            g = rng.standard_normal(p.shape) * rng.uniform(1e-6, 10.0)
            adam_step(p, g, state, rate=1e-3)
            p_ref, ref = value_form_adam_step(p_ref, g, ref, 1e-3)
            np.testing.assert_array_equal(p, p_ref)
            np.testing.assert_array_equal(state.m, ref.m)
            np.testing.assert_array_equal(state.v, ref.v)
            assert state.t == ref.t

    def test_updates_the_given_arrays(self):
        """param, m and v are written in place and never rebound, so every
        holder of them sees the update; nothing is returned."""
        rng = np.random.default_rng(4)
        p = rng.standard_normal((3, 4))
        state = AdamState.fresh(p.shape)
        m, v = state.m, state.v
        before = p.copy()
        assert adam_step(p, rng.standard_normal(p.shape), state, rate=1e-2) is None
        assert state.m is m and state.v is v
        assert not np.array_equal(p, before)
        assert np.any(m != 0) and np.any(v != 0)
