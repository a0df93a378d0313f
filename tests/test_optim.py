import numpy as np
import pytest

from pcmem.optim import AdamState, adam_step


class TestAdam:
    def test_zero_grad_fresh_state(self):
        p = np.ones((3, 2))
        state = AdamState.fresh(p.shape, rate=1e-3)
        out, new = adam_step(p, np.zeros_like(p), state)
        np.testing.assert_array_equal(out, p)
        assert np.all(new.m == 0) and np.all(new.v == 0) and new.t == 1

    def test_first_step_is_signed_rate(self):
        # bias correction makes |m_hat/sqrt(v_hat)| ~ 1 when eps << |g|
        g = np.array([[1.0, -1.0]])
        p = np.zeros_like(g)
        out, _ = adam_step(p, g, AdamState.fresh(g.shape, rate=1e-4))
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
        state = AdamState.fresh(target.shape, rate=rate)
        for t in range(10):
            p, state = adam_step(p, p - target, state)
            np.testing.assert_allclose(p, trace[t], rtol=1e-12)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3))
        s = AdamState.fresh(p.shape, rate=1e-3)
        out1, s1 = adam_step(p, g, s)
        out2, s2 = adam_step(p, g, AdamState.fresh(p.shape, rate=1e-3))
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(s1.m, s2.m)
        np.testing.assert_array_equal(s1.v, s2.v)

    def test_v_nonnegative_and_t_counts(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal((2, 2))
        state = AdamState.fresh(p.shape, rate=1e-3)
        for expected_t in range(1, 6):
            p, state = adam_step(p, rng.standard_normal((2, 2)), state)
            assert state.t == expected_t
            assert np.all(state.v >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamState.fresh((2, 2), 1e-3))
