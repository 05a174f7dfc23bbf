import math

import numpy as np
import pytest

from oracles import (
    FLUSH_MODE_AVAILABLE,
    adam_scalar_steps,
    grad_check,
    linear,
    scalar_lstm_grads_1d,
    scalar_lstm_step,
    softmax_cross_entropy,
    subnormal_mask,
    subnormal_probe,
    widened,
)
from seqplace import nn
from seqplace.core import ModelConfig, NumericsError, ValidationError, seeded_rng
from seqplace.spl import _backward, _forward, _inputs, build_model


def random_params(din, hidden, seed, dtype=np.float64):
    rng = seeded_rng(seed)
    return nn.LstmParams(
        w_x=rng.uniform(-0.5, 0.5, (4 * hidden, din)).astype(dtype),
        w_h=rng.uniform(-0.5, 0.5, (4 * hidden, hidden)).astype(dtype),
        b=rng.uniform(-0.5, 0.5, 4 * hidden).astype(dtype),
    )


def preact(x, h_prev, p):
    return x @ p.w_x.T + h_prev @ p.w_h.T + p.b


def run_cell(xs, p, h0=None, c0=None):
    """Step the cell over a (T, B, D) sequence; returns (hs, caches)."""
    shape = (xs.shape[1], p.w_h.shape[1])
    h = np.zeros(shape) if h0 is None else h0
    c = np.zeros(shape) if c0 is None else c0
    hs, caches = [], []
    for x in xs:
        h, c, cache = nn.lstm_step_batch(preact(x, h, p), h, c)
        hs.append(h)
        caches.append(cache)
    return hs, caches


def cell_grads(xs, caches, grad_h, p):
    """BPTT through run_cell for per-step hidden-output gradients grad_h:
    returns (gw_x, gw_h, gb, dxs, dh0, dc0)."""
    gw_x, gw_h, gb = np.zeros_like(p.w_x), np.zeros_like(p.w_h), np.zeros_like(p.b)
    dh = np.zeros_like(grad_h[0])
    dc = np.zeros_like(dh)
    dxs = np.zeros_like(xs)
    for t in reversed(range(len(xs))):
        dz, dh, dc = nn.lstm_step_backward(dh + grad_h[t], dc, caches[t], p.w_h, gw_h)
        gw_x += dz.T @ xs[t]
        gb += dz.sum(axis=0)
        dxs[t] = dz @ p.w_x
    return gw_x, gw_h, gb, dxs, dh, dc


class TestLstmStep:
    def test_zero_parameter_fixed_point(self):
        p = nn.LstmParams(w_x=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
        x = np.array([[5.0, -3.0, 2.0]])
        h, c, _ = nn.lstm_step_batch(preact(x, np.zeros((1, 2)), p),
                                     np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.array_equal(h, np.zeros((1, 2)))
        assert np.array_equal(c, np.zeros((1, 2)))

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 3
        b = np.zeros(4 * hidden)
        b[:hidden] = -50.0            # input gate shut
        b[hidden:2 * hidden] = 50.0   # forget gate open
        b[3 * hidden:] = -50.0        # output gate shut
        p = nn.LstmParams(w_x=np.zeros((4 * hidden, 2)),
                          w_h=np.zeros((4 * hidden, hidden)), b=b)
        c_prev = np.array([[0.3, -1.2, 0.9]])
        h_prev = np.zeros((1, hidden))
        h, c, _ = nn.lstm_step_batch(preact(np.ones((1, 2)), h_prev, p), h_prev, c_prev)
        assert np.allclose(c, c_prev, atol=1e-9)
        assert np.allclose(h, 0.0, atol=1e-9)

    def test_matches_scalar_reference(self):
        p = random_params(3, 2, seed=11)
        rng = seeded_rng(12)
        x = rng.uniform(-2, 2, (1, 3))
        h0 = rng.uniform(-1, 1, (1, 2))
        c0 = rng.uniform(-1, 1, (1, 2))
        h, c, cache = nn.lstm_step_batch(preact(x, h0, p), h0, c0)
        h_ref, c_ref = scalar_lstm_step(x[0].tolist(), h0[0].tolist(), c0[0].tolist(),
                                        p.w_x.tolist(), p.w_h.tolist(), p.b.tolist())
        assert np.allclose(h[0], h_ref, atol=1e-12)
        assert np.allclose(c[0], c_ref, atol=1e-12)
        # the cache holds the gate values the output was built from
        assert np.array_equal(h, cache.o * cache.tc)
        assert np.array_equal(c, cache.f * c0 + cache.i * cache.g)


class TestFlushTiny:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_threshold_is_sqrt_tiny_of_the_dtype(self, dtype):
        cut = np.sqrt(np.finfo(dtype).tiny)
        x = np.array([cut, -cut, np.nextafter(cut, 0), -np.nextafter(cut, 0), 0.0, 1.0,
                      np.finfo(dtype).tiny, np.nan], dtype=dtype)
        out = nn.flush_tiny(x)
        assert out is x
        assert np.array_equal(x[:2], [cut, -cut])
        assert np.array_equal(x[2:7], [0, 0, 0, 1, 0])
        assert np.isnan(x[7])

    def test_kept_products_are_normal_or_zero(self):
        rng = seeded_rng(4)
        x = (rng.uniform(-1, 1, 1000) * 10.0 ** rng.uniform(-30, 0, 1000)).astype(np.float32)
        nn.flush_tiny(x)
        products = np.abs(np.multiply.outer(x, x[::-1]))
        assert not ((products > 0) & (products < np.finfo(np.float32).tiny)).any()


class TestDenormalsFlushed:
    # the probe's subnormal product is 0 inside the mode, and a subnormal
    # operand reads as 0 there; on exit the calling thread's mode is restored
    def assert_flushing(self, subnormal):
        if FLUSH_MODE_AVAILABLE:
            assert subnormal_probe() == 0
            assert subnormal * np.float32(1e30) == 0

    def test_normal_exit_restores(self):
        subnormal = subnormal_probe()
        assert subnormal_mask(subnormal)
        with nn.denormals_flushed():
            self.assert_flushing(subnormal)
        assert subnormal_mask(subnormal_probe())
        assert subnormal * np.float32(1e30) > 0

    def test_exception_in_the_body_restores(self):
        subnormal = subnormal_probe()
        with pytest.raises(NumericsError, match="in the body"):
            with nn.denormals_flushed():
                self.assert_flushing(subnormal)
                raise NumericsError("in the body")
        assert subnormal_mask(subnormal_probe())

    def test_nested_exit_restores_the_outer_mode(self):
        subnormal = subnormal_probe()
        with nn.denormals_flushed():
            with nn.denormals_flushed():
                self.assert_flushing(subnormal)
            self.assert_flushing(subnormal)
        assert subnormal_mask(subnormal_probe())


class TestLstmBackward:
    def test_single_step_scalar_symbolic(self):
        rng = seeded_rng(21)
        p = random_params(1, 1, seed=22)
        x, h0, c0 = rng.uniform(-1, 1, 3)
        xs = np.array([[[x]]])
        _, caches = run_cell(xs, p, h0=np.array([[h0]]), c0=np.array([[c0]]))
        gw_x, gw_h, gb, dx, dh0, dc0 = cell_grads(xs, caches, np.ones((1, 1, 1)), p)
        d_wx, d_wh, d_b, dx_ref, dh0_ref, dc0_ref = scalar_lstm_grads_1d(
            x, h0, c0, p.w_x[:, 0].tolist(), p.w_h[:, 0].tolist(), p.b.tolist())
        assert np.allclose(gw_x[:, 0], d_wx, atol=1e-10)
        assert np.allclose(gw_h[:, 0], d_wh, atol=1e-10)
        assert np.allclose(gb, d_b, atol=1e-10)
        assert abs(dx[0, 0, 0] - dx_ref) < 1e-10
        assert abs(dh0[0, 0] - dh0_ref) < 1e-10
        assert abs(dc0[0, 0] - dc0_ref) < 1e-10

    def test_constant_loss_gives_zero_grads(self):
        p = random_params(2, 3, seed=31)
        xs = seeded_rng(32).uniform(-1, 1, (4, 1, 2))
        _, caches = run_cell(xs, p)
        for g in cell_grads(xs, caches, np.zeros((4, 1, 3)), p):
            assert np.count_nonzero(g) == 0

    def test_finite_difference_window(self):
        # TW=4, D=8, H=12: loss = sum of squares of the last hidden state
        p = random_params(8, 12, seed=41)
        xs = seeded_rng(42).uniform(-1, 1, (4, 1, 8))
        params = [p.w_x, p.w_h, p.b]

        def loss():
            hs, _ = run_cell(xs, p)
            return float(0.5 * (hs[-1] ** 2).sum())

        hs, caches = run_cell(xs, p)
        grad_h = np.zeros((4, 1, 12))
        grad_h[-1] = hs[-1]
        grads = cell_grads(xs, caches, grad_h, p)[:3]
        assert grad_check(loss, params, grads, eps=1e-5) <= 1e-4


class TestLinear:
    """The dense output head: the plain-python reference that the model tests
    use, and the model's own head gradient."""

    def test_identity(self):
        x = [1.5, -2.0, 0.25]
        assert linear(x, np.eye(3).tolist(), [0.0] * 3) == x

    def test_bias_passthrough(self):
        b = [4.0, -1.0]
        assert linear([0.0] * 3, np.zeros((2, 3)).tolist(), b) == b

    def test_hand_computed_3x2(self):
        w = [[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]]
        x = [4.0, 2.0]
        b = [1.0, 0.0, -1.0]
        # rows: 2*4 - 1*2 + 1 = 7; 0.5*4 + 3*2 + 0 = 8; 4 + 2 - 1 = 5
        assert linear(x, w, b) == [7.0, 8.0, 5.0]

    def test_backward_matches_finite_differences(self):
        # loss = 0.5 * |W h + b|^2 over the model's final hidden state h,
        # which the head parameters do not affect
        cfg = ModelConfig(variant="baseline", descriptor_dim=3, num_places=4, tw=2,
                          hidden_size=3)
        model = widened(build_model(cfg, seed=61))
        w_out, b_out = model.params[-2:]
        b_out[...] = seeded_rng(62).uniform(-1, 1, 4)
        desc = seeded_rng(63).uniform(-1, 1, (2, 3))
        inputs = _inputs(model, desc, np.zeros((2, 2)))
        logits, ctx = _forward(model, inputs, np.arange(2)[:, None], keep_cache=True)
        h_final = ctx["h_final"][0].tolist()

        def loss():
            return 0.5 * sum(v * v for v in linear(h_final, w_out, b_out))

        grads = _backward(model, ctx, logits)[-2:]
        assert grad_check(loss, [w_out, b_out], grads, eps=1e-6) <= 1e-7


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        losses, _ = nn.softmax_cross_entropy_batch(np.zeros((1, 4)), [1])
        assert abs(losses[0] - math.log(4)) < 1e-12

    def test_saturated_correct_class(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e6
        losses, _ = nn.softmax_cross_entropy_batch(logits, [2])
        assert losses[0] < 1e-9

    def test_grad_sums_to_zero(self):
        rng = seeded_rng(71)
        for _ in range(50):
            logits = rng.uniform(-20, 20, (3, int(rng.integers(2, 30))))
            _, grads = nn.softmax_cross_entropy_batch(logits, [0, 1, 0])
            assert np.abs(grads.sum(axis=1)).max() < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError):
            nn.softmax_cross_entropy_batch(np.zeros((2, 3)), [0, 3])

    def test_batch_matches_single(self):
        rng = seeded_rng(72)
        logits = rng.uniform(-5, 5, (6, 9))
        targets = rng.integers(0, 9, 6)
        losses, grads = nn.softmax_cross_entropy_batch(logits, targets)
        for row in range(6):
            loss_1, grad_1 = softmax_cross_entropy(logits[row].tolist(), int(targets[row]))
            assert abs(losses[row] - loss_1) < 1e-12
            assert np.allclose(grads[row], grad_1, atol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_params_bit_identical(self):
        rng = seeded_rng(81)
        params = [rng.uniform(-1, 1, (3, 4)).astype(np.float32)]
        snapshot = [p.copy() for p in params]
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, [np.zeros_like(params[0])], state, lr=0.1)
        assert np.array_equal(params[0], snapshot[0])
        assert state.t == 1

    def test_constant_gradient_update_approaches_lr(self):
        grad = 0.37
        lr = 0.01
        values = adam_scalar_steps(grad, lr, 400)
        late = [abs(values[k] - values[k - 1]) for k in range(350, 400)]
        assert all(abs(step - lr) / lr < 0.01 for step in late)
        # library agrees with the recurrence
        p = [np.zeros(1)]
        state = nn.AdamState.for_params(p)
        for _ in range(400):
            nn.adam_step(p, [np.full(1, grad)], state, lr)
        assert abs(p[0][0] - values[-1]) < 1e-12

    def test_first_step_hand_formula(self):
        grad, lr = 0.3, 0.01
        p = [np.array([1.0])]
        state = nn.AdamState.for_params(p)
        nn.adam_step(p, [np.array([grad])], state, lr)
        expected = 1.0 - lr * grad / (abs(grad) + 1e-8)
        assert abs(p[0][0] - expected) < 1e-15

    def test_nan_gradient_aborts(self):
        p = [np.zeros(2)]
        state = nn.AdamState.for_params(p)
        with pytest.raises(NumericsError, match="parameter 0"):
            nn.adam_step(p, [np.array([1.0, np.nan])], state, 0.01)


class TestPlateauScheduler:
    def test_improving_losses_keep_lr(self):
        state = nn.SchedulerState(current_lr=1e-3)
        for loss in np.linspace(5.0, 1.0, 40):
            state = nn.plateau_step(state, float(loss), 1e-6)
        assert state.current_lr == 1e-3

    def test_constant_loss_halves_every_patience_plus_one(self):
        period = nn.PLATEAU_PATIENCE + 1
        state = nn.SchedulerState(current_lr=1e-3)
        lrs = []
        for _ in range(12 * period):
            state = nn.plateau_step(state, 1.0, 1e-6)
            lrs.append(state.current_lr)
        # the first loss improves on inf; the rate then decays after every
        # patience + 1 stagnant epochs, clamped at 1e-6
        changes = [i for i in range(1, len(lrs)) if lrs[i] != lrs[i - 1]]
        assert changes[:4] == [period, 2 * period, 3 * period, 4 * period]
        assert lrs[period] == 1e-3 * nn.PLATEAU_FACTOR
        assert lrs[-1] == 1e-6

    def test_clamped_at_min_lr(self):
        state = nn.SchedulerState(current_lr=1e-6)
        for _ in range(3 * (nn.PLATEAU_PATIENCE + 1)):
            state = nn.plateau_step(state, 1.0, 1e-6)
        assert state.current_lr == 1e-6

    def test_lr_never_increases_on_random_losses(self):
        rng = seeded_rng(91)
        state = nn.SchedulerState(current_lr=1e-3)
        last = state.current_lr
        for _ in range(200):
            state = nn.plateau_step(state, float(rng.uniform(0, 5)), 1e-6)
            assert state.current_lr <= last
            assert state.current_lr >= 1e-6
            last = state.current_lr


class TestGradCheck:
    def test_zero_eps_rejected(self):
        with pytest.raises(ValidationError):
            grad_check(lambda: 0.0, [], [], eps=0.0)

    def test_float32_params_rejected(self):
        p = [np.zeros(2, dtype=np.float32)]
        with pytest.raises(ValidationError, match="float64"):
            grad_check(lambda: 0.0, p, [np.zeros(2)], eps=1e-5)

    def test_nondeterministic_closure_rejected(self):
        p = [np.zeros(1)]
        counter = {"n": 0}

        def loss():
            counter["n"] += 1
            return float(counter["n"])

        with pytest.raises(ValidationError, match="deterministic"):
            grad_check(loss, p, [np.zeros(1)], eps=1e-5)

    def test_wrong_gradient_detected(self):
        w = np.array([0.5, -1.5])

        def loss():
            return float(0.5 * (w ** 2).sum())

        assert grad_check(loss, [w], [w.copy()], eps=1e-6) <= 1e-8
        assert grad_check(loss, [w], [2.0 * w], eps=1e-6) >= 0.4

    def test_per_layer_gradients_across_seeds(self):
        # every layer's analytic gradient within 1e-4 of central differences
        for seed in range(5):
            p = random_params(3, 4, seed=200 + seed)
            xs = seeded_rng(300 + seed).uniform(-1, 1, (3, 1, 3))
            w = seeded_rng(400 + seed).uniform(-1, 1, (5, 4))
            b = np.zeros(5)
            target = [seed % 5]
            params = [p.w_x, p.w_h, p.b, w, b]

            def loss():
                hs, _ = run_cell(xs, p)
                return float(nn.softmax_cross_entropy_batch(hs[-1] @ w.T + b, target)[0][0])

            hs, caches = run_cell(xs, p)
            _, dlogits = nn.softmax_cross_entropy_batch(hs[-1] @ w.T + b, target)
            grad_h = np.zeros((3, 1, 4))
            grad_h[-1] = dlogits @ w
            grads = list(cell_grads(xs, caches, grad_h, p)[:3])
            grads += [dlogits.T @ hs[-1], dlogits.sum(axis=0)]
            assert grad_check(loss, params, grads, eps=1e-5) <= 1e-4
