import numpy as np
import pytest

from oracles import grad_check, linear, scalar_lstm_step, spl_window_scores
from seqplace import nn
from seqplace.core import (
    DescriptorSequence,
    FormatError,
    ModelConfig,
    PoseSequence,
    TrainConfig,
    ValidationError,
    seeded_rng,
)
from seqplace.ingest import apply_standardization, perturb_query, synth_traverse
from seqplace.spl import (
    _backward,
    _forward,
    _inputs,
    _window_frames,
    build_model,
    infer,
    load_checkpoint,
    parameter_list,
    save_checkpoint,
    train,
)


def tiny_config(variant="spl", n=8, hidden=12, n_out=16, tw=4):
    return ModelConfig(variant=variant, descriptor_dim=n, num_places=n_out, tw=tw,
                       hidden_size=hidden, pose_weight=500.0)


def forward(model, desc, pose):
    """Logits of one window of descriptors and standardized poses."""
    _, rows = _window_frames(np.array([0]), len(desc))
    logits, _ = _forward(model, _inputs(model, np.asarray(desc), np.asarray(pose)), rows)
    return logits[0]


def window_batch(model, desc, pose, starts, targets):
    """Summed loss of the windows at starts, through the training path, and
    its gradients in canonical order."""
    frames, rows = _window_frames(np.asarray(starts), model.config.tw)
    inputs = _inputs(model, desc[frames], pose[frames])
    logits, ctx = _forward(model, inputs, rows, keep_cache=True)
    losses, dlogits = nn.softmax_cross_entropy_batch(logits, targets)
    return float(losses.sum()), _backward(model, ctx, dlogits)


def params_equal(a, b):
    pa, pb = parameter_list(a), parameter_list(b)
    return len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb))


class TestBuildModel:
    def test_spl_wiring_dims(self):
        model = build_model(tiny_config(), seed=0)
        assert model.env_lstm.input_dim == 10      # n + 2
        assert model.spl_lstm.input_dim == 20      # n + hidden
        assert model.w_out.shape == (16, 12)

    def test_baseline_single_cell(self):
        model = build_model(tiny_config(variant="baseline"), seed=0)
        assert model.spl_lstm is None
        assert model.env_lstm.input_dim == 10

    def test_seed_determinism(self):
        a = build_model(tiny_config(), seed=9)
        b = build_model(tiny_config(), seed=9)
        assert params_equal(a, b)
        c = build_model(tiny_config(), seed=10)
        assert not params_equal(a, c)

    def test_forget_bias_initialized_to_one(self):
        model = build_model(tiny_config(), seed=0)
        h = model.config.hidden_size
        assert np.array_equal(model.env_lstm.b[h:2 * h], np.ones(h, np.float32))
        assert np.array_equal(model.env_lstm.b[:h], np.zeros(h, np.float32))


class TestForward:
    def test_tw_one_composes_step_and_linear(self):
        cfg = ModelConfig(variant="spl", descriptor_dim=5, num_places=7, tw=1,
                          hidden_size=6, pose_weight=500.0)
        model = build_model(cfg, seed=3)
        rng = seeded_rng(4)
        desc = rng.standard_normal((1, 5)).astype(np.float32)
        pose = rng.standard_normal((1, 2))
        logits = forward(model, desc, pose)

        zeros = [0.0] * 6
        x_env = desc[0].tolist() + (pose * 500.0).astype(np.float32)[0].tolist()
        env, second = model.env_lstm, model.spl_lstm
        h_env, _ = scalar_lstm_step(x_env, zeros, zeros, env.w_x.tolist(),
                                    env.w_h.tolist(), env.b.tolist())
        h_spl, _ = scalar_lstm_step(desc[0].tolist() + h_env, zeros, zeros,
                                    second.w_x.tolist(), second.w_h.tolist(),
                                    second.b.tolist())
        expected = linear(h_spl, model.w_out.tolist(), model.b_out.tolist())
        assert np.allclose(logits, expected, atol=1e-6)

    def test_zero_parameters_pass_through_bias(self):
        model = build_model(tiny_config(), seed=0)
        for p in parameter_list(model):
            p[...] = 0.0
        model.b_out[...] = np.arange(16, dtype=np.float32)
        rng = seeded_rng(5)
        logits = forward(model, rng.standard_normal((4, 8)).astype(np.float32),
                         rng.standard_normal((4, 2)))
        assert np.array_equal(logits, np.arange(16, dtype=np.float32))

    def test_pose_weight_irrelevant_for_zero_poses(self):
        cfg_a = tiny_config()
        cfg_b = ModelConfig(variant="spl", descriptor_dim=8, num_places=16, tw=4,
                            hidden_size=12, pose_weight=1000.0)
        a = build_model(cfg_a, seed=6)
        b = build_model(cfg_b, seed=6)
        rng = seeded_rng(7)
        desc = rng.standard_normal((4, 8)).astype(np.float32)
        zeros = np.zeros((4, 2))
        assert np.array_equal(forward(a, desc, zeros), forward(b, desc, zeros))

    def test_pose_weight_zero_ignores_pose_values(self):
        cfg = ModelConfig(variant="spl", descriptor_dim=8, num_places=16, tw=4,
                          hidden_size=12, pose_weight=0.0)
        model = build_model(cfg, seed=8)
        rng = seeded_rng(9)
        desc = rng.standard_normal((4, 8)).astype(np.float32)
        a = forward(model, desc, rng.standard_normal((4, 2)) * 50)
        b = forward(model, desc, rng.standard_normal((4, 2)) * -3)
        assert np.array_equal(a, b)

    def test_pure_function(self):
        model = build_model(tiny_config(), seed=10)
        rng = seeded_rng(11)
        desc = rng.standard_normal((4, 8)).astype(np.float32)
        pose = rng.standard_normal((4, 2))
        assert np.array_equal(forward(model, desc, pose), forward(model, desc, pose))

    def test_window_shape_mismatch(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ValidationError, match="dim"):
            infer(model, DescriptorSequence(data=np.ones((6, 7))),
                  PoseSequence(data=np.zeros((6, 2))))


def model_qualified_grad_check(variant, seed, n=8, hidden=12, n_out=16, tw=4):
    cfg = ModelConfig(variant=variant, descriptor_dim=n, num_places=n_out, tw=tw,
                      hidden_size=hidden, pose_weight=500.0)
    model = build_model(cfg, seed, dtype=np.float64)
    rng = seeded_rng(1000 + seed)
    desc = rng.standard_normal((tw, n))
    pose = rng.standard_normal((tw, 2)) * 0.002  # keep gates out of saturation
    targets = [seed % n_out]

    def loss():
        logits = forward(model, desc, pose)[None]
        return float(nn.softmax_cross_entropy_batch(logits, targets)[0][0])

    _, grads = window_batch(model, desc, pose, [0], targets)
    return grad_check(loss, parameter_list(model), grads, eps=1e-5)


class TestGradients:
    @pytest.mark.parametrize("variant", ["baseline", "spl"])
    def test_full_model_gradcheck_small(self, variant):
        err = model_qualified_grad_check(variant, seed=0, n=4, hidden=5, n_out=6, tw=3)
        assert err <= 1e-4

    @pytest.mark.parametrize("variant", ["baseline", "spl"])
    def test_batch_gradient_is_sum_of_window_gradients(self, variant):
        # overlapping windows share frames, so their per-frame gradient rows
        # must add up rather than overwrite each other
        model = build_model(tiny_config(variant), seed=5, dtype=np.float64)
        rng = seeded_rng(6)
        desc = rng.standard_normal((20, 8))
        pose = rng.standard_normal((20, 2)) * 0.002
        for starts in (np.arange(16), np.array([9, 2, 5, 14, 3, 11])):
            loss, grads = window_batch(model, desc, pose, starts, starts)
            want_loss = 0.0
            want = [np.zeros_like(g) for g in grads]
            for s in starts:
                loss_1, grads_1 = window_batch(model, desc, pose, [s], [s])
                want_loss += loss_1
                for acc, g in zip(want, grads_1):
                    acc += g
            assert abs(loss - want_loss) <= 1e-12
            for got, ref in zip(grads, want):
                assert np.abs(got - ref).max() <= 1e-12


class TestTrain:
    def test_zero_epochs_is_noop(self):
        env = synth_traverse(30, 8, seed=1)
        cfg = ModelConfig.for_traversal(30, 4, variant="spl", descriptor_dim=8,
                                        hidden_size=8)
        model = build_model(cfg, seed=2)
        trained, history = train(model, env.descriptors, env.poses, 4,
                                 TrainConfig(epochs=0))
        assert params_equal(model, trained)
        assert history.loss == []

    def test_wrong_num_places_rejected(self):
        env = synth_traverse(30, 8, seed=1)
        cfg = ModelConfig(variant="spl", descriptor_dim=8, num_places=10, tw=4,
                          hidden_size=8)
        model = build_model(cfg, seed=2)
        with pytest.raises(ValidationError, match="output layer"):
            train(model, env.descriptors, env.poses, 4, TrainConfig(epochs=1))

    @pytest.mark.parametrize("tw", [1, 2, 5])
    def test_windows_cover_all_but_the_last_frame(self, tw, monkeypatch):
        # N - tw windows labelled 0..N-tw-1; the last one ends at frame N-2
        n_frames = 12
        env = synth_traverse(n_frames, 8, seed=1)
        cfg = ModelConfig.for_traversal(n_frames, tw, variant="spl", descriptor_dim=8,
                                        hidden_size=8)
        assert cfg.num_places == n_frames - tw
        targets = []
        loss = nn.softmax_cross_entropy_batch

        def recording(logits, batch_targets):
            targets.extend(np.asarray(batch_targets).tolist())
            return loss(logits, batch_targets)

        monkeypatch.setattr(nn, "softmax_cross_entropy_batch", recording)
        config = TrainConfig(epochs=2, batch_size=3, seed=4)
        model = build_model(cfg, seed=2)
        trained, _ = train(model, env.descriptors, env.poses, tw, config)
        assert sorted(targets) == sorted(2 * list(range(n_frames - tw)))

        def train_with_frame_changed(frame):
            data = env.descriptors.data.copy()
            data[frame] = -data[frame]
            return train(model, DescriptorSequence(data=data), env.poses, tw, config)[0]

        assert params_equal(train_with_frame_changed(n_frames - 1), trained)
        assert not params_equal(train_with_frame_changed(n_frames - 2), trained)

    def test_loss_halves_within_fifty_epochs(self):
        # minibatches take several optimizer steps per epoch; full-batch
        # training moves too slowly for this bound at the default lr
        for seed in range(5):
            env = synth_traverse(120, 32, seed=100 + seed)
            cfg = ModelConfig.for_traversal(120, 5, variant="spl",
                                            descriptor_dim=32, hidden_size=64)
            model = build_model(cfg, seed=seed)
            _, history = train(model, env.descriptors, env.poses, 5,
                               TrainConfig(epochs=50, seed=seed, batch_size=16))
            assert history.loss[49] <= 0.5 * history.loss[0]

    def test_shuffle_toggle_changes_little(self):
        env = synth_traverse(100, 24, seed=31, smoothness=0.7)
        cfg = ModelConfig.for_traversal(100, 5, variant="spl", descriptor_dim=24,
                                        hidden_size=48)
        accs = []
        for shuffle in (True, False):
            model = build_model(cfg, seed=32)
            _, history = train(model, env.descriptors, env.poses, 5,
                               TrainConfig(epochs=400, seed=33, batch_size=16,
                                           shuffle=shuffle))
            accs.append(history.accuracy[-1])
        assert abs(accs[0] - accs[1]) <= 0.02

    def test_saturated_training_stays_off_subnormals(self, monkeypatch):
        # pose weight 500 saturates the gates; products of saturated gates
        # must be flushed before they reach the float32 subnormal range
        env = synth_traverse(60, 8, seed=3, smoothness=0.6)
        cfg = ModelConfig.for_traversal(60, 4, variant="spl", descriptor_dim=8,
                                        hidden_size=12, pose_weight=500.0)
        tiny = np.finfo(np.float32).tiny
        seen = {"subnormal": set(), "min_gate": 1.0}

        def check(name, values):
            magnitude = np.abs(values)
            if ((magnitude > 0) & (magnitude < tiny)).any():
                seen["subnormal"].add(name)

        step, backward = nn.lstm_step_batch, nn.lstm_step_backward

        def checked_step(*args):
            h, c, cache = step(*args)
            for name in ("i", "f", "g", "o", "tc"):
                check(name, getattr(cache, name))
            check("h", h)
            check("c", c)
            seen["min_gate"] = min(seen["min_gate"], float(cache.i.min()), float(cache.o.min()))
            return h, c, cache

        def checked_backward(*args):
            dz, dh_prev, dc_prev = backward(*args)
            check("dz", dz)
            return dz, dh_prev, dc_prev

        monkeypatch.setattr(nn, "lstm_step_batch", checked_step)
        monkeypatch.setattr(nn, "lstm_step_backward", checked_backward)
        train(build_model(cfg, seed=1), env.descriptors, env.poses, 4,
              TrainConfig(initial_lr=8e-3, epochs=5, seed=1))
        assert seen["min_gate"] < 1e-20, "gates did not saturate; the check is vacuous"
        assert seen["subnormal"] == set()

    def test_history_lr_non_increasing(self):
        env = synth_traverse(40, 8, seed=41)
        cfg = ModelConfig.for_traversal(40, 4, variant="spl", descriptor_dim=8,
                                        hidden_size=8)
        model = build_model(cfg, seed=42)
        _, history = train(model, env.descriptors, env.poses, 4,
                           TrainConfig(epochs=60, seed=43, scheduler_patience=3))
        lrs = history.lr
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


@pytest.fixture(scope="module")
def trained_small():
    env = synth_traverse(60, 16, seed=51, smoothness=0.7)
    cfg = ModelConfig.for_traversal(60, 4, variant="spl", descriptor_dim=16,
                                    hidden_size=32)
    model = build_model(cfg, seed=52)
    trained, history = train(model, env.descriptors, env.poses, 4,
                             TrainConfig(epochs=400, seed=53, batch_size=16))
    return env, trained, history


class TestInfer:
    def test_self_query_recovers_indices(self, trained_small):
        env, model, history = trained_small
        assert history.accuracy[-1] >= 0.99
        scores = infer(model, env.descriptors, env.poses)
        hits = (scores.predicted == np.arange(scores.n_queries)).mean()
        assert hits >= 0.99

    def test_rows_sum_to_one(self, trained_small):
        env, model, _ = trained_small
        scores = infer(model, env.descriptors, env.poses)
        assert np.allclose(scores.scores.sum(axis=1), 1.0, atol=1e-5)

    def test_noiseless_identity_query_equals_self_query(self, trained_small):
        env, model, _ = trained_small
        query, _ = perturb_query(env, noise_sigma=0.0, speed_warp=1.0, seed=54)
        a = infer(model, env.descriptors, env.poses)
        b = infer(model, query.descriptors, query.poses)
        assert np.array_equal(a.scores, b.scores)

    def test_query_shorter_than_tw_rejected(self, trained_small):
        env, model, _ = trained_small
        short = DescriptorSequence(data=env.descriptors.data[:3])
        poses = PoseSequence(data=env.poses.data[:3])
        with pytest.raises(ValidationError, match="at least"):
            infer(model, short, poses)

    def test_matches_scalar_reference(self, trained_small):
        env, model, _ = trained_small
        tw = model.config.tw
        std = apply_standardization(env.poses.data, model.pose_mu, model.pose_sigma)
        got = infer(model, env.descriptors, env.poses).scores
        for q in range(0, got.shape[0], 5):
            want = spl_window_scores(model, env.descriptors.data[q:q + tw], std[q:q + tw])
            assert np.allclose(got[q], want, atol=1e-6)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, trained_small):
        env, model, _ = trained_small
        path = tmp_path / "model.splm"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert params_equal(model, loaded)
        assert loaded.config == model.config
        assert np.array_equal(loaded.pose_mu, model.pose_mu)
        assert np.array_equal(loaded.pose_sigma, model.pose_sigma)
        a = infer(model, env.descriptors, env.poses)
        b = infer(loaded, env.descriptors, env.poses)
        assert np.array_equal(a.scores, b.scores)

    def test_wrong_magic_rejected(self, tmp_path, trained_small):
        _, model, _ = trained_small
        path = tmp_path / "model.splm"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path, trained_small):
        _, model, _ = trained_small
        path = tmp_path / "model.splm"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_variant_mismatch_rejected(self, tmp_path):
        cfg = ModelConfig(variant="baseline", descriptor_dim=4, num_places=6, tw=2,
                          hidden_size=4)
        model = build_model(cfg, seed=1)
        path = tmp_path / "baseline.splm"
        save_checkpoint(model, path)
        with pytest.raises(ValidationError, match="variant|baseline"):
            load_checkpoint(path, expected_variant="spl")

    def test_float64_model_not_persistable(self, tmp_path):
        model = build_model(tiny_config(), seed=1, dtype=np.float64)
        with pytest.raises(ValidationError, match="float32"):
            save_checkpoint(model, tmp_path / "x.splm")


class TestScoresProperties:
    def test_argmax_invariant_under_monotone_row_transform(self, trained_small):
        env, model, _ = trained_small
        scores = infer(model, env.descriptors, env.poses)
        from seqplace.core import MatchScores
        warped = MatchScores.from_scores(np.log(scores.scores + 1e-12) * 2 + 5)
        assert np.array_equal(scores.predicted, warped.predicted)
