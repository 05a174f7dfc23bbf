import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import (
    FLUSH_MODE_AVAILABLE,
    grad_check,
    linear,
    scalar_lstm_step,
    spl_window_scores,
    subnormal_mask,
    subnormal_probe,
    traced_peak,
    widened,
)
from seqplace import nn, spl
from seqplace.core import (
    DescriptorSequence,
    FormatError,
    ModelConfig,
    NumericsError,
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
    save_checkpoint,
    score_rows,
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
    pa, pb = a.params, b.params
    return len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb))


class TestBuildModel:
    def test_spl_wiring_dims(self):
        env, second, w_out, _ = build_model(tiny_config(), seed=0).layers()
        assert env.w_x.shape[1] == 10  # n + 2
        assert second.w_x.shape[1] == 20  # n + hidden
        assert w_out.shape == (16, 12)

    def test_baseline_single_cell(self):
        env, second, _, _ = build_model(tiny_config(variant="baseline"), seed=0).layers()
        assert second is None
        assert env.w_x.shape[1] == 10

    def test_seed_determinism(self):
        a = build_model(tiny_config(), seed=9)
        b = build_model(tiny_config(), seed=9)
        assert params_equal(a, b)
        c = build_model(tiny_config(), seed=10)
        assert not params_equal(a, c)

    def test_forget_bias_initialized_to_one(self):
        model = build_model(tiny_config(), seed=0)
        h = model.config.hidden_size
        for cell in model.layers()[:2]:
            assert np.array_equal(cell.b[h:2 * h], np.ones(h, np.float32))
            assert np.array_equal(cell.b[:h], np.zeros(h, np.float32))
            assert np.array_equal(cell.b[2 * h:], np.zeros(2 * h, np.float32))

    @pytest.mark.parametrize("variant, digest", [
        ("spl", "dad237cf934fa5e80a91d44b3818183226764c75026404588091933e38d802bd"),
        ("baseline", "5c8d66da039e7ba49c087cd986e7c50f7635b2c232589e1b6171fcda30ce4297"),
    ])
    def test_initial_checkpoint_bytes_are_pinned(self, tmp_path, variant, digest):
        # the random stream, its order over the tensors, the forget biases and
        # the checkpoint layout, as one digest
        cfg = ModelConfig(variant, descriptor_dim=8, num_places=16, tw=4, hidden_size=12)
        path = tmp_path / "init.splm"
        save_checkpoint(build_model(cfg, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
        env, second, w_out, b_out = model.layers()
        h_env, _ = scalar_lstm_step(x_env, zeros, zeros, env.w_x.tolist(),
                                    env.w_h.tolist(), env.b.tolist())
        h_spl, _ = scalar_lstm_step(desc[0].tolist() + h_env, zeros, zeros,
                                    second.w_x.tolist(), second.w_h.tolist(),
                                    second.b.tolist())
        expected = linear(h_spl, w_out.tolist(), b_out.tolist())
        assert np.allclose(logits, expected, atol=1e-6)

    def test_zero_parameters_pass_through_bias(self):
        model = build_model(tiny_config(), seed=0)
        for p in model.params:
            p[...] = 0.0
        model.params[-1][...] = np.arange(16, dtype=np.float32)
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
    model = widened(build_model(cfg, seed))
    rng = seeded_rng(1000 + seed)
    desc = rng.standard_normal((tw, n))
    pose = rng.standard_normal((tw, 2)) * 0.002  # keep gates out of saturation
    targets = [seed % n_out]

    def loss():
        logits = forward(model, desc, pose)[None]
        return float(nn.softmax_cross_entropy_batch(logits, targets)[0][0])

    _, grads = window_batch(model, desc, pose, [0], targets)
    return grad_check(loss, model.params, grads, eps=1e-5)


class TestGradients:
    @pytest.mark.parametrize("variant", ["baseline", "spl"])
    def test_full_model_gradcheck_small(self, variant):
        err = model_qualified_grad_check(variant, seed=0, n=4, hidden=5, n_out=6, tw=3)
        assert err <= 1e-4

    @pytest.mark.parametrize("variant", ["baseline", "spl"])
    def test_batch_gradient_is_sum_of_window_gradients(self, variant):
        # overlapping windows share frames, so their per-frame gradient rows
        # must add up rather than overwrite each other
        model = widened(build_model(tiny_config(variant), seed=5))
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
        trained, history = train(model, env.descriptors, env.poses,
                                 TrainConfig(epochs=0))
        assert params_equal(model, trained)
        assert history.loss == []

    def test_wrong_num_places_rejected(self):
        env = synth_traverse(30, 8, seed=1)
        cfg = ModelConfig(variant="spl", descriptor_dim=8, num_places=10, tw=4,
                          hidden_size=8)
        model = build_model(cfg, seed=2)
        with pytest.raises(ValidationError, match="output layer"):
            train(model, env.descriptors, env.poses, TrainConfig(epochs=1))

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
        trained, _ = train(model, env.descriptors, env.poses, config)
        assert sorted(targets) == sorted(2 * list(range(n_frames - tw)))

        def train_with_frame_changed(frame):
            data = env.descriptors.data.copy()
            data[frame] = -data[frame]
            return train(model, DescriptorSequence(data=data), env.poses, config)[0]

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
            _, history = train(model, env.descriptors, env.poses,
                               TrainConfig(epochs=50, seed=seed, batch_size=16))
            assert history.loss[49] <= 0.5 * history.loss[0]

    def test_saturated_training_stays_off_subnormals(self, monkeypatch):
        # pose weight 500 saturates the gates; products of saturated gates
        # must not reach the float32 subnormal range: flush_tiny zeroes h and
        # dz, and the training mode flushes the intermediate products, which
        # would otherwise reach the cell-state gradient dc_prev. The mode
        # reads subnormals as zero, so values are classified by their bits.
        env = synth_traverse(60, 8, seed=3, smoothness=0.6)
        cfg = ModelConfig.for_traversal(60, 4, variant="spl", descriptor_dim=8,
                                        hidden_size=12, pose_weight=500.0)
        seen = {"subnormal": set(), "min_gate": 1.0}

        def check(name, values):
            if subnormal_mask(values).any():
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
            if FLUSH_MODE_AVAILABLE:
                check("dh_prev", dh_prev)
                check("dc_prev", dc_prev)
            return dz, dh_prev, dc_prev

        monkeypatch.setattr(nn, "lstm_step_batch", checked_step)
        monkeypatch.setattr(nn, "lstm_step_backward", checked_backward)
        train(build_model(cfg, seed=1), env.descriptors, env.poses,
              TrainConfig(initial_lr=8e-3, epochs=5, seed=1))
        assert seen["min_gate"] < 1e-20, "gates did not saturate; the check is vacuous"
        assert seen["subnormal"] == set()

    def test_numerics_error_leaves_the_float_mode_as_it_was(self, monkeypatch):
        env = synth_traverse(30, 8, seed=5)
        cfg = ModelConfig.for_traversal(30, 4, variant="spl", descriptor_dim=8,
                                        hidden_size=8)
        inside = []

        def nan_loss(logits, targets):
            inside.append(subnormal_probe())
            return np.full(len(targets), np.nan), np.zeros_like(logits)

        monkeypatch.setattr(nn, "softmax_cross_entropy_batch", nan_loss)
        with pytest.raises(NumericsError, match="non-finite loss"):
            train(build_model(cfg, seed=6), env.descriptors, env.poses,
                  TrainConfig(epochs=3, seed=7))
        if FLUSH_MODE_AVAILABLE:
            assert inside == [0]
        assert subnormal_mask(subnormal_probe())

    def test_history_lr_non_increasing(self):
        env = synth_traverse(40, 8, seed=41)
        cfg = ModelConfig.for_traversal(40, 4, variant="spl", descriptor_dim=8,
                                        hidden_size=8)
        model = build_model(cfg, seed=42)
        _, history = train(model, env.descriptors, env.poses,
                           TrainConfig(epochs=300, seed=43, initial_lr=0.03))
        # at this rate the loss stalls long enough for the plateau rule to act
        lrs = history.lr
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] < lrs[0]


@pytest.fixture(scope="module")
def trained_small():
    env = synth_traverse(60, 16, seed=51, smoothness=0.7)
    cfg = ModelConfig.for_traversal(60, 4, variant="spl", descriptor_dim=16,
                                    hidden_size=32)
    model = build_model(cfg, seed=52)
    trained, history = train(model, env.descriptors, env.poses,
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
        rows = np.vstack(list(score_rows(model, env.descriptors, env.poses)))
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-5)

    def test_noiseless_identity_query_equals_self_query(self, trained_small):
        env, model, _ = trained_small
        query, _ = perturb_query(env, noise_sigma=0.0, speed_warp=1.0, seed=54)
        a = np.vstack(list(score_rows(model, env.descriptors, env.poses)))
        b = np.vstack(list(score_rows(model, query.descriptors, query.poses)))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk", [1, 7, 512])
    def test_reduces_the_stacked_score_rows(self, trained_small, monkeypatch, chunk):
        # windows in one chunk, in chunks of 7 with a partial last one, one each
        env, model, _ = trained_small
        monkeypatch.setattr(spl, "_INFER_CHUNK", chunk)
        blocks = list(score_rows(model, env.descriptors, env.poses))
        assert [len(b) for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
        want = np.vstack(blocks)
        got = infer(model, env.descriptors, env.poses)
        assert np.array_equal(got.predicted, want.argmax(axis=1))
        assert np.array_equal(got.confidence, want.max(axis=1).astype(np.float64))
        assert got.n_places == model.config.num_places

    def test_peak_memory_below_one_score_matrix(self):
        # no (windows, places) float64 matrix: the chunks' float32 scores only
        n_places, tw, count = 3000, 4, 1200
        env = synth_traverse(n_places + tw, 8, seed=55)
        query = DescriptorSequence(data=env.descriptors.data[:count + tw])
        poses = PoseSequence(data=env.poses.data[:count + tw])
        model = build_model(ModelConfig.for_traversal(n_places + tw, tw, variant="spl",
                                                      descriptor_dim=8, hidden_size=8), 56)
        tracemalloc.start()
        try:
            infer(model, query, poses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * count * n_places

    def test_recurrence_runs_in_the_flush_mode(self, trained_small, monkeypatch):
        # the mode is on inside the recurrence, so a subnormal product reads 0
        # there, and off after infer returns or raises NumericsError
        env, model, _ = trained_small
        inside = []
        gates, softmax = nn.lstm_apply_gates, nn.softmax

        def probed_gates(*args):
            inside.append(subnormal_probe())
            return gates(*args)

        monkeypatch.setattr(nn, "lstm_apply_gates", probed_gates)
        infer(model, env.descriptors, env.poses)
        assert subnormal_mask(subnormal_probe())
        monkeypatch.setattr(nn, "softmax", lambda z: np.full_like(softmax(z), np.nan))
        with pytest.raises(NumericsError):
            infer(model, env.descriptors, env.poses)
        assert subnormal_mask(subnormal_probe())
        assert inside
        if FLUSH_MODE_AVAILABLE:
            assert not subnormal_mask(np.array(inside)).any()
        else:
            assert subnormal_mask(np.array(inside)).all()

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
        got = np.vstack(list(score_rows(model, env.descriptors, env.poses)))
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
        a = np.vstack(list(score_rows(model, env.descriptors, env.poses)))
        b = np.vstack(list(score_rows(loaded, env.descriptors, env.poses)))
        assert np.array_equal(a, b)

    def test_load_holds_one_copy_of_the_file(self, tmp_path):
        # the parameters are read-only views of the bytes read, not copies
        cfg = ModelConfig(variant="spl", descriptor_dim=8, num_places=30000, tw=2,
                          hidden_size=64)
        path = tmp_path / "big.splm"
        save_checkpoint(build_model(cfg, seed=3), path)
        tracemalloc.start()
        try:
            model = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bytes read, plus the one-byte-per-value mask of the finiteness check
        assert peak <= 1.25 * path.stat().st_size + (1 << 20)
        assert not any(p.flags.writeable for p in model.params)

    def test_save_makes_no_copy_of_the_parameters(self, tmp_path):
        # each float32 tensor goes to the file as it is: no bytes copies (the
        # parameters are 7.7 MB here)
        cfg = ModelConfig(variant="spl", descriptor_dim=8, num_places=30000, tw=2,
                          hidden_size=64)
        model = build_model(cfg, seed=3)
        assert traced_peak(lambda: save_checkpoint(model, tmp_path / "big.splm")) <= 1 << 20

    @pytest.mark.parametrize("variant", ["baseline", "spl"])
    def test_training_a_loaded_model_leaves_its_views_alone(self, tmp_path, variant):
        # the loaded parameters are read-only views of the file's bytes; train
        # works on writeable copies of them
        env = synth_traverse(30, 8, seed=1)
        cfg = ModelConfig.for_traversal(30, 4, variant=variant, descriptor_dim=8,
                                        hidden_size=8)
        path = tmp_path / "model.splm"
        save_checkpoint(build_model(cfg, seed=2), path)
        loaded = load_checkpoint(path)
        views = loaded.params
        before = [v.tobytes() for v in views]
        trained, _ = train(loaded, env.descriptors, env.poses, TrainConfig(epochs=2))
        arrays = trained.params
        assert [v.tobytes() for v in views] == before
        assert all(a.flags.writeable for a in arrays)
        assert not any(np.shares_memory(a, v) for a in arrays for v in views)
        assert not params_equal(loaded, trained)  # and training did move them

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

    def test_negative_pose_sigma_rejected(self, tmp_path, trained_small):
        # a negative standard deviation would flip that axis of the query poses
        _, model, _ = trained_small
        path = tmp_path / "model.splm"
        with pytest.raises(ValidationError, match="negative pose standard deviation"):
            save_checkpoint(dataclasses.replace(model, pose_sigma=np.array([1.5, -1.5])), path)
        assert not path.exists()
        # sigma[1] follows the 28-byte header, the pose weight, mu and sigma[0]
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[60:68] = np.array(-1.5, "<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="negative pose standard deviation"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["pose_mu", "pose_sigma"])
    def test_non_finite_pose_statistics_not_saved(self, tmp_path, trained_small, name):
        _, model, _ = trained_small
        path = tmp_path / "model.splm"
        for bad in (np.nan, np.inf):
            values = np.array([1.0, bad])
            with pytest.raises(ValidationError, match="non-finite pose"):
                save_checkpoint(dataclasses.replace(model, **{name: values}), path)
            assert not path.exists()

    def test_variant_round_trips(self, tmp_path):
        cfg = ModelConfig(variant="baseline", descriptor_dim=4, num_places=6, tw=2,
                          hidden_size=4)
        model = build_model(cfg, seed=1)
        path = tmp_path / "baseline.splm"
        save_checkpoint(model, path)
        assert load_checkpoint(path).config.variant == "baseline"

    def test_float64_model_not_persistable(self, tmp_path):
        model = widened(build_model(tiny_config(), seed=1))
        with pytest.raises(ValidationError, match="float32"):
            save_checkpoint(model, tmp_path / "x.splm")


class TestScoresProperties:
    def test_argmax_invariant_under_monotone_row_transform(self, trained_small):
        env, model, _ = trained_small
        scores = infer(model, env.descriptors, env.poses)
        from seqplace.core import MatchScores
        rows = np.vstack(list(score_rows(model, env.descriptors, env.poses)))
        warped = MatchScores.from_scores([np.log(rows + 1e-12) * 2 + 5], scores.n_places)
        assert np.array_equal(scores.predicted, warped.predicted)
