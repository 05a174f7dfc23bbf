"""Acceptance gate: one test per criterion, each printing a PASS line.

Published full-scale results for this task depend on proprietary datasets
and pretrained descriptor extractors, so acceptance rests on exact
small-scale oracles plus trend reproduction on synthetic traversals.
Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from oracles import grad_check, pr_sweep_brute, seqslam_scores_brute
from seqplace import nn
from seqplace.classic import (
    SeqSlamConfig,
    contrast_enhance,
    seqslam_match,
    similarity_matrix,
    velocity_grid,
)
from seqplace.core import (
    DescriptorSequence,
    FormatError,
    MatchScores,
    ModelConfig,
    PoseSequence,
    TrainConfig,
    seeded_rng,
)
from seqplace.evaluate import GroundTruth, bench_latency, pr_curve_from_arrays
from seqplace.ingest import (
    load_descriptors,
    perturb_query,
    save_descriptors,
    synth_traverse,
)
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

ENV_SEED = 7
MODEL_SEED = 1
TRAIN_SEED = 3


@pytest.fixture(scope="module")
def canonical_env():
    return synth_traverse(120, 32, seed=ENV_SEED, smoothness=0.9)


@pytest.fixture(scope="module")
def noisy_query(canonical_env):
    return perturb_query(canonical_env, noise_sigma=0.1, speed_warp=1.0, seed=11)


@pytest.fixture(scope="module")
def warped_query(canonical_env):
    return perturb_query(canonical_env, noise_sigma=0.1,
                         speed_warp=[0.5, 2.0, 1.5, 0.7], seed=13)


def train_canonical(env, tw, epochs=500):
    cfg = ModelConfig.for_traversal(120, tw, variant="spl", descriptor_dim=32,
                                    hidden_size=64)
    model = build_model(cfg, seed=MODEL_SEED)
    return train(model, env.descriptors, env.poses, tw,
                 TrainConfig(epochs=epochs, seed=TRAIN_SEED))


@pytest.fixture(scope="module")
def model_tw2(canonical_env):
    return train_canonical(canonical_env, 2)


@pytest.fixture(scope="module")
def model_tw10(canonical_env):
    return train_canonical(canonical_env, 10)


def pr_curve(scores, gt, ref_poses=None):
    """PR curve of a matcher's best match and confidence per query."""
    return pr_curve_from_arrays(scores.predicted, scores.confidence, gt, ref_poses=ref_poses)


def frames_auc(scores, gt_map, radius):
    gt = GroundTruth(map=gt_map[:scores.n_queries], tolerance_kind="frames",
                     radius=radius)
    return pr_curve(scores, gt).auc


def seqslam_scores(env, query, ds):
    sim = similarity_matrix(env.descriptors, query.descriptors, metric="sad")
    cfg = SeqSlamConfig(ds=ds)
    return seqslam_match(contrast_enhance(sim, cfg.r_window), cfg)


def test_c1_gradient_correctness():
    """Full-model BPTT gradients match central finite differences."""
    start = time.perf_counter()
    worst = 0.0
    for variant in ("baseline", "spl"):
        for seed in range(5):
            cfg = ModelConfig(variant=variant, descriptor_dim=8, num_places=16,
                              tw=4, hidden_size=12, pose_weight=500.0)
            model = build_model(cfg, seed=seed, dtype=np.float64)
            rng = seeded_rng(900 + seed)
            desc = rng.standard_normal((4, 8))
            # small pose magnitudes keep every gate in its responsive range,
            # where finite differences are informative
            pose = rng.standard_normal((4, 2)) * 0.002
            targets = [seed % 16]
            params = parameter_list(model)
            _, rows = _window_frames(np.array([0]), 4)

            def loss():
                logits, _ = _forward(model, _inputs(model, desc, pose), rows)
                return float(nn.softmax_cross_entropy_batch(logits, targets)[0][0])

            logits, ctx = _forward(model, _inputs(model, desc, pose), rows, keep_cache=True)
            _, dlogits = nn.softmax_cross_entropy_batch(logits, targets)
            grads = _backward(model, ctx, dlogits)

            # eps balances truncation against roundoff: smaller steps drown
            # entries near the 1e-8 denominator floor in loss-evaluation
            # noise, larger ones reintroduce truncation error
            err = grad_check(loss, params, grads, eps=3e-4)
            worst = max(worst, err)
            assert err <= 1e-4, f"{variant} seed {seed}: rel err {err:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C1 gradient-correctness: PASS "
          f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_c2_synthetic_learnability(canonical_env, noisy_query):
    """120-frame env: training accuracy, perfect self-query, noisy-query AUC."""
    start = time.perf_counter()
    env = canonical_env
    model, history = train_canonical(env, 5)
    assert history.accuracy[-1] >= 0.99, f"final accuracy {history.accuracy[-1]}"

    self_scores = infer(model, env.descriptors, env.poses)
    self_auc = frames_auc(self_scores, np.arange(115), radius=0)
    assert self_auc == 1.0, f"self-query AUC {self_auc}"

    query, gt = noisy_query
    noisy_scores = infer(model, query.descriptors, query.poses)
    noisy_auc = frames_auc(noisy_scores, gt, radius=2)
    assert noisy_auc >= 0.99, f"noisy-query AUC {noisy_auc}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"learnability block took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C2 synthetic-learnability: PASS "
          f"(acc {history.accuracy[-1]:.3f}, self AUC {self_auc:.3f}, "
          f"noisy AUC {noisy_auc:.4f}, {elapsed:.1f}s)")


def test_c3_tw_sensitivity_trend(canonical_env, noisy_query, model_tw2, model_tw10):
    """Short windows barely hurt the learned matcher; they cripple the
    classical line search."""
    env = canonical_env
    query, gt = noisy_query

    spl_auc = {}
    for tw, (model, _) in ((2, model_tw2), (10, model_tw10)):
        spl_auc[tw] = frames_auc(infer(model, query.descriptors, query.poses),
                                 gt, radius=2)
    assert spl_auc[2] >= spl_auc[10] - 0.05, f"SPL AUCs {spl_auc}"

    seq_auc = {}
    for ds in (2, 10):
        seq_auc[ds] = frames_auc(seqslam_scores(env, query, ds), gt, radius=2)
    assert seq_auc[2] <= seq_auc[10] - 0.15, f"seqslam AUCs {seq_auc}"
    print(f"\nACCEPTANCE C3 tw-sensitivity-trend: PASS "
          f"(SPL tw2 {spl_auc[2]:.3f} vs tw10 {spl_auc[10]:.3f}; "
          f"seqslam ds2 {seq_auc[2]:.3f} vs ds10 {seq_auc[10]:.3f})")


def test_c4_velocity_robustness(canonical_env, warped_query, model_tw10):
    """Piecewise speed warp in [0.5, 2.0], meters-mode ground truth."""
    env = canonical_env
    query, gt = warped_query
    model, _ = model_tw10
    ref_poses = env.poses.data

    spl_scores = infer(model, query.descriptors, query.poses)
    spl_gt = GroundTruth(map=gt[:spl_scores.n_queries], tolerance_kind="meters",
                         radius=2.0)
    spl_auc = pr_curve(spl_scores, spl_gt, ref_poses=ref_poses).auc

    seq = seqslam_scores(env, query, ds=10)
    seq_gt = GroundTruth(map=gt, tolerance_kind="meters", radius=2.0)
    seq_auc = pr_curve(seq, seq_gt, ref_poses=ref_poses).auc

    assert spl_auc - seq_auc >= 0.20, f"SPL {spl_auc:.3f} vs seqslam {seq_auc:.3f}"
    print(f"\nACCEPTANCE C4 velocity-robustness: PASS "
          f"(SPL {spl_auc:.3f} vs seqslam {seq_auc:.3f}, meters radius 2)")


def test_c5_matcher_oracle():
    """Line search equals exhaustive enumeration exactly, 500 random instances."""
    rng = seeded_rng(500)
    for trial in range(500):
        ds = int(rng.integers(1, 5))
        n_ref = int(rng.integers(ds + 1, 11))
        n_query = int(rng.integers(ds + 1, 11))
        n_vel = int(rng.integers(1, 6))
        v_min = float(rng.uniform(0.4, 1.2))
        v_step = float(rng.uniform(0.05, 0.4))
        cfg = SeqSlamConfig(ds=ds, v_min=v_min,
                            v_max=v_min + v_step * (n_vel - 1) + v_step * 0.25,
                            v_step=v_step, r_window=2)
        velocities = velocity_grid(cfg)
        assert velocities.size == n_vel
        enhanced = rng.standard_normal((n_ref, n_query))
        got = seqslam_match(enhanced, cfg)
        want = seqslam_scores_brute(enhanced, ds, velocities.tolist())
        assert np.array_equal(got.scores, want), f"trial {trial} diverged"
    print("\nACCEPTANCE C5 matcher-oracle: PASS (500 instances, exact)")


def test_c6_pr_auc_oracle():
    """PR/AUC equals the brute-force threshold sweep; AUC monotone in radius."""
    rng = seeded_rng(600)
    for trial in range(200):
        n = int(rng.integers(1, 51))
        n_places = int(rng.integers(2, 60))
        predicted = rng.integers(0, n_places, n)
        confidence = np.round(rng.random(n), 2)
        gt_map = rng.integers(0, n_places, n)
        radius = int(rng.integers(0, 5))
        scores = np.full((n, n_places), -1.0)
        scores[np.arange(n), predicted] = confidence
        match = MatchScores.from_scores(scores)
        curve = pr_curve(match, GroundTruth(map=gt_map, radius=radius))
        correct = np.abs(predicted - gt_map) <= radius
        points, area, best = pr_sweep_brute(confidence, correct)
        got_points = list(zip(curve.threshold, curve.precision, curve.recall))
        assert len(got_points) == len(points)
        for got, want in zip(got_points, points):
            assert got == pytest.approx(want, abs=1e-9)
        assert curve.auc == pytest.approx(area, abs=1e-9)
        assert curve.max_recall_at_full_precision == pytest.approx(best, abs=1e-9)

        values = [pr_curve(match, GroundTruth(map=gt_map, radius=float(r))).auc
                  for r in range(1, 51)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), \
            f"trial {trial}: AUC not monotone in radius"
    print("\nACCEPTANCE C6 pr-auc-oracle: PASS (200 instances + radius sweeps)")


def test_c7_latency_scaling():
    """Classical matching scales with the map size; learned inference barely moves."""
    sizes = (500, 1000, 2000)
    dim, hidden, tw, q_frames, reps = 1024, 160, 10, 300, 4
    setups = {}
    for n_ref in sizes:
        env = synth_traverse(n_ref, dim, seed=21, smoothness=0.8)
        query, _ = perturb_query(env, noise_sigma=0.05, speed_warp=1.0, seed=22)
        qdesc = DescriptorSequence(data=query.descriptors.data[:q_frames])
        qpose = PoseSequence(data=query.poses.data[:q_frames])
        cfg = ModelConfig.for_traversal(n_ref, tw, variant="spl",
                                        descriptor_dim=dim, hidden_size=hidden)
        model = build_model(cfg, seed=5)

        def spl_matcher(ds, model=model):
            return infer(model, ds[0], ds[1])

        def seq_matcher(ds, env=env):
            sim = similarity_matrix(env.descriptors, ds[0], metric="sad")
            return seqslam_match(contrast_enhance(sim, 10), SeqSlamConfig(ds=tw))

        setups[n_ref] = (spl_matcher, seq_matcher, (qdesc, qpose))

    # two sweeps; the per-size minimum over all repetitions is the
    # scheduler-noise-robust cost floor. Each sweep times SPL at all sizes
    # back to back, then seqslam, so a host slowdown lasting seconds hits
    # every SPL size alike instead of one of them
    per_query = {n: [np.inf, np.inf] for n in sizes}
    for _sweep in range(2):
        for n_ref in sizes:
            spl_matcher, _, dataset = setups[n_ref]
            spl_report = bench_latency(spl_matcher, dataset, reps,
                                       n_queries=q_frames - tw, name="spl",
                                       n_frames=n_ref)
            per_query[n_ref][0] = min(per_query[n_ref][0], spl_report.min_us_per_query)
        for n_ref in sizes:
            _, seq_matcher, dataset = setups[n_ref]
            seq_report = bench_latency(seq_matcher, dataset, reps,
                                       n_queries=q_frames, name="seqslam",
                                       n_frames=n_ref)
            per_query[n_ref][1] = min(per_query[n_ref][1], seq_report.min_us_per_query)

    spl = [per_query[n][0] for n in sizes]
    seq = [per_query[n][1] for n in sizes]
    # classical search grows at least linearly (allowing fixed overhead)
    assert seq[1] >= 1.5 * seq[0], f"seqslam growth 500->1000: {seq[1] / seq[0]:.2f}x"
    assert seq[2] >= 1.5 * seq[1], f"seqslam growth 1000->2000: {seq[2] / seq[1]:.2f}x"
    assert seq[2] >= 3.0 * seq[0], f"seqslam growth 500->2000: {seq[2] / seq[0]:.2f}x"
    variation = (max(spl) - min(spl)) / min(spl)
    assert variation < 0.25, f"SPL per-query variation {variation:.3f}"
    ratio = seq[2] / spl[2]
    assert ratio >= 5.0, f"seqslam/SPL ratio at N=2000: {ratio:.2f}"
    print(f"\nACCEPTANCE C7 latency-scaling: PASS "
          f"(seqslam {seq[0]:.0f}/{seq[1]:.0f}/{seq[2]:.0f} us/q, "
          f"SPL {spl[0]:.0f}/{spl[1]:.0f}/{spl[2]:.0f} us/q, "
          f"variation {variation:.2f}, ratio {ratio:.1f}x)")


def test_c8_command_determinism(tmp_path):
    """Repeating any command with the same inputs and seed reproduces every
    output byte for byte."""
    from seqplace.cli import main

    outputs = {}
    for run_id in ("first", "second"):
        base = tmp_path / run_id
        synth = base / "synth"
        assert main(["synth", "--frames", "40", "--dim", "8", "--seed", "5",
                     "--noise", "0.05", "--warp", "1.0",
                     "--out", str(synth)]) == 0
        ckpt = base / "model.splm"
        assert main(["train", "--desc", str(synth / "ref_descriptors.spld"),
                     "--poses", str(synth / "ref_poses.csv"), "--tw", "3",
                     "--hidden", "8", "--epochs", "30", "--seed", "9",
                     "--out", str(ckpt)]) == 0
        scores = base / "scores.csv"
        assert main(["infer", "--ckpt", str(ckpt),
                     "--desc", str(synth / "query_descriptors.spld"),
                     "--poses", str(synth / "query_poses.csv"),
                     "--out", str(scores)]) == 0
        match = base / "match.csv"
        assert main(["match", "--ref", str(synth / "ref_descriptors.spld"),
                     "--query", str(synth / "query_descriptors.spld"),
                     "--method", "seqslam", "--ds", "4",
                     "--out", str(match)]) == 0
        outputs[run_id] = {
            "ref": (synth / "ref_descriptors.spld").read_bytes(),
            "query": (synth / "query_descriptors.spld").read_bytes(),
            "gt": (synth / "ground_truth.csv").read_bytes(),
            "ckpt": ckpt.read_bytes(),
            "history": (str(ckpt) + ".history.csv"),
            "scores": scores.read_bytes(),
            "match": match.read_bytes(),
        }
        outputs[run_id]["history"] = open(outputs[run_id]["history"], "rb").read()
    for key in outputs["first"]:
        assert outputs["first"][key] == outputs["second"][key], f"{key} differs"
    print("\nACCEPTANCE C8 determinism: PASS (synth/train/infer/match bit-identical)")


def test_c9_format_round_trips(tmp_path):
    """Descriptor files and checkpoints survive round trips bit-exactly and
    reject corruption."""
    rng = seeded_rng(90)
    data = rng.standard_normal((12, 6)).astype(np.float32)
    path = tmp_path / "d.spld"
    save_descriptors(path, DescriptorSequence(data=data))
    assert np.array_equal(load_descriptors(path).data, data)

    blob = bytearray(path.read_bytes())
    corrupted = tmp_path / "bad_magic.spld"
    corrupted.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError):
        load_descriptors(corrupted)
    truncated = tmp_path / "short.spld"
    truncated.write_bytes(bytes(blob[:-3]))
    with pytest.raises(FormatError):
        load_descriptors(truncated)

    env = synth_traverse(30, 8, seed=91)
    cfg = ModelConfig.for_traversal(30, 4, variant="spl", descriptor_dim=8,
                                    hidden_size=8)
    model, _ = train(build_model(cfg, seed=92), env.descriptors, env.poses, 4,
                     TrainConfig(epochs=2, seed=93))
    ckpt = tmp_path / "m.splm"
    save_checkpoint(model, ckpt)
    loaded = load_checkpoint(ckpt)
    for a, b in zip(parameter_list(model), parameter_list(loaded)):
        assert np.array_equal(a, b)
    assert np.array_equal(
        infer(model, env.descriptors, env.poses).scores,
        infer(loaded, env.descriptors, env.poses).scores)

    wrong = bytearray(ckpt.read_bytes())
    wrong[:4] = b"NOPE"
    bad_ckpt = tmp_path / "bad.splm"
    bad_ckpt.write_bytes(bytes(wrong))
    with pytest.raises(FormatError):
        load_checkpoint(bad_ckpt)
    with pytest.raises(Exception):
        load_checkpoint(ckpt, expected_variant="baseline")
    print("\nACCEPTANCE C9 format-round-trips: PASS")
