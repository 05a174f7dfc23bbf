import dataclasses

import numpy as np
import pytest

from seqplace.core import (
    DescriptorSequence,
    MatchScores,
    ModelConfig,
    NumericsError,
    PoseSequence,
    PrCurve,
    TrainConfig,
    ValidationError,
    atomic_open,
    read_config_file,
    seeded_rng,
    train_config_from_mapping,
    write_config_file,
)
from seqplace.evaluate import write_auc_csv


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).standard_normal(100)
        b = seeded_rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seeds_diverge(self):
        a = seeded_rng(42).standard_normal(10)
        b = seeded_rng(43).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_zero_seed_valid(self):
        assert seeded_rng(0).standard_normal(5).shape == (5,)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            seeded_rng(-1)


class TestDescriptorSequence:
    def test_basic(self):
        d = DescriptorSequence(data=[[1.0, 2.0], [3.0, 4.0]])
        assert d.n_frames == 2 and d.dim == 2
        assert not d.data.flags.writeable

    def test_nan_rejected_with_location(self):
        with pytest.raises(ValidationError, match="frame 1, dim 0"):
            DescriptorSequence(data=[[1.0, 2.0], [np.nan, 4.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DescriptorSequence(data=np.zeros((0, 3)))


class TestPoseSequence:
    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            PoseSequence(data=np.zeros((4, 3)))

    def test_ok(self):
        p = PoseSequence(data=np.zeros((4, 2)))
        assert p.n_frames == 4


class TestModelConfig:
    def test_for_traversal_sets_num_places(self):
        cfg = ModelConfig.for_traversal(120, 5, variant="spl", descriptor_dim=32)
        assert cfg.num_places == 115

    def test_mismatched_num_places_rejected(self):
        cfg = ModelConfig(variant="spl", descriptor_dim=32, num_places=99, tw=5)
        with pytest.raises(ValidationError):
            cfg.check_total_frames(120)

    def test_tw_bounds(self):
        with pytest.raises(ValidationError):
            ModelConfig.for_traversal(10, 10, variant="spl", descriptor_dim=4)
        with pytest.raises(ValidationError):
            ModelConfig.for_traversal(10, 0, variant="spl", descriptor_dim=4)

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            ModelConfig(variant="cnn", descriptor_dim=4, num_places=3, tw=2)


class TestTrainConfig:
    def test_lr_ordering(self):
        with pytest.raises(ValidationError):
            TrainConfig(initial_lr=1e-7, min_lr=1e-6)

    def test_factor_range(self):
        with pytest.raises(ValidationError):
            TrainConfig(scheduler_factor=1.0)

    def test_batch_all(self):
        assert TrainConfig(batch_size="all").batch_size == "all"
        with pytest.raises(ValidationError):
            TrainConfig(batch_size="most")

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0


class TestMatchScores:
    def test_from_scores_ties_pick_lowest_index(self):
        scores = np.array([[0.5, 0.5, 0.1], [0.2, 0.9, 0.9]])
        m = MatchScores.from_scores(scores)
        assert m.predicted.tolist() == [0, 1]
        assert m.confidence.tolist() == [0.5, 0.9]

    def test_invariants_enforced_on_direct_construction(self):
        scores = np.array([[0.1, 0.9], [0.7, 0.2]])
        m = MatchScores(scores)
        assert m.predicted.tolist() == [1, 0]
        assert m.confidence.tolist() == [0.9, 0.7]
        with pytest.raises(TypeError):
            MatchScores(scores=scores, predicted=np.array([0, 0]),
                        confidence=np.array([0.1, 0.7]))
        with pytest.raises(ValidationError, match="2-d"):
            MatchScores(np.array([0.1, 0.9]))
        with pytest.raises(NumericsError, match="query 0, place 1"):
            MatchScores(np.array([[0.1, np.nan]]))

    def test_takes_ownership_without_copy(self):
        scores = seeded_rng(0).random((4, 3))
        m = MatchScores.from_scores(scores)
        assert m.scores is scores
        assert not scores.flags.writeable

    def test_monotone_transform_keeps_predictions(self):
        rng = seeded_rng(5)
        scores = rng.random((7, 9))
        before = MatchScores.from_scores(scores)
        after = MatchScores.from_scores(np.exp(3.0 * scores) + 2.0)
        assert np.array_equal(before.predicted, after.predicted)

    def test_from_scores_rejects_non_finite_with_location(self):
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.zeros((3, 4))
            scores[2, 1] = bad
            with pytest.raises(NumericsError, match="query 2, place 1"):
                MatchScores.from_scores(scores)


class TestPrCurve:
    def test_recall_must_not_decrease(self):
        with pytest.raises(ValidationError):
            PrCurve(threshold=[0.9, 0.8], precision=[1.0, 1.0], recall=[0.5, 0.25])

    def test_ranges_checked(self):
        with pytest.raises(ValidationError):
            PrCurve(threshold=[0.9], precision=[1.5], recall=[0.5])

    @pytest.mark.parametrize("threshold, precision, recall", [
        ([0.9, 0.8], [1.0], [0.5]),
        ([], [], []),
        ([[0.9]], [[1.0]], [[0.5]]),
    ])
    def test_point_vectors_must_be_equal_length_and_non_empty(self, threshold,
                                                              precision, recall):
        with pytest.raises(ValidationError, match="equal-length"):
            PrCurve(threshold=threshold, precision=precision, recall=recall)


class TestAtomicOpen:
    def test_failed_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write("header\n")
                raise RuntimeError("killed part-way")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_open(target, binary=True) as fh:
            fh.write(b"complete")

        def rows():
            yield (1.0, 0.5)
            raise RuntimeError("killed part-way")

        with pytest.raises(RuntimeError):
            write_auc_csv(target, rows())
        assert target.read_bytes() == b"complete"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_permissions_match_plain_open(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        with atomic_open(tmp_path / "atomic") as fh:
            fh.write("x")
        assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode


class TestConfigFileRoundTrip:
    def test_model_config(self, tmp_path):
        # the model keys a checkpoint's .config records, as the file spells them
        cfg = ModelConfig(variant="baseline", descriptor_dim=4096, num_places=3567,
                          tw=10, hidden_size=512, pose_weight=500.0)
        path = tmp_path / "model.cfg"
        write_config_file(path, dataclasses.asdict(cfg))
        assert read_config_file(path) == {
            "variant": "baseline", "descriptor_dim": "4096", "num_places": "3567",
            "tw": "10", "hidden_size": "512", "pose_weight": "500.0"}

    def test_train_config_awkward_floats(self, tmp_path):
        cfg = TrainConfig(initial_lr=0.0012345678901234567, min_lr=1e-6,
                          epochs=2718, batch_size=37, seed=99,
                          scheduler_factor=1.0 / 3.0, scheduler_patience=11,
                          shuffle=False)
        path = tmp_path / "train.cfg"
        write_config_file(path, dataclasses.asdict(cfg))
        assert train_config_from_mapping(read_config_file(path)) == cfg

    def test_random_round_trips(self, tmp_path):
        rng = seeded_rng(17)
        for trial in range(20):
            cfg = TrainConfig(
                initial_lr=float(10 ** rng.uniform(-4, -1)),
                min_lr=1e-9,
                epochs=int(rng.integers(1, 5000)),
                batch_size="all" if rng.random() < 0.5 else int(rng.integers(1, 512)),
                seed=int(rng.integers(0, 2 ** 31)),
                scheduler_factor=float(rng.uniform(0.05, 0.95)),
                scheduler_patience=int(rng.integers(1, 40)),
                shuffle=bool(rng.random() < 0.5),
            )
            path = tmp_path / f"cfg{trial}"
            write_config_file(path, dataclasses.asdict(cfg))
            assert train_config_from_mapping(read_config_file(path)) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nepochs = 10  # customary default\nshuffle = false\n"
                        "variant = spl\n")
        cfg = train_config_from_mapping(read_config_file(path))
        assert cfg.epochs == 10 and cfg.shuffle is False

    def test_unknown_key_rejected(self):
        for key in ("epoch", "Epochs", "learning_rate", "weight-decay", ""):
            with pytest.raises(ValidationError, match=f"unknown config key '{key}'"):
                train_config_from_mapping({"seed": "1", key: "3"})

    def test_model_keys_accepted_and_ignored(self):
        model = dataclasses.asdict(ModelConfig(variant="spl", descriptor_dim=8,
                                               num_places=20, tw=4))
        raw = {key: str(value) for key, value in model.items()}
        assert train_config_from_mapping({**raw, "epochs": "3"}) == TrainConfig(epochs=3)

    def test_nonzero_weight_decay_rejected(self, tmp_path):
        # weight decay is fixed at 0: .config files that record it as 0 load
        path = tmp_path / "c.cfg"
        for value in ("0", "0.0", "-0.0"):
            path.write_text(f"epochs = 3\nweight_decay = {value}\n")
            assert train_config_from_mapping(read_config_file(path)) == TrainConfig(epochs=3)
        for value in ("0.1", "1e-300", "nan", "none"):
            path.write_text(f"weight_decay = {value}\n")
            with pytest.raises(ValidationError, match="weight_decay"):
                train_config_from_mapping(read_config_file(path))
