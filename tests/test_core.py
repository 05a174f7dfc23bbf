import dataclasses

import numpy as np
import pytest

from oracles import score_matrix
from seqplace import classic, core
from seqplace.core import (
    CURVE_BLOCK_BYTES,
    DescriptorSequence,
    FormatError,
    MatchScores,
    ModelConfig,
    NumericsError,
    PoseSequence,
    PrCurve,
    Rescaled,
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
        m = MatchScores.from_scores([scores], 3)
        assert m.predicted.tolist() == [0, 1]
        assert m.confidence.tolist() == [0.5, 0.9]
        assert (m.n_queries, m.n_places) == (2, 3)

    def test_invariants_enforced_on_direct_construction(self):
        scores = np.array([[0.1, 0.9], [0.7, 0.2]])
        m = MatchScores([scores], 2)
        assert m.predicted.tolist() == [1, 0]
        assert m.confidence.tolist() == [0.9, 0.7]
        with pytest.raises(TypeError):
            MatchScores([scores], 2, predicted=np.array([0, 0]),
                        confidence=np.array([0.1, 0.7]))
        with pytest.raises(ValidationError, match="2-d"):
            MatchScores([np.array([0.1, 0.9])], 2)
        with pytest.raises(ValidationError, match="3 columns"):
            MatchScores([scores], 3)
        with pytest.raises(ValidationError, match="at least one"):
            MatchScores([], 2)
        with pytest.raises(NumericsError, match="query 0, place 1"):
            MatchScores([np.array([[0.1, np.nan]])], 2)

    def test_blocks_reduce_like_the_stacked_matrix(self):
        rng = seeded_rng(0)
        scores = np.round(rng.random((23, 7)), 1)  # ties within rows
        whole = MatchScores.from_scores([scores], 7)
        assert whole.predicted.tolist() == scores.argmax(axis=1).tolist()
        assert whole.confidence.tolist() == scores.max(axis=1).tolist()
        for cuts in ([1], [5, 6, 20], [0, 0, 23], list(range(1, 23))):
            blocks = np.split(scores, cuts)
            m = MatchScores.from_scores(iter(blocks), 7)
            assert np.array_equal(m.predicted, whole.predicted)
            assert np.array_equal(m.confidence, whole.confidence)
            assert not (m.predicted.flags.writeable or m.confidence.flags.writeable)

    def test_float32_rows_give_float64_confidence(self):
        scores = seeded_rng(1).random((4, 5)).astype(np.float32)
        m = MatchScores.from_scores([scores[:3], scores[3:]], 5)
        assert m.confidence.dtype == np.float64
        assert np.array_equal(m.confidence, scores.max(axis=1).astype(np.float64))

    def test_monotone_transform_keeps_predictions(self):
        rng = seeded_rng(5)
        scores = rng.random((7, 9))
        before = MatchScores.from_scores([scores], 9)
        after = MatchScores.from_scores([np.exp(3.0 * scores) + 2.0], 9)
        assert np.array_equal(before.predicted, after.predicted)

    def test_from_scores_rejects_non_finite_with_location(self):
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.zeros((7, 4))
            scores[5, 1] = bad
            with pytest.raises(NumericsError, match="query 5, place 1"):
                MatchScores.from_scores([scores], 4)
            # counted across blocks
            with pytest.raises(NumericsError, match="query 5, place 1"):
                MatchScores.from_scores(np.split(scores, [2, 4, 6]), 4)

    def test_extreme_finite_values_accepted(self):
        scores = np.full((3, 4), 1e308)
        scores[1, 2] = 1.5e308
        assert MatchScores.from_scores([scores], 4).predicted.tolist() == [0, 2, 0]
        data = np.full((2, 3), 3e38, dtype=np.float32)
        assert DescriptorSequence(data=data).n_frames == 2


def near_ties(rng, n_queries, n_places):
    """Distances whose scores tie although they differ by a few ulps, the
    larger distance at the lower index: 1000 - d rounds them together."""
    d = rng.uniform(10.0, 1000.0, (n_queries, n_places))
    d[0, 0], d[-1, -1] = 0.0, 1000.0
    for q in range(n_queries):
        i = int(rng.integers(1, n_places)) if n_places > 1 else 0
        d[q, i] = rng.uniform(0.5, 2.0)
        for j in rng.integers(0, i, 3) if i else ():
            d[q, j] = d[q, i] + int(rng.integers(1, 4)) * np.spacing(d[q, i])
    return d


class TestRescaled:
    @staticmethod
    def cases(rng):
        yield from (near_ties(rng, int(rng.integers(1, 30)), int(rng.integers(1, 40)))
                    for _ in range(40))
        yield np.round(rng.uniform(0, 5, (17, 23)), 1)  # exact ties
        yield np.full((6, 5), 2.5)                        # constant: all ones
        yield rng.uniform(0, 5, (1, 31))                  # one query
        yield rng.uniform(0, 5, (19, 1))                  # one place
        yield rng.uniform(1e6, 1e6 + 1e-3, (12, 9))       # a span of a few ulps

    @pytest.mark.parametrize("block_bytes", [8, 8 * 3 * 40, None])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_top1_equals_materialized_scores(self, monkeypatch, layout, block_bytes):
        # C distances are read query by query; F distances (the transpose of
        # a C place-by-query matrix) place by place; a budget of 8 bytes
        # takes one row or column at a time, None the library's own budget
        if block_bytes is not None:
            monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
        rng = seeded_rng(31)
        for d in self.cases(rng):
            [record] = classic.pairwise_rows(np.array(d.T, order=layout))
            if min(d.shape) > 1:
                assert record.distances.flags.c_contiguous == (layout == "F")
            want = score_matrix([record])
            got = MatchScores.from_scores([record], d.shape[1])
            assert np.array_equal(got.predicted, want.argmax(axis=1))
            assert np.array_equal(got.confidence, want.max(axis=1))

    def test_near_ties_pick_the_lower_index(self):
        rng = seeded_rng(32)
        d = near_ties(rng, 50, 30)
        record = Rescaled(d)
        want = score_matrix([record]).argmax(axis=1)
        # the ties are real: in many rows the smallest distance is not the argmax
        assert (want != d.argmin(axis=1)).sum() > 10
        assert np.array_equal(MatchScores.from_scores([record], 30).predicted, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distance_is_named(self, bad, order):
        # queries count across blocks; the first bad distance in query order
        # is named whatever the memory order, and a NaN or +inf hi does not
        # move the name onto the cells it would turn into NaN scores
        d = seeded_rng(33).uniform(0, 5, (7, 6))
        d[5, 2] = d[6, 0] = bad
        record = Rescaled(np.array(d, order=order))
        with pytest.raises(NumericsError, match=r"^non-finite distance at query 7, place 2$"):
            MatchScores.from_scores([np.zeros((2, 6)), record], 6)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_all_infinite_record_is_not_constant(self, bad):
        # hi == lo, but hi - lo is NaN: a fault, not a record of all-one scores
        with pytest.raises(NumericsError, match=r"^non-finite distance at query 0, place 0$"):
            MatchScores.from_scores([Rescaled(np.full((3, 4), bad))], 4)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overflowing_span_names_the_least_distance(self, order):
        d = seeded_rng(34).uniform(0, 5, (7, 6))
        d[3, 4], d[5, 1] = 1.7e308, -1.7e308  # finite, but hi - lo is not
        record = Rescaled(np.array(d, order=order))
        with pytest.raises(NumericsError, match=r"^distance span overflows at query 7, place 1$"):
            MatchScores.from_scores([np.zeros((2, 6)), record], 6)


class TestPrCurve:
    def test_recall_must_not_decrease(self):
        with pytest.raises(ValidationError):
            PrCurve(threshold=[0.9, 0.8], precision=[1.0, 1.0], recall=[0.5, 0.25])

    def test_ranges_checked(self):
        with pytest.raises(ValidationError):
            PrCurve(threshold=[0.9], precision=[1.5], recall=[0.5])

    def test_stack_checks_every_row(self):
        threshold = [0.9, 0.8]
        with pytest.raises(ValidationError, match="non-decreasing"):
            PrCurve(threshold=threshold, precision=[[1.0, 1.0], [1.0, 1.0]],
                    recall=[[0.25, 0.5], [0.5, 0.25]])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            PrCurve(threshold=threshold, precision=[[1.0, 1.0], [1.0, 1.5]],
                    recall=[[0.25, 0.5], [0.25, 0.5]])

    def test_keeps_read_only_owning_arrays_and_copies_the_rest(self):
        threshold = np.array([0.9, 0.8])
        frozen = np.array([0.5, 0.75])
        frozen.flags.writeable = False
        writeable = np.array([1.0, 0.5])
        curve = PrCurve(threshold=threshold, precision=writeable, recall=frozen)
        assert curve.recall is frozen
        assert curve.precision is not writeable and not curve.precision.flags.writeable
        assert curve.threshold is not threshold and not curve.threshold.flags.writeable
        view = np.array([[0.5, 0.75]])[0]  # read-only, but its base may still change
        view.flags.writeable = False
        assert PrCurve(threshold=threshold, precision=writeable, recall=view).recall is not view

    def test_stack_spanning_several_blocks_derives_each_row(self):
        rng = seeded_rng(35)
        n_points = 4000
        assert CURVE_BLOCK_BYTES // (8 * n_points) < 5  # more than one block of curves
        recall = np.sort(rng.random((5, n_points)), axis=1)
        precision = rng.random((5, n_points))
        precision[:, ::7] = 1.0
        stack = PrCurve(threshold=np.linspace(1, 0, n_points), precision=precision, recall=recall)
        for i in range(5):
            row = PrCurve(threshold=stack.threshold, precision=precision[i], recall=recall[i])
            assert stack.auc[i] == row.auc
            assert stack.max_recall_at_full_precision[i] == row.max_recall_at_full_precision
        recall[4, 100] = 0.0
        with pytest.raises(ValidationError, match="non-decreasing"):
            PrCurve(threshold=stack.threshold, precision=precision, recall=recall)

    def test_stack_derives_each_row_like_a_single_curve(self):
        threshold = [0.9, 0.8, 0.7]
        precision = [[1.0, 0.5, 2 / 3], [0.0, 0.5, 1 / 3], [1.0, 1.0, 1.0]]
        recall = [[1 / 3, 1 / 3, 2 / 3], [0.0, 1 / 3, 1 / 3], [1 / 3, 2 / 3, 1.0]]
        stack = PrCurve(threshold=threshold, precision=precision, recall=recall)
        for i in range(3):
            row = PrCurve(threshold=threshold, precision=precision[i], recall=recall[i])
            assert stack.auc[i] == row.auc
            assert stack.max_recall_at_full_precision[i] == row.max_recall_at_full_precision
        assert stack.max_recall_at_full_precision.tolist() == [1 / 3, 0.0, 1.0]

    @pytest.mark.parametrize("threshold, precision, recall", [
        ([0.9, 0.8], [1.0], [0.5]),
        ([], [], []),
        ([[0.9]], [[1.0]], [[0.5]]),
        ([0.9], [[[1.0]]], [[[0.5]]]),
        ([0.9], [[1.0], [1.0]], [[0.5]]),
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

    def test_repeated_key_rejected(self, tmp_path):
        # the last value would silently win: two epochs, not two hundred
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 200\n# training length\n\nepochs = 2\n")
        with pytest.raises(FormatError, match=r"c\.cfg:4: repeated key 'epochs'"):
            read_config_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nepochs = 10  # customary default\nshuffle = false\n"
                        "variant = spl\n")
        cfg = train_config_from_mapping(read_config_file(path))
        assert cfg.epochs == 10 and cfg.shuffle is False

    def test_unknown_key_rejected(self):
        for key in ("epoch", "Epochs", "learning_rate", "weight-decay", "weight_decay", ""):
            with pytest.raises(ValidationError, match=f"unknown config key '{key}'"):
                train_config_from_mapping({"seed": "1", key: "3"})

    def test_model_keys_accepted_and_ignored(self):
        model = dataclasses.asdict(ModelConfig(variant="spl", descriptor_dim=8,
                                               num_places=20, tw=4))
        raw = {key: str(value) for key, value in model.items()}
        assert train_config_from_mapping({**raw, "epochs": "3"}) == TrainConfig(epochs=3)
