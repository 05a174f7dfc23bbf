import numpy as np
import pytest

from oracles import pr_sweep_brute
from seqplace.core import MatchScores, ValidationError, seeded_rng
from seqplace.evaluate import GroundTruth, LatencyReport, bench_latency, pr_curve_from_arrays


def scores_from(predicted, confidence, n_places=None):
    """Build MatchScores whose argmax/confidence equal the given vectors."""
    predicted = np.asarray(predicted)
    confidence = np.asarray(confidence, dtype=np.float64)
    n_places = n_places or int(predicted.max()) + 1
    scores = np.full((len(predicted), n_places), -1.0)
    scores[np.arange(len(predicted)), predicted] = confidence
    return MatchScores.from_scores(scores)


def pr_curve(scores, gt, ref_poses=None):
    """PR curve of a matcher's best match and confidence per query."""
    return pr_curve_from_arrays(scores.predicted, scores.confidence, gt, ref_poses=ref_poses)


def auc_vs_tolerance(scores, gt_map, radii):
    """One (radius, auc) row per frames-mode tolerance, on the same scores."""
    return [(float(r), pr_curve(scores, GroundTruth(map=gt_map, radius=float(r))).auc)
            for r in radii]


def points(curve):
    """The curve as (threshold, precision, recall) tuples of Python floats."""
    return list(zip(curve.threshold.tolist(), curve.precision.tolist(),
                    curve.recall.tolist()))


class TestPrCurve:
    def test_perfect_matcher(self):
        m = scores_from([0, 1, 2, 3], [0.9, 0.8, 0.7, 0.6])
        curve = pr_curve(m, GroundTruth(map=[0, 1, 2, 3], radius=0))
        assert curve.auc == 1.0
        assert curve.max_recall_at_full_precision == 1.0
        assert all(p == 1.0 for _, p, _ in points(curve))
        assert points(curve)[-1][2] == 1.0

    def test_all_wrong(self):
        m = scores_from([1, 2, 3, 0], [0.9, 0.8, 0.7, 0.6])
        curve = pr_curve(m, GroundTruth(map=[0, 1, 2, 3], radius=0))
        assert curve.auc == 0.0
        assert all(p == 0.0 for _, p, _ in points(curve))

    def test_six_query_hand_case(self):
        confidence = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        correct = [True, True, False, True, False, True]
        predicted = [0, 1, 9, 3, 9, 5]
        m = scores_from(predicted, confidence, n_places=10)
        curve = pr_curve(m, GroundTruth(map=[0, 1, 2, 3, 4, 5], radius=0))
        want_points, area, best = pr_sweep_brute(confidence, correct)
        assert len(points(curve)) == 6
        for got, want in zip(points(curve), want_points):
            assert got == pytest.approx(want, abs=1e-12)
        assert curve.auc == pytest.approx(area, abs=1e-12)
        assert curve.max_recall_at_full_precision == pytest.approx(best, abs=1e-12)
        # precision sequence from direct enumeration
        assert [p for _, p, _ in points(curve)] == pytest.approx(
            [1.0, 1.0, 2 / 3, 3 / 4, 3 / 5, 4 / 6], abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = seeded_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            n_places = int(rng.integers(2, 30))
            predicted = rng.integers(0, n_places, n)
            # coarse confidences so threshold ties occur
            confidence = np.round(rng.random(n), 2)
            gt_map = rng.integers(0, n_places, n)
            radius = int(rng.integers(0, 4))
            m = scores_from(predicted, confidence, n_places=n_places)
            curve = pr_curve(m, GroundTruth(map=gt_map, radius=radius))
            correct = np.abs(predicted - gt_map) <= radius
            want_points, area, best = pr_sweep_brute(confidence, correct)
            assert len(points(curve)) == len(want_points)
            for got, want in zip(points(curve), want_points):
                assert got == pytest.approx(want, abs=1e-9)
            assert curve.auc == pytest.approx(area, abs=1e-9)
            assert curve.max_recall_at_full_precision == pytest.approx(best, abs=1e-9)

    def test_equals_brute_force_exactly_with_ties(self):
        # the oracle sums the AUC trapezoids in point order; a pairwise sum
        # (np.sum) changes the bits on most of these curves
        rng = seeded_rng(12)
        for trial in range(300):
            n = int(rng.integers(1, 301))
            predicted = rng.integers(0, 40, n)
            gt_map = rng.integers(0, 40, n)
            confidence = np.round(rng.random(n), int(rng.integers(1, 3)))
            radius = int(rng.integers(0, 8))
            curve = pr_curve_from_arrays(predicted, confidence,
                                         GroundTruth(map=gt_map, radius=radius))
            want_points, area, best = pr_sweep_brute(
                confidence, np.abs(predicted - gt_map) <= radius)
            assert points(curve) == want_points, f"trial {trial}"
            assert curve.auc == area, f"trial {trial}"
            assert curve.max_recall_at_full_precision == best, f"trial {trial}"

    def test_final_recall_equals_accuracy(self):
        rng = seeded_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            predicted = rng.integers(0, 10, n)
            gt_map = rng.integers(0, 10, n)
            m = scores_from(predicted, rng.random(n), n_places=10)
            curve = pr_curve(m, GroundTruth(map=gt_map, radius=1))
            accuracy = float(np.mean(np.abs(predicted - gt_map) <= 1))
            assert points(curve)[-1][2] == pytest.approx(accuracy, abs=1e-12)

    def test_monotone_confidence_transform_preserves_curve(self):
        rng = seeded_rng(7)
        predicted = rng.integers(0, 8, 30)
        confidence = rng.random(30)
        gt = GroundTruth(map=rng.integers(0, 8, 30), radius=1)
        base = pr_curve_from_arrays(predicted, confidence, gt)
        warped = pr_curve_from_arrays(predicted, np.exp(5 * confidence) + 3, gt)
        assert base.auc == warped.auc
        assert [(p, r) for _, p, r in points(base)] == [
            (p, r) for _, p, r in points(warped)]

    def test_length_mismatch_rejected(self):
        m = scores_from([0, 1], [0.5, 0.4])
        with pytest.raises(ValidationError):
            pr_curve(m, GroundTruth(map=[0, 1, 2], radius=0))

    def test_meters_mode_uses_reference_poses(self):
        poses = np.array([[0.0, 0.0], [10.0, 0.0], [10.5, 0.0], [30.0, 0.0]])
        m = scores_from([2, 0], [0.9, 0.8], n_places=4)
        gt = GroundTruth(map=[1, 3], tolerance_kind="meters", radius=1.0)
        curve = pr_curve(m, gt, ref_poses=poses)
        # query 0: pose(2)=10.5 vs pose(1)=10 -> within 1m; query 1: 0 vs 30 -> wrong
        assert points(curve)[-1][2] == pytest.approx(0.5)

    def test_meters_mode_requires_poses(self):
        m = scores_from([0], [0.9])
        with pytest.raises(ValidationError, match="poses"):
            pr_curve(m, GroundTruth(map=[0], tolerance_kind="meters", radius=1.0))

    @pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf])
    def test_radius_must_be_finite_and_non_negative(self, radius):
        with pytest.raises(ValidationError, match="radius"):
            GroundTruth(map=[0], radius=radius)


class TestAuc:
    def test_constant_full_precision(self):
        curve = pr_curve(scores_from([0, 1], [0.9, 0.8]),
                         GroundTruth(map=[0, 1], radius=0))
        assert curve.auc == 1.0

    def test_triangle(self):
        # points (0.9, 0, 0) and (0.8, 0.5, 0.5): one trapezoid from the
        # (0, 0) anchor, area 0.5 * (0 + 0.5) / 2
        curve = pr_curve(scores_from([5, 1], [0.9, 0.8], n_places=6),
                         GroundTruth(map=[0, 1], radius=0))
        assert points(curve) == [(0.9, 0.0, 0.0), (0.8, 0.5, 0.5)]
        assert curve.auc == pytest.approx(0.125)

    def test_max_recall_zero_when_first_retrieval_wrong(self):
        m = scores_from([5, 1, 2], [0.9, 0.8, 0.7], n_places=6)
        curve = pr_curve(m, GroundTruth(map=[0, 1, 2], radius=0))
        assert curve.max_recall_at_full_precision == 0.0


class TestAucVsTolerance:
    def test_saturated_radius_gives_one(self):
        rng = seeded_rng(8)
        m = scores_from(rng.integers(0, 10, 20), rng.random(20), n_places=10)
        rows = auc_vs_tolerance(m, rng.integers(0, 10, 20), [1000])
        assert rows[0][1] == 1.0

    def test_radius_zero_with_exact_predictions(self):
        m = scores_from([0, 1, 2], [0.9, 0.8, 0.7])
        rows = auc_vs_tolerance(m, [0, 1, 2], [0])
        assert rows[0][1] == 1.0

    def test_monotone_in_radius(self):
        rng = seeded_rng(9)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            m = scores_from(rng.integers(0, 20, n), rng.random(n), n_places=20)
            rows = auc_vs_tolerance(m, rng.integers(0, 20, n), list(range(0, 12)))
            values = [v for _, v in rows]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestBenchLatency:
    def test_noop_matcher_overhead_below_10us(self):
        report = bench_latency(lambda ds: None, None, 3, n_queries=1000, name="noop")
        assert report.mean_us_per_query < 10.0

    def test_failure_carries_repetition_index(self):
        calls = {"n": 0}

        def flaky(ds):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("boom")

        with pytest.raises(ValidationError, match="repetition 1"):
            bench_latency(flaky, None, 3, n_queries=10, name="flaky")

    def test_too_few_repetitions(self):
        with pytest.raises(ValidationError):
            bench_latency(lambda ds: None, None, 2, n_queries=1)

    def test_summaries_derive_from_rep_seconds(self):
        report = LatencyReport(matcher="x", n_frames=10, n_queries=10,
                               rep_seconds=(0.003, 0.001, 0.002))
        assert report.repetitions == 3
        assert report.total_seconds == pytest.approx(0.006)
        assert report.mean_us_per_query == pytest.approx(200.0)
        assert report.min_us_per_query == pytest.approx(100.0)
        assert report.p95_us_per_query == pytest.approx(290.0)
