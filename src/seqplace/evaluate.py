"""Ground-truth tolerant precision-recall analysis, AUC, tolerance sweeps,
max recall at full precision, and wall-clock latency benchmarking."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .core import MatchScores, PrCurve, ValidationError, atomic_open

TOLERANCE_KINDS = ("frames", "meters")


@dataclass(frozen=True)
class GroundTruth:
    """Correct reference index per query, with a tolerance for correctness.

    In frames mode a prediction is correct when |predicted - map| <= radius;
    in meters mode when the predicted and true reference poses are within
    radius of each other (reference poses supplied at evaluation time).
    """

    map: np.ndarray
    tolerance_kind: str = "frames"
    radius: float = 0.0

    def __post_init__(self):
        gt = np.array(self.map, dtype=np.int64)
        if gt.ndim != 1 or gt.size < 1:
            raise ValidationError("ground-truth map must be a non-empty vector")
        if (gt < 0).any():
            raise ValidationError("ground-truth indices must be non-negative")
        if self.tolerance_kind not in TOLERANCE_KINDS:
            raise ValidationError(
                f"tolerance_kind must be one of {TOLERANCE_KINDS}, got {self.tolerance_kind!r}"
            )
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise ValidationError(f"radius must be finite and non-negative, got {self.radius}")
        gt.flags.writeable = False
        object.__setattr__(self, "map", gt)


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock deployment cost of one matcher on one dataset size.

    rep_seconds keeps the raw per-repetition wall times; min(rep_seconds)
    is the noise-robust cost floor for cross-size comparisons.
    """

    matcher: str
    n_frames: int
    n_queries: int
    total_seconds: float
    mean_us_per_query: float
    p95_us_per_query: float
    repetitions: int
    rep_seconds: tuple = ()

    def __post_init__(self):
        if self.total_seconds < self.mean_us_per_query * 1e-6 * self.n_queries * 0.5:
            raise ValidationError("latency report fails its sanity bound")

    @property
    def min_us_per_query(self) -> float:
        if not self.rep_seconds:
            return self.mean_us_per_query
        return min(self.rep_seconds) / self.n_queries * 1e6


def _correct_mask(predicted: np.ndarray, gt: GroundTruth, ref_poses,
                  n_places: int | None) -> np.ndarray:
    if gt.map.shape[0] != predicted.shape[0]:
        raise ValidationError(
            f"{predicted.shape[0]} score rows but {gt.map.shape[0]} ground-truth entries"
        )
    if gt.tolerance_kind == "frames":
        if n_places is not None and (gt.map >= n_places).any():
            raise ValidationError("ground-truth index beyond the number of places")
        return np.abs(predicted - gt.map) <= gt.radius
    if ref_poses is None:
        raise ValidationError("meters-mode evaluation needs reference poses")
    ref_poses = np.asarray(ref_poses, dtype=np.float64)
    if ref_poses.ndim != 2 or ref_poses.shape[1] != 2:
        raise ValidationError(f"reference poses must be (N, 2), got {ref_poses.shape}")
    needed = max(int(predicted.max()), int(gt.map.max()))
    if needed >= ref_poses.shape[0]:
        raise ValidationError(
            f"reference poses cover {ref_poses.shape[0]} frames but index {needed} is needed"
        )
    dist = np.linalg.norm(ref_poses[predicted] - ref_poses[gt.map], axis=1)
    return dist <= gt.radius


def _sweep_points(confidence: np.ndarray, correct: np.ndarray) -> list:
    n = confidence.shape[0]
    order = np.argsort(-confidence, kind="stable")
    sorted_conf = confidence[order]
    cum_tp = np.cumsum(correct[order])
    thresholds = np.unique(confidence)[::-1]
    # last position with confidence >= threshold, for each threshold
    counts = np.searchsorted(-sorted_conf, -thresholds, side="right")
    points = []
    for thr, retrieved in zip(thresholds, counts):
        retrieved = int(retrieved)
        tp = int(cum_tp[retrieved - 1]) if retrieved > 0 else 0
        precision = tp / retrieved if retrieved > 0 else 1.0
        points.append((float(thr), precision, tp / n))
    return points


def pr_curve_from_arrays(predicted, confidence, gt: GroundTruth, ref_poses=None,
                         n_places: int | None = None) -> PrCurve:
    predicted = np.asarray(predicted, dtype=np.int64)
    confidence = np.asarray(confidence, dtype=np.float64)
    if predicted.shape != confidence.shape or predicted.ndim != 1:
        raise ValidationError("predicted and confidence must be equal-length vectors")
    correct = _correct_mask(predicted, gt, ref_poses, n_places)
    points = _sweep_points(confidence, correct)
    return PrCurve(points=tuple(points), auc=_auc_points(points),
                   max_recall_at_full_precision=_max_recall_points(points))


def pr_curve(scores: MatchScores, gt: GroundTruth, ref_poses=None) -> PrCurve:
    """Sweep the threshold over every distinct confidence, highest first.

    A query is retrieved when its confidence meets the threshold; retrieved
    queries within tolerance are true positives. Precision is 1.0 when
    nothing is retrieved.
    """
    return pr_curve_from_arrays(scores.predicted, scores.confidence, gt,
                                ref_poses=ref_poses, n_places=scores.n_places)


def _auc_points(points) -> float:
    """Trapezoid over recall, anchored at (0, precision of the first point)."""
    area = 0.0
    last_recall = 0.0
    last_precision = points[0][1]
    for _, precision, recall in points:
        area += (recall - last_recall) * (precision + last_precision) / 2.0
        last_recall, last_precision = recall, precision
    return area


def _max_recall_points(points) -> float:
    best = 0.0
    for _, precision, recall in points:
        if precision == 1.0 and recall > best:
            best = recall
    return best


def auc_vs_tolerance(scores: MatchScores, gt_map, radii, kind: str = "frames",
                     ref_poses=None) -> list:
    """One (radius, auc) row per tolerance, on the same scores."""
    radii = list(radii)
    if not radii:
        raise ValidationError("radii must be non-empty")
    rows = []
    for radius in radii:
        gt = GroundTruth(map=gt_map, tolerance_kind=kind, radius=float(radius))
        rows.append((float(radius), pr_curve(scores, gt, ref_poses=ref_poses).auc))
    return rows


def bench_latency(matcher, dataset, repetitions: int, n_queries: int,
                  name: str = "matcher", n_frames: int | None = None) -> LatencyReport:
    """Time full query passes: one warm-up (excluded), then `repetitions`
    measured runs of matcher(dataset)."""
    if repetitions < 3:
        raise ValidationError(f"repetitions must be at least 3, got {repetitions}")
    if n_queries < 1:
        raise ValidationError("n_queries must be positive")
    try:
        matcher(dataset)  # warm-up, excluded from timing
    except Exception as exc:
        raise ValidationError(f"{name} failed during warm-up: {exc}") from exc
    times = []
    for rep in range(repetitions):
        start = time.perf_counter()
        try:
            matcher(dataset)
        except Exception as exc:
            raise ValidationError(f"{name} failed at repetition {rep}: {exc}") from exc
        times.append(time.perf_counter() - start)
    times = np.asarray(times)
    per_query_us = times / n_queries * 1e6
    return LatencyReport(
        matcher=name,
        n_frames=n_queries if n_frames is None else n_frames,
        n_queries=n_queries,
        total_seconds=float(times.sum()),
        mean_us_per_query=float(per_query_us.mean()),
        p95_us_per_query=float(np.percentile(per_query_us, 95)),
        repetitions=repetitions,
        rep_seconds=tuple(float(t) for t in times),
    )


# --- plain-text output ---------------------------------------------------------

def write_pr_csv(path, curve: PrCurve) -> None:
    with atomic_open(path) as fh:
        fh.write("threshold,precision,recall\n")
        for thr, precision, recall in curve.points:
            fh.write(f"{thr!r},{precision!r},{recall!r}\n")


def write_auc_csv(path, rows) -> None:
    with atomic_open(path) as fh:
        fh.write("radius,auc\n")
        for radius, value in rows:
            fh.write(f"{float(radius)!r},{float(value)!r}\n")


def latency_report_json(report: LatencyReport) -> dict:
    return {
        "matcher": report.matcher,
        "n_frames": report.n_frames,
        "n_queries": report.n_queries,
        "total_seconds": report.total_seconds,
        "mean_us_per_query": report.mean_us_per_query,
        "p95_us_per_query": report.p95_us_per_query,
        "min_us_per_query": report.min_us_per_query,
        "repetitions": report.repetitions,
        "rep_seconds": list(report.rep_seconds),
    }


def write_latency_json(path, reports) -> None:
    with atomic_open(path) as fh:
        json.dump([latency_report_json(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
