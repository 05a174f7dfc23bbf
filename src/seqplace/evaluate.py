"""Ground-truth tolerant precision-recall curves, with their AUC and max
recall at full precision, and wall-clock latency benchmarking."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .core import CURVE_BLOCK_BYTES, NumericsError, PrCurve, ValidationError, atomic_open
from .ingest import write_table

TOLERANCE_KINDS = ("frames", "meters")


@dataclass(frozen=True)
class GroundTruth:
    """Correct reference index per query, with a tolerance for correctness.

    In frames mode a prediction is correct when |predicted - map| <= radius;
    in meters mode when the predicted and true reference poses are within
    radius of each other (reference poses supplied at evaluation time).
    radius is one tolerance, or a vector of them for a sweep.
    """

    map: np.ndarray
    tolerance_kind: str = "frames"
    radius: float | np.ndarray = 0.0

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
        radius = np.array(self.radius, dtype=np.float64)
        if radius.ndim > 1 or radius.size < 1 or not (np.isfinite(radius) & (radius >= 0)).all():
            raise ValidationError(f"radius must be finite non-negative numbers, got {self.radius}")
        gt.flags.writeable = radius.flags.writeable = False
        object.__setattr__(self, "map", gt)
        object.__setattr__(self, "radius", float(radius) if radius.ndim == 0 else radius)


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock deployment cost of one matcher on one dataset size.

    rep_seconds keeps the raw per-repetition wall times and every summary
    derives from them; min_us_per_query, from min(rep_seconds), is the
    noise-robust cost floor for cross-size comparisons.
    """

    matcher: str
    n_frames: int
    n_queries: int
    rep_seconds: tuple

    def _per_query_us(self) -> np.ndarray:
        return np.asarray(self.rep_seconds) / self.n_queries * 1e6

    @property
    def repetitions(self) -> int:
        return len(self.rep_seconds)

    @property
    def total_seconds(self) -> float:
        return float(np.asarray(self.rep_seconds).sum())

    @property
    def mean_us_per_query(self) -> float:
        return float(self._per_query_us().mean())

    @property
    def p95_us_per_query(self) -> float:
        return float(np.percentile(self._per_query_us(), 95))

    @property
    def min_us_per_query(self) -> float:
        return min(self.rep_seconds) / self.n_queries * 1e6


def _errors(predicted: np.ndarray, gt: GroundTruth, ref_poses) -> np.ndarray:
    """Each query's distance from its true place, in gt's tolerance units."""
    if gt.map.shape[0] != predicted.shape[0]:
        raise ValidationError(
            f"{predicted.shape[0]} score rows but {gt.map.shape[0]} ground-truth entries"
        )
    if gt.tolerance_kind == "frames":
        return np.abs(predicted - gt.map)
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
    return np.linalg.norm(ref_poses[predicted] - ref_poses[gt.map], axis=1)


def pr_curve_from_arrays(predicted, confidence, gt: GroundTruth, ref_poses=None) -> PrCurve:
    """Sweep the threshold over every distinct confidence, highest first.

    A query is retrieved when its confidence meets the threshold; retrieved
    queries within tolerance are true positives. Precision is TP over
    retrieved, recall TP over all queries. A vector gt.radius gives a stack
    of curves, one row per radius, from one ranking of the confidences: the
    (R, T) precision and recall are its only arrays of that size, the radii
    going in blocks whose temporaries stay under CURVE_BLOCK_BYTES.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    confidence = np.asarray(confidence, dtype=np.float64)
    if predicted.shape != confidence.shape or predicted.ndim != 1:
        raise ValidationError("predicted and confidence must be equal-length vectors")
    error = _errors(predicted, gt, ref_poses)
    # the thresholds, -values, are the distinct confidences, highest first
    values, counts = np.unique(-confidence, return_counts=True)
    retrieved = np.cumsum(counts)  # queries with confidence >= threshold
    ranked = error[np.argsort(-confidence, kind="stable")]  # most confident first
    radius, shape = np.atleast_1d(gt.radius), np.shape(gt.radius) + values.shape
    precision, recall = np.empty(shape), np.empty(shape)
    rows = max(1, CURVE_BLOCK_BYTES // (8 * ranked.size))  # radii per block
    for i in range(0, radius.size, rows):
        tp = np.cumsum(ranked <= radius[i:i + rows, None], 1)[:, retrieved - 1]
        np.divide(tp, retrieved, out=precision.reshape(-1, values.size)[i:i + rows])
        np.divide(tp, ranked.size, out=recall.reshape(-1, values.size)[i:i + rows])
    precision.flags.writeable = recall.flags.writeable = False  # PrCurve keeps them uncopied
    return PrCurve(threshold=-values, precision=precision, recall=recall)


def bench_latency(cases, repetitions: int) -> list:
    """Time full passes of each case's run(), given as (name, n_frames,
    n_queries, run) tuples: one untimed warm-up per case, then `repetitions`
    rounds that time one run of every case in turn, so a host slowdown
    lasting seconds hits every case alike. One LatencyReport per case."""
    if repetitions < 3:
        raise ValidationError(f"repetitions must be at least 3, got {repetitions}")
    if any(n_queries < 1 for _, _, n_queries, _ in cases):
        raise ValidationError("n_queries must be positive")
    times = [[] for _ in cases]
    for rep in range(-1, repetitions):  # round -1 is the warm-up, dropped below
        for (name, _, _, run), kept in zip(cases, times):
            start = time.perf_counter()
            try:
                run()
            except Exception as exc:
                when = f"at repetition {rep}" if rep >= 0 else "during warm-up"
                # a numerical fault keeps its class, so the command exits 2 on it
                kind = NumericsError if isinstance(exc, NumericsError) else ValidationError
                raise kind(f"{name} failed {when}: {exc}") from exc
            kept.append(time.perf_counter() - start)
    return [LatencyReport(matcher=name, n_frames=n_frames, n_queries=n_queries,
                          rep_seconds=tuple(kept[1:]))
            for (name, n_frames, n_queries, _), kept in zip(cases, times)]


# --- plain-text output ---------------------------------------------------------

def write_pr_csv(path, threshold, precision, recall) -> None:
    write_table(path, "threshold,precision,recall",
                zip(threshold.tolist(), precision.tolist(), recall.tolist()))


def write_auc_csv(path, rows) -> None:
    """rows: (radius, auc) pairs of floats."""
    write_table(path, "radius,auc", rows)


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
