"""Shared domain types, configuration records, and deterministic seeding."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

VARIANTS = ("baseline", "spl")


class SeqPlaceError(Exception):
    """Base error for this package."""


class ValidationError(SeqPlaceError):
    """Invalid inputs, shapes, or configuration."""


class FormatError(ValidationError):
    """Malformed or corrupt data file."""


class NumericsError(SeqPlaceError):
    """Non-finite values encountered while training or matching."""


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; equal seeds yield identical streams."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _owned(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _first_bad(data: np.ndarray):
    bad = ~np.isfinite(data)
    if bad.any():
        return tuple(int(k) for k in np.argwhere(bad)[0])
    return None


@dataclass(frozen=True)
class DescriptorSequence:
    """Per-frame global image descriptors, one row per frame."""

    data: np.ndarray
    frame_ids: np.ndarray | None = None

    def __post_init__(self):
        data = _owned(self.data, np.float32)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError(
                f"descriptor matrix must be 2-d and non-empty, got shape {np.shape(self.data)}"
            )
        loc = _first_bad(data)
        if loc is not None:
            raise ValidationError(
                f"non-finite descriptor value at frame {loc[0]}, dim {loc[1]}"
            )
        if self.frame_ids is None:
            ids = _owned(np.arange(data.shape[0]), np.int64)
        else:
            ids = _owned(self.frame_ids, np.int64)
            if ids.shape != (data.shape[0],):
                raise ValidationError(
                    f"frame_ids length {ids.shape} does not match {data.shape[0]} frames"
                )
            if (ids < 0).any():
                raise ValidationError("frame_ids must be non-negative")
            if data.shape[0] > 1 and not (np.diff(ids) > 0).all():
                raise ValidationError("frame_ids must be strictly increasing")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "frame_ids", ids)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PoseSequence:
    """2-d positional encoding per frame (meters or degrees, as provided)."""

    data: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        data = _owned(self.data, np.float64)
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 1:
            raise ValidationError(
                f"pose matrix must have shape (N, 2), got {np.shape(self.data)}"
            )
        loc = _first_bad(data)
        if loc is not None:
            raise ValidationError(f"non-finite pose value at frame {loc[0]}")
        object.__setattr__(self, "data", data)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings for the place-learning network."""

    variant: str
    descriptor_dim: int
    num_places: int
    tw: int
    hidden_size: int = 512
    pose_weight: float = 500.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        for name in ("descriptor_dim", "num_places", "tw", "hidden_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        if not np.isfinite(self.pose_weight):
            raise ValidationError("pose_weight must be finite")

    @classmethod
    def for_traversal(cls, total_frames: int, tw: int, *, variant: str,
                      descriptor_dim: int, hidden_size: int = 512,
                      pose_weight: float = 500.0) -> "ModelConfig":
        """Size the output layer as total_frames - tw, the one valid choice."""
        if not 1 <= tw < total_frames:
            raise ValidationError(
                f"tw must satisfy 1 <= tw < total_frames, got tw={tw}, total_frames={total_frames}"
            )
        return cls(variant=variant, descriptor_dim=descriptor_dim,
                   num_places=total_frames - tw, tw=tw,
                   hidden_size=hidden_size, pose_weight=pose_weight)

    def check_total_frames(self, total_frames: int) -> None:
        if self.num_places != total_frames - self.tw:
            raise ValidationError(
                f"num_places={self.num_places} but total_frames - tw = "
                f"{total_frames - self.tw}; the output layer must have one unit "
                "per temporal window"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for training runs."""

    initial_lr: float = 1e-3
    min_lr: float = 1e-6
    weight_decay: float = 0.0
    epochs: int = 200
    batch_size: int | str = "all"
    seed: int = 0
    scheduler_factor: float = 0.5
    scheduler_patience: int = 10
    shuffle: bool = True

    def __post_init__(self):
        if not (0.0 < self.min_lr <= self.initial_lr):
            raise ValidationError(
                f"need 0 < min_lr <= initial_lr, got min_lr={self.min_lr}, "
                f"initial_lr={self.initial_lr}"
            )
        if not (0.0 < self.scheduler_factor < 1.0):
            raise ValidationError(
                f"scheduler_factor must lie in (0, 1), got {self.scheduler_factor}"
            )
        if self.epochs < 0:
            raise ValidationError(f"epochs must be non-negative, got {self.epochs}")
        if self.scheduler_patience < 1:
            raise ValidationError("scheduler_patience must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if isinstance(self.batch_size, str):
            if self.batch_size != "all":
                raise ValidationError(
                    f'batch_size must be a positive integer or "all", got {self.batch_size!r}'
                )
        elif self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be non-negative")


@dataclass(frozen=True)
class MatchScores:
    """Per-query likelihood scores against every candidate place."""

    scores: np.ndarray       # (n_queries, n_places)
    predicted: np.ndarray    # (n_queries,) argmax place per query
    confidence: np.ndarray   # (n_queries,) score of the predicted place

    def __post_init__(self):
        scores = _owned(self.scores, np.float64)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ValidationError(f"scores must be 2-d, got shape {np.shape(self.scores)}")
        if _first_bad(scores) is not None:
            raise ValidationError("scores contain non-finite values")
        predicted = _owned(self.predicted, np.int64)
        confidence = _owned(self.confidence, np.float64)
        if predicted.shape != (scores.shape[0],) or confidence.shape != (scores.shape[0],):
            raise ValidationError("predicted/confidence must have one entry per query")
        expected = scores.argmax(axis=1)
        if not np.array_equal(predicted, expected):
            raise ValidationError("predicted must be the lowest-index argmax of each row")
        if not np.array_equal(confidence, scores[np.arange(scores.shape[0]), predicted]):
            raise ValidationError("confidence must equal the score of the predicted place")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "confidence", confidence)

    @classmethod
    def from_scores(cls, scores) -> "MatchScores":
        """Build from a score matrix, deriving predicted/confidence.

        Takes ownership of the array (it is frozen in place when possible)
        and skips the redundant invariant re-checks of the constructor. A
        non-finite score is a numerical fault of the producer: NumericsError.
        """
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ValidationError(f"scores must be 2-d, got shape {np.shape(scores)}")
        loc = _first_bad(scores)
        if loc is not None:
            raise NumericsError(f"non-finite score at query {loc[0]}, place {loc[1]}")
        predicted = scores.argmax(axis=1)
        confidence = scores[np.arange(scores.shape[0]), predicted]
        obj = object.__new__(cls)
        for name, arr in (("scores", scores), ("predicted", predicted),
                          ("confidence", confidence)):
            if arr.flags.owndata:
                arr.flags.writeable = False
            object.__setattr__(obj, name, arr)
        return obj

    @property
    def n_queries(self) -> int:
        return self.scores.shape[0]

    @property
    def n_places(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class PrCurve:
    """Threshold-swept precision/recall points, descending threshold order."""

    points: tuple  # ((threshold, precision, recall), ...)
    auc: float
    max_recall_at_full_precision: float

    def __post_init__(self):
        points = tuple((float(t), float(p), float(r)) for t, p, r in self.points)
        if not points:
            raise ValidationError("a PR curve needs at least one point")
        last_recall = 0.0
        for _, precision, recall in points:
            if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
                raise ValidationError("precision and recall must lie in [0, 1]")
            if recall < last_recall - 1e-12:
                raise ValidationError("recall must be non-decreasing as threshold drops")
            last_recall = recall
        if not (0.0 <= self.auc <= 1.0):
            raise ValidationError(f"auc must lie in [0, 1], got {self.auc}")
        if not (0.0 <= self.max_recall_at_full_precision <= 1.0):
            raise ValidationError("max_recall_at_full_precision must lie in [0, 1]")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "auc", float(self.auc))
        object.__setattr__(self, "max_recall_at_full_precision",
                           float(self.max_recall_at_full_precision))


# --- configuration file format: `key = value` lines, `#` comments ---------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config_file(path, values: Mapping[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {_format_value(value)}\n")


def read_config_file(path) -> dict:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def _as_int(raw, key):
    try:
        return int(raw[key])
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"config key {key!r} must be an integer") from exc


def _as_float(raw, key):
    try:
        return float(raw[key])
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"config key {key!r} must be a number") from exc


def _as_bool(raw, key):
    value = str(raw[key]).lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValidationError(f"config key {key!r} must be true or false")


def model_config_to_mapping(cfg: ModelConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)}


def model_config_from_mapping(raw: Mapping[str, str]) -> ModelConfig:
    kwargs = {
        "variant": str(raw["variant"]),
        "descriptor_dim": _as_int(raw, "descriptor_dim"),
        "num_places": _as_int(raw, "num_places"),
        "tw": _as_int(raw, "tw"),
    }
    if "hidden_size" in raw:
        kwargs["hidden_size"] = _as_int(raw, "hidden_size")
    if "pose_weight" in raw:
        kwargs["pose_weight"] = _as_float(raw, "pose_weight")
    return ModelConfig(**kwargs)


def train_config_to_mapping(cfg: TrainConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}


def train_config_from_mapping(raw: Mapping[str, str]) -> TrainConfig:
    kwargs = {}
    for key in ("initial_lr", "min_lr", "weight_decay", "scheduler_factor"):
        if key in raw:
            kwargs[key] = _as_float(raw, key)
    for key in ("epochs", "seed", "scheduler_patience"):
        if key in raw:
            kwargs[key] = _as_int(raw, key)
    if "batch_size" in raw:
        value = str(raw["batch_size"])
        kwargs["batch_size"] = "all" if value == "all" else _as_int(raw, "batch_size")
    if "shuffle" in raw:
        kwargs["shuffle"] = _as_bool(raw, "shuffle")
    return TrainConfig(**kwargs)
