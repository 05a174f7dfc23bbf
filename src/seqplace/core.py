"""Shared domain types, configuration records, and deterministic seeding."""

from __future__ import annotations

import io
import os
import secrets
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
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
        object.__setattr__(self, "data", data)

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


@dataclass(frozen=True)
class MatchScores:
    """Per-query likelihood scores against every candidate place.

    Takes ownership of the score matrix (no copy when it is already
    C-contiguous float64; frozen in place when it owns its data) and derives
    predicted, the lowest-index argmax of each row, and confidence, the
    score there. A non-finite score is a numerical fault of the producer:
    NumericsError.
    """

    scores: np.ndarray                          # (n_queries, n_places)
    predicted: np.ndarray = field(init=False)   # (n_queries,)
    confidence: np.ndarray = field(init=False)  # (n_queries,)

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ValidationError(f"scores must be 2-d, got shape {np.shape(scores)}")
        loc = _first_bad(scores)
        if loc is not None:
            raise NumericsError(f"non-finite score at query {loc[0]}, place {loc[1]}")
        predicted = scores.argmax(axis=1)
        confidence = scores[np.arange(scores.shape[0]), predicted]
        for name, arr in (("scores", scores), ("predicted", predicted),
                          ("confidence", confidence)):
            if arr.flags.owndata:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_scores(cls, scores) -> "MatchScores":
        """The constructor under the name every producer calls."""
        return cls(scores)

    @property
    def n_queries(self) -> int:
        return self.scores.shape[0]

    @property
    def n_places(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class PrCurve:
    """Threshold-swept precision/recall points, descending threshold order.

    Derives auc, the trapezoid area over recall anchored at (0, first
    precision) and summed in point order, and max_recall_at_full_precision,
    the largest recall where precision is 1.0 (0.0 when there is none).
    """

    threshold: np.ndarray  # (n_points,)
    precision: np.ndarray  # (n_points,)
    recall: np.ndarray     # (n_points,)
    auc: float = field(init=False)
    max_recall_at_full_precision: float = field(init=False)

    def __post_init__(self):
        threshold = _owned(self.threshold, np.float64)
        precision = _owned(self.precision, np.float64)
        recall = _owned(self.recall, np.float64)
        if not (precision.ndim == 1 and precision.size >= 1
                and threshold.shape == precision.shape == recall.shape):
            raise ValidationError("a PR curve needs equal-length, non-empty point vectors")
        if not (((precision >= 0.0) & (precision <= 1.0)).all()
                and ((recall >= 0.0) & (recall <= 1.0)).all()):
            raise ValidationError("precision and recall must lie in [0, 1]")
        if (np.diff(recall) < -1e-12).any():
            raise ValidationError("recall must be non-decreasing as threshold drops")
        last_recall = np.concatenate(([0.0], recall[:-1]))
        last_precision = np.concatenate((precision[:1], precision[:-1]))
        # cumsum adds in point order; np.sum's pairwise order changes the bits
        area = np.cumsum((recall - last_recall) * (precision + last_precision) / 2.0)[-1]
        best = recall[precision == 1.0].max(initial=0.0)
        for name, value in (("threshold", threshold), ("precision", precision),
                            ("recall", recall), ("auc", float(area)),
                            ("max_recall_at_full_precision", float(best))):
            object.__setattr__(self, name, value)


# --- files -------------------------------------------------------------------

def open_text(path) -> io.StringIO:
    """Read a UTF-8 text file for line iteration, with the newline handling
    of text-mode open; bytes that are not UTF-8 raise FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return io.StringIO(blob.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


@contextmanager
def atomic_open(path, binary: bool = False):
    """Open path for writing (UTF-8 text, or bytes) so that it appears whole
    or not at all.

    The block writes a temporary file in path's directory, which replaces
    path (os.replace) when the block exits cleanly and is removed when it
    raises; a previous file at path is then left as it was.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


# --- configuration file format: `key = value` lines, `#` comments ---------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config_file(path, values: Mapping[str, object]) -> None:
    with atomic_open(path) as fh:
        for key, value in values.items():
            fh.write(f"{key} = {_format_value(value)}\n")


def read_config_file(path) -> dict:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored."""
    raw = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# how a .config value is read, for every key train writes there: TrainConfig's,
# the model keys (recorded, not read by training) and weight_decay, which
# older files record and which is fixed at 0
_CONFIG_KEYS = {
    "initial_lr": float, "min_lr": float, "scheduler_factor": float,
    "epochs": int, "seed": int, "scheduler_patience": int,
    "batch_size": lambda text: text if text == "all" else int(text),
    "shuffle": lambda text: _BOOLS[text.lower()],
    "weight_decay": float, **{f.name: str for f in fields(ModelConfig)},
}


def train_config_from_mapping(raw: Mapping[str, str]) -> TrainConfig:
    values = {}
    for key, text in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](str(text))
        except (ValueError, KeyError) as exc:
            raise ValidationError(f"config key {key!r} has a bad value {text!r}") from exc
    if values.pop("weight_decay", 0.0) != 0.0:
        raise ValidationError("weight_decay is fixed at 0; remove the key or set it to 0")
    return TrainConfig(**{f.name: values[f.name] for f in fields(TrainConfig)
                          if f.name in values})
