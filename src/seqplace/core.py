"""Shared domain types, configuration records, and deterministic seeding."""

from __future__ import annotations

import io
import os
import secrets
from contextlib import contextmanager, suppress
from dataclasses import InitVar, dataclass, field, fields
from typing import Iterable, Mapping, NamedTuple

import numpy as np

VARIANTS = ("baseline", "spl")
BLOCK_BYTES = 256 * 1024  # a block of the classical matchers' work stays in a core's L2
CURVE_BLOCK_BYTES = 64 * 1024  # PR-sweep temporaries stay under malloc's 128 KiB mmap threshold


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
    if (isinstance(values, np.ndarray) and values.base is None and values.dtype == dtype
            and values.flags.c_contiguous and not values.flags.writeable):
        return values  # read-only and owning its memory: a copy would guard nothing
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _first_bad(data: np.ndarray):
    if np.isfinite((data.min(), data.max())).all():  # no mask unless one is bad
        return None
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
        if not np.isfinite(self.initial_lr):
            raise ValidationError(f"initial_lr must be finite, got {self.initial_lr}")
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


def _rescale(d, lo, hi):
    return np.subtract(hi, d) / (hi - lo)


class Rescaled(NamedTuple):
    """Score rows given as distances, one row per query: the scores are
    (hi - d) / (hi - lo), or all ones when hi == lo, where lo and hi are the
    least and the greatest distance. MatchScores reduces them without forming
    them, reading BLOCK_BYTES of distances at a time in their memory order."""

    distances: np.ndarray

    def top1(self):
        """Each row's lowest-index argmax and the score there, or None when
        a score may not be finite."""
        d = self.distances
        dmin = d.min(axis=1)
        lo, hi = dmin.min(), d.max()
        with np.errstate(over="ignore", invalid="ignore"):  # a fault, raised by the caller
            span = hi - lo
        if not np.isfinite(span):  # also when a row minimum is not finite
            return None
        if hi == lo:
            return np.zeros(d.shape[0], np.intp), np.ones(d.shape[0])
        # a score never rises with d under round-to-nearest, so each row's
        # best is its score at dmin, and its argmaxes lie at or below any t
        # that scores lower: only those candidates need their score formed
        best = _rescale(dmin, lo, hi)
        margin = 4 * np.finfo(np.float64).eps * (abs(dmin) + abs(hi) + (hi - lo))
        while (short := _rescale(dmin + margin, lo, hi) >= best).any():
            margin[short] *= 2
        t = dmin + margin
        predicted = np.full(d.shape[0], d.shape[1])
        place_major = d.strides[1] > d.strides[0]  # the transpose of a C (place, query) array
        m = d.T if place_major else d
        step = max(1, BLOCK_BYTES // (8 * m.shape[1]))
        mask = np.empty((min(step, m.shape[0]), m.shape[1]), bool)
        for k in range(0, m.shape[0], step):
            piece, below = m[k:k + step], mask[:min(step, m.shape[0] - k)]
            np.less_equal(piece, t if place_major else t[k:k + step, None], out=below)
            a, b = np.divmod(np.flatnonzero(below), m.shape[1])
            query, place = (b, a + k) if place_major else (a + k, b)
            hit = _rescale(piece[a, b], lo, hi) == best[query]
            np.minimum.at(predicted, query[hit], place[hit])
        return predicted, best


@dataclass(frozen=True)
class MatchScores:
    """Each query's best place among n_places candidates, and its score.

    Reduces blocks of score rows (2-d, n_places columns, any float dtype, or
    a Rescaled record) as they arrive, so no score matrix need exist:
    predicted is each row's lowest-index argmax, confidence the score there
    as float64. A non-finite score is a numerical fault of the producer:
    NumericsError, naming the cell (for a Rescaled record, the first
    non-finite distance, or the least one when their span overflows).
    """

    blocks: InitVar[Iterable]                   # score rows, block by block
    n_places: int
    predicted: np.ndarray = field(init=False)   # (n_queries,)
    confidence: np.ndarray = field(init=False)  # (n_queries,)

    def __post_init__(self, blocks):
        predicted, confidence, start = [], [], 0
        for block in blocks:
            rescaled = isinstance(block, Rescaled)
            rows = np.asarray(block.distances if rescaled else block)
            if rows.ndim != 2 or rows.shape[1] != self.n_places or self.n_places < 1:
                raise ValidationError(f"score rows must be 2-d with {self.n_places} "
                                      f"columns, got shape {rows.shape}")
            if rescaled:
                top = block.top1()
                if top is None:  # hi - lo is not finite: a bad distance, or an overflowing span
                    loc = _first_bad(rows)
                    what = "non-finite distance" if loc else "distance span overflows"
                    q, p = loc or np.unravel_index(rows.argmin(), rows.shape)
                    raise NumericsError(f"{what} at query {start + q}, place {p}")
            else:
                loc = _first_bad(rows) if rows.size else None
                if loc is not None:
                    raise NumericsError(
                        f"non-finite score at query {start + loc[0]}, place {loc[1]}")
                best = rows.argmax(axis=1)
                top = best, rows[np.arange(rows.shape[0]), best]
            predicted.append(top[0])
            confidence.append(top[1])
            start += rows.shape[0]
        if start < 1:
            raise ValidationError("scores need at least one query row")
        for name, arr in (("predicted", np.concatenate(predicted)),
                          ("confidence", np.concatenate(confidence).astype(np.float64))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_scores(cls, blocks, n_places: int) -> "MatchScores":
        """The constructor under the name every producer calls."""
        return cls(blocks, n_places)

    @property
    def n_queries(self) -> int:
        return self.predicted.shape[0]


@dataclass(frozen=True)
class PrCurve:
    """Threshold-swept precision/recall points, descending threshold order:
    one curve, or a stack of curves over the same thresholds, one row each.

    Derives, along the last axis, auc, the trapezoid area over recall
    anchored at (0, first precision) and summed in point order, and
    max_recall_at_full_precision, the largest recall where precision is 1.0
    (0.0 when there is none): floats for one curve, one per row for a stack.
    """

    threshold: np.ndarray  # (n_points,)
    precision: np.ndarray  # (n_points,) or (n_curves, n_points)
    recall: np.ndarray     # shaped like precision
    auc: float | np.ndarray = field(init=False)
    max_recall_at_full_precision: float | np.ndarray = field(init=False)

    def __post_init__(self):
        threshold = _owned(self.threshold, np.float64)
        precision = _owned(self.precision, np.float64)
        recall = _owned(self.recall, np.float64)
        if not (threshold.ndim == 1 and precision.ndim in (1, 2) and precision.size >= 1
                and recall.shape == precision.shape and precision.shape[-1:] == threshold.shape):
            raise ValidationError("a PR curve needs equal-length, non-empty point vectors")
        if not (((precision >= 0.0) & (precision <= 1.0)).all()
                and ((recall >= 0.0) & (recall <= 1.0)).all()):
            raise ValidationError("precision and recall must lie in [0, 1]")
        area = np.empty(precision.shape[:-1])
        rows = max(1, CURVE_BLOCK_BYTES // (8 * threshold.size))  # curves per block
        for i in range(0, area.size, rows):
            p, r = (a.reshape(-1, threshold.size)[i:i + rows] for a in (precision, recall))
            step = np.diff(r, prepend=0.0)
            if (step[:, 1:] < -1e-12).any():
                raise ValidationError("recall must be non-decreasing as threshold drops")
            height = p + np.concatenate((p[:, :1], p[:, :-1]), 1)
            # cumsum adds in point order; np.sum's pairwise order changes the bits
            area.reshape(-1)[i:i + rows] = np.cumsum(step * height / 2.0, 1)[:, -1]
        best = recall.max(-1, initial=0.0, where=precision == 1.0)
        auc, best = (float(v) if v.ndim == 0 else _owned(v, np.float64) for v in (area, best))
        for name, value in (("threshold", threshold), ("precision", precision),
                            ("recall", recall), ("auc", auc),
                            ("max_recall_at_full_precision", best)):
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
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored,
    and a key given twice is a FormatError."""
    raw = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise FormatError(f"{path}:{lineno}: repeated key {key!r}")
            raw[key] = value
    return raw


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# how a .config value is read, for every key train writes there: TrainConfig's
# and the model keys (recorded, not read by training)
_CONFIG_KEYS = {
    "initial_lr": float, "min_lr": float, "scheduler_factor": float,
    "epochs": int, "seed": int, "scheduler_patience": int,
    "batch_size": lambda text: text if text == "all" else int(text),
    "shuffle": lambda text: _BOOLS[text.lower()],
    **{f.name: str for f in fields(ModelConfig)},
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
    return TrainConfig(**{f.name: values[f.name] for f in fields(TrainConfig)
                          if f.name in values})
