"""Data ingestion and synthesis: file formats, pose standardization, and
desk-scale synthetic traversals with speed-warped query variants.

Descriptor binary format: magic "SPLD", then little-endian uint32
version (=1), N, n, then N*n float32 values row-major. Files ending in
.csv are a CSV table without a header instead, one row per frame.

Every text file (poses, ground truth, scores, and the curves and training
history other modules write) is a CSV table, written by `write_table` and
read by `read_table`: a header line, then one comma-separated row per line,
floats written with repr so they read back bit-exact. `read_table` parses
a table's rows in one call to numpy's C reader and falls back to Python's
int() and float() value by value, so what it accepts, the values it reads
and the line its errors name are those of the Python reader.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DescriptorSequence,
    FormatError,
    MatchScores,
    PoseSequence,
    ValidationError,
    atomic_open,
    open_text,
    seeded_rng,
)

DESC_MAGIC = b"SPLD"
DESC_VERSION = 1
_HEADER = struct.Struct("<4sIII")
# a slower speed asks for more than 100 query frames per reference frame
MIN_WARP_SPEED = 0.01


# --- CSV tables ----------------------------------------------------------------

def write_table(path, header, rows) -> None:
    """Write the header line (none when header is None), then one line per
    row of Python ints and floats, as str gives them; atomically."""
    with atomic_open(path) as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_table(path, header, kinds):
    """Read a CSV table column by column.

    header is the expected first line (spaces ignored), or None for a table
    without one; kinds gives int or float per column, or, without a header,
    one kind for every column of a width set by the first row. Blank lines
    are skipped. Returns (columns, lines): an owning, contiguous int64 or
    float64 array per column and the line number of each row. A wrong
    header, an empty table, a row of the wrong width or a bad value raises
    FormatError.

    The rows are parsed in one call to numpy's C reader. A table it
    rejects, or whose text it would read differently, is read again value
    by value with int() and float(). So the accepted syntax is Python's
    (`1_0` and non-ASCII digits read too), and an error names the line of
    the first row of the wrong width, else of the first bad value.
    """
    text = open_text(path).read()
    split = text.split("\n")
    first = 0
    if header is not None:
        got = split[0].strip().replace(" ", "")
        if got != header:
            raise FormatError(f"{path}: expected header {header!r}, got {got!r}")
        first = 1
    numbered = [(lineno, line)
                for lineno, line in enumerate(map(str.strip, split[first:]), first + 1) if line]
    if not numbered:
        raise FormatError(f"{path}: no rows found")
    lines, rows = zip(*numbered)
    if header is None:
        kinds = (kinds,) * (rows[0].count(",") + 1)
    if _numpy_reads_as_python(text):
        try:
            return _parse_table(rows, kinds), lines
        except (ValueError, Warning):
            pass
    return _parse_rows(path, rows, kinds, lines), lines


def _numpy_reads_as_python(text) -> bool:
    """Whether numpy's C parsers reject every value of text that int() and
    float() reject. On non-ASCII text they do not (numpy's int parser reads
    "1" followed by U+01FE as 472), nor around the ASCII separators
    \\x1c-\\x1f, which numpy skips as spaces; on other ASCII they agree."""
    return text.isascii() and not any(sep in text for sep in "\x1c\x1d\x1e\x1f")


def _dtype(kind) -> type:
    return np.int64 if kind is int else np.float64


def _parse_table(rows, kinds) -> list:
    """Every row in one np.loadtxt call. Warnings are raised, so a value
    numpy accepts only with one is rejected: older numpy releases read
    "2.5" in an int column as 2, with a DeprecationWarning."""
    dtype = np.dtype([(f"c{i}", _dtype(kind)) for i, kind in enumerate(kinds)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # comments=None: the default "#" would read "0.5#x" as 0.5
        table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    return [table[name].copy() for name in dtype.names]


def _parse_rows(path, rows, kinds, lines) -> list:
    """Split, check widths and convert value by value, naming the line of
    the first bad row or value."""
    fields = [row.split(",") for row in rows]
    widths = np.fromiter(map(len, fields), np.intp, len(fields))
    _check_rows(path, lines, widths == len(kinds),
                f"expected {len(kinds)} comma-separated values")
    return [_column(path, kind, values, lines) for kind, values in zip(kinds, zip(*fields))]


def _column(path, kind, values, lines) -> np.ndarray:
    dtype = _dtype(kind)
    try:
        return np.array(list(map(kind, values)), dtype=dtype)
    except (ValueError, OverflowError):
        for value, lineno in zip(values, lines):  # name the first bad value
            try:
                np.array(kind(value), dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise FormatError(
                    f"{path}:{lineno}: bad {np.dtype(dtype).name} value {value!r}") from exc
        raise


def _check_rows(path, lines, ok, message) -> None:
    """FormatError at the line of the first row where ok is False."""
    if not ok.all():
        raise FormatError(f"{path}:{lines[int(np.argmin(ok))]}: {message}")


def _validated(path, cls, data):
    try:
        return cls(data=data)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- file formats ----------------------------------------------------------------

def save_descriptors(path, desc: DescriptorSequence) -> None:
    path = str(path)
    data = np.ascontiguousarray(desc.data, dtype="<f4")
    if path.endswith(".csv"):
        write_table(path, None, data.tolist())
        return
    with atomic_open(path, binary=True) as fh:
        fh.write(_HEADER.pack(DESC_MAGIC, DESC_VERSION, data.shape[0], data.shape[1]))
        fh.write(data.tobytes())


def load_descriptors(path) -> DescriptorSequence:
    path = str(path)
    if path.endswith(".csv"):
        columns, _ = read_table(path, None, float)
        with np.errstate(over="ignore"):  # beyond float32 range: inf, rejected there
            return _validated(path, DescriptorSequence, np.stack(columns, axis=1))
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(
                f"{path}: expected at least {_HEADER.size} header bytes, file has {size}"
            )
        magic, version, n_frames, dim = _HEADER.unpack(header)
        if magic != DESC_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {DESC_MAGIC!r}")
        if version != DESC_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        expected = _HEADER.size + 4 * n_frames * dim
        if size != expected:
            raise FormatError(
                f"{path}: expected {expected} bytes for {n_frames}x{dim} descriptors, "
                f"file has {size}"
            )
        # read straight into one owned array, which DescriptorSequence keeps
        data = np.empty((n_frames, dim), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise FormatError(f"{path}: file shrank while being read")
    data.flags.writeable = False
    return _validated(path, DescriptorSequence, data)


def save_poses(path, poses: PoseSequence) -> None:
    write_table(path, "frame,x,y", zip(range(poses.n_frames), *poses.data.T.tolist()))


def load_poses(path) -> PoseSequence:
    (frame, x, y), lines = read_table(path, "frame,x,y", (int, float, float))
    _check_rows(path, lines[1:], frame[1:] > frame[:-1],
                "frame indices must be strictly increasing")
    return _validated(path, PoseSequence, np.stack((x, y), axis=1))


def save_ground_truth(path, gt_map) -> None:
    write_table(path, "query,ref", enumerate(np.asarray(gt_map, dtype=np.int64).tolist()))


def load_ground_truth(path) -> np.ndarray:
    (query, ref), lines = read_table(path, "query,ref", (int, int))
    _check_rows(path, lines, query == np.arange(query.size), "query indices must be 0,1,2,...")
    _check_rows(path, lines, ref >= 0, "reference index must be non-negative")
    return ref


def save_scores(path, scores: MatchScores) -> None:
    write_table(path, "query,predicted,confidence",
                zip(range(scores.n_queries), scores.predicted.tolist(),
                    scores.confidence.tolist()))


def load_scores(path):
    """(predicted, confidence) of a scores table, whose rows count queries 0,1,2,..."""
    (query, predicted, confidence), lines = read_table(
        path, "query,predicted,confidence", (int, int, float))
    _check_rows(path, lines, query == np.arange(query.size), "query indices must be 0,1,2,...")
    _check_rows(path, lines, predicted >= 0, "predicted place must be non-negative")
    _check_rows(path, lines, np.isfinite(confidence), "confidence must be finite")
    return predicted, confidence


# --- pose standardization ---------------------------------------------------

def standardize_poses(poses: PoseSequence):
    """Per-column (x - mu) / sigma with the population standard deviation.

    Returns (standardized poses, mu, sigma); sigma-zero columns map to all
    zeros and keep sigma = 0 so the same rule applies to queries later.
    """
    if poses.n_frames < 2:
        raise ValidationError("standardization needs at least 2 frames")
    mu = poses.data.mean(axis=0)
    sigma = poses.data.std(axis=0)
    out = apply_standardization(poses.data, mu, sigma)
    return PoseSequence(data=out), mu, sigma


def apply_standardization(data, mu, sigma) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    safe = np.where(sigma == 0.0, 1.0, sigma)
    out = (data - mu) / safe
    out[:, sigma == 0.0] = 0.0
    return out


# --- synthetic traversals ----------------------------------------------------

@dataclass(frozen=True)
class SyntheticEnv:
    """A generated traversal: unit-norm descriptors plus a 2-d trajectory."""

    descriptors: DescriptorSequence
    poses: PoseSequence


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def synth_traverse(n_frames: int, dim: int, seed: int,
                   smoothness: float = 0.7) -> SyntheticEnv:
    """Generate a traversal: descriptors follow a smoothed random walk on the
    unit sphere, poses a piecewise-smooth 2-d trajectory at unit speed."""
    if n_frames < 4:
        raise ValidationError(f"need at least 4 frames, got {n_frames}")
    if dim < 2:
        raise ValidationError(f"descriptor dim must be at least 2, got {dim}")
    if not 0.0 <= smoothness < 1.0:
        raise ValidationError(f"smoothness must lie in [0, 1), got {smoothness}")
    rng = seeded_rng(seed)
    # float32 rows; the recurrence keeps only the previous row, in float64
    desc = np.empty((n_frames, dim), dtype=np.float32)
    step = rng.standard_normal(dim)
    desc[0] = row = step / np.linalg.norm(step)
    for t in range(1, n_frames):
        step = rng.standard_normal(dim)
        step /= np.linalg.norm(step)
        blended = smoothness * row + (1.0 - smoothness) * step
        desc[t] = row = blended / np.linalg.norm(blended)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    turn = 0.0
    pos = np.zeros((n_frames, 2))
    for t in range(1, n_frames):
        turn = 0.85 * turn + 0.15 * rng.normal(0.0, 0.4)
        heading += turn
        pos[t] = pos[t - 1] + (np.cos(heading), np.sin(heading))
    desc.flags.writeable = False  # read-only and owning: DescriptorSequence keeps it
    return SyntheticEnv(
        descriptors=DescriptorSequence(data=desc),
        poses=PoseSequence(data=pos),
    )


def _warp_positions(n_ref: int, speed_warp) -> np.ndarray:
    """Integrate a piecewise speed profile into reference-frame positions."""
    if speed_warp is None:
        speeds = np.asarray([1.0])
    else:
        speeds = np.atleast_1d(np.asarray(speed_warp, dtype=np.float64))
    if speeds.size == 0:
        raise ValidationError("speed warp needs at least one speed")
    if (speeds < MIN_WARP_SPEED).any():
        raise ValidationError(f"speed warp values must be at least {MIN_WARP_SPEED}, "
                              f"got {speeds.min():g}")
    positions = []
    s = 0.0
    limit = float(n_ref - 1)
    while s <= limit + 1e-9:
        positions.append(min(s, limit))
        segment = min(int(len(speeds) * s / n_ref), len(speeds) - 1)
        s += speeds[segment]
    return np.asarray(positions)


def perturb_query(env: SyntheticEnv, noise_sigma: float, speed_warp, seed: int,
                  pose_noise_sigma: float | None = None):
    """Derive a query traversal by resampling the reference along a monotone
    speed profile and adding descriptor/pose noise.

    Returns (query_env, ground_truth) where ground_truth[q] is the nearest
    reference frame for query frame q. With noise_sigma=0 and an identity
    warp the query is bit-identical to the reference.
    """
    if pose_noise_sigma is None:
        pose_noise_sigma = 0.1 * noise_sigma
    for name, sigma in (("noise_sigma", noise_sigma), ("pose_noise_sigma", pose_noise_sigma)):
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ValidationError(f"{name} must be finite and non-negative, got {sigma}")
    ref_desc = env.descriptors.data.astype(np.float64)
    ref_pose = env.poses.data
    n_ref = ref_desc.shape[0]
    positions = _warp_positions(n_ref, speed_warp)
    if positions.size < 4:
        raise ValidationError(
            f"warp produces only {positions.size} query frames, need at least 4"
        )
    lo = np.floor(positions).astype(np.int64)
    hi = np.minimum(lo + 1, n_ref - 1)
    frac = (positions - lo)[:, None]
    desc = (1.0 - frac) * ref_desc[lo] + frac * ref_desc[hi]
    pose = (1.0 - frac) * ref_pose[lo] + frac * ref_pose[hi]
    rng = seeded_rng(seed)
    if noise_sigma > 0.0:
        desc = desc + rng.normal(0.0, noise_sigma, desc.shape)
        desc = _unit_rows(desc)
    if pose_noise_sigma > 0.0:
        pose = pose + rng.normal(0.0, pose_noise_sigma, pose.shape)
    gt = np.rint(positions).astype(np.int64)
    np.clip(gt, 0, n_ref - 1, out=gt)
    query = SyntheticEnv(
        descriptors=DescriptorSequence(data=desc.astype(np.float32)),
        poses=PoseSequence(data=pose),
    )
    return query, gt
