"""Data ingestion and synthesis: descriptor/pose file formats, pose
standardization, and desk-scale synthetic traversals with speed-warped
query variants.

Descriptor binary format: magic "SPLD", then little-endian uint32
version (=1), N, n, then N*n float32 values row-major. Files ending in
.csv are parsed as one comma-separated row per frame instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import (
    DescriptorSequence,
    FormatError,
    PoseSequence,
    ValidationError,
    atomic_open,
    open_text,
    seeded_rng,
)

# Largest frame index a loader accepts: indices are held as int64.
_INDEX_MAX = np.iinfo(np.int64).max

DESC_MAGIC = b"SPLD"
DESC_VERSION = 1
_HEADER = struct.Struct("<4sIII")


def save_descriptors(path, desc: DescriptorSequence) -> None:
    path = str(path)
    data = np.ascontiguousarray(desc.data, dtype="<f4")
    if path.endswith(".csv"):
        with atomic_open(path) as fh:
            for row in data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return
    with atomic_open(path, binary=True) as fh:
        fh.write(_HEADER.pack(DESC_MAGIC, DESC_VERSION, data.shape[0], data.shape[1]))
        fh.write(data.tobytes())


def _load_descriptor_csv(path) -> DescriptorSequence:
    rows = []
    width = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric descriptor entry") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(
                    f"{path}:{lineno}: row has {len(row)} values, expected {width}"
                )
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no descriptor rows found")
    try:
        with np.errstate(over="ignore"):  # beyond float32 range: inf, rejected below
            data = np.asarray(rows, dtype=np.float32)
        return DescriptorSequence(data=data)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_descriptors(path) -> DescriptorSequence:
    path = str(path)
    if path.endswith(".csv"):
        return _load_descriptor_csv(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(
            f"{path}: expected at least {_HEADER.size} header bytes, file has {len(blob)}"
        )
    magic, version, n_frames, dim = _HEADER.unpack_from(blob)
    if magic != DESC_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {DESC_MAGIC!r}")
    if version != DESC_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * n_frames * dim
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {n_frames}x{dim} descriptors, "
            f"file has {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n_frames, dim)
    try:
        return DescriptorSequence(data=data)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_poses(path, poses: PoseSequence) -> None:
    with atomic_open(path) as fh:
        fh.write("frame,x,y\n")
        for idx, (x, y) in enumerate(poses.data):
            fh.write(f"{idx},{float(x)!r},{float(y)!r}\n")


def load_poses(path) -> PoseSequence:
    rows = []
    last_frame = None
    with open_text(path) as fh:
        header = fh.readline().strip().replace(" ", "")
        if header != "frame,x,y":
            raise FormatError(f"{path}: expected header 'frame,x,y', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 'frame,x,y'")
            try:
                frame = int(parts[0])
                x, y = float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric pose entry") from exc
            if last_frame is not None and frame <= last_frame:
                raise FormatError(
                    f"{path}:{lineno}: frame indices must be strictly increasing"
                )
            last_frame = frame
            rows.append((x, y))
    if not rows:
        raise FormatError(f"{path}: no pose rows found")
    try:
        return PoseSequence(data=np.asarray(rows, dtype=np.float64))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_ground_truth(path, gt_map) -> None:
    gt_map = np.asarray(gt_map, dtype=np.int64)
    with atomic_open(path) as fh:
        fh.write("query,ref\n")
        for q, r in enumerate(gt_map):
            fh.write(f"{q},{r}\n")


def load_ground_truth(path) -> np.ndarray:
    refs = []
    with open_text(path) as fh:
        header = fh.readline().strip().replace(" ", "")
        if header != "query,ref":
            raise FormatError(f"{path}: expected header 'query,ref', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 'query,ref'")
            try:
                query, ref = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer entry") from exc
            if query != len(refs):
                raise FormatError(f"{path}:{lineno}: query indices must be 0,1,2,...")
            if not 0 <= ref <= _INDEX_MAX:
                raise FormatError(f"{path}:{lineno}: reference index {ref} out of range")
            refs.append(ref)
    if not refs:
        raise FormatError(f"{path}: no ground-truth rows found")
    return np.asarray(refs, dtype=np.int64)


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
    desc = np.empty((n_frames, dim))
    step = rng.standard_normal(dim)
    desc[0] = step / np.linalg.norm(step)
    for t in range(1, n_frames):
        step = rng.standard_normal(dim)
        step /= np.linalg.norm(step)
        blended = smoothness * desc[t - 1] + (1.0 - smoothness) * step
        desc[t] = blended / np.linalg.norm(blended)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    turn = 0.0
    pos = np.zeros((n_frames, 2))
    for t in range(1, n_frames):
        turn = 0.85 * turn + 0.15 * rng.normal(0.0, 0.4)
        heading += turn
        pos[t] = pos[t - 1] + (np.cos(heading), np.sin(heading))
    return SyntheticEnv(
        descriptors=DescriptorSequence(data=desc.astype(np.float32)),
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
    if (speeds <= 0.0).any():
        raise ValidationError("speed warp values must be positive")
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
    if noise_sigma < 0:
        raise ValidationError("noise_sigma must be non-negative")
    if pose_noise_sigma is None:
        pose_noise_sigma = 0.1 * noise_sigma
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
