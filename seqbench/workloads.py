"""Workload definitions and seeded input generation.

Inputs are generated here, not with the package's own synthesizer, so a
change to the program cannot change what the benchmark feeds it. Files are
written in the documented formats (SPLD descriptors, `frame,x,y` poses,
`query,ref` ground truth).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Traversal:
    """Shape of one generated reference traversal and the query driven over it."""

    frames: int
    dim: int
    smoothness: float
    noise: float          # descriptor noise sigma of the query
    warp: tuple           # piecewise query speed profile over the reference
    queries: int | None   # keep the first `queries` query frames (None: all)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Every workload runs the same command mix, so every end-to-end metric
    exists on each; the shapes decide which layer carries the time.
    `train` is the traversal the `train` commands fit (and whose noisy
    query gives `spl_auc`); `map` is what `match`, `infer` and the radius
    sweep run on. `infer` scores an untrained full-map checkpoint written
    at set-up, since fitting a 2000-place model does not fit in a run.
    """

    name: str
    why: str
    train: Traversal
    map: Traversal
    hidden: int           # hidden size of the map model
    train_hidden: int
    epochs: int
    lr: float
    reps: dict            # repetitions per pass of a command, by op key (default 1)


# Routes (reference poses) come from ROUTE_SEED, not from the run's seed,
# which draws the descriptors and the query noise. With pose weight 500 the
# route alone sets how many gate activations saturate and go subnormal; it
# moved canonical train time by +-20% between routes, more than any layer
# change to be measured. ROUTE_SEED is the first stream, not a pick.
ROUTE_SEED = 0

# The canonical traversal: 120 frames, dim 32, noisy (sigma 0.1) query at
# unit speed. Thirty epochs at lr 8e-3 reach a noisy-query AUC of 0.98-1.0
# at radius 2 across seeds, so spl_auc is a stable accuracy guard rather
# than noise around zero.
CANONICAL = Traversal(frames=120, dim=32, smoothness=0.6, noise=0.1, warp=(1.0,), queries=None)
TRAIN_EPOCHS = 30
TRAIN_LR = 8e-3
TRAIN_HIDDEN = 64

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="map-wide",
            why="2000-frame map x 300 queries, dim 1024 (the c7 shape): SAD similarity "
                "carries seqslam and the input projection carries infer",
            train=CANONICAL,
            map=Traversal(frames=2000, dim=1024, smoothness=0.8, noise=0.05,
                          warp=(1.0,), queries=300),
            hidden=160, train_hidden=TRAIN_HIDDEN, epochs=TRAIN_EPOCHS, lr=TRAIN_LR,
            reps={"train-tw2": 2, "infer-map": 3, "match-pairwise": 4, "eval-sweep": 10},
        ),
        Workload(
            name="map-long",
            why="2000-frame map x 1000 speed-warped noisy queries, dim 32: line search, "
                "contrast enhancement and the PR sweep carry seqslam and eval; SAD is cheap",
            train=CANONICAL,
            map=Traversal(frames=2000, dim=32, smoothness=0.6, noise=0.1,
                          warp=(0.85, 1.15, 0.9, 1.1), queries=1000),
            hidden=TRAIN_HIDDEN, train_hidden=TRAIN_HIDDEN, epochs=TRAIN_EPOCHS, lr=TRAIN_LR,
            reps={"train-tw10": 2, "train-tw2": 2, "match-seqslam": 2, "infer-map": 4,
                  "match-pairwise": 6, "eval-sweep": 6},
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same workload at self-test size: seconds, not minutes."""
    small = Traversal(frames=40, dim=8, smoothness=0.7, noise=0.1, warp=(1.0,), queries=None)
    big = Traversal(frames=60, dim=16, smoothness=0.8, noise=workload.map.noise,
                    warp=workload.map.warp, queries=30)
    return Workload(name=workload.name, why=workload.why, train=small, map=big,
                    hidden=8, train_hidden=8, epochs=3, lr=workload.lr, reps={})


# --- generation ---------------------------------------------------------------

def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def generate(spec: Traversal, rng: np.random.Generator) -> dict:
    """Reference descriptors/poses, query descriptors/poses, ground truth.

    Reference descriptors follow a smoothed random walk on the unit sphere
    and poses a unit-speed, smoothly turning 2-d path (drawn from
    ROUTE_SEED, so every seed drives the same route). The query resamples
    the reference along the speed profile, adds descriptor noise and pose
    noise (a tenth of it), and its ground truth is the nearest reference
    frame.
    """
    n, dim = spec.frames, spec.dim
    steps = _unit_rows(rng.standard_normal((n, dim)))
    desc = np.empty((n, dim))
    desc[0] = steps[0]
    for t in range(1, n):
        blended = spec.smoothness * desc[t - 1] + (1.0 - spec.smoothness) * steps[t]
        desc[t] = blended / np.linalg.norm(blended)
    route = np.random.default_rng(ROUTE_SEED)
    turns = route.normal(0.0, 0.4, n)
    heading = np.empty(n)
    turn, angle = 0.0, route.uniform(0.0, 2.0 * np.pi)
    for t in range(n):
        turn = 0.85 * turn + 0.15 * turns[t]
        angle += turn
        heading[t] = angle
    pose = np.zeros((n, 2))
    pose[1:] = np.cumsum(np.stack([np.cos(heading[1:]), np.sin(heading[1:])], axis=1), axis=0)

    speeds = np.asarray(spec.warp, dtype=np.float64)
    positions = []
    s = 0.0
    while s <= n - 1 + 1e-9:
        positions.append(min(s, n - 1.0))
        s += speeds[min(int(len(speeds) * s / n), len(speeds) - 1)]
    positions = np.asarray(positions[:spec.queries])
    lo = np.floor(positions).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = (positions - lo)[:, None]
    q_desc = _unit_rows((1.0 - frac) * desc[lo] + frac * desc[hi]
                        + rng.normal(0.0, spec.noise, (positions.size, dim)))
    q_pose = ((1.0 - frac) * pose[lo] + frac * pose[hi]
              + rng.normal(0.0, 0.1 * spec.noise, (positions.size, 2)))
    gt = np.clip(np.rint(positions).astype(np.int64), 0, n - 1)
    return {"ref": desc, "ref_poses": pose, "query": q_desc, "query_poses": q_pose, "gt": gt}


# --- files --------------------------------------------------------------------

def _write_descriptors(path, data) -> None:
    data = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", b"SPLD", 1, data.shape[0], data.shape[1]))
        fh.write(data.tobytes())


def _write_poses(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frame,x,y\n")
        fh.writelines(f"{i},{float(x)!r},{float(y)!r}\n" for i, (x, y) in enumerate(data))


def _write_gt(path, gt) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query,ref\n")
        fh.writelines(f"{q},{int(r)}\n" for q, r in enumerate(gt))


def write_traversal(directory, prefix: str, spec: Traversal, seed: int) -> dict:
    """Generate one traversal from `seed` and write it; returns paths and sizes."""
    arrays = generate(spec, np.random.default_rng(seed))
    paths = {key: os.path.join(directory, f"{prefix}_{key}{ext}") for key, ext in (
        ("ref", ".spld"), ("ref_poses", ".csv"), ("query", ".spld"),
        ("query_poses", ".csv"), ("gt", ".csv"))}
    _write_descriptors(paths["ref"], arrays["ref"])
    _write_poses(paths["ref_poses"], arrays["ref_poses"])
    _write_descriptors(paths["query"], arrays["query"])
    _write_poses(paths["query_poses"], arrays["query_poses"])
    _write_gt(paths["gt"], arrays["gt"])
    paths["n_ref"] = spec.frames
    paths["n_query"] = int(arrays["gt"].size)
    return paths
