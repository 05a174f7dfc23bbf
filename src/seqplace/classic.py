"""Classical match-then-temporally-filter baselines: pairwise similarity
matrices, local contrast enhancement, constant-velocity line search,
delta descriptors, and single-frame matching."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_BYTES, DescriptorSequence, MatchScores, Rescaled, ValidationError

METRICS = ("sad", "cosine")
DEFAULT_METRIC = {"seqslam": "sad", "pairwise": "cosine", "delta": "cosine"}
ENHANCE_EPS = 1e-9
# each velocity costs the line search ds passes over the whole matrix, so a
# grid this long (the default has 5) is a mistyped range, not a search
MAX_VELOCITIES = 1000


@dataclass(frozen=True)
class SeqSlamConfig:
    """Line-search settings: trajectory length, velocity grid, normalization window."""

    ds: int = 10
    v_min: float = 0.8
    v_max: float = 1.2
    v_step: float = 0.1
    r_window: int = 10

    def __post_init__(self):
        if self.ds < 1:
            raise ValidationError(f"ds must be at least 1, got {self.ds}")
        for name in ("v_min", "v_max", "v_step"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.v_min <= self.v_max):
            raise ValidationError(
                f"need 0 < v_min <= v_max, got v_min={self.v_min}, v_max={self.v_max}"
            )
        if self.v_step <= 0.0:
            raise ValidationError(f"v_step must be positive, got {self.v_step}")
        if self.r_window < 2:
            raise ValidationError(f"r_window must be at least 2, got {self.r_window}")
        if _velocity_count(self) > MAX_VELOCITIES:
            raise ValidationError(
                f"velocity grid v_min={self.v_min}..v_max={self.v_max} step {self.v_step} "
                f"has more than {MAX_VELOCITIES} entries"
            )


def _velocity_count(cfg: SeqSlamConfig) -> float:
    return np.floor((cfg.v_max - cfg.v_min) / cfg.v_step + 1e-9) + 1


def velocity_grid(cfg: SeqSlamConfig) -> np.ndarray:
    return cfg.v_min + np.arange(int(_velocity_count(cfg))) * cfg.v_step


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """np.empty(shape, dtype) starting on a 64-byte (cache line) boundary:
    SAD's speed varies by a quarter with its difference buffer's offset."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _in_parts(n: int, fn) -> None:
    """fn(lo, hi) over contiguous parts of range(n), one per CPU the process
    may run on (os.sched_getaffinity, else os.cpu_count) and never more
    parts than items. The calling thread runs the first part and a thread
    pool, closed before this returns, the others; with one part no thread
    starts. numpy releases the GIL inside its loops, so the parts run at
    once; off the calling thread fn calls numpy only, in a copy of the
    caller's context, so numpy's error state is the caller's. An exception
    raised in any part is re-raised here after every part has stopped."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    parts = max(1, min(cpus, n))
    if parts == 1:
        fn(0, n)
        return
    bounds = [n * k // parts for k in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        others = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
                  for lo, hi in zip(bounds[1:-1], bounds[2:])]
        fn(bounds[0], bounds[1])
    for part in others:
        part.result()


def similarity_matrix(ref: DescriptorSequence, query: DescriptorSequence,
                      metric: str = "cosine") -> np.ndarray:
    """D[i, j] = distance between reference frame i and query frame j, as a
    float64 (N, Q) array: SAD gives the transpose of a C-contiguous (Q, N)
    array, so each query's distances are contiguous, and cosine a C array.
    Finite float32 descriptors give finite, non-negative distances."""
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    if ref.dim != query.dim:
        raise ValidationError(
            f"descriptor dims differ: reference {ref.dim}, query {query.dim}"
        )
    b = query.data.astype(np.float64)
    block = max(1, BLOCK_BYTES // (8 * b.shape[1]))  # rows
    if metric == "sad":
        n_ref = ref.n_frames
        matrix = np.empty((b.shape[0], n_ref))

        def sad(lo, hi):
            # a block of reference rows, widened exactly to float64, stays in
            # cache while each of this part's query rows streams past it;
            # |ref - q| is |q - ref| bit for bit, and each distance is numpy's
            # sum over one row
            widened = np.empty((min(block, n_ref), b.shape[1]))
            diff = _aligned_empty(widened.shape)
            for i0 in range(0, n_ref, block):
                i1 = min(i0 + block, n_ref)
                rows, d = widened[:i1 - i0], diff[:i1 - i0]
                rows[...] = ref.data[i0:i1]
                for j in range(lo, hi):
                    np.subtract(rows, b[j], out=d)
                    np.abs(d, out=d)
                    d.sum(axis=1, out=matrix[j, i0:i1])

        _in_parts(b.shape[0], sad)
        return matrix.T
    a = ref.data.astype(np.float64)
    for name, rows in (("reference", a), ("query", b)):
        # row blocks keep norm's squared copy small; each row's sum is unchanged
        norms = np.concatenate([np.linalg.norm(rows[i:i + block], axis=1)
                                for i in range(0, rows.shape[0], block)])
        if (norms == 0).any():
            raise ValidationError(f"zero-norm descriptor at {name} frame "
                                  f"{int(np.argmax(norms == 0))}: cosine undefined")
        rows /= norms[:, None]  # a and b are this function's own float64 copies
    matrix = a @ b.T
    np.clip(np.subtract(1.0, matrix, out=matrix), 0.0, 2.0, out=matrix)
    return matrix


def _query_major(matrix) -> np.ndarray:
    """The C-contiguous float64 (n_cols, n_rows) array the seqslam stages
    work in: matrix.T itself when that is a writeable float64 C array (as
    similarity_matrix gives SAD), otherwise one copy of it."""
    return np.require(np.asarray(matrix).T, np.float64, ["C", "W"])


def contrast_enhance(matrix, r_window: int) -> np.ndarray:
    """Normalize each entry against the mean/std of the r_window rows
    around it within its column: (D - mu_local) / (sigma_local + 1e-9), a
    block of columns at a time. A writeable float64 matrix whose .T is
    C-contiguous (as SAD gives) is normalized in place and returned; any other
    input (read-only, a C (N, Q) array, another dtype) is copied once and left
    as it was."""
    if r_window < 2:
        raise ValidationError(f"r_window must be at least 2, got {r_window}")
    out = _query_major(matrix)
    r_window = int(r_window)
    n_cols, n_rows = out.shape
    w = min(r_window, n_rows)
    # row i is normalized over the window starting at clip(i - r_window // 2,
    # 0, n_rows - w): rows [0, a) take the first window, rows [a, b) window
    # i - r_window // 2, and rows [b, n_rows) the last one
    half = r_window // 2
    a, b = min(half, n_rows), min(n_rows - w + half + 1, n_rows)
    spans = ((slice(0, a), slice(0, 1)), (slice(a, b), slice(a - half, b - half)),
             (slice(b, n_rows), slice(n_rows - w, n_rows - w + 1)))
    block = max(1, BLOCK_BYTES // (8 * n_rows))

    def enhance(lo, hi):
        s = np.zeros((min(block, hi - lo), n_rows + 1))
        s2 = np.zeros_like(s)
        for j0 in range(lo, hi, block):
            # per-column offset keeps the cumulative sums well conditioned (the
            # normalization is shift-invariant, and constant columns become
            # exact); copied, as the subtraction overwrites it
            shifted = out[j0:min(j0 + block, hi)]
            shifted -= shifted[:, :1].copy()
            c, c2 = s[:shifted.shape[0]], s2[:shifted.shape[0]]
            np.cumsum(shifted, axis=1, out=c[:, 1:])
            np.cumsum(shifted * shifted, axis=1, out=c2[:, 1:])
            mean = (c[:, w:] - c[:, :n_rows - w + 1]) / w
            var = np.maximum((c2[:, w:] - c2[:, :n_rows - w + 1]) / w - mean * mean, 0.0)
            scale = np.sqrt(var) + ENHANCE_EPS
            for rows, windows in spans:
                shifted[:, rows] -= mean[:, windows]
                shifted[:, rows] /= scale[:, windows]

    # each part normalizes its own query rows with its own sums
    _in_parts(n_cols, enhance)
    return out.T


def _add_shifted(lines, rows, o, out):
    """out = lines + rows shifted o places along each row, where the first o
    entries of a row add that row's first entry; out may be lines."""
    head = lines[:, :o] + rows[:, :1]
    # one contiguous add shifts the block by o; it fills the first o entries
    # of a row from the row above, and those are then rebuilt from head
    flat = out.reshape(-1)
    np.add(lines.reshape(-1)[o:], rows.reshape(-1)[:flat.size - o], out=flat[o:])
    out[:, :o] = head


def seqslam_rows(enhanced, cfg: SeqSlamConfig):
    """Constant-velocity line search over the enhanced matrix.

    For query j and candidate endpoint i the raw score is the best (lowest)
    mean of the enhanced entries along the back-projected line
    (max(i - round(v*k), 0), j - k), k = 0..ds-1, over the velocity grid.
    Each mean is summed over k in order starting from 0.0 and then divided
    by ds; the minimum is taken over v in grid order. Scores are negated and
    min-max rescaled to [0, 1]; queries with fewer than ds frames of history
    get all-zero rows (the lowest confidence).

    The search runs at once. It returns the all-zero rows, then the raw
    scores of the other queries as one Rescaled record. Those scores take
    the place of the enhanced columns of a writeable float64 matrix whose .T
    is C-contiguous (what contrast_enhance returns); any other input is
    copied once and left as it was.
    """
    n_ref, n_query = np.shape(enhanced)
    if n_ref <= cfg.ds or n_query <= cfg.ds:
        raise ValidationError(
            f"matrix {n_ref}x{n_query} too small for ds={cfg.ds}; both sides must exceed ds"
        )
    ds = cfg.ds
    # capped at n_ref: any larger offset also reads row 0 for every endpoint.
    # Sorted and deduplicated, line t shares its first starts[t] steps with
    # line t - 1, and with every line since the last one that started below
    # starts[t]: that line left its sums of those steps in prefix[starts[t]]
    offsets = np.rint(np.outer(velocity_grid(cfg), np.arange(ds)))
    paths = sorted(set(map(tuple, np.minimum(offsets, n_ref).astype(np.int64).tolist())))
    starts = [0] + [next(k for k, (o, p) in enumerate(zip(*pair)) if o != p)
                    for pair in zip(paths, paths[1:])]
    # et[j] is query j's column; step k at offset o adds et[j - k, i - o] to
    # the line ending at i >= o, and et[j - k, 0] to the lines ending before
    # o. Query j's raw scores then replace et[j]
    et = _query_major(enhanced)
    block = max(1, BLOCK_BYTES // (8 * n_ref))
    work = np.empty((block, n_ref))
    prefix = {k: np.empty_like(work) for k in set(starts[1:])}
    # block [j0, j1) reads et rows j0 - ds + 1 .. j1 - 1 and writes rows
    # j0 .. j1 - 1 from its own minimum buffer after its last line, so going
    # down, no block reads a row that a block before it wrote
    kept = np.empty_like(work)
    for j0 in reversed(range(ds - 1, n_query, block)):
        j1 = min(j0 + block, n_query)
        best = kept[:j1 - j0]
        best[...] = np.inf
        for path, start in zip(paths, starts):
            if not start:
                work[:j1 - j0] = 0.0
            lines = prefix[start] if start else work
            for k in range(start, ds):
                if k > start and k in prefix:
                    # keep these k-step sums for a later line; swapped, not copied
                    prefix[k], work = work, prefix[k]
                    lines = prefix[k]
                _add_shifted(lines[:j1 - j0], et[j0 - k:j1 - k], path[k], work[:j1 - j0])
                lines = work
            np.minimum(best, work[:j1 - j0], out=best)
        # division by ds > 0 is monotone, so it commutes with the minimum
        np.divide(best, ds, out=et[j0:j1])
    return [np.zeros((ds - 1, n_ref)), Rescaled(et[ds - 1:])]


def seqslam_match(enhanced, cfg: SeqSlamConfig) -> MatchScores:
    """The best place per query by seqslam_rows' line search (in place as there)."""
    rows = seqslam_rows(enhanced, cfg)
    return MatchScores.from_scores(rows, np.shape(enhanced)[0])


def pairwise_rows(matrix):
    """Single-frame score rows as one Rescaled record: row j is one minus
    the min-max normalized distances of query j (column j of matrix)."""
    return [Rescaled(np.asarray(matrix, dtype=np.float64).T)]


def pairwise_match(matrix) -> MatchScores:
    """Single-frame matching: best place per query is the smallest distance;
    confidence is one minus the min-max normalized distance."""
    return MatchScores.from_scores(pairwise_rows(matrix), np.shape(matrix)[0])


def delta_descriptors(desc: DescriptorSequence, w: int) -> DescriptorSequence:
    """Forward-minus-backward rolling means, L2-normalized per frame.

    delta_t = mean(d[t..t+w-1]) - mean(d[t-w..t-1]); frames without a full
    half-window on each side copy their nearest valid delta. Zero deltas
    stay zero after normalization.
    """
    if w < 1:
        raise ValidationError(f"half-window must be at least 1, got {w}")
    n = desc.n_frames
    if n <= 2 * w:
        raise ValidationError(f"need more than 2w={2 * w} frames, got {n}")
    data = desc.data.astype(np.float64)
    sums = np.zeros((n + 1, desc.dim))
    np.cumsum(data, axis=0, out=sums[1:])
    # valid range: both half-windows fit, t in [w, n-w]
    t = np.arange(w, n - w + 1)
    delta = (sums[t + w] - sums[t]) / w - (sums[t] - sums[t - w]) / w
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    delta /= norms
    out = np.pad(delta, ((w, w - 1), (0, 0)), mode="edge")
    return DescriptorSequence(data=out.astype(np.float32))


def match(method: str, ref: DescriptorSequence, query: DescriptorSequence,
          cfg: SeqSlamConfig, metric=None, delta_window=5) -> MatchScores:
    """Run a classical method end to end: delta descriptors (delta only),
    the similarity matrix (by default in the method's DEFAULT_METRIC), then
    the enhanced line search (seqslam) or single-frame matching."""
    if method not in DEFAULT_METRIC:
        raise ValidationError(f"method must be one of {tuple(DEFAULT_METRIC)}, got {method!r}")
    if method == "delta":
        ref, query = (delta_descriptors(d, delta_window) for d in (ref, query))
    sim = similarity_matrix(ref, query, metric=metric or DEFAULT_METRIC[method])
    if method == "seqslam":
        # sim is this call's own, so the stages may work in its buffer
        return seqslam_match(contrast_enhance(sim, cfg.r_window), cfg)
    return pairwise_match(sim)
