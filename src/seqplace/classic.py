"""Classical match-then-temporally-filter baselines: pairwise similarity
matrices, local contrast enhancement, constant-velocity line search,
delta descriptors, and single-frame matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DescriptorSequence, MatchScores, ValidationError

METRICS = ("sad", "cosine")
ENHANCE_EPS = 1e-9
# working-set budget of one query block in the SAD and line-search loops,
# sized to stay in a core's L2 cache
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise distances, reference frames along rows, queries along columns."""

    matrix: np.ndarray  # (n_ref, n_query) float64, entries >= 0
    metric: str

    def __post_init__(self):
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValidationError(f"similarity matrix must be 2-d, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValidationError("similarity matrix has non-finite entries")
        if (matrix < 0).any():
            raise ValidationError("distances must be non-negative")
        if self.metric not in METRICS:
            raise ValidationError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if matrix.flags.owndata:
            matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


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
        if not (0.0 < self.v_min <= self.v_max):
            raise ValidationError(
                f"need 0 < v_min <= v_max, got v_min={self.v_min}, v_max={self.v_max}"
            )
        if self.v_step <= 0.0:
            raise ValidationError(f"v_step must be positive, got {self.v_step}")
        if self.r_window < 2:
            raise ValidationError(f"r_window must be at least 2, got {self.r_window}")


def velocity_grid(cfg: SeqSlamConfig) -> np.ndarray:
    count = int(np.floor((cfg.v_max - cfg.v_min) / cfg.v_step + 1e-9)) + 1
    return cfg.v_min + np.arange(count) * cfg.v_step


def similarity_matrix(ref: DescriptorSequence, query: DescriptorSequence,
                      metric: str = "cosine") -> SimilarityMatrix:
    """D[i, j] = distance between reference frame i and query frame j."""
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    if ref.dim != query.dim:
        raise ValidationError(
            f"descriptor dims differ: reference {ref.dim}, query {query.dim}"
        )
    a = ref.data.astype(np.float64)
    b = query.data.astype(np.float64)
    if metric == "sad":
        n_query = b.shape[0]
        matrix = np.empty((a.shape[0], n_query))
        # a query block's difference buffer stays in cache while every
        # reference row streams past it
        block = max(1, BLOCK_BYTES // (8 * b.shape[1]))
        diff = np.empty((min(block, n_query), b.shape[1]))
        for j0 in range(0, n_query, block):
            j1 = min(j0 + block, n_query)
            d = diff[:j1 - j0]
            for i in range(a.shape[0]):
                np.subtract(b[j0:j1], a[i], out=d)
                np.abs(d, out=d)
                d.sum(axis=1, out=matrix[i, j0:j1])
    else:
        for name, rows in (("reference", a), ("query", b)):
            norms = np.linalg.norm(rows, axis=1)
            if (norms == 0).any():
                frame = int(np.argmax(norms == 0))
                raise ValidationError(
                    f"zero-norm descriptor at {name} frame {frame}: cosine undefined"
                )
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        matrix = np.clip(1.0 - a @ b.T, 0.0, 2.0)
    return SimilarityMatrix(matrix=matrix, metric=metric)


def contrast_enhance(matrix, r_window: int) -> np.ndarray:
    """Normalize each entry against the mean/std of the r_window rows
    around it within its column: (D - mu_local) / (sigma_local + 1e-9)."""
    if r_window < 2:
        raise ValidationError(f"r_window must be at least 2, got {r_window}")
    d = matrix.matrix if isinstance(matrix, SimilarityMatrix) else matrix
    d = np.asarray(d, dtype=np.float64)
    r_window = int(r_window)
    n_rows = d.shape[0]
    w = min(r_window, n_rows)
    lo = np.clip(np.arange(n_rows) - r_window // 2, 0, n_rows - w)
    # per-column offset keeps the cumulative sums well conditioned (the
    # normalization is shift-invariant, and constant columns become exact)
    shifted = d - d[:1]
    s = np.zeros((n_rows + 1, d.shape[1]))
    np.cumsum(shifted, axis=0, out=s[1:])
    s2 = np.zeros_like(s)
    np.cumsum(shifted * shifted, axis=0, out=s2[1:])
    mean = (s[lo + w] - s[lo]) / w
    var = np.maximum((s2[lo + w] - s2[lo]) / w - mean * mean, 0.0)
    return (shifted - mean) / (np.sqrt(var) + ENHANCE_EPS)


def _minmax_rescale(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def seqslam_match(enhanced, cfg: SeqSlamConfig) -> MatchScores:
    """Constant-velocity line search over the enhanced matrix.

    For query j and candidate endpoint i the raw score is the best (lowest)
    mean of the enhanced entries along the back-projected line
    (max(i - round(v*k), 0), j - k), k = 0..ds-1, over the velocity grid.
    Each mean is summed over k in order starting from 0.0 and then divided
    by ds; the minimum is taken over v in grid order. Scores are negated and
    min-max rescaled to [0, 1]; queries with fewer than ds frames of history
    get all-zero rows (the lowest confidence).
    """
    enhanced = np.asarray(enhanced, dtype=np.float64)
    n_ref, n_query = enhanced.shape
    if n_ref <= cfg.ds or n_query <= cfg.ds:
        raise ValidationError(
            f"matrix {n_ref}x{n_query} too small for ds={cfg.ds}; both sides must exceed ds"
        )
    ds = cfg.ds
    # capped at n_ref: any larger offset also reads row 0 for every endpoint
    offsets = np.rint(np.outer(velocity_grid(cfg), np.arange(ds)))
    offsets = np.minimum(offsets, n_ref).astype(np.int64)
    pad = int(offsets.max())
    # etp[j] is query j's column left-padded with pad copies of its row-0
    # entry, so step k of velocity v's lines ending at i = 0..n_ref-1 is the
    # contiguous slice etp[j - k, pad - offset : pad - offset + n_ref]
    etp = np.empty((n_query, pad + n_ref))
    etp[:, :pad] = enhanced[0][:, None]
    etp[:, pad:] = enhanced.T
    starts = pad - offsets
    raw = np.zeros((n_query, n_ref))
    raw[ds - 1:] = np.inf
    block = max(1, BLOCK_BYTES // (8 * n_ref))
    acc = np.empty((block, n_ref))
    for j0 in range(ds - 1, n_query, block):
        j1 = min(j0 + block, n_query)
        lines = acc[:j1 - j0]
        best = raw[j0:j1]
        for line_starts in starts:
            lines[:] = 0.0
            for k, s in enumerate(line_starts):
                lines += etp[j0 - k:j1 - k, s:s + n_ref]
            lines /= ds
            np.minimum(best, lines, out=best)
    scores = np.zeros_like(raw)
    scores[ds - 1:] = _minmax_rescale(-raw[ds - 1:])
    return MatchScores.from_scores(scores)


def pairwise_match(matrix) -> MatchScores:
    """Single-frame matching: best place per query is the smallest distance;
    confidence is one minus the min-max normalized distance."""
    d = matrix.matrix if isinstance(matrix, SimilarityMatrix) else np.asarray(matrix)
    return MatchScores.from_scores(_minmax_rescale(-d.T.astype(np.float64)))


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
    out = np.empty_like(data)
    # valid range: both half-windows fit, t in [w, n-w]
    t = np.arange(w, n - w + 1)
    ahead = (sums[t + w] - sums[t]) / w
    behind = (sums[t] - sums[t - w]) / w
    delta = ahead - behind
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    delta /= norms
    out[w:n - w + 1] = delta
    out[:w] = delta[0]
    out[n - w + 1:] = delta[-1]
    return DescriptorSequence(data=out.astype(np.float32))
