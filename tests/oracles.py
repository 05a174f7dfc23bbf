"""Independent brute-force oracles used by the test suite.

Everything here is written against the documented behavior with plain
loops and stays independent of the library's vectorized code paths.
"""

import dataclasses
import math
import platform
import sys
import tracemalloc

import numpy as np

from seqplace.core import FormatError, Rescaled, ValidationError, open_text


# --- scalar LSTM reference ------------------------------------------------------

def _sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def scalar_lstm_step(x, h_prev, c_prev, w_x, w_h, b):
    """Plain-python LSTM step; gate blocks ordered i, f, g, o."""
    hidden = len(h_prev)
    z = []
    for row in range(4 * hidden):
        acc = b[row]
        for k in range(len(x)):
            acc += w_x[row][k] * x[k]
        for k in range(hidden):
            acc += w_h[row][k] * h_prev[k]
        z.append(min(max(acc, -60.0), 60.0))
    h_out, c_out = [], []
    for u in range(hidden):
        gi = _sig(z[u])
        gf = _sig(z[hidden + u])
        gg = math.tanh(z[2 * hidden + u])
        go = _sig(z[3 * hidden + u])
        c = gf * c_prev[u] + gi * gg
        c_out.append(c)
        h_out.append(go * math.tanh(c))
    return h_out, c_out


def scalar_lstm_grads_1d(x, h0, c0, w_x, w_h, b):
    """Closed-form gradients of h after one step, scalar case (D=1, H=1).

    Parameter layout follows the stacked-row convention: index 0=i, 1=f,
    2=g, 3=o. Returns dicts for d h / d(w_x rows), (w_h rows), (b rows),
    plus (dx, dh0, dc0).
    """
    z = [w_x[k] * x + w_h[k] * h0 + b[k] for k in range(4)]
    gi, gf, go = _sig(z[0]), _sig(z[1]), _sig(z[3])
    gg = math.tanh(z[2])
    c = gf * c0 + gi * gg
    tc = math.tanh(c)
    dc = go * (1.0 - tc * tc)
    dz = [
        dc * gg * gi * (1.0 - gi),
        dc * c0 * gf * (1.0 - gf),
        dc * gi * (1.0 - gg * gg),
        tc * go * (1.0 - go),
    ]
    d_wx = [dz[k] * x for k in range(4)]
    d_wh = [dz[k] * h0 for k in range(4)]
    d_b = list(dz)
    dx = sum(dz[k] * w_x[k] for k in range(4))
    dh0 = sum(dz[k] * w_h[k] for k in range(4))
    dc0 = dc * gf
    return d_wx, d_wh, d_b, dx, dh0, dc0


# --- output head and loss references ----------------------------------------------

def linear(x, w, b):
    """Plain-python dense layer: y[r] = b[r] + sum_k w[r][k] * x[k]."""
    return [b[r] + sum(w[r][k] * x[k] for k in range(len(x))) for r in range(len(b))]


def softmax_cross_entropy(logits, target):
    """Single-sample loss -log softmax(logits)[target] and its logit gradient."""
    m = max(logits)
    log_z = m + math.log(sum(math.exp(v - m) for v in logits))
    grad = [math.exp(v - log_z) for v in logits]
    grad[target] -= 1.0
    return log_z - logits[target], grad


def spl_window_scores(model, desc, std_pose):
    """Softmax place scores of one window of a dual-LSTM model: both cells
    stepped with scalar_lstm_step from zero states, then the dense head."""
    cfg = model.config
    hidden = [0.0] * cfg.hidden_size
    h_env, c_env, h_spl, c_spl = hidden, hidden, hidden, hidden
    # the documented tensor order: env w_x, w_h, b; second cell's; w_out, b_out
    env = [p.tolist() for p in model.params[:3]]
    second = [p.tolist() for p in model.params[3:6]]
    w_out, b_out = (p.tolist() for p in model.params[6:])
    for d, pose in zip(desc, std_pose):
        d = [float(v) for v in d]
        x_env = d + [float(v) * cfg.pose_weight for v in pose]
        h_env, c_env = scalar_lstm_step(x_env, h_env, c_env, *env)
        h_spl, c_spl = scalar_lstm_step(d + h_env, h_spl, c_spl, *second)
    logits = linear(h_spl, w_out, b_out)
    m = max(logits)
    e = [math.exp(v - m) for v in logits]
    return [v / sum(e) for v in e]


# --- classic matcher oracles -----------------------------------------------------

def sad_brute(ref, query):
    out = np.zeros((len(ref), len(query)))
    for i in range(len(ref)):
        for j in range(len(query)):
            out[i, j] = sum(abs(float(a) - float(b)) for a, b in zip(ref[i], query[j]))
    return out


def sad_rowloop(ref, query):
    """SAD one reference row at a time against all queries at once.

    Each distance is numpy's float64 sum over a row of |query - ref|, so,
    unlike sad_brute, this is the exact reference for the library's
    query-blocked loop."""
    ref = np.asarray(ref, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    out = np.empty((ref.shape[0], query.shape[0]))
    diff = np.empty_like(query)
    for i in range(ref.shape[0]):
        np.subtract(query, ref[i], out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=1, out=out[i])
    return out


def enhance_brute(d, r_window):
    d = np.asarray(d, dtype=np.float64)
    n_rows, n_cols = d.shape
    w = min(r_window, n_rows)
    out = np.zeros_like(d)
    for j in range(n_cols):
        for i in range(n_rows):
            lo = i - r_window // 2
            lo = min(max(lo, 0), n_rows - w)
            window = d[lo:lo + w, j]
            mu = window.mean()
            sigma = window.std()
            out[i, j] = (d[i, j] - mu) / (sigma + 1e-9)
    return out


def enhance_whole(d, r_window):
    """Contrast enhancement on the whole matrix at once: cumulative sums of
    the column-offset matrix down every column, then the windowed mean and
    variance. Every entry goes through the same float64 operations as in
    the library's column-blocked loop, so this is its exact reference."""
    d = np.asarray(d, dtype=np.float64)
    n_rows = d.shape[0]
    w = min(r_window, n_rows)
    lo = np.clip(np.arange(n_rows) - r_window // 2, 0, n_rows - w)
    shifted = d - d[:1]
    s = np.zeros((n_rows + 1, d.shape[1]))
    np.cumsum(shifted, axis=0, out=s[1:])
    s2 = np.zeros_like(s)
    np.cumsum(shifted * shifted, axis=0, out=s2[1:])
    mean = (s[lo + w] - s[lo]) / w
    var = np.maximum((s2[lo + w] - s2[lo]) / w - mean * mean, 0.0)
    return (shifted - mean) / (np.sqrt(var) + 1e-9)


def line_scores_brute(enhanced, ds, velocities):
    """Raw minimum-over-velocities line means, zeros for j < ds - 1.

    Accumulates sequentially over k then compares over v, matching the
    documented evaluation order exactly.
    """
    enhanced = np.asarray(enhanced, dtype=np.float64)
    n_ref, n_query = enhanced.shape
    out = np.zeros((n_query, n_ref))
    for j in range(ds - 1, n_query):
        for i in range(n_ref):
            best = math.inf
            for v in velocities:
                acc = 0.0
                for k in range(ds):
                    r = i - round(v * k)
                    r = min(max(r, 0), n_ref - 1)
                    acc += enhanced[r, j - k]
                mean = acc / ds
                if mean < best:
                    best = mean
            out[j, i] = best
    return out


def score_matrix(blocks):
    """Stack blocks of score rows into one matrix, forming each Rescaled
    record's scores with the package's formula: (hi - d) / (hi - lo), two
    rounded operations, with lo and hi the least and greatest distance, or
    all ones when hi == lo."""
    rows = []
    for block in blocks:
        if isinstance(block, Rescaled):
            d = block.distances
            lo, hi = d.min(), d.max()
            block = np.ones(d.shape) if hi == lo else np.subtract(hi, d) / (hi - lo)
        rows.append(np.asarray(block))
    return np.vstack(rows)


def seqslam_scores_brute(enhanced, ds, velocities):
    """Full score matrix: negated line means min-max rescaled to [0, 1]
    over rows with complete history; earlier rows are all zeros."""
    raw = line_scores_brute(enhanced, ds, velocities)
    scores = np.zeros_like(raw)
    block = -raw[ds - 1:]
    lo, hi = block.min(), block.max()
    if hi == lo:
        scores[ds - 1:] = 1.0
    else:
        scores[ds - 1:] = (block - lo) / (hi - lo)
    return scores


def delta_brute(data, w):
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    out = np.zeros_like(data)
    for t in range(n):
        tt = min(max(t, w), n - w)
        ahead = data[tt:tt + w].mean(axis=0)
        behind = data[tt - w:tt].mean(axis=0)
        delta = ahead - behind
        norm = np.linalg.norm(delta)
        out[t] = delta / norm if norm > 0 else delta
    return out


# --- PR / AUC oracle -------------------------------------------------------------

def pr_sweep_brute(confidence, correct):
    """Enumerate every distinct threshold and recount TP/retrieved from
    scratch. Returns (points, auc, max_recall_at_full_precision)."""
    confidence = np.asarray(confidence, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    n = confidence.shape[0]
    points = []
    for thr in sorted(set(confidence.tolist()), reverse=True):
        retrieved = 0
        tp = 0
        for conf, good in zip(confidence, correct):
            if conf >= thr:
                retrieved += 1
                if good:
                    tp += 1
        precision = tp / retrieved if retrieved else 1.0
        points.append((thr, precision, tp / n))
    area = 0.0
    last_r, last_p = 0.0, points[0][1]
    for _, precision, recall in points:
        area += (recall - last_r) * (precision + last_p) / 2.0
        last_r, last_p = recall, precision
    best = 0.0
    for _, precision, recall in points:
        if precision == 1.0 and recall > best:
            best = recall
    return points, area, best


# --- CSV table oracle -------------------------------------------------------------

def read_table_rows(path, header, kinds):
    """ingest.read_table as the row-by-row reader it was before it called
    np.loadtxt: split every row, check widths, convert each column with
    int() or float(), and name the line of the first bad row or value."""
    text = open_text(path).read().split("\n")
    first = 0
    if header is not None:
        got = text[0].strip().replace(" ", "")
        if got != header:
            raise FormatError(f"{path}: expected header {header!r}, got {got!r}")
        first = 1
    numbered = [(lineno, line.split(","))
                for lineno, line in enumerate(map(str.strip, text[first:]), first + 1) if line]
    if not numbered:
        raise FormatError(f"{path}: no rows found")
    lines, rows = zip(*numbered)
    if header is None:
        kinds = (kinds,) * len(rows[0])
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    ok = widths == len(kinds)
    if not ok.all():
        raise FormatError(f"{path}:{lines[int(np.argmin(ok))]}: "
                          f"expected {len(kinds)} comma-separated values")
    columns = [_table_column(path, kind, values, lines) for kind, values in zip(kinds, zip(*rows))]
    return columns, lines


def _table_column(path, kind, values, lines) -> np.ndarray:
    dtype = np.int64 if kind is int else np.float64
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


# --- gradient oracle --------------------------------------------------------------

def grad_check(loss, params, grads, eps: float) -> float:
    """Compare analytic gradients against central finite differences.

    loss() must deterministically return the loss for the current parameter
    values; grads are its analytic gradients at the unperturbed values and
    params the float64 arrays they belong to, perturbed in place here.
    Returns the worst relative error over every parameter entry.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    for idx, p in enumerate(params):
        if p.dtype != np.float64:
            raise ValidationError(
                f"gradient checking requires float64 parameters (parameter {idx} is {p.dtype})"
            )
    if loss() != loss():
        raise ValidationError("loss is not deterministic: repeated evaluations differ")
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            loss_plus = loss()
            flat[k] = orig - eps
            loss_minus = loss()
            flat[k] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(gflat[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst


def widened(model):
    """The model with float64 copies of its parameters, for grad_check."""
    return dataclasses.replace(model, params=[p.astype(np.float64) for p in model.params])


def adam_scalar_steps(grad, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Simulate the Adam recurrence on one scalar with a constant gradient;
    returns the sequence of parameter values starting from 0."""
    p, m, v = 0.0, 0.0, 0.0
    values = []
    for t in range(1, steps + 1):
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
        values.append(p)
    return values


# --- memory -----------------------------------------------------------------------

def traced_peak(run) -> int:
    """The peak of the bytes tracemalloc traces while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- float32 subnormals -----------------------------------------------------------

# where nn.denormals_flushed sets the CPU's flush-to-zero and denormals-are-zero modes
FLUSH_MODE_AVAILABLE = sys.platform == "linux" and platform.machine() == "x86_64"


def subnormal_mask(values):
    """True where a float32 value is subnormal: exponent bits zero, mantissa
    bits not. Reads the bits, so it holds also where the CPU reads subnormal
    operands as zero and a comparison like 0 < |x| < tiny would miss them."""
    values = np.asarray(values)
    if values.dtype != np.float32:
        raise TypeError(f"expected float32, got {values.dtype}")
    bits = values.view(np.uint32)
    return ((bits & 0x7F800000) == 0) & ((bits & 0x007FFFFF) != 0)


def subnormal_probe():
    """float32 1e-30 * 1e-10: the subnormal 1e-40, or 0 with flush-to-zero on."""
    return np.float32(1e-30) * np.float32(1e-10)
