"""Independent brute-force oracles used by the test suite.

Everything here is written against the documented behavior with plain
loops and stays independent of the library's vectorized code paths.
"""

import math

import numpy as np

from seqplace.core import ValidationError


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
    env = [p.tolist() for p in (model.env_lstm.w_x, model.env_lstm.w_h, model.env_lstm.b)]
    second = [p.tolist() for p in (model.spl_lstm.w_x, model.spl_lstm.w_h, model.spl_lstm.b)]
    for d, pose in zip(desc, std_pose):
        d = [float(v) for v in d]
        x_env = d + [float(v) * cfg.pose_weight for v in pose]
        h_env, c_env = scalar_lstm_step(x_env, h_env, c_env, *env)
        h_spl, c_spl = scalar_lstm_step(d + h_env, h_spl, c_spl, *second)
    logits = linear(h_spl, model.w_out.tolist(), model.b_out.tolist())
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
