"""Dense network numerics on numpy: LSTM cell, linear head, softmax
cross-entropy, Adam, plateau learning-rate scheduling, and a central
finite-difference gradient checker.

Gradients are hand-derived for exactly these layers; there is no general
autodiff. Training arithmetic is float32, gradient checking float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NumericsError, ValidationError

# Pre-activations are clamped before the nonlinearities. sigmoid/tanh are
# flat to double precision beyond +-60, so the clamp cannot change results
# at trained scales but prevents exp overflow on extreme inputs.
GATE_CLIP = 60.0


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class LstmParams:
    """Stacked gate parameters; row blocks ordered input, forget, candidate, output."""

    w_x: np.ndarray  # (4H, D)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray    # (4H,)

    def __post_init__(self):
        h4, d = self.w_x.shape
        if h4 % 4 != 0:
            raise ValidationError(f"w_x must have 4H rows, got {h4}")
        h = h4 // 4
        if self.w_h.shape != (h4, h):
            raise ValidationError(
                f"w_h shape {self.w_h.shape} inconsistent with w_x {self.w_x.shape}"
            )
        if self.b.shape != (h4,):
            raise ValidationError(f"b shape {self.b.shape}, expected ({h4},)")
        for name in ("w_x", "w_h", "b"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"non-finite entries in {name}")

    @property
    def hidden_size(self) -> int:
        return self.w_x.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    @classmethod
    def initialize(cls, input_dim: int, hidden_size: int, rng: np.random.Generator,
                   dtype=np.float32) -> "LstmParams":
        """Uniform(-1/sqrt(H), 1/sqrt(H)) weights; zero biases except forget = 1."""
        limit = 1.0 / math.sqrt(hidden_size)
        w_x = rng.uniform(-limit, limit, (4 * hidden_size, input_dim)).astype(dtype)
        w_h = rng.uniform(-limit, limit, (4 * hidden_size, hidden_size)).astype(dtype)
        b = np.zeros(4 * hidden_size, dtype=dtype)
        b[hidden_size:2 * hidden_size] = 1.0
        return cls(w_x=w_x, w_h=w_h, b=b)

    def copy(self) -> "LstmParams":
        return LstmParams(w_x=self.w_x.copy(), w_h=self.w_h.copy(), b=self.b.copy())


@dataclass
class StepCache:
    """Activations retained from one forward step for the backward pass."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tc: np.ndarray  # tanh of the new cell state


def lstm_apply_gates(z, c_prev):
    """Gate math alone, for callers that precompute the pre-activations z.

    Returns (h, c) without a backward cache; z is clipped in place.
    """
    h = z.shape[-1] // 4
    np.clip(z, -GATE_CLIP, GATE_CLIP, out=z)
    gi = sigmoid(z[:, :h])
    gf = sigmoid(z[:, h:2 * h])
    gg = np.tanh(z[:, 2 * h:3 * h])
    go = sigmoid(z[:, 3 * h:])
    c = gf * c_prev + gi * gg
    return go * np.tanh(c), c


def lstm_step_batch(x, h_prev, c_prev, params: LstmParams):
    """One LSTM step over a batch of rows. Returns (h, c, cache)."""
    h = params.hidden_size
    z = x @ params.w_x.T + h_prev @ params.w_h.T + params.b
    np.clip(z, -GATE_CLIP, GATE_CLIP, out=z)
    gi = sigmoid(z[:, :h])
    gf = sigmoid(z[:, h:2 * h])
    gg = np.tanh(z[:, 2 * h:3 * h])
    go = sigmoid(z[:, 3 * h:])
    c = gf * c_prev + gi * gg
    tc = np.tanh(c)
    h_new = go * tc
    return h_new, c, StepCache(x=x, h_prev=h_prev, c_prev=c_prev,
                               i=gi, f=gf, g=gg, o=go, tc=tc)


def lstm_step(x, h_prev, c_prev, params: LstmParams):
    """Single-vector LSTM step: i=sig, f=sig, g=tanh, o=sig; c=f*c+i*g; h=o*tanh(c)."""
    x = np.asarray(x)
    h_prev = np.asarray(h_prev)
    c_prev = np.asarray(c_prev)
    h = params.hidden_size
    if x.shape != (params.input_dim,):
        raise ValidationError(
            f"input has shape {x.shape}, params expect ({params.input_dim},)"
        )
    if h_prev.shape != (h,) or c_prev.shape != (h,):
        raise ValidationError(
            f"state shapes {h_prev.shape}/{c_prev.shape}, params expect ({h},)"
        )
    h_new, c, cache = lstm_step_batch(x[None, :], h_prev[None, :], c_prev[None, :], params)
    return h_new[0], c[0], cache


def lstm_forward(xs, params: LstmParams, h0=None, c0=None):
    """Run the cell over a (T, B, D) input sequence from the given states.

    Returns (hs, caches, (h_T, c_T)) with hs shaped (T, B, H).
    """
    xs = np.asarray(xs)
    squeeze = xs.ndim == 2
    if squeeze:
        xs = xs[:, None, :]
    t_steps, batch, _ = xs.shape
    h = params.hidden_size
    dtype = xs.dtype
    h_t = np.zeros((batch, h), dtype=dtype) if h0 is None else np.atleast_2d(h0)
    c_t = np.zeros((batch, h), dtype=dtype) if c0 is None else np.atleast_2d(c0)
    hs = np.empty((t_steps, batch, h), dtype=dtype)
    caches = []
    for t in range(t_steps):
        h_t, c_t, cache = lstm_step_batch(xs[t], h_t, c_t, params)
        hs[t] = h_t
        caches.append(cache)
    if squeeze:
        return hs[:, 0, :], caches, (h_t[0], c_t[0])
    return hs, caches, (h_t, c_t)


def lstm_step_backward(dh, dc_in, cache: StepCache, params: LstmParams,
                       gw_x, gw_h, gb):
    """Backward through one step; accumulates into gw_x/gw_h/gb.

    Returns (dx, dh_prev, dc_prev) for the chain to the previous step.
    """
    dc = dc_in + dh * cache.o * (1.0 - cache.tc * cache.tc)
    do = dh * cache.tc
    di = dc * cache.g
    dg = dc * cache.i
    df = dc * cache.c_prev
    dc_prev = dc * cache.f
    dzi = di * cache.i * (1.0 - cache.i)
    dzf = df * cache.f * (1.0 - cache.f)
    dzg = dg * (1.0 - cache.g * cache.g)
    dzo = do * cache.o * (1.0 - cache.o)
    dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)
    gw_x += dz.T @ cache.x
    gw_h += dz.T @ cache.h_prev
    gb += dz.sum(axis=0)
    dx = dz @ params.w_x
    dh_prev = dz @ params.w_h
    return dx, dh_prev, dc_prev


def lstm_backward(grad_h_seq, caches, params: LstmParams):
    """Exact reverse-mode gradients through a full forward window.

    grad_h_seq holds the loss gradient w.r.t. each step's hidden output,
    shaped (T, H) or (T, B, H). Returns (param_grads, dx_seq, dh0, dc0).
    """
    grad_h_seq = np.asarray(grad_h_seq)
    squeeze = grad_h_seq.ndim == 2
    if squeeze:
        grad_h_seq = grad_h_seq[:, None, :]
    t_steps = grad_h_seq.shape[0]
    if len(caches) != t_steps:
        raise ValidationError(
            f"{len(caches)} cached steps but gradients for {t_steps} steps"
        )
    batch = grad_h_seq.shape[1]
    dtype = grad_h_seq.dtype
    gw_x = np.zeros_like(params.w_x, dtype=dtype)
    gw_h = np.zeros_like(params.w_h, dtype=dtype)
    gb = np.zeros_like(params.b, dtype=dtype)
    dx_seq = np.empty((t_steps, batch, params.input_dim), dtype=dtype)
    dh = np.zeros((batch, params.hidden_size), dtype=dtype)
    dc = np.zeros((batch, params.hidden_size), dtype=dtype)
    for t in reversed(range(t_steps)):
        dh = dh + grad_h_seq[t]
        dx, dh, dc = lstm_step_backward(dh, dc, caches[t], params, gw_x, gw_h, gb)
        dx_seq[t] = dx
    grads = LstmParams(w_x=gw_x, w_h=gw_h, b=gb)
    if squeeze:
        return grads, dx_seq[:, 0, :], dh[0], dc[0]
    return grads, dx_seq, dh, dc


def linear_forward(x, w, b):
    """logits = W x + b, for a single vector or a batch of rows."""
    x = np.asarray(x)
    if x.shape[-1] != w.shape[1]:
        raise ValidationError(
            f"input dim {x.shape[-1]} does not match weight columns {w.shape[1]}"
        )
    if b.shape != (w.shape[0],):
        raise ValidationError(f"bias shape {b.shape}, expected ({w.shape[0]},)")
    return x @ w.T + b


def linear_backward(dy, x, w):
    """Gradients of the linear layer: returns (dW, db, dx)."""
    dy = np.asarray(dy)
    x = np.asarray(x)
    if dy.ndim == 1:
        return np.outer(dy, x), dy.copy(), dy @ w
    return dy.T @ x, dy.sum(axis=0), dy @ w


def softmax(logits, out=None):
    """Softmax over the last axis, computed in the precision of logits;
    with out given, the result is written there (cast to its dtype)."""
    logits = np.asarray(logits)
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=out, dtype=e.dtype)


def softmax_cross_entropy(logits, target: int):
    """Loss = -log softmax(logits)[target]; grad = softmax - one_hot."""
    logits = np.asarray(logits)
    n = logits.shape[0]
    if not 0 <= target < n:
        raise ValidationError(f"target {target} out of range for {n} classes")
    m = logits.max()
    shifted = logits - m
    log_z = np.log(np.exp(shifted).sum())
    loss = float(log_z - shifted[target])
    grad = np.exp(shifted - log_z)
    grad[target] -= 1.0
    return loss, grad


def softmax_cross_entropy_batch(logits, targets):
    """Per-sample losses and logit gradients for a batch; grads not yet averaged."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    n = logits.shape[1]
    if targets.min() < 0 or targets.max() >= n:
        raise ValidationError(f"targets out of range for {n} classes")
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(logits.shape[0])
    losses = (log_z[:, 0] - shifted[rows, targets])
    grads = np.exp(shifted - log_z)
    grads[rows, targets] -= 1.0
    return losses, grads


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float):
    """Bias-corrected Adam update, applied in place; weight decay is fixed at 0."""
    for idx, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {idx}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state


@dataclass(frozen=True)
class SchedulerState:
    """Plateau scheduler bookkeeping; current_lr never goes below min_lr."""

    current_lr: float
    best_loss: float = math.inf
    epochs_since_improvement: int = 0


def plateau_step(state: SchedulerState, epoch_loss: float, factor: float,
                 patience: int, min_lr: float) -> SchedulerState:
    """Halt-and-decay rule: reset on strict improvement, decay once the
    stagnation counter exceeds patience."""
    if not math.isfinite(epoch_loss):
        raise ValidationError(f"epoch loss must be finite, got {epoch_loss}")
    if epoch_loss < state.best_loss:
        return SchedulerState(current_lr=state.current_lr, best_loss=epoch_loss,
                              epochs_since_improvement=0)
    count = state.epochs_since_improvement + 1
    if count > patience:
        return SchedulerState(current_lr=max(state.current_lr * factor, min_lr),
                              best_loss=state.best_loss, epochs_since_improvement=0)
    return SchedulerState(current_lr=state.current_lr, best_loss=state.best_loss,
                          epochs_since_improvement=count)


def grad_check(loss_and_grads, params, eps: float) -> float:
    """Compare analytic gradients against central finite differences.

    loss_and_grads() must deterministically return (loss, grads) for the
    current parameter values; params are float64 arrays perturbed in place.
    Returns the worst relative error over every parameter entry.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    for idx, p in enumerate(params):
        if p.dtype != np.float64:
            raise ValidationError(
                f"gradient checking requires float64 parameters (parameter {idx} is {p.dtype})"
            )
    loss_a, grads_a = loss_and_grads()
    loss_b, grads_b = loss_and_grads()
    same = loss_a == loss_b and all(
        np.array_equal(ga, gb) for ga, gb in zip(grads_a, grads_b)
    )
    if not same:
        raise ValidationError("closure is not deterministic: repeated evaluations differ")
    worst = 0.0
    for p, g in zip(params, grads_a):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            loss_plus, _ = loss_and_grads()
            flat[k] = orig - eps
            loss_minus, _ = loss_and_grads()
            flat[k] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(gflat[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst
