"""Dense network numerics on numpy: LSTM cell, softmax cross-entropy,
Adam, and plateau learning-rate scheduling.

Gradients are hand-derived for exactly these layers; there is no general
autodiff. Training arithmetic is float32; the tests check the gradients
against central finite differences in float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import NumericsError, ValidationError

# Pre-activations are clamped before the nonlinearities to keep exp from
# overflowing on extreme inputs. In float32, sigmoid is exactly 1 and tanh
# exactly +-1 well before +-60, while sigmoid(-60) is about 8.7e-27: a
# saturated gate is small but normal. Products that carry one or more such
# gates (h = o * tanh(c), and in the backward pass chain-rule terms like
# dh * o or di * i * (1 - i)) reach 1e-27...1e-45, the float32 subnormal
# range below 1.2e-38 that every GEMM and elementwise op handles on a slow
# path. The clip does not prevent that; flush_tiny, applied to h and to the
# pre-activation gradient dz where they are made, is what keeps the
# recurrence off the subnormal range. The cell state c = f * c_prev + i * g
# is left as it is: with i >= 8.7e-27 it goes subnormal only if |g| < 1e-12
# or the two terms cancel, and training at pose weight 500 shows neither.
GATE_CLIP = 60.0


def flush_tiny(x):
    """Zero, in place, the entries of x below sqrt(finfo(x.dtype).tiny) in
    magnitude and return x.

    Any product of two entries that survive is then normal or exactly zero.
    The threshold follows the dtype: about 1.1e-19 in float32, 1.5e-154 in
    float64, where it leaves gradient checks untouched. Multiplying by the
    keep mask is branch-free; a masked assignment costs several times more
    when, as in training at pose weight 500, up to a quarter of the entries
    are flushed.
    """
    return np.multiply(x, np.abs(x) >= _flush_threshold(x.dtype), out=x)


@functools.lru_cache(maxsize=None)
def _flush_threshold(dtype) -> float:
    return math.sqrt(float(np.finfo(dtype).tiny))


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

    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tc: np.ndarray  # tanh of the new cell state
    h: np.ndarray   # the step's (flushed) hidden output o * tc


def lstm_apply_gates(z, c_prev):
    """Gate math on precomputed pre-activations z, rows ordered i, f, g, o:
    i=sig, f=sig, g=tanh, o=sig; c=f*c+i*g; h=o*tanh(c), flushed
    (flush_tiny).

    z is clipped in place. Returns (h, c, (i, f, g, o, tanh(c))).
    """
    h = z.shape[-1] // 4
    np.clip(z, -GATE_CLIP, GATE_CLIP, out=z)
    gi = sigmoid(z[:, :h])
    gf = sigmoid(z[:, h:2 * h])
    gg = np.tanh(z[:, 2 * h:3 * h])
    go = sigmoid(z[:, 3 * h:])
    c = gf * c_prev + gi * gg
    tc = np.tanh(c)
    return flush_tiny(go * tc), c, (gi, gf, gg, go, tc)


def lstm_step_batch(z, h_prev, c_prev):
    """One LSTM step over a batch of rows from pre-activations
    z = x W_x^T + h_prev W_h^T + b. Returns (h, c, cache)."""
    h_new, c, gates = lstm_apply_gates(z, c_prev)
    return h_new, c, StepCache(h_prev, c_prev, *gates, h_new)


def lstm_step_backward(dh, dc_in, cache: StepCache, params: LstmParams, gw_h):
    """Backward through one step; accumulates the recurrent-weight gradient
    into gw_h.

    Returns (dz, dh_prev, dc_prev): dz is the pre-activation gradient,
    flushed (flush_tiny), from which the caller forms the input-weight and
    bias gradients.
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
    dz = flush_tiny(np.concatenate([dzi, dzf, dzg, dzo], axis=1))
    gw_h += dz.T @ cache.h_prev
    return dz, dz @ params.w_h, dc_prev


def softmax(logits, out=None):
    """Softmax over the last axis, computed in the precision of logits;
    with out given, the result is written there (cast to its dtype)."""
    logits = np.asarray(logits)
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=out, dtype=e.dtype)


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
