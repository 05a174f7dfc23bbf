"""Dense network numerics on numpy: LSTM cell, softmax cross-entropy,
Adam, and plateau learning-rate scheduling.

Gradients are hand-derived for exactly these layers; there is no general
autodiff. Training arithmetic is float32; the tests check the gradients
against central finite differences in float64.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import platform
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import NumericsError, ValidationError

# Pre-activations are clamped before the nonlinearities to keep exp from
# overflowing. In float32, sigmoid is exactly 1 and tanh exactly +-1 well
# before +-60, while sigmoid(-60) is about 8.7e-27, small but normal; yet
# products that carry such gates (h = o * tanh(c), f * c_prev, and in the
# backward pass dc * i, dc * f, do * o and the dz factors) reach the float32
# subnormal range below 1.2e-38, which every GEMM and elementwise op handles
# on a slow path. Two things keep training off it. flush_tiny zeroes h and dz
# where they are made, so the next step's GEMMs multiply none; spl.train runs
# its epochs under denormals_flushed, which flushes the intermediate products
# in hardware on x86-64 Linux (a no-op elsewhere). That mode sets MXCSR for
# the calling thread only, and BLAS worker threads keep their own: a 512x512
# by 512x2048 GEMM of ~1e-20 operands took 1645 ms without the mode and 15 ms
# in it on one BLAS thread, 855 and 917 ms on two, so with more threads
# flush_tiny is the GEMMs' only guard. spl.infer runs in the mode too, where
# the env cell's f * c_prev and o * tanh(c) made subnormals; same bytes.
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


# MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6) bits, and
# where glibc's 32-byte x86-64 fenv_t keeps MXCSR
_FTZ_DAZ = 0x8040
_FENV_BYTES, _MXCSR_OFFSET = 32, 28


@functools.lru_cache(maxsize=None)
def _fenv_calls():
    """libm's (fegetenv, fesetenv) on x86-64 Linux, else None. libm is
    opened by soname: ctypes.util.find_library would start ldconfig."""
    if sys.platform != "linux" or platform.machine() != "x86_64":
        return None
    try:
        libm = ctypes.CDLL("libm.so.6")
    except OSError:
        return None
    calls = libm.fegetenv, libm.fesetenv
    for call in calls:
        call.argtypes = [ctypes.c_void_p]
        call.restype = ctypes.c_int
    return calls


@contextlib.contextmanager
def denormals_flushed():
    """Run the body with the calling thread's float arithmetic flushing
    subnormal results to zero (FTZ) and reading subnormal inputs as zero
    (DAZ), then restore the thread's floating-point environment, also when
    the body raises. A no-op off x86-64 Linux or if libm's fenv calls fail.

    Only values below the smallest normal number change, in float32 and
    float64 alike. Comparisons inside the body read subnormals as zero, so
    classify values there by their bit pattern.
    """
    calls = _fenv_calls()
    saved = ctypes.create_string_buffer(_FENV_BYTES)
    if calls is None or calls[0](saved) != 0:
        yield
        return
    flushed = ctypes.create_string_buffer(saved.raw, _FENV_BYTES)
    ctypes.c_uint32.from_buffer(flushed, _MXCSR_OFFSET).value |= _FTZ_DAZ
    try:
        calls[1](flushed)
        yield
    finally:
        calls[1](saved)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class LstmParams(NamedTuple):
    """One cell's gate parameters, views of a model's tensors: input
    weights, recurrent weights and bias, their rows stacked in blocks
    ordered input, forget, candidate, output."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray


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


def lstm_step_backward(dh, dc_in, cache: StepCache, w_h, gw_h):
    """Backward through one step of a cell with recurrent weights w_h;
    accumulates their gradient into gw_h.

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
    return dz, dz @ w_h, dc_prev


def softmax(logits):
    """Softmax over the last axis, computed in place in logits, in its precision."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    return np.divide(logits, logits.sum(axis=-1, keepdims=True), out=logits)


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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
PLATEAU_FACTOR, PLATEAU_PATIENCE = 0.5, 10


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

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
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


@dataclass(frozen=True)
class SchedulerState:
    """Plateau scheduler bookkeeping; current_lr never goes below min_lr."""

    current_lr: float
    best_loss: float = math.inf
    epochs_since_improvement: int = 0


def plateau_step(state: SchedulerState, epoch_loss: float, min_lr: float) -> SchedulerState:
    """Halt-and-decay rule: reset on strict improvement, multiply the rate by
    PLATEAU_FACTOR once the stagnation counter exceeds PLATEAU_PATIENCE."""
    if not math.isfinite(epoch_loss):
        raise ValidationError(f"epoch loss must be finite, got {epoch_loss}")
    if epoch_loss < state.best_loss:
        return replace(state, best_loss=epoch_loss, epochs_since_improvement=0)
    count = state.epochs_since_improvement + 1
    if count > PLATEAU_PATIENCE:
        lr = max(state.current_lr * PLATEAU_FACTOR, min_lr)
        return replace(state, current_lr=lr, epochs_since_improvement=0)
    return replace(state, epochs_since_improvement=count)
