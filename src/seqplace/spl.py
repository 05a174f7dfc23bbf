"""The sequence place-learning model: a dual-LSTM network fusing visual
descriptors with weighted positional encodings (plus a single-LSTM
baseline variant), trained with BPTT over temporal windows, with
deployment inference and checkpoint persistence.

Checkpoint format: magic "SPLM", little-endian uint32 version (=1) and
variant tag (0 baseline / 1 dual), uint32 descriptor_dim, hidden_size,
num_places, tw, float64 pose_weight, float64 pose mu[2] and sigma[2],
then float32 tensors in order: env w_x, env w_h, env b, (dual only:
second-cell w_x, w_h, b), output weights, output bias.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .core import (
    DescriptorSequence,
    FormatError,
    MatchScores,
    ModelConfig,
    NumericsError,
    PoseSequence,
    TrainConfig,
    ValidationError,
    seeded_rng,
)
from .ingest import apply_standardization, make_windows, standardize_poses

CKPT_MAGIC = b"SPLM"
CKPT_VERSION = 1
_VARIANT_TAGS = {"baseline": 0, "spl": 1}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}
# Windows per inference batch; bounds the (batch, 4H) recurrence temporaries.
_INFER_CHUNK = 512


@dataclass
class SplModel:
    """All learnable parameters plus the pose statistics captured at training.

    Treat instances as immutable once trained; inference never mutates them.
    """

    config: ModelConfig
    env_lstm: nn.LstmParams
    spl_lstm: nn.LstmParams | None
    w_out: np.ndarray
    b_out: np.ndarray
    pose_mu: np.ndarray
    pose_sigma: np.ndarray

    @property
    def variant(self) -> str:
        return self.config.variant

    @property
    def dtype(self):
        return self.w_out.dtype


@dataclass
class TrainHistory:
    """Per-epoch training loss, top-1 accuracy, and learning rate."""

    loss: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    lr: list = field(default_factory=list)


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> SplModel:
    """Initialize a model deterministically from the seed."""
    rng = seeded_rng(seed)
    n, h = config.descriptor_dim, config.hidden_size
    env = nn.LstmParams.initialize(n + 2, h, rng, dtype=dtype)
    second = None
    if config.variant == "spl":
        second = nn.LstmParams.initialize(n + h, h, rng, dtype=dtype)
    limit = 1.0 / np.sqrt(h)
    w_out = rng.uniform(-limit, limit, (config.num_places, h)).astype(dtype)
    b_out = np.zeros(config.num_places, dtype=dtype)
    return SplModel(config=config, env_lstm=env, spl_lstm=second,
                    w_out=w_out, b_out=b_out,
                    pose_mu=np.zeros(2), pose_sigma=np.ones(2))


def parameter_list(model: SplModel) -> list:
    """Model parameters in the canonical (checkpoint) order."""
    params = [model.env_lstm.w_x, model.env_lstm.w_h, model.env_lstm.b]
    if model.spl_lstm is not None:
        params += [model.spl_lstm.w_x, model.spl_lstm.w_h, model.spl_lstm.b]
    params += [model.w_out, model.b_out]
    return params


class _Inputs(NamedTuple):
    """Per-frame terms of both cells that do not depend on the recurrence."""

    desc: np.ndarray        # (F, n) descriptors in the model dtype
    pose_w: np.ndarray      # (F, 2) standardized poses times the pose weight
    env: np.ndarray         # (F, 4H) env-cell input projection plus bias
    spl: np.ndarray | None  # (F, 4H) second-cell descriptor projection plus bias


def _inputs(model: SplModel, desc: np.ndarray, std_pose: np.ndarray) -> _Inputs:
    """Project each frame once; overlapping windows share the projections."""
    cfg = model.config
    n = cfg.descriptor_dim
    desc = desc.astype(model.dtype, copy=False)
    pose_w = (std_pose * cfg.pose_weight).astype(model.dtype)
    env = model.env_lstm
    env_in = desc @ env.w_x[:, :n].T + pose_w @ env.w_x[:, n:].T + env.b
    spl_in = None
    if model.spl_lstm is not None:
        spl_in = desc @ model.spl_lstm.w_x[:, :n].T + model.spl_lstm.b
    return _Inputs(desc, pose_w, env_in, spl_in)


def _window_frames(starts: np.ndarray, tw: int):
    """The frames that the windows at starts read, and rows (tw, B) giving
    the position of frame starts[b] + t among them."""
    windows = np.arange(tw)[:, None] + starts
    frames = np.unique(windows)
    return frames, np.searchsorted(frames, windows)


def _step(z, h_prev, c_prev, caches):
    """One cell step; appends its backward cache to caches unless that is None."""
    if caches is None:
        h, c, _ = nn.lstm_apply_gates(z, c_prev)
    else:
        h, c, cache = nn.lstm_step_batch(z, h_prev, c_prev)
        caches.append(cache)
    return h, c


def _forward(model: SplModel, inputs: _Inputs, rows: np.ndarray, keep_cache: bool = False):
    """Run the recurrence from zero states for a batch of windows: step t
    of window b reads frame rows[t, b] of inputs.

    Returns (logits, ctx); ctx carries what _backward needs, or is None
    unless keep_cache is set.
    """
    env, second = model.env_lstm, model.spl_lstm
    dual = second is not None
    h_env = np.zeros((rows.shape[1], model.config.hidden_size), dtype=model.dtype)
    c_env = np.zeros_like(h_env)
    if dual:
        h_spl = np.zeros_like(h_env)
        c_spl = np.zeros_like(h_env)
        w_hx = np.ascontiguousarray(second.w_x[:, model.config.descriptor_dim:])
    env_caches, spl_caches = ([], []) if keep_cache else (None, None)
    for row in rows:
        h_env, c_env = _step(inputs.env[row] + h_env @ env.w_h.T, h_env, c_env, env_caches)
        if dual:
            z = inputs.spl[row] + h_env @ w_hx.T + h_spl @ second.w_h.T
            h_spl, c_spl = _step(z, h_spl, c_spl, spl_caches)
    h_final = h_spl if dual else h_env
    logits = h_final @ model.w_out.T
    logits += model.b_out
    ctx = None
    if keep_cache:
        ctx = {"inputs": inputs, "rows": rows, "env": env_caches, "spl": spl_caches,
               "h_final": h_final}
    return logits, ctx


def _backward(model: SplModel, ctx, dlogits: np.ndarray) -> list:
    """Gradients of sum(dlogits * logits) for every parameter, in the
    canonical order.

    Each step's pre-activation gradient is added into its frame's row, so
    each cell's input-weight gradient is one GEMM over frames. The plain
    fancy-index += is exact because the windows of a batch are distinct:
    rows[t] never repeats a frame.
    """
    inputs, rows = ctx["inputs"], ctx["rows"]
    env, second = model.env_lstm, model.spl_lstm
    dual = second is not None
    dw_out = dlogits.T @ ctx["h_final"]
    db_out = dlogits.sum(axis=0)
    dh = dlogits @ model.w_out
    dz_env = np.zeros_like(inputs.env)
    gw_h_env = np.zeros_like(env.w_h)
    dh_env, dc_env = dh, np.zeros_like(dh)
    if dual:
        w_hx = second.w_x[:, model.config.descriptor_dim:]
        dz_spl = np.zeros_like(inputs.spl)
        gw_hx = np.zeros_like(w_hx)
        gw_h_spl = np.zeros_like(second.w_h)
        dh_spl, dc_spl = dh, np.zeros_like(dh)
        dh_env = np.zeros_like(dh)
    for t in reversed(range(len(rows))):
        if dual:
            dz, dh_spl, dc_spl = nn.lstm_step_backward(
                dh_spl, dc_spl, ctx["spl"][t], second, gw_h_spl)
            dz_spl[rows[t]] += dz
            # the second cell reads [d_t ; h_env_t], h_env_t = o * tanh(c_t)
            # of the env cell: route that part of its input gradient into
            # the env cell's output at the same step
            env_t = ctx["env"][t]
            gw_hx += dz.T @ (env_t.o * env_t.tc)
            dh_env = dh_env + dz @ w_hx
        dz, dh_env, dc_env = nn.lstm_step_backward(dh_env, dc_env, ctx["env"][t], env, gw_h_env)
        dz_env[rows[t]] += dz
    grads = [dz_env.T @ np.hstack([inputs.desc, inputs.pose_w]), gw_h_env, dz_env.sum(axis=0)]
    if dual:
        grads += [np.hstack([dz_spl.T @ inputs.desc, gw_hx]), gw_h_spl, dz_spl.sum(axis=0)]
    return grads + [dw_out, db_out]


def train(model: SplModel, descriptors: DescriptorSequence, poses: PoseSequence,
          tw: int, config: TrainConfig):
    """Train on every temporal window of the traversal, label = start index.

    Returns (trained model, TrainHistory); the input model is not modified.
    """
    cfg = model.config
    if tw != cfg.tw:
        raise ValidationError(f"tw={tw} does not match the model's tw={cfg.tw}")
    if descriptors.dim != cfg.descriptor_dim:
        raise ValidationError(
            f"descriptor dim {descriptors.dim} does not match model dim {cfg.descriptor_dim}"
        )
    if descriptors.n_frames != poses.n_frames:
        raise ValidationError(
            f"{descriptors.n_frames} descriptor frames vs {poses.n_frames} pose frames"
        )
    if config.weight_decay != 0.0:
        raise ValidationError("weight decay is fixed at 0 for this optimizer")
    cfg.check_total_frames(descriptors.n_frames)
    windows = make_windows(descriptors.n_frames, tw)

    if poses.standardized:
        std_data, mu, sigma = poses.data, np.zeros(2), np.ones(2)
    else:
        standardized, mu, sigma = standardize_poses(poses)
        std_data = standardized.data

    work = SplModel(
        config=cfg,
        env_lstm=model.env_lstm.copy(),
        spl_lstm=model.spl_lstm.copy() if model.spl_lstm is not None else None,
        w_out=model.w_out.copy(),
        b_out=model.b_out.copy(),
        pose_mu=np.asarray(mu, dtype=np.float64),
        pose_sigma=np.asarray(sigma, dtype=np.float64),
    )
    history = TrainHistory()
    if config.epochs == 0:
        return work, history

    count = windows.count
    labels = windows.labels
    params = parameter_list(work)
    adam = nn.AdamState.for_params(params)
    sched = nn.SchedulerState(current_lr=config.initial_lr)
    rng = seeded_rng(config.seed)
    batch_size = count if config.batch_size == "all" else min(config.batch_size, count)

    for epoch in range(config.epochs):
        order = rng.permutation(count) if config.shuffle else np.arange(count)
        loss_sum = 0.0
        hits = 0
        for start in range(0, count, batch_size):
            idx = order[start:start + batch_size]
            targets = labels[idx]
            frames, rows = _window_frames(idx, tw)
            inputs = _inputs(work, descriptors.data[frames], std_data[frames])
            logits, ctx = _forward(work, inputs, rows, keep_cache=True)
            losses, dlogits = nn.softmax_cross_entropy_batch(
                logits.astype(np.float64), targets)
            batch_loss = float(losses.mean())
            if not np.isfinite(batch_loss):
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}, batch starting at sample {start}"
                )
            grads = _backward(work, ctx, (dlogits / len(idx)).astype(work.dtype))
            nn.adam_step(params, grads, adam, sched.current_lr)
            loss_sum += float(losses.sum())
            hits += int((logits.argmax(axis=1) == targets).sum())
        epoch_loss = loss_sum / count
        history.loss.append(epoch_loss)
        history.accuracy.append(hits / count)
        history.lr.append(sched.current_lr)
        sched = nn.plateau_step(sched, epoch_loss, config.scheduler_factor,
                                config.scheduler_patience, config.min_lr)
    return work, history


def infer(model: SplModel, descriptors: DescriptorSequence,
          poses: PoseSequence) -> MatchScores:
    """Window the query with the training tw and score every window.

    Row q of the scores is the softmax over places for the window starting
    at query frame q. Query poses are standardized with the statistics
    captured at training time.
    """
    cfg = model.config
    if descriptors.dim != cfg.descriptor_dim:
        raise ValidationError(
            f"query descriptor dim {descriptors.dim} does not match model dim "
            f"{cfg.descriptor_dim}"
        )
    if descriptors.n_frames != poses.n_frames:
        raise ValidationError(
            f"{descriptors.n_frames} query descriptor frames vs {poses.n_frames} pose frames"
        )
    if descriptors.n_frames < cfg.tw + 1:
        raise ValidationError(
            f"query has {descriptors.n_frames} frames; windowing with tw={cfg.tw} "
            f"needs at least {cfg.tw + 1}"
        )
    if poses.standardized:
        std_data = poses.data
    else:
        std_data = apply_standardization(poses.data, model.pose_mu, model.pose_sigma)
    count = descriptors.n_frames - cfg.tw
    scores = np.empty((count, cfg.num_places), dtype=np.float64)
    inputs = _inputs(model, descriptors.data, std_data)
    steps = np.arange(cfg.tw)[:, None]
    for start in range(0, count, _INFER_CHUNK):
        starts = np.arange(start, min(start + _INFER_CHUNK, count))
        logits, _ = _forward(model, inputs, steps + starts)
        nn.softmax(logits, out=scores[start:start + starts.size])
    return MatchScores.from_scores(scores)


# --- checkpoints --------------------------------------------------------------

_CKPT_HEAD = struct.Struct("<4sIIIIII")


def save_checkpoint(model: SplModel, path) -> None:
    if model.dtype != np.float32:
        raise ValidationError("only float32 models are persisted as checkpoints")
    cfg = model.config
    parts = [
        _CKPT_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, _VARIANT_TAGS[cfg.variant],
                        cfg.descriptor_dim, cfg.hidden_size, cfg.num_places, cfg.tw),
        struct.pack("<d", cfg.pose_weight),
        np.asarray(model.pose_mu, dtype="<f8").tobytes(),
        np.asarray(model.pose_sigma, dtype="<f8").tobytes(),
    ]
    for tensor in parameter_list(model):
        parts.append(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _tensor_shapes(cfg: ModelConfig) -> list:
    n, h = cfg.descriptor_dim, cfg.hidden_size
    shapes = [(4 * h, n + 2), (4 * h, h), (4 * h,)]
    if cfg.variant == "spl":
        shapes += [(4 * h, n + h), (4 * h, h), (4 * h,)]
    shapes += [(cfg.num_places, h), (cfg.num_places,)]
    return shapes


def load_checkpoint(path, expected_variant: str | None = None) -> SplModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    base = _CKPT_HEAD.size + 8 + 32
    if len(blob) < base:
        raise FormatError(f"{path}: truncated checkpoint header")
    magic, version, tag, n, h, places, tw = _CKPT_HEAD.unpack_from(blob)
    if magic != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CKPT_MAGIC!r}")
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if tag not in _TAG_VARIANTS:
        raise FormatError(f"{path}: unknown variant tag {tag}")
    variant = _TAG_VARIANTS[tag]
    if expected_variant is not None and variant != expected_variant:
        raise ValidationError(
            f"{path}: checkpoint holds a {variant!r} model, expected {expected_variant!r}"
        )
    offset = _CKPT_HEAD.size
    (pose_weight,) = struct.unpack_from("<d", blob, offset)
    offset += 8
    pose_mu = np.frombuffer(blob, dtype="<f8", count=2, offset=offset).copy()
    offset += 16
    pose_sigma = np.frombuffer(blob, dtype="<f8", count=2, offset=offset).copy()
    offset += 16
    if not (np.isfinite(pose_mu).all() and np.isfinite(pose_sigma).all()):
        raise FormatError(f"{path}: non-finite pose standardization statistics")
    cfg = ModelConfig(variant=variant, descriptor_dim=int(n), num_places=int(places),
                      tw=int(tw), hidden_size=int(h), pose_weight=float(pose_weight))
    tensors = []
    for shape in _tensor_shapes(cfg):
        size = int(np.prod(shape))
        end = offset + 4 * size
        if end > len(blob):
            raise FormatError(
                f"{path}: expected {end} bytes for parameter tensors, file has {len(blob)}"
            )
        tensor = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
        if not np.isfinite(tensor).all():
            raise FormatError(f"{path}: non-finite entries in parameter tensor {len(tensors)}")
        tensors.append(tensor.reshape(shape).copy())
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} unexpected trailing bytes")
    env = nn.LstmParams(w_x=tensors[0], w_h=tensors[1], b=tensors[2])
    if variant == "spl":
        second = nn.LstmParams(w_x=tensors[3], w_h=tensors[4], b=tensors[5])
        w_out, b_out = tensors[6], tensors[7]
    else:
        second = None
        w_out, b_out = tensors[3], tensors[4]
    return SplModel(config=cfg, env_lstm=env, spl_lstm=second,
                    w_out=w_out, b_out=b_out, pose_mu=pose_mu, pose_sigma=pose_sigma)
