"""The sequence place-learning model: a dual-LSTM network fusing visual
descriptors with weighted positional encodings (plus a single-LSTM
baseline variant), trained with BPTT over temporal windows, with
deployment inference and checkpoint persistence.

Checkpoint format: magic "SPLM", little-endian uint32 version (=1) and
variant tag (0 baseline / 1 dual), uint32 descriptor_dim, hidden_size,
num_places, tw, float64 pose_weight, float64 pose mu[2] and sigma[2],
then the model's float32 parameter tensors, as _tensor_shapes lists them.
"""

from __future__ import annotations

import math
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
    atomic_open,
    seeded_rng,
)
from .ingest import apply_standardization, standardize_poses

CKPT_MAGIC = b"SPLM"
CKPT_VERSION = 1
_VARIANT_TAGS = {"baseline": 0, "spl": 1}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}
# Windows per inference batch; bounds the (batch, 4H) recurrence temporaries.
_INFER_CHUNK = 512


@dataclass
class SplModel:
    """The learnable parameters, as the list of tensors that the checkpoint
    stores and Adam steps, in _tensor_shapes order, plus the pose statistics
    captured at training.

    Treat instances as immutable once trained; inference never mutates them.
    """

    config: ModelConfig
    params: list
    pose_mu: np.ndarray
    pose_sigma: np.ndarray

    @property
    def dtype(self):
        return self.params[0].dtype

    def layers(self):
        """Named views of params: (env cell, second cell or None for the
        baseline, output weights w_out, output bias b_out)."""
        p = self.params
        second = nn.LstmParams(*p[3:6]) if self.config.variant == "spl" else None
        return nn.LstmParams(*p[:3]), second, p[-2], p[-1]


def _tensor_shapes(cfg: ModelConfig) -> list:
    """The parameter tensors' shapes, in the order the model and its
    checkpoint keep them: the env cell's w_x, w_h and b; for spl, the
    second cell's w_x, w_h and b; then the output w_out and b_out."""
    n, h = cfg.descriptor_dim, cfg.hidden_size
    shapes = [(4 * h, n + 2), (4 * h, h), (4 * h,)]
    if cfg.variant == "spl":
        shapes += [(4 * h, n + h), (4 * h, h), (4 * h,)]
    shapes += [(cfg.num_places, h), (cfg.num_places,)]
    return shapes


@dataclass
class TrainHistory:
    """Per-epoch training loss, top-1 accuracy, and learning rate."""

    loss: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    lr: list = field(default_factory=list)


def build_model(config: ModelConfig, seed: int) -> SplModel:
    """Initialize a model deterministically from the seed: weights drawn
    from Uniform(-1/sqrt(H), 1/sqrt(H)) in tensor order, zero biases except
    the cells' forget blocks, which are 1."""
    rng = seeded_rng(seed)
    h = config.hidden_size
    limit = 1.0 / math.sqrt(h)
    params = [rng.uniform(-limit, limit, shape).astype(np.float32) if len(shape) == 2
              else np.zeros(shape, np.float32) for shape in _tensor_shapes(config)]
    model = SplModel(config, params, pose_mu=np.zeros(2), pose_sigma=np.ones(2))
    for cell in model.layers()[:2]:
        if cell is not None:
            cell.b[h:2 * h] = 1.0
    return model


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
    env, second, _, _ = model.layers()
    env_in = desc @ env.w_x[:, :n].T + pose_w @ env.w_x[:, n:].T + env.b
    spl_in = None
    if second is not None:
        spl_in = desc @ second.w_x[:, :n].T + second.b
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
    env, second, w_out, b_out = model.layers()
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
    logits = h_final @ w_out.T
    logits += b_out
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
    env, second, w_out, _ = model.layers()
    dual = second is not None
    dw_out = dlogits.T @ ctx["h_final"]
    db_out = dlogits.sum(axis=0)
    dh = dlogits @ w_out
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
                dh_spl, dc_spl, ctx["spl"][t], second.w_h, gw_h_spl)
            dz_spl[rows[t]] += dz
            # the second cell reads [d_t ; h_env_t], the env cell's output at
            # the same step: route that part of its input gradient there
            gw_hx += dz.T @ ctx["env"][t].h
            dh_env = dh_env + dz @ w_hx
        dz, dh_env, dc_env = nn.lstm_step_backward(dh_env, dc_env, ctx["env"][t], env.w_h,
                                                   gw_h_env)
        dz_env[rows[t]] += dz
    grads = [dz_env.T @ np.hstack([inputs.desc, inputs.pose_w]), gw_h_env, dz_env.sum(axis=0)]
    if dual:
        grads += [np.hstack([dz_spl.T @ inputs.desc, gw_hx]), gw_h_spl, dz_spl.sum(axis=0)]
    return grads + [dw_out, db_out]


def _check_sequences(cfg: ModelConfig, descriptors: DescriptorSequence,
                     poses: PoseSequence, what: str) -> None:
    """The model's descriptor dim, and one pose per frame; what names the traversal."""
    if descriptors.dim != cfg.descriptor_dim:
        raise ValidationError(f"{what}descriptor dim {descriptors.dim} does not match "
                              f"model dim {cfg.descriptor_dim}")
    if descriptors.n_frames != poses.n_frames:
        raise ValidationError(f"{descriptors.n_frames} {what}descriptor frames vs "
                              f"{poses.n_frames} pose frames")


def train(model: SplModel, descriptors: DescriptorSequence, poses: PoseSequence,
          config: TrainConfig):
    """Train on every temporal window of the traversal, label = start index.

    Returns (trained model, TrainHistory); the input model is not modified.
    """
    cfg = model.config
    _check_sequences(cfg, descriptors, poses, "")
    cfg.check_total_frames(descriptors.n_frames)
    standardized, mu, sigma = standardize_poses(poses)
    std_data = standardized.data

    work = SplModel(cfg, [p.copy() for p in model.params], mu, sigma)
    history = TrainHistory()
    if config.epochs == 0:
        return work, history

    # window i covers frames i .. i+tw-1 and is labelled place i; the N - tw
    # windows end at frame N-2, so the final frame is left out, mirroring the
    # window enumeration of the reproduced method
    count = cfg.num_places
    adam = nn.AdamState.for_params(work.params)
    sched = nn.SchedulerState(current_lr=config.initial_lr)
    rng = seeded_rng(config.seed)
    batch_size = count if config.batch_size == "all" else min(config.batch_size, count)

    # the epochs, and only they, run with subnormals flushed (see nn) and no overflow
    # warning: GATE_CLIP maps an infinite gate input as any past it, and a non-finite
    # loss or gradient still raises NumericsError (the loss check, adam_step)
    with nn.denormals_flushed(), np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(count)
            loss_sum = 0.0
            hits = 0
            for start in range(0, count, batch_size):
                idx = order[start:start + batch_size]
                frames, rows = _window_frames(idx, cfg.tw)
                inputs = _inputs(work, descriptors.data[frames], std_data[frames])
                logits, ctx = _forward(work, inputs, rows, keep_cache=True)
                losses, dlogits = nn.softmax_cross_entropy_batch(
                    logits.astype(np.float64), idx)
                batch_loss = float(losses.mean())
                if not np.isfinite(batch_loss):
                    raise NumericsError(
                        f"non-finite loss at epoch {epoch}, batch starting at sample {start}"
                    )
                grads = _backward(work, ctx, (dlogits / len(idx)).astype(work.dtype))
                nn.adam_step(work.params, grads, adam, sched.current_lr)
                loss_sum += float(losses.sum())
                hits += int((logits.argmax(axis=1) == idx).sum())
            epoch_loss = loss_sum / count
            history.loss.append(epoch_loss)
            history.accuracy.append(hits / count)
            history.lr.append(sched.current_lr)
            sched = nn.plateau_step(sched, epoch_loss, config.min_lr)
    return work, history


def score_rows(model: SplModel, descriptors: DescriptorSequence, poses: PoseSequence):
    """Window the query with the training tw and score every window.

    Row q of the scores is the float32 softmax over places for the window
    starting at query frame q. Query poses are standardized with the
    statistics captured at training time. The input projection runs at
    once; the returned iterator runs the recurrence and yields the score
    rows in chunks of _INFER_CHUNK windows.
    """
    cfg = model.config
    _check_sequences(cfg, descriptors, poses, "query ")
    if descriptors.n_frames < cfg.tw + 1:
        raise ValidationError(
            f"query has {descriptors.n_frames} frames; windowing with tw={cfg.tw} "
            f"needs at least {cfg.tw + 1}"
        )
    std_data = apply_standardization(poses.data, model.pose_mu, model.pose_sigma)
    count = descriptors.n_frames - cfg.tw
    inputs = _inputs(model, descriptors.data, std_data)
    steps = np.arange(cfg.tw)[:, None]
    rows = (steps + np.arange(start, min(start + _INFER_CHUNK, count))
            for start in range(0, count, _INFER_CHUNK))
    return (nn.softmax(_forward(model, inputs, chunk)[0]) for chunk in rows)


def infer(model: SplModel, descriptors: DescriptorSequence,
          poses: PoseSequence) -> MatchScores:
    """The best place per query window by the scores of score_rows."""
    # overflow as in train: MatchScores raises NumericsError on a non-finite
    # score; the flush mode as in train, for the env cell's subnormal products
    with nn.denormals_flushed(), np.errstate(over="ignore", invalid="ignore"):
        return MatchScores.from_scores(score_rows(model, descriptors, poses),
                                       model.config.num_places)


# --- checkpoints --------------------------------------------------------------

_CKPT_HEAD = struct.Struct("<4sIIIIII")


def save_checkpoint(model: SplModel, path) -> None:
    if model.dtype != np.float32:
        raise ValidationError("only float32 models are persisted as checkpoints")
    mu, sigma = (np.asarray(v, dtype="<f8") for v in (model.pose_mu, model.pose_sigma))
    # what load_checkpoint would reject is refused before anything is written
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValidationError("non-finite pose standardization statistics")
    if (sigma < 0).any():
        raise ValidationError(f"negative pose standard deviation {sigma.tolist()}")
    cfg = model.config
    head = _CKPT_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, _VARIANT_TAGS[cfg.variant],
                           cfg.descriptor_dim, cfg.hidden_size, cfg.num_places, cfg.tw)
    with atomic_open(path, binary=True) as fh:
        fh.write(head + struct.pack("<d", cfg.pose_weight) + mu.tobytes() + sigma.tobytes())
        for tensor in model.params:
            # the little-endian float32 tensor itself, not a bytes copy of it
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").data)


def load_checkpoint(path) -> SplModel:
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
    (pose_weight,) = struct.unpack_from("<d", blob, _CKPT_HEAD.size)
    pose_mu, pose_sigma = np.frombuffer(
        blob, dtype="<f8", count=4, offset=_CKPT_HEAD.size + 8).reshape(2, 2).copy()
    offset = base
    if not (np.isfinite(pose_mu).all() and np.isfinite(pose_sigma).all()):
        raise FormatError(f"{path}: non-finite pose standardization statistics")
    if (pose_sigma < 0).any():  # a standard deviation: a negative one would flip that axis
        raise FormatError(f"{path}: negative pose standard deviation {pose_sigma.tolist()}")
    try:
        cfg = ModelConfig(variant=variant, descriptor_dim=int(n), num_places=int(places),
                          tw=int(tw), hidden_size=int(h), pose_weight=float(pose_weight))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    tensors = []
    for shape in _tensor_shapes(cfg):
        size = math.prod(shape)
        end = offset + 4 * size
        if end > len(blob):
            raise FormatError(
                f"{path}: expected {end} bytes for parameter tensors, file has {len(blob)}"
            )
        tensor = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
        if not np.isfinite(tensor).all():
            raise FormatError(f"{path}: non-finite entries in parameter tensor {len(tensors)}")
        tensors.append(tensor.reshape(shape))  # read-only views: copies doubled each load
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} unexpected trailing bytes")
    return SplModel(cfg, tensors, pose_mu, pose_sigma)
