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


def _forward_batch(model: SplModel, desc: np.ndarray, pose: np.ndarray,
                   keep_cache: bool = False):
    """Run tw recurrent steps from zero states for a (B, tw, ...) batch.

    pose must already be standardized; the pose weight is applied here.
    Returns (logits, ctx) where ctx carries everything backward needs.
    """
    cfg = model.config
    dtype = model.dtype
    batch, tw = desc.shape[0], desc.shape[1]
    desc_t = np.ascontiguousarray(desc.transpose(1, 0, 2)).astype(dtype, copy=False)
    pose_w = (pose * cfg.pose_weight).astype(dtype).transpose(1, 0, 2)
    h_env = np.zeros((batch, cfg.hidden_size), dtype=dtype)
    c_env = np.zeros_like(h_env)
    env_caches = []
    spl_caches = []
    dual = model.spl_lstm is not None
    h_spl = np.zeros_like(h_env) if dual else None
    c_spl = np.zeros_like(h_env) if dual else None
    for t in range(tw):
        x_env = np.concatenate([desc_t[t], pose_w[t]], axis=1)
        h_env, c_env, cache = nn.lstm_step_batch(x_env, h_env, c_env, model.env_lstm)
        if keep_cache:
            env_caches.append(cache)
        if dual:
            x_spl = np.concatenate([desc_t[t], h_env], axis=1)
            h_spl, c_spl, cache2 = nn.lstm_step_batch(x_spl, h_spl, c_spl, model.spl_lstm)
            if keep_cache:
                spl_caches.append(cache2)
    h_final = h_spl if dual else h_env
    logits = h_final @ model.w_out.T + model.b_out
    ctx = None
    if keep_cache:
        ctx = {"env": env_caches, "spl": spl_caches, "h_final": h_final, "tw": tw}
    return logits, ctx


def forward(model: SplModel, desc_window, pose_window) -> np.ndarray:
    """Logits for one tw-frame window of descriptors and standardized poses."""
    cfg = model.config
    desc_window = np.asarray(desc_window)
    pose_window = np.asarray(pose_window)
    if desc_window.shape != (cfg.tw, cfg.descriptor_dim):
        raise ValidationError(
            f"descriptor window shape {desc_window.shape}, expected "
            f"({cfg.tw}, {cfg.descriptor_dim})"
        )
    if pose_window.shape != (cfg.tw, 2):
        raise ValidationError(
            f"pose window shape {pose_window.shape}, expected ({cfg.tw}, 2)"
        )
    logits, _ = _forward_batch(model, desc_window[None], pose_window[None])
    return logits[0]


def _backward_batch(model: SplModel, ctx, dlogits: np.ndarray) -> list:
    """Gradients for every parameter, in the canonical order."""
    dtype = model.dtype
    n = model.config.descriptor_dim
    tw = ctx["tw"]
    dw_out = dlogits.T @ ctx["h_final"]
    db_out = dlogits.sum(axis=0)
    dh_last = dlogits @ model.w_out
    env = model.env_lstm
    g_env = [np.zeros_like(env.w_x), np.zeros_like(env.w_h), np.zeros_like(env.b)]
    if model.spl_lstm is None:
        dh, dc = dh_last, np.zeros_like(dh_last)
        for t in reversed(range(tw)):
            _, dh, dc = nn.lstm_step_backward(dh, dc, ctx["env"][t], env, *g_env)
        return g_env + [dw_out, db_out]
    second = model.spl_lstm
    g_spl = [np.zeros_like(second.w_x), np.zeros_like(second.w_h), np.zeros_like(second.b)]
    dh_spl, dc_spl = dh_last, np.zeros_like(dh_last)
    dh_env = np.zeros_like(dh_last)
    dc_env = np.zeros_like(dh_last)
    for t in reversed(range(tw)):
        dx_spl, dh_spl, dc_spl = nn.lstm_step_backward(
            dh_spl, dc_spl, ctx["spl"][t], second, *g_spl)
        # the second cell's input is [d_t ; h_env_t]: route its tail gradient
        # into the env cell's hidden output at the same step
        dh_env = dh_env + dx_spl[:, n:]
        _, dh_env, dc_env = nn.lstm_step_backward(
            dh_env, dc_env, ctx["env"][t], env, *g_env)
    return g_env + g_spl + [dw_out, db_out]


def _window_views(data: np.ndarray, tw: int, count: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(data, tw, axis=0)
    return view.swapaxes(1, 2)[:count]


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
    desc_view = _window_views(descriptors.data, tw, count)
    pose_view = _window_views(std_data, tw, count)
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
            desc_batch = desc_view[idx]
            pose_batch = pose_view[idx]
            targets = labels[idx]
            logits, ctx = _forward_batch(work, desc_batch, pose_batch, keep_cache=True)
            losses, dlogits = nn.softmax_cross_entropy_batch(
                logits.astype(np.float64), targets)
            batch_loss = float(losses.mean())
            if not np.isfinite(batch_loss):
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}, batch starting at sample {start}"
                )
            grads = _backward_batch(
                work, ctx, (dlogits / len(idx)).astype(work.dtype))
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
          poses: PoseSequence, chunk: int = 512) -> MatchScores:
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

    # Input projections depend only on the frame, so overlapping windows can
    # share them: project every frame once, then run only the recurrence per
    # window.
    dtype = model.dtype
    n, h = cfg.descriptor_dim, cfg.hidden_size
    desc = descriptors.data.astype(dtype, copy=False)
    pose_w = (std_data * cfg.pose_weight).astype(dtype)
    env = model.env_lstm
    env_in = desc @ env.w_x[:, :n].T + pose_w @ env.w_x[:, n:].T + env.b
    dual = model.spl_lstm is not None
    if dual:
        second = model.spl_lstm
        spl_in = desc @ second.w_x[:, :n].T + second.b
        w_hx = np.ascontiguousarray(second.w_x[:, n:])
    for start in range(0, count, chunk):
        starts = np.arange(start, min(start + chunk, count))
        batch = starts.shape[0]
        h_env = np.zeros((batch, h), dtype=dtype)
        c_env = np.zeros_like(h_env)
        if dual:
            h_spl = np.zeros_like(h_env)
            c_spl = np.zeros_like(h_env)
        for t in range(cfg.tw):
            z = env_in[starts + t] + h_env @ env.w_h.T
            h_env, c_env = nn.lstm_apply_gates(z, c_env)
            if dual:
                z2 = spl_in[starts + t] + h_env @ w_hx.T + h_spl @ second.w_h.T
                h_spl, c_spl = nn.lstm_apply_gates(z2, c_spl)
        h_final = h_spl if dual else h_env
        logits = h_final @ model.w_out.T
        logits += model.b_out
        nn.softmax(logits, out=scores[start:start + batch])
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
