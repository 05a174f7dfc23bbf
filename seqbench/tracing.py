"""Per-layer spans recorded from outside the package.

The package resolves these names through their modules at call time (`cli`
imports `classic`/`spl`/`evaluate`/`ingest` names inside each command,
`spl` calls `nn.<fn>`, callers use `MatchScores.from_scores`), so swapping
a module attribute for a timing wrapper traces every call without changing
the package. The benchmark installs the wrappers only for traced passes.

A span's self time is its duration minus the durations of the traced
spans it called. Counters are derived from argument and result shapes
(`classic.*` work counts are computed, not measured: they ignore cache
misses) and from the values `nn.lstm_step_batch` returns (subnormal
fraction). Time spent computing counters is charged to no span.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []      # [name, child seconds] per open span
        self._installed = []  # (owner, attribute, original raw attribute)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr]
        original = getattr(owner, attr)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
            counted = 0.0
            if count is not None:
                mark = time.perf_counter()
                count(self.counts, args, kwargs, result, elapsed - frame[1])
                counted = time.perf_counter() - mark
            if stack:
                stack[-1][1] += elapsed + counted
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


# --- counters ---------------------------------------------------------------

def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _count_bytes_read(counts, args, kwargs, result, self_s):
    counts["ingest.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_similarity(counts, args, kwargs, result, self_s):
    if _arg(args, kwargs, 2, "metric", "cosine") != "sad":
        return
    ref, query = args[0], args[1]
    n_ref, n_query, dim = ref.n_frames, query.n_frames, ref.dim
    counts["classic.sad_ops"] += n_ref * n_query * dim
    # compulsory float64 traffic: both operands read once, the matrix written once
    counts["classic.sad_bytes"] += 8 * (n_ref * dim + n_query * dim + n_ref * n_query)
    counts["classic.sad_s"] += self_s


def _line_gather_counter(velocity_grid):
    def count(counts, args, kwargs, result, self_s):
        enhanced, cfg = args[0], _arg(args, kwargs, 1, "cfg")
        n_ref, n_query = np.shape(enhanced)
        n_vel = velocity_grid(cfg).size
        counts["classic.line_gathers"] += (n_query - cfg.ds + 1) * n_ref * n_vel * cfg.ds
    return count


def _count_subnormals(counts, args, kwargs, result, self_s):
    h, c, cache = result
    for values in (h, c, cache.i, cache.f, cache.g, cache.o, cache.tc):
        magnitude = np.abs(values)
        tiny = np.finfo(values.dtype).tiny
        counts["nn.nonzero"] += np.count_nonzero(magnitude)
        counts["nn.subnormal"] += np.count_nonzero((magnitude < tiny) & (magnitude > 0))


def install(tracer: Tracer, seqplace) -> None:
    """Wrap every traced entry point of the imported `seqplace` package."""
    cli, ingest, classic = seqplace.cli, seqplace.ingest, seqplace.classic
    spl, nn, evaluate, core = seqplace.spl, seqplace.nn, seqplace.evaluate, seqplace.core
    tracer.wrap(cli, "main", "cli.main")
    for loader in ("load_descriptors", "load_poses", "load_ground_truth"):
        tracer.wrap(ingest, loader, "ingest.load", _count_bytes_read)
    tracer.wrap(classic, "similarity_matrix", "classic.similarity_matrix", _count_similarity)
    tracer.wrap(classic, "contrast_enhance", "classic.contrast_enhance")
    tracer.wrap(classic, "seqslam_match", "classic.seqslam_match",
                _line_gather_counter(classic.velocity_grid))
    tracer.wrap(classic, "pairwise_match", "classic.pairwise_match")
    for name in ("train", "infer", "save_checkpoint", "load_checkpoint"):
        tracer.wrap(spl, name, f"spl.{name}")
    tracer.wrap(nn, "lstm_step_batch", "nn.lstm_step_batch", _count_subnormals)
    for name in ("lstm_step_backward", "softmax_cross_entropy_batch", "adam_step",
                 "lstm_apply_gates"):
        tracer.wrap(nn, name, f"nn.{name}")
    tracer.wrap(evaluate, "pr_curve_from_arrays", "evaluate.pr_curve_from_arrays")
    tracer.wrap(core.MatchScores, "from_scores", "core.MatchScores.from_scores")


# Reported per-layer times: metric name -> span name.
TIME_METRICS = {
    "cli.self_s": "cli.main",
    "ingest.load_s": "ingest.load",
    "classic.similarity_matrix.self_s": "classic.similarity_matrix",
    "classic.contrast_enhance.self_s": "classic.contrast_enhance",
    "classic.seqslam_match.self_s": "classic.seqslam_match",
    "classic.pairwise_match.self_s": "classic.pairwise_match",
    "spl.train.self_s": "spl.train",
    "spl.infer.self_s": "spl.infer",
    "spl.save_checkpoint.self_s": "spl.save_checkpoint",
    "spl.load_checkpoint.self_s": "spl.load_checkpoint",
    "nn.forward_s": "nn.lstm_step_batch",
    "nn.backward_s": "nn.lstm_step_backward",
    "nn.loss_s": "nn.softmax_cross_entropy_batch",
    "nn.adam_s": "nn.adam_step",
    "nn.lstm_apply_gates.self_s": "nn.lstm_apply_gates",
    "evaluate.pr_curve_from_arrays.self_s": "evaluate.pr_curve_from_arrays",
    "core.MatchScores.from_scores.self_s": "core.MatchScores.from_scores",
}
SPANS = sorted(set(TIME_METRICS.values()))
COUNT_METRICS = {"ingest.bytes_read": "B", "classic.sad_ops": "ops",
                 "classic.sad_bytes": "B", "classic.line_gathers": "gathers"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return COUNT_METRICS[name[:-len("_per_s")]] + "/s"
    if name == "nn.subnormal_frac":
        return "1"
    return COUNT_METRICS.get(name, "s")


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass (the tracer holds only that pass)."""
    out = {metric: tracer.self_s[span] for metric, span in TIME_METRICS.items()}
    out.update({f"{span}.calls": tracer.calls[span] for span in SPANS})
    out.update({name: int(tracer.counts[name]) for name in COUNT_METRICS})
    counts = tracer.counts
    for name, seconds in (("classic.sad_ops", counts["classic.sad_s"]),
                          ("classic.sad_bytes", counts["classic.sad_s"]),
                          ("classic.line_gathers", tracer.self_s["classic.seqslam_match"])):
        out[f"{name}_per_s"] = counts[name] / seconds if seconds > 0 else 0.0
    nonzero = tracer.counts["nn.nonzero"]
    out["nn.subnormal_frac"] = float(tracer.counts["nn.subnormal"] / nonzero) if nonzero else 0.0
    return out
