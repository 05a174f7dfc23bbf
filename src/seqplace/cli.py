"""Command-line entry point wiring ingestion, training, matching,
evaluation, and benchmarking into reproducible runs.

Exit codes: 0 success, 1 usage/validation error, 2 numerical failure.
Every command validates its inputs before writing anything and emits a
<out>.manifest.json recording the resolved configuration, input digests,
seed, and wall-clock bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

THREADS_ENV = "SEQPLACE_THREADS"
# np.iinfo(np.int64).max, spelt out because numpy loads only after
# --threads is applied
_INT64_MAX = 2 ** 63 - 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _configure_threads(argv) -> None:
    """Apply --threads / SEQPLACE_THREADS before numpy gets imported.

    Only effective when numpy has not been imported in this process yet;
    library users should set the environment variables themselves.
    """
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is None:
        value = os.environ.get(THREADS_ENV)
    if value:
        for var in _THREAD_VARS:
            os.environ[var] = str(value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclasses.dataclass
class RunManifest:
    """Reproducibility record written next to each command's main output."""

    command: str
    parameters: dict
    inputs: dict = dataclasses.field(default_factory=dict)
    seed: int | None = None
    toolkit_version: str = ""
    started_at: str = ""
    finished_at: str = ""

    def write(self, out_path) -> None:
        from .core import atomic_open

        with atomic_open(f"{out_path}.manifest.json") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _start_manifest(command: str, parameters: dict, input_paths, seed) -> RunManifest:
    from . import __version__

    return RunManifest(
        command=command,
        parameters=parameters,
        inputs={str(p): _sha256(p) for p in input_paths},
        seed=seed,
        toolkit_version=__version__,
        started_at=_utc_now(),
    )


def _finish(manifest: RunManifest, out_path) -> int:
    manifest.finished_at = _utc_now()
    manifest.write(out_path)
    return EXIT_OK


def _write_scores_csv(path, match) -> None:
    from .core import atomic_open

    with atomic_open(path) as fh:
        fh.write("query,predicted,confidence\n")
        for q in range(match.n_queries):
            fh.write(f"{q},{int(match.predicted[q])},{float(match.confidence[q])!r}\n")


def _load_scores_csv(path):
    import numpy as np

    from .core import FormatError, open_text

    predicted = []
    confidence = []
    with open_text(path) as fh:
        header = fh.readline().strip().replace(" ", "")
        if header != "query,predicted,confidence":
            raise FormatError(
                f"{path}: expected header 'query,predicted,confidence', got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 columns")
            try:
                place, score = int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad numeric value") from exc
            if not (0 <= place <= _INT64_MAX and math.isfinite(score)):
                raise FormatError(
                    f"{path}:{lineno}: predicted place must be a non-negative int64 "
                    "and confidence finite"
                )
            predicted.append(place)
            confidence.append(score)
    if not predicted:
        raise FormatError(f"{path}: no score rows found")
    return np.asarray(predicted, dtype=np.int64), np.asarray(confidence, dtype=np.float64)


def _parse_warp(text):
    if text is None:
        return None
    try:
        speeds = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        from .core import ValidationError

        raise ValidationError(f"bad --warp value {text!r}; expected comma-separated speeds")
    return speeds


def _parse_radii(args):
    from .core import ValidationError

    if args.radius is not None and args.radius_sweep is not None:
        raise ValidationError("give either --radius or --radius-sweep, not both")
    if args.radius is not None:
        return [args.radius]
    text = args.radius_sweep if args.radius_sweep is not None else "2,10,50"
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            radii = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ValidationError(f"bad --radius-sweep range {text!r}")
    else:
        try:
            radii = [float(tok) for tok in text.split(",") if tok]
        except ValueError:
            raise ValidationError(f"bad --radius-sweep value {text!r}")
    if not radii:
        raise ValidationError(f"--radius-sweep {text!r} gives no radius")
    return radii


# --- commands -------------------------------------------------------------------

def cmd_synth(args) -> int:
    from .ingest import perturb_query, save_descriptors, save_ground_truth, save_poses, synth_traverse

    params = {
        "frames": args.frames, "dim": args.dim, "seed": args.seed,
        "smoothness": args.smoothness, "noise": args.noise,
        "warp": args.warp, "pose_noise": args.pose_noise,
    }
    env = synth_traverse(args.frames, args.dim, args.seed, smoothness=args.smoothness)
    query = None
    if args.noise > 0.0 or args.warp is not None:
        query, gt = perturb_query(env, args.noise, _parse_warp(args.warp),
                                  args.seed + 1, pose_noise_sigma=args.pose_noise)
    os.makedirs(args.out, exist_ok=True)
    manifest = _start_manifest("synth", params, [], args.seed)
    save_descriptors(os.path.join(args.out, "ref_descriptors.spld"), env.descriptors)
    save_poses(os.path.join(args.out, "ref_poses.csv"), env.poses)
    if query is not None:
        save_descriptors(os.path.join(args.out, "query_descriptors.spld"), query.descriptors)
        save_poses(os.path.join(args.out, "query_poses.csv"), query.poses)
        save_ground_truth(os.path.join(args.out, "ground_truth.csv"), gt)
    return _finish(manifest, os.path.join(args.out, "synth"))


def cmd_train(args) -> int:
    from .core import (ModelConfig, TrainConfig, ValidationError, atomic_open,
                       read_config_file, train_config_from_mapping, write_config_file)
    from .ingest import load_descriptors, load_poses
    from .spl import build_model, save_checkpoint, train

    desc = load_descriptors(args.desc)
    poses = load_poses(args.poses)
    base = train_config_from_mapping(read_config_file(args.config)) if args.config \
        else TrainConfig()
    batch_size = args.batch
    if batch_size not in (None, "all"):
        try:
            batch_size = int(batch_size)
        except ValueError:
            raise ValidationError(f'--batch must be an integer or "all", got {args.batch!r}')
    # a flag overrides the config file, which overrides the TrainConfig default
    flags = {"initial_lr": args.lr, "min_lr": args.min_lr, "epochs": args.epochs,
             "batch_size": batch_size, "seed": args.seed, "shuffle": args.shuffle}
    train_cfg = dataclasses.replace(
        base, **{key: value for key, value in flags.items() if value is not None})
    model_cfg = ModelConfig.for_traversal(
        desc.n_frames, args.tw, variant=args.variant, descriptor_dim=desc.dim,
        hidden_size=args.hidden, pose_weight=args.pos_weight,
    )
    params = {"model": dataclasses.asdict(model_cfg), "train": dataclasses.asdict(train_cfg)}
    manifest = _start_manifest("train", params, [args.desc, args.poses], train_cfg.seed)
    model = build_model(model_cfg, train_cfg.seed)
    trained, history = train(model, desc, poses, args.tw, train_cfg)
    save_checkpoint(trained, args.out)
    with atomic_open(f"{args.out}.history.csv") as fh:
        fh.write("epoch,loss,accuracy,lr\n")
        for epoch, (loss, acc, lr) in enumerate(
                zip(history.loss, history.accuracy, history.lr)):
            fh.write(f"{epoch},{loss!r},{acc!r},{lr!r}\n")
    write_config_file(f"{args.out}.config", {**params["model"], **params["train"]})
    return _finish(manifest, args.out)


def cmd_infer(args) -> int:
    from .ingest import load_descriptors, load_poses
    from .spl import infer, load_checkpoint

    model = load_checkpoint(args.ckpt)
    desc = load_descriptors(args.desc)
    poses = load_poses(args.poses)
    manifest = _start_manifest(
        "infer", {"ckpt": args.ckpt}, [args.ckpt, args.desc, args.poses], None)
    scores = infer(model, desc, poses)
    _write_scores_csv(args.out, scores)
    return _finish(manifest, args.out)


def cmd_match(args) -> int:
    from .classic import (SeqSlamConfig, contrast_enhance, delta_descriptors,
                          pairwise_match, seqslam_match, similarity_matrix)
    from .core import DescriptorSequence
    from .ingest import load_descriptors, save_descriptors

    ref = load_descriptors(args.ref)
    query = load_descriptors(args.query)
    metric = args.metric
    if metric is None:
        metric = "sad" if args.method == "seqslam" else "cosine"
    params = {"method": args.method, "metric": metric, "ds": args.ds,
              "v_min": args.vmin, "v_max": args.vmax, "v_step": args.vstep,
              "r_window": args.rwindow, "delta_window": args.delta_window}
    cfg = None
    if args.method == "seqslam":
        cfg = SeqSlamConfig(ds=args.ds, v_min=args.vmin, v_max=args.vmax,
                            v_step=args.vstep, r_window=args.rwindow)
    manifest = _start_manifest("match", params, [args.ref, args.query], None)
    if args.method == "delta":
        ref = delta_descriptors(ref, args.delta_window)
        query = delta_descriptors(query, args.delta_window)
    sim = similarity_matrix(ref, query, metric=metric)
    if args.export_matrix:
        save_descriptors(args.export_matrix, DescriptorSequence(data=sim))
    if cfg is not None:
        scores = seqslam_match(contrast_enhance(sim, cfg.r_window), cfg)
    else:
        scores = pairwise_match(sim)
    _write_scores_csv(args.out, scores)
    return _finish(manifest, args.out)


def cmd_eval(args) -> int:
    from .core import ValidationError
    from .evaluate import GroundTruth, pr_curve_from_arrays, write_auc_csv, write_pr_csv
    from .ingest import load_ground_truth, load_poses

    predicted, confidence = _load_scores_csv(args.scores)
    gt_map = load_ground_truth(args.gt)
    if gt_map.shape[0] < predicted.shape[0]:
        raise ValidationError(
            f"{predicted.shape[0]} score rows but only {gt_map.shape[0]} ground-truth rows"
        )
    # windowed matchers score one window per start frame; align by prefix
    gt_map = gt_map[:predicted.shape[0]]
    kind = "meters" if args.meters else "frames"
    ref_poses = None
    inputs = [args.scores, args.gt]
    if args.meters:
        if not args.ref_poses:
            raise ValidationError("--meters needs --ref-poses")
        ref_poses = load_poses(args.ref_poses).data
        inputs.append(args.ref_poses)
    radii = _parse_radii(args)
    gts = [GroundTruth(map=gt_map, tolerance_kind=kind, radius=float(radius))
           for radius in radii]
    params = {"kind": kind, "radii": radii}
    manifest = _start_manifest("eval", params, inputs, None)
    rows = []
    for radius, gt in zip(radii, gts):
        curve = pr_curve_from_arrays(predicted, confidence, gt, ref_poses=ref_poses)
        rows.append((float(radius), curve.auc))
        if len(radii) <= 5:
            write_pr_csv(f"{args.out}_pr_r{radius:g}.csv", curve)
        print(f"radius={radius:g} auc={curve.auc:.6f} "
              f"max_recall_at_full_precision={curve.max_recall_at_full_precision:.6f}")
    write_auc_csv(f"{args.out}_auc.csv", rows)
    return _finish(manifest, args.out)


def cmd_bench(args) -> int:
    from .classic import SeqSlamConfig, contrast_enhance, pairwise_match, seqslam_match, similarity_matrix
    from .core import DescriptorSequence, ModelConfig, PoseSequence, ValidationError
    from .evaluate import bench_latency, write_latency_json
    from .ingest import perturb_query, synth_traverse
    from .spl import build_model, infer

    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
        methods = [tok.strip() for tok in args.methods.split(",") if tok]
    except ValueError:
        raise ValidationError("bad --sizes or --methods value")
    known = {"spl", "seqslam", "pairwise"}
    for method in methods:
        if method not in known:
            raise ValidationError(f"unknown method {method!r}; choose from {sorted(known)}")
    if not sizes or not methods:
        raise ValidationError("--sizes and --methods must be non-empty")
    if args.queries <= args.tw:
        raise ValidationError("--queries must exceed --tw")
    params = {"sizes": sizes, "methods": methods, "dim": args.dim,
              "hidden": args.hidden, "tw": args.tw, "reps": args.reps,
              "queries": args.queries}
    manifest = _start_manifest("bench", params, [], args.seed)
    reports = []
    for n_ref in sizes:
        if n_ref <= args.tw:
            raise ValidationError(f"size {n_ref} must exceed tw={args.tw}")
        env = synth_traverse(n_ref, args.dim, args.seed, smoothness=0.8)
        query, _ = perturb_query(env, 0.05, 1.0, args.seed + 1)
        qdesc = DescriptorSequence(data=query.descriptors.data[:args.queries])
        qpose = PoseSequence(data=query.poses.data[:args.queries])
        dataset = (qdesc, qpose)
        for method in methods:
            if method == "spl":
                cfg = ModelConfig.for_traversal(
                    n_ref, args.tw, variant="spl", descriptor_dim=args.dim,
                    hidden_size=args.hidden)
                model = build_model(cfg, args.seed)

                def matcher(ds, model=model):
                    return infer(model, ds[0], ds[1])

                n_queries = qdesc.n_frames - args.tw
            elif method == "seqslam":
                cfg = SeqSlamConfig(ds=args.tw)

                def matcher(ds, env=env, cfg=cfg):
                    sim = similarity_matrix(env.descriptors, ds[0], metric="sad")
                    return seqslam_match(contrast_enhance(sim, cfg.r_window), cfg)

                n_queries = qdesc.n_frames
            else:
                def matcher(ds, env=env):
                    return pairwise_match(similarity_matrix(env.descriptors, ds[0],
                                                            metric="cosine"))

                n_queries = qdesc.n_frames
            reports.append(bench_latency(matcher, dataset, args.reps,
                                         n_queries=n_queries,
                                         name=method, n_frames=n_ref))
            last = reports[-1]
            print(f"{method} N={n_ref}: mean {last.mean_us_per_query:.1f} us/query "
                  f"(min {last.min_us_per_query:.1f}, p95 {last.p95_us_per_query:.1f})")
    write_latency_json(args.out, reports)
    return _finish(manifest, args.out)


# --- parser ---------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="seqplace",
                     description="Sequence-based place recognition toolkit")
    parser.add_argument("--threads", help="thread count for BLAS pools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic traversal",
                       add_help=True)
    p.add_argument("--frames", type=int, required=True, help="number of frames")
    p.add_argument("--dim", type=int, default=32, help="descriptor dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoothness", type=float, default=0.7)
    p.add_argument("--noise", type=float, default=0.0,
                   help="descriptor noise sigma for the query variant")
    p.add_argument("--warp", default=None,
                   help="comma-separated piecewise query speeds, e.g. 0.5,2.0")
    p.add_argument("--pose-noise", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a place-learning model")
    p.add_argument("--desc", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--tw", type=int, default=10)
    p.add_argument("--variant", choices=("baseline", "spl"), default="spl")
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--min-lr", type=float, default=None)
    p.add_argument("--pos-weight", type=float, default=500.0)
    p.add_argument("--batch", default=None, help='minibatch size or "all" (the default)')
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=None,
                   help="shuffle windows each epoch (the default)")
    p.add_argument("--config", default=None,
                   help="key = value config file; flags override its values")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="score a query traversal with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--desc", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True, help="scores CSV path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("match", help="run a classical matcher")
    p.add_argument("--ref", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--method", choices=("pairwise", "seqslam", "delta"),
                   default="seqslam")
    p.add_argument("--metric", choices=("sad", "cosine"), default=None)
    p.add_argument("--ds", type=int, default=10)
    p.add_argument("--vmin", type=float, default=0.8)
    p.add_argument("--vmax", type=float, default=1.2)
    p.add_argument("--vstep", type=float, default=0.1)
    p.add_argument("--rwindow", type=int, default=10)
    p.add_argument("--delta-window", type=int, default=5)
    p.add_argument("--export-matrix", default=None,
                   help="also write the similarity matrix in descriptor format")
    p.add_argument("--out", required=True, help="scores CSV path")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="precision-recall / AUC analysis")
    p.add_argument("--scores", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--radius-sweep", default=None,
                   help="comma list or lo..hi range (default 2,10,50)")
    p.add_argument("--meters", action="store_true")
    p.add_argument("--ref-poses", default=None)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency benchmark over dataset sizes")
    p.add_argument("--sizes", default="500,1000,2000")
    p.add_argument("--methods", default="spl,seqslam")
    p.add_argument("--dim", type=int, default=1024)
    p.add_argument("--hidden", type=int, default=160)
    p.add_argument("--tw", type=int, default=10)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--queries", type=int, default=300)
    p.add_argument("--seed", type=int, default=21)
    p.add_argument("--out", required=True, help="latency JSON path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _configure_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from .core import NumericsError, ValidationError

    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
