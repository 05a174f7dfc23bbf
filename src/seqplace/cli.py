"""Command-line entry point wiring ingestion, training, matching,
evaluation, and benchmarking into reproducible runs.

Exit codes: 0 success, 1 usage/validation error (or out of memory), 2
numerical failure.
Every command validates its inputs before writing anything and emits a
<out>.manifest.json recording the resolved configuration, input digests,
seed, and wall-clock bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    # one reused buffer of at most 1 MiB, no larger than the file needs: a
    # fresh bytes object per chunk page-faults, and zeroing 1 MiB for a
    # small table costs more than hashing it
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        buf = bytearray(min(1 << 20, os.fstat(fh.fileno()).st_size + 1))
        view = memoryview(buf)
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _start_manifest(command: str, parameters: dict, input_paths, seed) -> dict:
    """The reproducibility record written next to a command's main output."""
    from . import __version__

    return {"command": command, "parameters": parameters,
            "inputs": {str(p): _sha256(p) for p in input_paths}, "seed": seed,
            "toolkit_version": __version__, "started_at": _utc_now()}


def _finish(manifest: dict, out_path) -> int:
    from .core import atomic_open

    manifest["finished_at"] = _utc_now()
    with atomic_open(f"{out_path}.manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _parse_warp(text):
    if text is None:
        return None
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        from .core import ValidationError

        raise ValidationError(f"bad --warp value {text!r}; expected comma-separated speeds")


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
    if args.noise != 0.0 or args.warp is not None or args.pose_noise is not None:
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
    from .core import (ModelConfig, TrainConfig, ValidationError, parse_batch_size,
                       read_config_file, train_config_from_mapping, write_config_file)
    from .ingest import load_descriptors, load_poses, write_table
    from .spl import build_model, save_checkpoint, train

    desc = load_descriptors(args.desc)
    poses = load_poses(args.poses)
    base = train_config_from_mapping(read_config_file(args.config)) if args.config \
        else TrainConfig()
    try:
        batch_size = None if args.batch is None else parse_batch_size(args.batch)
    except ValueError:
        raise ValidationError(f'--batch must be an integer or "all", got {args.batch!r}')
    # a flag overrides the config file, which overrides the TrainConfig default
    flags = {"initial_lr": args.lr, "min_lr": args.min_lr, "epochs": args.epochs,
             "batch_size": batch_size, "seed": args.seed}
    train_cfg = dataclasses.replace(
        base, **{key: value for key, value in flags.items() if value is not None})
    model_cfg = ModelConfig.for_traversal(
        desc.n_frames, args.tw, variant=args.variant, descriptor_dim=desc.dim,
        hidden_size=args.hidden, pose_weight=args.pos_weight,
    )
    params = {"model": dataclasses.asdict(model_cfg), "train": dataclasses.asdict(train_cfg)}
    manifest = _start_manifest("train", params, [args.desc, args.poses], train_cfg.seed)
    model = build_model(model_cfg, train_cfg.seed)
    trained, history = train(model, desc, poses, train_cfg)
    save_checkpoint(trained, args.out)
    write_table(f"{args.out}.history.csv", "epoch,loss,accuracy,lr",
                zip(range(len(history.loss)), history.loss, history.accuracy, history.lr))
    write_config_file(f"{args.out}.config", {**params["model"], **params["train"]})
    return _finish(manifest, args.out)


def cmd_infer(args) -> int:
    from .ingest import load_descriptors, load_poses, save_scores
    from .spl import infer, load_checkpoint

    model = load_checkpoint(args.ckpt)
    desc = load_descriptors(args.desc)
    poses = load_poses(args.poses)
    manifest = _start_manifest(
        "infer", {"ckpt": args.ckpt}, [args.ckpt, args.desc, args.poses], None)
    save_scores(args.out, infer(model, desc, poses))
    return _finish(manifest, args.out)


def cmd_match(args) -> int:
    from .classic import DEFAULT_METRIC, SeqSlamConfig, match
    from .ingest import load_descriptors, save_scores

    ref = load_descriptors(args.ref)
    query = load_descriptors(args.query)
    metric = args.metric or DEFAULT_METRIC[args.method]
    # every method records, and so validates, the line-search settings
    cfg = SeqSlamConfig(ds=args.ds, v_min=args.vmin, v_max=args.vmax,
                        v_step=args.vstep, r_window=args.rwindow)
    params = {"method": args.method, "metric": metric, **dataclasses.asdict(cfg),
              "delta_window": args.delta_window}
    manifest = _start_manifest("match", params, [args.ref, args.query], None)
    save_scores(args.out, match(args.method, ref, query, cfg, metric, args.delta_window))
    return _finish(manifest, args.out)


def cmd_eval(args) -> int:
    from .core import ValidationError
    from .evaluate import GroundTruth, pr_curve_from_arrays, write_auc_csv, write_pr_csv
    from .ingest import load_ground_truth, load_poses, load_scores

    predicted, confidence = load_scores(args.scores)
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
    gt = GroundTruth(map=gt_map, tolerance_kind=kind, radius=radii)
    manifest = _start_manifest("eval", {"kind": kind, "radii": radii}, inputs, None)
    curves = pr_curve_from_arrays(predicted, confidence, gt, ref_poses=ref_poses)
    for i, radius in enumerate(radii):
        if len(radii) <= 5:
            write_pr_csv(f"{args.out}_pr_r{radius:g}.csv", curves.threshold,
                         curves.precision[i], curves.recall[i])
        print(f"radius={radius:g} auc={curves.auc[i]:.6f} "
              f"max_recall_at_full_precision={curves.max_recall_at_full_precision[i]:.6f}")
    write_auc_csv(f"{args.out}_auc.csv", zip(map(float, radii), curves.auc.tolist()))
    return _finish(manifest, args.out)


def cmd_bench(args) -> int:
    from .classic import SeqSlamConfig, match
    from .core import DescriptorSequence, ModelConfig, PoseSequence, ValidationError
    from .evaluate import bench_latency, write_latency_json
    from .ingest import SyntheticEnv, perturb_query, synth_traverse
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
    if args.queries <= max(args.tw, 3):
        raise ValidationError("--queries must exceed --tw and be at least 4")
    params = {"sizes": sizes, "methods": methods, "dim": args.dim,
              "hidden": args.hidden, "tw": args.tw, "reps": args.reps,
              "queries": args.queries}
    manifest = _start_manifest("bench", params, [], args.seed)
    cases = []
    for n_ref in sizes:
        if n_ref <= args.tw:
            raise ValidationError(f"size {n_ref} must exceed tw={args.tw}")
        env = synth_traverse(n_ref, args.dim, args.seed, smoothness=0.8)
        # at speed 1.0 query frame q comes from reference frame q: perturb only those
        kept = SyntheticEnv(DescriptorSequence(data=env.descriptors.data[:args.queries]),
                            PoseSequence(data=env.poses.data[:args.queries]))
        query, _ = perturb_query(kept, 0.05, 1.0, args.seed + 1)
        for method in methods:
            # spl scores one window of tw frames per start frame
            n_queries = query.descriptors.n_frames - (args.tw if method == "spl" else 0)
            if method == "spl":
                cfg = ModelConfig.for_traversal(
                    n_ref, args.tw, variant="spl", descriptor_dim=args.dim,
                    hidden_size=args.hidden)
                run = functools.partial(infer, build_model(cfg, args.seed),
                                        query.descriptors, query.poses)
            else:
                run = functools.partial(match, method, env.descriptors, query.descriptors,
                                        SeqSlamConfig(ds=args.tw))
            cases.append((method, n_ref, n_queries, run))
    reports = bench_latency(cases, args.reps)
    for report in reports:
        print(f"{report.matcher} N={report.n_frames}: mean {report.mean_us_per_query:.1f} "
              f"us/query (min {report.min_us_per_query:.1f}, "
              f"p95 {report.p95_us_per_query:.1f})")
    write_latency_json(args.out, reports)
    return _finish(manifest, args.out)


# --- parser ---------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was and makes a new namespace
def build_parser() -> _Parser:
    parser = _Parser(prog="seqplace",
                     description="Sequence-based place recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic traversal")
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
    args = build_parser().parse_args(argv)
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
    except MemoryError as exc:
        # also one raised in a worker thread of a classic stage; atomic
        # writes leave nothing behind
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
