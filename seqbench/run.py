"""seqplace benchmark: one workload per process, driven through `seqplace.cli.main`.

    python3 seqbench/run.py --workload map-wide --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` (there is nothing to build). BLAS pools are pinned to one thread
before numpy is imported.

A run generates the workload's inputs from --seed (set-up, repeated at
least SETUP_REPS times and for SETUP_SECONDS, median timed), then runs
closed-loop passes (one caller; a pass starts when the previous one
returned) while another pass fits in --seconds, and at least MIN_PASSES
of them; the first pass fixes the reference outputs. A
pass runs every command of the workload: `train` at tw 10 and tw 2,
`infer` and `eval` of the trained model, `infer` of the map model,
`match` (seqslam, pairwise) and an `eval` radius sweep on the map.

Every command is one operation. It fails if it exits non-zero or raises,
if a scores CSV has a row out of range, or if its output bytes or AUC
differ from the first pass. With --trace 0 the run prints every
end-to-end metric. A fixed probe loop (`machine.SpeedProbe`) runs
before and after every command and set-up, and a sample counts as steady
when the mean of the two probe times around it is the host's common one.
A throughput is the command's work over the mean of the middle half of
its steady times across the run, and `setup_s` the median steady set-up
time; with fewer than MIN_STEADY steady samples, the MIN_STEADY taken
closest to the common state stand in. With --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (medians), plus the tracing overhead (median traced minus median
untraced pass time).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
JSON record of the machine, the workload and every timed sample, by pass.
The exit code is 0 when every operation passed its checks, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".seqbench_work"
SETUP_REPS = 5      # set-up runs at least this often
SETUP_SECONDS = 3.0  # and for at least this long
MIN_PASSES = 2
MIN_STEADY = 3       # fewer steady samples than this: the closest this many
TW_LONG, TW_SHORT = 10, 2
SWEEP = "1..50"

# end-to-end metric -> unit; throughputs are work units per second
E2E_UNITS = {
    "seqslam_qps": "queries/s",
    "pairwise_qps": "queries/s",
    "infer_qps": "windows/s",
    "train_tw10_epochs_per_s": "epochs/s",
    "train_tw2_epochs_per_s": "epochs/s",
    "eval_sweeps_per_s": "sweeps/s",
    "seqslam_auc": "1",
    "spl_auc": "1",
    "peak_rss_mb": "MiB",
    "success_rate": "1",
    "setup_s": "s",
}


def import_package():
    """Import seqplace from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "seqplace" / "cli.py").is_file():
        raise SystemExit(f"seqbench: no seqplace sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("seqplace")
    for name in ("cli", "core", "ingest", "classic", "nn", "spl", "evaluate"):
        importlib.import_module(f"seqplace.{name}")
    if Path(package.__file__).resolve().parent != (src / "seqplace").resolve():
        raise SystemExit(f"seqbench: imported seqplace from {package.__file__}, not {src}")
    return package


@dataclass(frozen=True)
class Op:
    """One `seqplace` command with what its outputs must satisfy."""

    key: str
    argv: list
    outputs: tuple = ()          # files whose bytes must repeat pass to pass
    scores: tuple | None = None  # (path, rows, places) of a scores CSV to check
    auc: tuple | None = None     # (auc csv, radius, metric) to read and repeat
    metric: str | None = None    # end-to-end throughput this command feeds
    work: float = 1.0            # units of that metric per call


def _train_op(key, files, tw, workload, out) -> Op:
    argv = ["train", "--desc", files["ref"], "--poses", files["ref_poses"], "--tw", str(tw),
            "--hidden", str(workload.train_hidden), "--epochs", str(workload.epochs),
            "--lr", repr(workload.lr), "--seed", "1", "--out", out]
    return Op(key, argv, outputs=(out, f"{out}.history.csv", f"{out}.config"),
              metric=f"train_tw{tw}_epochs_per_s", work=workload.epochs)


def build_ops(workload, train_files, map_files, map_ckpt, out_dir) -> list:
    """The commands of one pass, in order."""
    def out(name):
        return os.path.join(out_dir, name)

    def infer_op(key, ckpt, files, metric=None):
        windows = files["n_query"] - TW_LONG
        scores = out(f"{key}.csv")
        return Op(key, ["infer", "--ckpt", ckpt, "--desc", files["query"], "--poses",
                        files["query_poses"], "--out", scores],
                  outputs=(scores,), scores=(scores, windows, files["n_ref"] - TW_LONG),
                  metric=metric, work=windows)

    repeated = [
        infer_op("infer-spl", out("tw10.splm"), train_files),
        Op("eval-spl", ["eval", "--scores", out("infer-spl.csv"), "--gt", train_files["gt"],
                        "--radius", "2", "--out", out("eval_spl")],
           outputs=(out("eval_spl_auc.csv"), out("eval_spl_pr_r2.csv")),
           auc=(out("eval_spl_auc.csv"), 2.0, "spl_auc")),
        infer_op("infer-map", map_ckpt, map_files, "infer_qps"),
    ]
    for method in ("seqslam", "pairwise"):
        repeated.append(Op(
            f"match-{method}",
            ["match", "--ref", map_files["ref"], "--query", map_files["query"],
             "--method", method, "--out", out(f"{method}.csv")],
            outputs=(out(f"{method}.csv"),),
            scores=(out(f"{method}.csv"), map_files["n_query"], map_files["n_ref"]),
            metric=f"{method}_qps", work=map_files["n_query"]))
    repeated.append(Op(
        "eval-sweep",
        ["eval", "--scores", out("seqslam.csv"), "--gt", map_files["gt"],
         "--radius-sweep", SWEEP, "--out", out("sweep")],
        outputs=(out("sweep_auc.csv"),),
        auc=(out("sweep_auc.csv"), 10.0, "seqslam_auc"),
        metric="eval_sweeps_per_s"))
    # Spread each command's repetitions evenly over the pass, so its samples
    # span the pass instead of one stretch of it: round 0 runs every command
    # (producers before consumers), later rounds a share of them, and the
    # train commands (tw 10 first: infer-spl reads its checkpoint) split the
    # rounds between them.
    reps = [workload.reps.get(op.key, 1) for op in repeated]
    total = max(reps)
    rounds = [[op for op, r in zip(repeated, reps)
               if math.ceil(k * r / total) != math.ceil((k + 1) * r / total)]
              for k in range(total)]
    tw10 = _train_op("train-tw10", train_files, TW_LONG, workload, out("tw10.splm"))
    tw2 = _train_op("train-tw2", train_files, TW_SHORT, workload, out("tw2.splm"))
    counts = (workload.reps.get(tw10.key, 1), workload.reps.get(tw2.key, 1))
    trains = [op for i in range(max(counts))
              for op, count in zip((tw10, tw2), counts) if i < count]
    ops = []
    for i, train in enumerate(trains):
        ops.append(train)
        for batch in rounds[i * total // len(trains):(i + 1) * total // len(trains)]:
            ops.extend(batch)
    return ops


class Runner:
    """Executes commands in-process, checks their outputs, keeps the tallies."""

    def __init__(self, package):
        self.package = package
        self.probe = machine.SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # op key -> (output digest, AUC) of its first run
        self.auc = {}        # metric -> AUC of the first run

    def invoke(self, argv) -> int:
        return self.package.cli.main(argv)

    def execute(self, op: Op):
        """Run one command; its wall time in seconds, or None when it failed."""
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.invoke(op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        problems = self.check(op) if code == 0 else [
            f"exit {code}: {stderr.getvalue().strip()[-500:]}"]
        if problems:
            self.failed += 1
            print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return elapsed

    def check(self, op: Op) -> list:
        problems = []
        if op.scores is not None:
            problems += checks.check_scores(*op.scores)
        value = None
        if op.auc is not None:
            value, auc_problems = checks.read_auc(op.auc[0], op.auc[1])
            problems += auc_problems
        try:
            digest = checks.digest(op.outputs)
        except OSError as exc:
            return problems + [f"missing output: {exc}"]
        if problems:
            return problems
        first = self.reference.setdefault(op.key, (digest, value))
        if first[0] != digest:
            problems.append("output bytes differ from the first pass")
        if first[1] != value:
            problems.append(f"AUC {value!r} differs from the first pass ({first[1]!r})")
        if op.auc is not None:
            self.auc.setdefault(op.auc[2], value)
        return problems

    def run_pass(self, ops) -> dict:
        """Run every op once between speed probes.

        Returns, per op key, a (wall seconds, off steady) pair for each
        successful run, the second how far the host was from its common
        state around it (`machine.off_steady`); and the pass time under
        'pass'.
        """
        times = {}
        start = time.perf_counter()
        before = self.probe.measure()
        for op in ops:
            elapsed = self.execute(op)
            after = self.probe.measure()
            if elapsed is not None:
                off = machine.off_steady(before, after)
                times.setdefault(op.key, []).append((elapsed, off))
            before = after
        times["pass"] = [time.perf_counter() - start]
        return times


def setup(runner, workload, seed, work_dir):
    """Write the inputs (and the map checkpoint) over and over.

    Returns (train files, map files, map checkpoint, set-up samples), the
    samples (seconds, off steady) pairs as in `Runner.run_pass`.
    """
    samples = []
    first = None
    before = runner.probe.measure()
    while len(samples) < SETUP_REPS or sum(t for t, _ in samples) < SETUP_SECONDS:
        start = time.perf_counter()
        train_files = workloads.write_traversal(work_dir, "train", workload.train, (seed, 0))
        map_files = workloads.write_traversal(work_dir, "map", workload.map, (seed, 1))
        map_ckpt = os.path.join(work_dir, "map.splm")
        runner.execute(Op("setup-ckpt", [
            "train", "--desc", map_files["ref"], "--poses", map_files["ref_poses"],
            "--tw", str(TW_LONG), "--hidden", str(workload.hidden), "--epochs", "0",
            "--seed", "1", "--out", map_ckpt], outputs=(map_ckpt,)))
        elapsed = time.perf_counter() - start
        after = runner.probe.measure()
        samples.append((elapsed, machine.off_steady(before, after)))
        before = after
        digest = checks.digest(files[k] for files in (train_files, map_files)
                               for k in ("ref", "ref_poses", "query", "query_poses", "gt"))
        runner.attempted += 1
        if first is None:
            first = digest
        elif digest != first:
            runner.failed += 1
            print("FAILED setup: inputs differ between set-ups of one seed", file=sys.stderr)
    return train_files, map_files, map_ckpt, samples


def run_workload(workload, seed: int, seconds: float, trace: bool, runner_cls=Runner) -> tuple:
    """Set up and measure; returns the result and the record."""
    package = import_package()
    runner = runner_cls(package)
    work_dir = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        train_files, map_files, map_ckpt, setups = setup(runner, workload, seed, str(work_dir))
        ops = build_ops(workload, train_files, map_files, map_ckpt, str(work_dir))
        plain, traced, layers = {}, [], []
        tracer = tracing.Tracer()
        start = time.perf_counter()
        passes = 0
        longest = 0.0
        min_passes = 4 if trace else MIN_PASSES  # traced runs: two of each kind
        # stop before a pass that would likely end past the budget
        while passes < min_passes or time.perf_counter() - start + longest <= seconds:
            traced_pass = trace and passes % 2 == 1
            if traced_pass:
                tracer.reset()
                tracing.install(tracer, package)
                try:
                    times = runner.run_pass(ops)
                finally:
                    tracer.uninstall()
                traced.append(times["pass"][0])
                layers.append(tracing.pass_metrics(tracer))
            else:
                times = runner.run_pass(ops)
                for key, values in times.items():
                    plain.setdefault(key, []).append(values)
            longest = max(longest, times["pass"][0])
            passes += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    problems = []
    used = {}  # end-to-end metric -> number of samples it was computed from
    if trace:
        metrics = layer_metrics(layers, problems)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(p for p, in plain["pass"]))
        units = tracing.layer_unit
    else:
        metrics = e2e_metrics(ops, plain, runner, setups, used, problems)
        units = E2E_UNITS.get
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    samples = dict(plain, setup=setups)
    if trace:
        samples["traced_pass"] = traced
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items()},
    }
    record = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace, "op_seconds": samples,
              "samples_used": used, "probe_seconds": runner.probe.samples,
              "machine": machine.record(THREAD_VARS)}
    return result, record


def e2e_metrics(ops, times, runner, setups, used, problems) -> dict:
    """Every end-to-end metric; fills `used` with each timing's sample count."""
    metrics = {}
    for op in ops:
        if op.metric is None or op.metric in metrics:
            continue
        if not times.get(op.key):
            problems.append(f"{op.metric}: no successful sample")
            continue
        steady = steady_times([sample for one_pass in times[op.key] for sample in one_pass])
        metrics[op.metric] = op.work / middle_mean(steady)
        used[op.metric] = len(steady)
    for name in ("seqslam_auc", "spl_auc"):
        if name not in runner.auc:
            problems.append(f"{name}: not measured")
            continue
        metrics[name] = runner.auc[name]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["success_rate"] = 1.0 - runner.failed / runner.attempted
    steady = steady_times(setups)
    metrics["setup_s"] = statistics.median(steady)
    used["setup_s"] = len(steady)
    return metrics


def steady_times(samples) -> list:
    """The times of the (seconds, off steady) samples taken with the host in
    its common state, or, when fewer than MIN_STEADY were, of the
    MIN_STEADY taken closest to it."""
    ranked = sorted(samples, key=lambda sample: sample[1])
    steady = [seconds for seconds, off in ranked if off == 0.0]
    if len(steady) >= MIN_STEADY:
        return steady
    return [seconds for seconds, _ in ranked[:MIN_STEADY]]


def middle_mean(samples) -> float:
    """Mean of the middle half of the samples (the interquartile mean).

    A command's samples are spread evenly over the run, so this averages
    over the whole run rather than one stretch of it; dropping the outer
    quarters keeps a single disturbed call from moving the result.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def layer_metrics(layers, problems) -> dict:
    """Medians over traced passes; counts must repeat exactly pass to pass."""
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        exact = name.endswith((".calls", "_frac")) or name in tracing.COUNT_METRICS
        if exact and len(set(values)) != 1:
            problems.append(f"{name}: differs between traced passes: {values}")
        metrics[name] = values[0] if exact else statistics.median(values)
    return metrics


def main(argv=None, runner_cls=Runner, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if sizes is not None:
        workload = sizes(workload)
    result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  runner_cls)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
