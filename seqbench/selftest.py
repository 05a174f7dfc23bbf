"""Toy-size self-test of the benchmark itself.

    python3 seqbench/selftest.py

Checks, at toy sizes and in a few seconds:
- every workload emits every end-to-end metric (--trace 0) and every
  per-layer metric (--trace 1) of BENCHMARK.json with its unit, every
  traced span is called, and the run is correct;
- AUCs, `*.calls` counts and `nn.subnormal_frac` repeat exactly between
  two runs of one seed;
- a corrupted scores file counts as a failed operation and the run still
  prints its result;
- without the package sources the benchmark exits non-zero and prints no
  result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS pools before numpy loads
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy_run(workload, trace, seed=3, runner_cls=run.Runner):
    """(exit code, final JSON) of one in-process toy run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace)], runner_cls=runner_cls, sizes=workloads.toy)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_coverage(failures):
    listed = [w["name"] for w in SPEC["workloads"]]
    if listed != list(workloads.WORKLOADS):
        failures.append(f"BENCHMARK.json lists workloads {listed}, "
                        f"the benchmark has {list(workloads.WORKLOADS)}")
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = toy_run(workload, trace)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: not correct: {result}")
            if got != expected:
                failures.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}")
            idle = [n for n, m in result["metrics"].items()
                    if n.endswith(".calls") and m["value"] == 0]
            if idle:
                failures.append(f"{workload}: spans never called: {idle}")


def check_repeats(failures):
    for trace, exact in ((0, ("seqslam_auc", "spl_auc")), (1, None)):
        first = toy_run("map-long", trace)[1]["metrics"]
        second = toy_run("map-long", trace)[1]["metrics"]
        names = exact or [n for n in first if n.endswith(".calls") or n == "nn.subnormal_frac"]
        for name in names:
            if first[name]["value"] != second[name]["value"]:
                failures.append(f"{name} differs between runs of one seed: "
                                f"{first[name]['value']} vs {second[name]['value']}")


class CorruptingRunner(run.Runner):
    """Overwrites one seqslam scores file with an out-of-range confidence."""

    matches = 0

    def invoke(self, argv):
        code = super().invoke(argv)
        if argv[0] == "match" and "seqslam" in argv:
            self.matches += 1
            if self.matches == 2:
                out = argv[argv.index("--out") + 1]
                Path(out).write_text("query,predicted,confidence\n0,0,nan\n", encoding="utf-8")
        return code


def check_corruption(failures):
    code, result = toy_run("map-long", 0, runner_cls=CorruptingRunner)
    if code == 0 or result["correct"] or result["failed"] < 1:
        failures.append(f"a corrupted scores file did not count as a failure: {result}")
    if result["attempted"] <= result["failed"]:
        failures.append(f"the run stopped at the corrupted file: {result}")


def check_without_sources(failures):
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(Path(run.__file__).parent, bare / "seqbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "seqbench/run.py", "--workload", "map-long", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()
    if proc.returncode == 0 or "correct" in proc.stdout:
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    failures = []
    for check in (check_coverage, check_repeats, check_corruption, check_without_sources):
        before = len(failures)
        check(failures)
        print(f"{check.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
