"""The benchmark's tracer (seqbench/tracing.py) wraps package attributes by
name. Installing and removing it here makes a renamed or deleted traced name
fail this test instead of crashing `seqbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import seqplace
from seqplace import classic, cli, core, evaluate, ingest, nn, spl  # noqa: F401  traced modules

TRACING = Path(__file__).resolve().parents[1] / "seqbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("seqbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_traced_name():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, seqplace)
        installed = list(tracer._installed)
        assert installed
        for owner, attr, raw in installed:
            assert owner.__dict__[attr] is not raw, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, raw in installed:
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr} not restored"


def test_every_scoring_command_reduces_through_from_scores(tmp_path):
    # a producer that bypassed MatchScores.from_scores would make its traced
    # span, and the benchmark's per-layer metric, read 0
    synth = tmp_path / "synth"
    assert cli.main(["synth", "--frames", "40", "--dim", "8", "--seed", "3",
                     "--noise", "0.05", "--warp", "1.0", "--out", str(synth)]) == 0
    ref, query = str(synth / "ref_descriptors.spld"), str(synth / "query_descriptors.spld")
    ckpt = str(tmp_path / "model.splm")
    assert cli.main(["train", "--desc", ref, "--poses", str(synth / "ref_poses.csv"),
                     "--tw", "3", "--hidden", "8", "--epochs", "0", "--out", ckpt]) == 0
    commands = {
        "infer": ["infer", "--ckpt", ckpt, "--desc", query,
                  "--poses", str(synth / "query_poses.csv")],
        "match seqslam": ["match", "--ref", ref, "--query", query, "--method", "seqslam",
                          "--ds", "4"],
        "match pairwise": ["match", "--ref", ref, "--query", query, "--method", "pairwise"],
    }
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, seqplace)
        for name, argv in commands.items():
            tracer.reset()
            assert cli.main(argv + ["--out", str(tmp_path / "scores.csv")]) == 0
            assert tracer.calls["core.MatchScores.from_scores"] == 1, name
            assert tracer.self_s["core.MatchScores.from_scores"] > 0.0, name
    finally:
        tracer.uninstall()
