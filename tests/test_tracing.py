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
