"""Pin compute pools to one thread before numpy loads anywhere, so latency
measurements and bit-level determinism checks are stable; fail any test that
leaves its thread flushing float subnormals to zero, or leaves a thread
running."""

import os
import threading

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from oracles import subnormal_mask, subnormal_probe  # noqa: E402


@pytest.fixture(autouse=True)
def flush_mode_not_leaked():
    # a leaked nn.denormals_flushed mode changes every later test's float
    # arithmetic; the fuzz tests notice only where they draw floats
    yield
    assert subnormal_mask(subnormal_probe()), "a subnormal flushed to zero after the test"


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    # the classic stages' worker threads must all have ended by the time a
    # call returns
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, "a thread outlived the test"
