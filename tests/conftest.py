"""Pin compute pools to one thread before numpy loads anywhere, so latency
measurements and bit-level determinism checks are stable."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
