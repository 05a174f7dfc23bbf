"""The machine record printed with every result, and the host speed probe."""

from __future__ import annotations

import glob
import importlib.util
import os
import platform
import time

import numpy as np

# The speed probe: a fixed mix of the three kinds of work the program does,
# in about equal time: interpreter bytecode, small numpy calls on
# cache-resident rows (gathers and adds over 2048 elements, the shape of the
# line search) and small BLAS calls with an activation (the shape of the
# LSTM). It lives here, so a change to the program cannot change it.
PROBE_ROW = 2048
# Probe times (s) of the host's common state on a shared 2-vCPU Intel Xeon
# VM with one BLAS thread. That host switches every few seconds between
# three states: common (probe 12.5-15 ms, most often 13.5), fast (8.5-11
# ms: code runs 1.15-1.7x faster, by how much depending on what it
# computes) and slow (15.5 ms and more).
STEADY_PROBE_S = (0.0125, 0.015)


class SpeedProbe:
    """Times the probe loop; keeps every time in `samples`."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._row = rng.standard_normal(PROBE_ROW)
        self._index = rng.permutation(PROBE_ROW)
        self._weights = rng.standard_normal((64, 64))
        self._inputs = rng.standard_normal((64, 128))
        self.samples = []

    def measure(self) -> float:
        start = time.perf_counter()
        total = 0
        for step in range(25000):
            total += step * step % 7
        acc = np.zeros(PROBE_ROW)
        for step in range(450):
            acc += self._row[(self._index + step) & (PROBE_ROW - 1)]
        for _ in range(90):
            np.tanh(self._weights @ self._inputs)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def off_steady(before: float, after: float) -> float:
    """How far (s) the host was from its common state around a sample: the
    distance of the mean of the probe times just before and just after it
    from STEADY_PROBE_S, 0 inside it."""
    mean = (before + after) / 2.0
    return max(STEADY_PROBE_S[0] - mean, mean - STEADY_PROBE_S[1], 0.0)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Cache sizes of cpu0 by level, e.g. {"L1d": "48K", "L2": "2048K"}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def record(thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
