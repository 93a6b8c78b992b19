"""Helpers shared by the benchmark's orchestrator and workload processes.

Stdlib only: ``run.py`` imports this before it knows whether the checkout
holds the program at all.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: variables that change what the program does and must not leak in from
#: the caller: plan verification alone adds 10-15 ms to every compile,
#: fault injection breaks steps, and the fast switch shrinks workloads
SCRUBBED_ENV = ("REPRO_VERIFY_PLANS", "REPRO_FAULTS", "REPRO_BENCH_FAST")

#: BLAS threads per process. The training loops are single-threaded and
#: the server runs two step workers on a two-core host; a second BLAS
#: thread per process only adds contention noise.
BLAS_THREADS = 1

READY = "READY"
RESULT = "RESULT"


def hermetic_env() -> dict[str, str]:
    """The environment every workload process runs under."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def emit(tag: str, payload: dict) -> None:
    """One protocol line from a workload process to its parent."""
    print(tag, json.dumps(payload), flush=True)


def parse(line: str) -> tuple[str, dict] | None:
    tag, _, body = line.strip().partition(" ")
    if tag in (READY, RESULT):
        return tag, json.loads(body)
    return None


def quantile(samples, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB (1e6 B)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def latency_metrics(latencies, examples_each: int, wall: float) -> dict:
    """Closed-loop figures from per-operation latencies in seconds.

    ``latency_p1_ms`` and ``latency_p90_ms`` are the end-to-end metrics;
    the median and the mean throughput go to the details line only, see
    README.md ("Why p1 and p90").
    """
    return {
        "samples": len(latencies),
        "latency_p1_ms": quantile(latencies, 0.01) * 1e3,
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "samples_per_s": len(latencies) * examples_each / wall,
    }
