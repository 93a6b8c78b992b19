"""The repository's benchmark: one workload per call, in fresh processes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train_mcunet_b8 --seed 1 \\
        --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``train_mcunet_b8`` - MCUNet-micro training step, batch 8, in-process;
* ``train_llama_b2``  - LLaMA-micro training step, batch 2, in-process;
* ``serve_http_mcunet`` - ``repro serve --http`` driven by two closed-loop
  HTTP clients.

Every workload process starts from a fresh interpreter with the
environment of :func:`common.hermetic_env`. ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the workload with
spans recorded around the program's public calls and prints the per-layer
metrics. The last line of standard output is the result object; the line
before it holds the run's environment and sample counts. A run whose
correctness check fails reports no numbers and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import READY, RESULT, ROOT, SRC, hermetic_env, parse

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "train_mcunet_b8": {"model": "mcunet_micro", "batch": 8},
    "train_llama_b2": {"model": "llama_micro", "batch": 2},
    "serve_http_mcunet": None,
}
#: fresh-process set-ups per run; setup_s is their median
SETUPS = 7
#: measured and printed on the details line, but not end-to-end metrics:
#: they do not repeat across runs on a shared host (README.md)
INFORMATIONAL = ("samples", "latency_p50_ms", "samples_per_s")
#: a workload process that outlives its timed loop by this much is killed
GRACE_S = 100.0


def spawn(argv: list[str], env: dict[str, str],
          timeout: float) -> tuple[subprocess.Popen, threading.Timer]:
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    return proc, watchdog


def read_until(proc: subprocess.Popen, tag: str) -> dict:
    for line in proc.stdout:
        message = parse(line)
        if message and message[0] == tag:
            return message[1]
    raise RuntimeError(f"workload process ended (rc={proc.wait()}) "
                       f"without a {tag} line")


def finish(proc: subprocess.Popen, watchdog: threading.Timer) -> None:
    proc.stdout.read()
    proc.wait()
    watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")


def run_train(spec: dict, args, env: dict[str, str]) -> dict:
    """SETUPS fresh processes, each timed from spawn to its first step.
    The middle one goes on to the timed loop, so set-ups sample the host
    both before and after it."""
    base = [str(HERE / "train_loop.py"), "--model", spec["model"],
            "--batch", str(spec["batch"]), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for i in range(SETUPS):
        timed = i == SETUPS // 2
        began = time.perf_counter()
        proc, watchdog = spawn(base if timed else base + ["--setup-only"],
                               env, args.seconds + GRACE_S)
        try:
            ready = read_until(proc, READY)
            setups.append((time.perf_counter() - began, ready))
            if timed:
                result = read_until(proc, RESULT)
        finally:
            finish(proc, watchdog)
    if not all(r["first_loss_finite"] for _, r in setups):
        result["correct"] = False
    result["setups"] = setups
    return result


def run_serve(args, env: dict[str, str]) -> dict:
    proc, watchdog = spawn(
        [str(HERE / "serve_loop.py"), "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--setups", str(SETUPS)],
        env, args.seconds + GRACE_S)
    try:
        return read_until(proc, RESULT)
    finally:
        finish(proc, watchdog)


def setup_layers(setups: list) -> tuple[float, dict]:
    """setup_s, the median set-up, and the timed parts of that same
    set-up (so parts and residual add up to it)."""
    ordered = sorted(setups, key=lambda s: s[0])
    setup_s, parts = ordered[len(ordered) // 2]
    parts = {k: v for k, v in parts.items() if k.endswith("_ms")}
    return setup_s, parts


def environment(args) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": hermetic_env()["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "seconds": args.seconds,
        "setups": SETUPS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]

    env = hermetic_env()
    # Untimed: write bytecode caches and warm the file cache, so the first
    # timed set-up of a fresh checkout does not pay for compiling sources.
    subprocess.run([sys.executable, "-c",
                    "import repro.cli, repro.serve.gateway, repro.models, "
                    "repro.runtime.compiler"],
                   env=env, cwd=ROOT, check=True, timeout=120)
    spec = WORKLOADS[args.workload]
    result = run_train(spec, args, env) if spec else run_serve(args, env)

    setup_s, setup_parts = setup_layers(result["setups"])
    if args.trace:
        values = {**setup_parts, **result["layers"]}
        if "run_pipeline_ms" in result:
            # run_pipeline runs inside compile_training: report self time
            values["runtime.passes.run_pipeline_ms"] = \
                result["run_pipeline_ms"]
            values["runtime.compiler.compile_training_ms"] -= \
                result["run_pipeline_ms"]
        values["setup.residual_ms"] = setup_s * 1e3 - sum(
            v for k, v in values.items()
            if k.startswith(("setup.", "serve.setup.", "models.",
                             "runtime.compiler.", "runtime.passes.")))
    else:
        values = {**result, "setup_s": setup_s}
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in metric_specs}

    details = {"environment": environment(args),
               "check": {k: result[k] for k in
                         ("check", "violations", "nonfinite_losses",
                          "errors")
                         if k in result},
               "setup_samples_s": sorted(s for s, _ in result["setups"]),
               **{k: result[k] for k in INFORMATIONAL if k in result}}
    print("details", json.dumps(details))
    correct = bool(result["correct"])
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
