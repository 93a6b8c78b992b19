"""One training workload in a fresh process: set up, time, check.

Builds a micro model under the paper's sparse-update scheme with SGD,
compiles its training step, runs the first step and reports ``READY`` to
the parent (which times spawn-to-ready as ``setup_s``). Unless
``--setup-only``, it then runs a closed loop of ``Executor.run`` calls for
``--seconds`` and a correctness check, and reports ``RESULT``.

With ``--trace 1`` the loop alternates fixed-length chunks with and
without an ``Executor.instr_observer`` attached; the observed chunks give
per-kernel time, the executor's own time (step wall minus kernel spans)
and the observer's overhead against the interleaved unobserved chunks.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from repro.models import build_model, paper_scheme  # noqa: E402
from repro.runtime import Executor  # noqa: E402
from repro.runtime.compiler import compile_training  # noqa: E402
from repro.runtime.passes import run_pipeline  # noqa: E402
from repro.train import SGD  # noqa: E402

from common import (READY, RESULT, emit, latency_metrics,  # noqa: E402
                    peak_rss_mb, quantile)

T_IMPORTED = time.perf_counter()

LEARNING_RATE = 0.05
#: distinct seeded batches the loop cycles through
POOL = 32
#: untimed steps before measuring: arenas, precomputed constants and
#: BLAS buffers settle here
WARMUP_S = 1.0
#: traced/untraced alternation period of the --trace 1 loop
CHUNK_S = 0.1
#: steps replayed against the interpreter oracle after timing
CHECK_STEPS = 8
#: kernel groups reported per layer; every other op lands in "other"
KERNEL_GROUPS = ("conv2d", "conv2d_dx", "conv2d_dw", "matmul", "softmax",
                 "rmsnorm")


def make_feeds(forward, program, seed: int) -> list[dict[str, np.ndarray]]:
    """Seeded batches: float inputs are N(0, 1); integer inputs (token
    ids) and labels are uniform over the model's output classes."""
    rng = np.random.default_rng(seed)
    classes = forward.spec(forward.outputs[0]).shape[-1]
    labels = program.meta["labels"]
    specs = [(name, forward.spec(name)) for name in forward.inputs]
    specs.append((labels, program.graph.spec(labels)))
    pool = []
    for _ in range(POOL):
        feeds = {}
        for name, spec in specs:
            dtype = spec.dtype.np
            if np.issubdtype(dtype, np.floating):
                feeds[name] = rng.standard_normal(spec.shape).astype(dtype)
            else:
                feeds[name] = rng.integers(0, classes, spec.shape,
                                           dtype=dtype)
        pool.append(feeds)
    return pool


def check(program, initial: dict[str, np.ndarray], pool) -> dict:
    """Replay CHECK_STEPS seeded steps from the initial state on the
    default plan and on the interpreter: losses and mutable state must be
    byte-identical, and every loss finite."""
    loss = program.meta["loss"]
    runs = []
    for backend in ("plan", "interpreter"):
        state = {name: array.copy() for name, array in initial.items()}
        executor = Executor(program.with_state(state), backend=backend)
        losses = [executor.run(pool[i % len(pool)])[loss].copy()
                  for i in range(CHECK_STEPS)]
        runs.append((losses, state))
    (plan_losses, plan_state), (ref_losses, ref_state) = runs
    losses_equal = all(a.tobytes() == b.tobytes()
                       for a, b in zip(plan_losses, ref_losses))
    state_equal = all(plan_state[name].tobytes() == ref_state[name].tobytes()
                      for name in initial)
    finite = all(np.isfinite(v).all() for v in plan_losses)
    return {"losses_equal": losses_equal, "state_equal": state_equal,
            "finite": bool(finite),
            "ok": losses_equal and state_equal and bool(finite)}


class KernelTrace:
    """Executor.instr_observer that sums kernel time per op group."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls = 0

    def __call__(self, instr, began: float, ended: float) -> None:
        self.seconds[instr.node.op_type] += ended - began
        self.calls += 1

    def total(self) -> float:
        return sum(self.seconds.values())


def measure(executor: Executor, pool, loss: str, seconds: float,
            traced: bool) -> dict:
    """Closed loop for ``seconds``. Untraced: every step is a sample.
    Traced: chunks alternate observer-off / observer-on."""
    samples = {False: [], True: []}
    trace = KernelTrace()
    kernel_s = 0.0
    stats = {"attempted": 0, "failed": 0, "nonfinite": 0, "errors": []}
    arena = executor.arena
    takes0, misses0 = arena.takes, arena.misses
    fresh_allocs = 0
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    now = start
    while now < deadline:
        observed = traced and int((now - start) / CHUNK_S) % 2 == 1
        executor.instr_observer = trace if observed else None
        before = trace.total() if observed else 0.0
        feeds = pool[i % len(pool)]
        i += 1
        stats["attempted"] += 1
        began = time.perf_counter()
        try:
            outputs = executor.run(feeds)
        except Exception as exc:  # counted and reported, the loop goes on
            stats["failed"] += 1
            if len(stats["errors"]) < 5:
                stats["errors"].append(repr(exc))
            now = time.perf_counter()
            continue
        now = time.perf_counter()
        samples[observed].append(now - began)
        if observed:
            kernel_s += trace.total() - before
            fresh_allocs += executor.last_step_fresh_allocs
        if not np.isfinite(outputs[loss]).all():
            stats["nonfinite"] += 1
            stats["failed"] += 1
    executor.instr_observer = None
    wall = time.perf_counter() - start
    return {"samples": samples, "wall": wall, "trace": trace,
            "kernel_s": kernel_s, "fresh_allocs": fresh_allocs,
            "arena_takes": arena.takes - takes0,
            "arena_misses": arena.misses - misses0, **stats}


def layer_metrics(run: dict, spec) -> dict:
    """Per-step means over the observed steps: the kernel groups plus the
    executor's self time add up to ``trace.step_ms``."""
    traced = run["samples"][True]
    untraced = run["samples"][False]
    steps = len(traced)
    trace = run["trace"]
    kernels = {f"kernels.{g}_ms": trace.seconds.get(g, 0.0) * 1e3 / steps
               for g in KERNEL_GROUPS}
    kernels["kernels.other_ms"] = sum(
        s for op, s in trace.seconds.items()
        if op not in KERNEL_GROUPS) * 1e3 / steps
    lookups = run["arena_takes"] + run["arena_misses"]
    return {
        "trace.step_ms": sum(traced) * 1e3 / steps,
        "trace.steps": steps,
        "runtime.executor.self_ms":
            (sum(traced) - run["kernel_s"]) * 1e3 / steps,
        **kernels,
        "kernels.calls_per_step": trace.calls / steps,
        "runtime.plan.instructions": len(spec.instructions),
        "runtime.executor.fresh_allocs_per_step":
            run["fresh_allocs"] / steps,
        "runtime.plan.arena_hit_ratio":
            run["arena_takes"] / lookups if lookups else 0.0,
        "obs.trace_overhead_ratio":
            quantile(traced, 0.5) / quantile(untraced, 0.5),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    forward = build_model(args.model, batch=args.batch)
    t1 = time.perf_counter()
    program = compile_training(forward, optimizer=SGD(LEARNING_RATE),
                               scheme=paper_scheme(forward))
    t2 = time.perf_counter()
    initial = {name: program.state[name].copy()
               for name in program.mutable_state_names()}
    pool = make_feeds(forward, program, args.seed)
    loss = program.meta["loss"]
    executor = Executor(program)
    t3 = time.perf_counter()
    first = executor.run(pool[0])[loss]
    t4 = time.perf_counter()
    emit(READY, {
        "setup.import_ms": (T_IMPORTED - T_START) * 1e3,
        "models.build_ms": (t1 - t0) * 1e3,
        "runtime.compiler.compile_training_ms": (t2 - t1) * 1e3,
        "setup.first_step_ms": (t4 - t3) * 1e3,
        "first_loss_finite": bool(np.isfinite(first).all()),
    })
    if args.setup_only:
        return 0

    warm_deadline = time.perf_counter() + min(WARMUP_S, args.seconds / 5)
    i = 1
    while time.perf_counter() < warm_deadline:
        executor.run(pool[i % len(pool)])
        i += 1
    run = measure(executor, pool, loss, args.seconds, bool(args.trace))
    rss_mb = peak_rss_mb()
    verdict = check(program, initial, pool)
    result = {
        "attempted": run["attempted"], "failed": run["failed"],
        "errors": run["errors"], "nonfinite_losses": run["nonfinite"],
        "check": verdict,
        "correct": verdict["ok"] and run["nonfinite"] == 0,
    }
    if args.trace:
        began = time.perf_counter()
        run_pipeline(program)
        result["run_pipeline_ms"] = (time.perf_counter() - began) * 1e3
        result["layers"] = layer_metrics(run, program.plan_spec())
    else:
        result.update(
            latency_metrics(run["samples"][False], args.batch, run["wall"]),
            peak_transient_bytes=program.meta["report"].peak_transient_bytes,
            rss_peak_mb=rss_mb)
    emit(RESULT, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
