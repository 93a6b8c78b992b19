"""Step-latency benchmark: interpreter vs unoptimized vs default plan.

Workload: MCUNet sparse fine-tuning (the paper's on-device scenario) — the
``mcunet_micro`` variant under the paper's sparse-update scheme with SGD,
which is exactly what every request in ``repro.serve`` funnels through.
Small tensors make this overhead-dominated, i.e. the regime the compiled
plan targets: the kernels themselves are identical between backends.

Three configurations run side by side: the legacy interpreter,
``passes="none"`` (zero-interpretation but unoptimized stream), and the
default pipeline (``precompute_frozen``). Reports p50/p95 step latency,
steady-state throughput, steady-state fresh-buffer allocations per step,
and the per-pass instruction/latency delta, then writes
``BENCH_step_latency.json`` so CI can track the repo's perf trajectory.

CI gates (exit non-zero on violation):

* the plan-backed executor must not lose to the interpreter (throughput
  band + dispatch overhead);
* the default plan must not allocate more in steady state than
  ``passes="none"``.

Usage::

    PYTHONPATH=src python benchmarks/bench_step_latency.py [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.models import build_model, paper_scheme
from repro.runtime import Executor
from repro.runtime.compiler import compile_training
from repro.runtime.passes import run_pipeline
from repro.train import SGD

from _helpers import banner

#: the pipeline ladder: the unoptimized stream, then the default pipeline
PASS_LADDER = (
    ("none", "none"),
    ("default", "default"),
)


def build_program(batch: int):
    forward = build_model("mcunet_micro", batch=batch)
    scheme = paper_scheme(forward)
    program = compile_training(forward, optimizer=SGD(0.05), scheme=scheme)
    return forward, program


def reconfigured(program, passes):
    """An independent lowering of ``program`` under another pass config
    (private meta so the cached plan is not shared, shared graph/state)."""
    meta = {k: v for k, v in program.meta.items()
            if k not in ("__plan__", "__plan_spec__")}
    meta["plan_passes"] = passes
    return dataclasses.replace(program, meta=meta)


def make_feeds(forward, program, batch: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        forward.spec(forward.inputs[0]).shape).astype(np.float32)
    y = rng.integers(0, 10, batch).astype(np.int64)
    return {forward.inputs[0]: x, program.meta["labels"]: y}


def measure(executor: Executor, feeds, steps: int, warmup: int):
    for _ in range(warmup):
        executor.run(feeds)
    latencies = []
    fresh_allocs = 0
    began_all = perf_counter()
    for _ in range(steps):
        began = perf_counter()
        executor.run(feeds)
        latencies.append(perf_counter() - began)
        fresh_allocs += executor.last_step_fresh_allocs
    wall = perf_counter() - began_all
    # Kernel-time floor (both backends run identical kernels): an observed
    # pass sums per-kernel spans; step time minus that is the executor's
    # own dispatch/bookkeeping overhead — the cost the plan compiles away.
    spans = []
    executor.observer = lambda node, s: spans.append(s)
    kernel_samples = []
    for _ in range(max(3, min(10, steps // 5))):
        spans.clear()
        executor.run(feeds)
        kernel_samples.append(sum(spans))
    executor.observer = None
    kernel_samples.sort()
    kernel_ms = kernel_samples[len(kernel_samples) // 2] * 1e3
    latencies.sort()
    p50_ms = latencies[len(latencies) // 2] * 1e3
    return {
        "p50_ms": p50_ms,
        "p95_ms": latencies[min(len(latencies) - 1,
                                int(len(latencies) * 0.95))] * 1e3,
        "steps_per_s": steps / wall,
        "kernel_ms": kernel_ms,
        "dispatch_overhead_ms": max(0.0, p50_ms - kernel_ms),
        "steady_state_allocs_per_step": fresh_allocs / steps,
        "arena_recycle_hits": executor.arena.takes,
        "arena_misses": executor.arena.misses,
    }


def run(batch: int, steps: int, warmup: int) -> dict:
    forward, program = build_program(batch)
    feeds = make_feeds(forward, program, batch)

    def executor(prog, backend="plan"):
        prog = prog.with_state(
            {name: arr.copy() for name, arr in prog.state.items()})
        return Executor(prog, backend=backend)

    interp = measure(executor(program, "interpreter"), feeds, steps, warmup)

    # Each rung's delta vs the previous one is the pass's contribution
    # (instructions are deterministic; latency deltas carry measurement
    # noise).
    ladder = []
    rung_results = {}
    rung_specs = {}
    for label, passes in PASS_LADDER:
        prog = reconfigured(program, passes)
        spec = prog.plan_spec()
        result = measure(executor(prog), feeds, steps, warmup)
        rung_results[label] = result
        rung_specs[label] = spec
        entry = {
            "config": label,
            "instructions": len(spec.instructions),
            "p50_ms": result["p50_ms"],
            "steps_per_s": result["steps_per_s"],
        }
        if ladder:
            entry["instructions_delta"] = (
                entry["instructions"] - ladder[-1]["instructions"])
            entry["p50_delta_ms"] = entry["p50_ms"] - ladder[-1]["p50_ms"]
        ladder.append(entry)

    plan_none = rung_results["none"]
    plan = rung_results["default"]
    spec = rung_specs["default"]
    spec_none = rung_specs["none"]
    overhead_speedup = (
        interp["dispatch_overhead_ms"] / plan["dispatch_overhead_ms"]
        if plan["dispatch_overhead_ms"] > 0 else float("inf"))

    # Per-stage instruction counts from a fresh pipeline run (cheap: no
    # execution, just lowering) — CI tracks where each pass bites.
    pipeline_report: dict = {}
    run_pipeline(reconfigured(program, "default"), report=pipeline_report)
    return {
        "workload": {
            "model": "mcunet_micro",
            "scheme": "paper sparse-update",
            "optimizer": "sgd",
            "batch": batch,
            "nodes": program.num_nodes,
            "plan_instructions": len(spec.instructions),
            "plan_instructions_unoptimized": len(spec_none.instructions),
            "precomputed_slots": len(spec.precomputed),
            "precomputed_bytes": spec.precomputed_bytes,
            "steps": steps,
            "warmup": warmup,
        },
        "pipeline": pipeline_report["stages"],
        "pass_ladder": ladder,
        "interpreter": interp,
        "plan_unoptimized": plan_none,
        "plan": plan,
        "speedup": plan["steps_per_s"] / interp["steps_per_s"],
        "speedup_vs_unoptimized_plan":
            plan["steps_per_s"] / plan_none["steps_per_s"],
        "dispatch_overhead_speedup": overhead_speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer steps")
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_step_latency.json"))
    args = parser.parse_args(argv)
    steps = args.steps or (30 if args.quick else 150)
    warmup = args.warmup or (5 if args.quick else 20)

    banner("Step latency — interpreter vs plan "
           "(MCUNet sparse fine-tuning)")
    result = run(args.batch, steps, warmup)
    for backend in ("interpreter", "plan_unoptimized", "plan"):
        r = result[backend]
        print(f"{backend:>16}: p50 {r['p50_ms']:7.3f} ms   "
              f"p95 {r['p95_ms']:7.3f} ms   "
              f"{r['steps_per_s']:8.1f} steps/s   "
              f"overhead {r['dispatch_overhead_ms']:6.3f} ms   "
              f"{r['steady_state_allocs_per_step']:.2f} allocs/step")
    w = result["workload"]
    print(f"{'pipeline':>16}: "
          + " -> ".join(f"{s['stage']}:{s['instructions']}"
                        for s in result["pipeline"]))
    for rung in result["pass_ladder"][1:]:
        print(f"{rung['config']:>16}: {rung['instructions']} instructions "
              f"({rung['instructions_delta']:+d}), "
              f"p50 {rung['p50_ms']:7.3f} ms "
              f"({rung['p50_delta_ms']:+.3f} ms)")
    print(f"{'optimized':>16}: {w['precomputed_slots']} precomputed "
          f"slot(s) ({w['precomputed_bytes']} bytes)")
    print(f"{'speedup':>16}: {result['speedup']:.2f}x end-to-end, "
          f"{result['speedup_vs_unoptimized_plan']:.2f}x vs passes=none, "
          f"{result['dispatch_overhead_speedup']:.2f}x on executor "
          f"dispatch overhead (kernels are shared)")

    args.out.write_text(json.dumps(result, indent=1))
    print(f"wrote {args.out}")

    # Regression gates. End-to-end speedup is mostly shared kernel time
    # and wobbles with machine load, so it gets a tolerance band.
    if result["speedup"] < 0.90:
        print("FAIL: plan-backed executor is >10% slower than the "
              "interpreter", file=sys.stderr)
        return 1
    if result["dispatch_overhead_speedup"] < 1.0:
        print("FAIL: plan-backed executor has higher dispatch overhead "
              "than the interpreter", file=sys.stderr)
        return 1
    if result["plan"]["steady_state_allocs_per_step"] \
            > result["plan_unoptimized"]["steady_state_allocs_per_step"]:
        print("FAIL: optimized plan allocates more per steady-state step "
              "than passes=none", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
