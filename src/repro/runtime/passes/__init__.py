"""The plan-lowering pass pipeline: ``lower -> precompute_frozen -> allocate``.

This package is the optimizing half of plan construction
(:func:`repro.runtime.plan.build_plan_spec` delegates here):

* :mod:`lower` — scheduled graph -> linear instruction stream (names, no
  slots yet);
* :mod:`precompute_frozen` — the one optimization pass, of the form
  ``fn(stream, ctx) -> (stream, stats)``: it hoists frozen-weight
  computation (Winograd transforms, 1x1 im2col operands, pre-transposed
  matmul operands) into plan-owned constant slots bound once per
  session;
* :mod:`allocate` — slots, free-lists, arena caps, and the static
  transient-byte accounting, computed *after* the pass so the numbers
  describe the optimized stream.

Adding a pass: write ``fn(stream, ctx) -> (stream, stats)`` in a new
module, register it in :data:`PASSES`, and (if it should run by default)
append its name to :data:`DEFAULT_PASSES`. The equivalence contract every
pass must honour: byte-identical outputs and mutable state versus the
unoptimized stream, for any program. A pass stays only while a paired
measurement shows it pays.

Pass selection (``CompileOptions.plan_passes`` / the ``passes=`` argument
throughout the runtime): ``"default"`` runs :data:`DEFAULT_PASSES`,
``"none"`` runs only lower+allocate (the interpreter-oracle
configuration), and an explicit sequence of names runs exactly those, in
the given order.
"""

from __future__ import annotations

from typing import Any, Sequence

from ...errors import ExecutionError
from ..plan import PlanSpec
from .allocate import allocate
from .lower import LoweredOp, LoweringContext, lower
from .precompute_frozen import precompute_frozen

#: name -> pass fn(stream, ctx) -> (stream, stats)
PASSES = {
    "precompute_frozen": precompute_frozen,
}

#: the pipeline ``passes="default"`` runs, in order
DEFAULT_PASSES: tuple[str, ...] = ("precompute_frozen",)


def resolve_passes(passes: Any) -> tuple[str, ...]:
    """Normalize a pass selection to a tuple of registered pass names.

    Raises:
        ExecutionError: on an unknown pass name or selection value.
    """
    if passes is None or passes == "default":
        return DEFAULT_PASSES
    if passes == "none":
        return ()
    if isinstance(passes, str):
        raise ExecutionError(
            f"unknown pass selection {passes!r}; use 'default', 'none', "
            f"or a sequence of names from {sorted(PASSES)}")
    if not isinstance(passes, Sequence):
        raise ExecutionError(
            f"pass selection must be a string or sequence, got "
            f"{type(passes).__name__}")
    names = tuple(passes)
    for name in names:
        if name not in PASSES:
            raise ExecutionError(
                f"unknown lowering pass {name!r}; registered: "
                f"{sorted(PASSES)}")
    return names


def run_pipeline(program, passes: Any = None,
                 report: dict | None = None,
                 verify: bool | None = None) -> PlanSpec:
    """Lower ``program`` through the configured pipeline into a PlanSpec.

    ``passes=None`` defers to ``program.meta["plan_passes"]`` (set by the
    compiler from ``CompileOptions.plan_passes``), falling back to the
    default pipeline. Pass a dict as ``report`` to receive per-stage
    instruction counts and pass statistics (the perf-smoke benchmark
    publishes these).

    ``verify=None`` defers to ``program.meta["verify_plans"]`` (set from
    ``CompileOptions.verify_plans``) and then the ``REPRO_VERIFY_PLANS``
    environment switch. When on, every pass stage's intermediate stream
    is allocated and checked by the static plan verifier
    (:mod:`repro.analysis.planlint`), so a miscompiling pass is blamed by
    name at compile time instead of corrupting state at run time.

    Raises:
        PlanVerifyError: when verification is on and any stage's plan
            fails a static proof.
    """
    if passes is None:
        passes = program.meta.get("plan_passes")
    names = resolve_passes(passes)
    if verify is None:
        verify = program.meta.get("verify_plans")
    if verify is None:
        from ...analysis.planlint import verify_enabled
        verify = verify_enabled()
    ctx = LoweringContext(program)
    stream = lower(ctx)
    if report is not None:
        report["stages"] = [
            {"stage": "lower", "instructions": len(stream)}]
    if verify:
        from ...analysis.planlint import check_plan
        # allocate() is pure w.r.t. the stream, so checking an
        # intermediate stage is just: allocate it, verify the spec.
        check_plan(allocate(stream, ctx, passes=()), program,
                   stage="lower")
    applied: list[str] = []
    for name in names:
        stream, stats = PASSES[name](stream, ctx)
        applied.append(name)
        if report is not None:
            report["stages"].append(
                {"stage": name, "instructions": len(stream), **stats})
        if verify and name != names[-1]:
            from ...analysis.planlint import check_plan
            check_plan(allocate(stream, ctx, passes=tuple(applied)),
                       program, stage=name)
    spec = allocate(stream, ctx, passes=names)
    if verify:
        from ...analysis.planlint import check_plan
        check_plan(spec, program, stage="allocate")
    if report is not None:
        report["stages"].append(
            {"stage": "allocate", "instructions": len(spec.instructions),
             "num_slots": spec.num_slots,
             "peak_transient_bytes": spec.peak_transient_bytes,
             "precomputed_bytes": spec.precomputed_bytes})
    return spec


__all__ = [
    "DEFAULT_PASSES",
    "LoweredOp",
    "LoweringContext",
    "PASSES",
    "allocate",
    "lower",
    "precompute_frozen",
    "resolve_passes",
    "run_pipeline",
]
