"""Final lowering stage: slots, free-lists, arena caps, byte accounting.

Runs *after* the optimization passes, so everything it derives describes
the stream that actually executes: precomputed constants get their own
slots, free-lists reference the instructions that run, and arena caps
count the buffers the stream can really re-request. For a
``passes="none"`` pipeline this reproduces the legacy monolithic lowering
(and hence the interpreter's measured byte timeline) exactly — that
equality is pinned by the plan equivalence tests.
"""

from __future__ import annotations

import numpy as np

from ...kernels import (DONATED_INPUTS, DONATING_KERNELS, OUT_ALIAS_SAFE,
                        OUT_KERNELS)
from ..plan import (ArenaKey, InstructionSpec, PlanSpec, PrecomputedSpec,
                    VARIANT_BASE, VARIANT_DONATING, arena_key_for)
from .lower import LoweredOp, LoweringContext


def allocate(stream: list[LoweredOp], ctx: LoweringContext,
             passes: tuple[str, ...]) -> PlanSpec:
    """Assign slots and static bookkeeping; emit the final PlanSpec."""
    graph = ctx.graph
    state_names = ctx.state_names
    keep = ctx.keep

    slots: dict[str, int] = {}

    def slot_of(name: str) -> int:
        slot = slots.get(name)
        if slot is None:
            slot = slots[name] = len(slots)
        return slot

    for name in graph.inputs:
        slot_of(name)
    for name in sorted(state_names):
        slot_of(name)

    # Producer/consumer facts over the stream.
    producer: dict[str, LoweredOp] = {}
    consumers: dict[str, list[LoweredOp]] = {}
    counts: dict[str, int] = {}
    for op in stream:
        for out in op.outputs:
            producer[out] = op
        for name in op.inputs:
            consumers.setdefault(name, []).append(op)
            counts[name] = counts.get(name, 0) + 1

    def recyclable(name: str) -> bool:
        """True when the buffer behind ``name`` is provably unaliased at
        the moment its last consumer retires."""
        p = producer.get(name)
        if p is None:
            return False  # feeds and state are caller-owned
        if p.is_view or p.is_inplace:
            return False  # may alias another value / mutable state
        if name in keep:
            return False  # returned to the caller, who may hold it
        return all(not c.is_view for c in consumers.get(name, ()))

    # --- walk the stream, simulating the byte timeline -------------------
    live = set(graph.inputs)
    transient = sum(ctx.nbytes(name) for name in graph.inputs)
    peak = transient
    instructions: list[InstructionSpec] = []
    precomputed: dict[tuple[str, str], PrecomputedSpec] = {}

    for op in stream:
        inplace = op.is_inplace
        input_slots = tuple(slots[name] for name in op.inputs)
        output_slots = tuple(slot_of(name) for name in op.outputs)

        # The interpreter materialises results aliasing mutable state; only
        # view-capable kernels with state inputs can produce such results.
        check_state_slots = ()
        if not inplace and op.is_view:
            check_state_slots = tuple(
                slot_of(name) for name in op.inputs if name in state_names)

        # Accounting, mirroring the interpreter loop over this stream.
        for out in op.outputs:
            live.add(out)
            if not inplace:
                transient += ctx.nbytes(out)
        if transient > peak:
            peak = transient

        frees: list[tuple[int, ArenaKey | None]] = []
        if not inplace:  # dead outputs are released immediately
            for out in op.outputs:
                if counts.get(out, 0) == 0 and out not in keep \
                        and out in live:
                    transient -= ctx.nbytes(out)
                    live.discard(out)
                    frees.append((slots[out],
                                  ctx.arena_key(out) if recyclable(out)
                                  else None))
        dying_inputs: list[str] = []
        for name in op.inputs:
            counts[name] -= 1
            if counts[name] == 0 and name in live \
                    and name not in state_names and name not in keep:
                transient -= ctx.nbytes(name)
                live.discard(name)
                dying_inputs.append(name)

        # out= + donation: single-output ops with a registered out-variant
        # get a recycled arena buffer; alias-safe ones may instead write
        # straight into a same-shape input dying at this instruction.
        use_out = False
        out_shape = out_dtype = None
        donate_slot = -1
        if not inplace and len(op.outputs) == 1 \
                and op.kernel in OUT_KERNELS:
            use_out = True
            out_name = op.outputs[0]
            out_spec = ctx.spec(out_name)
            out_shape = tuple(out_spec.shape)
            out_dtype = np.dtype(out_spec.dtype.np).name
            # Donation demands an *exact* shape/dtype match (the out=
            # kernel writes element-for-element into the donated buffer);
            # the arena's byte-bucketing never applies here.
            out_form = (out_shape, np.dtype(out_dtype))
            if op.kernel in OUT_ALIAS_SAFE:
                for name in dying_inputs:
                    if recyclable(name) \
                            and ctx.shape_dtype(name) == out_form:
                        donate_slot = slots[name]
                        break

        variant = VARIANT_BASE
        if op.precompute is not None:
            variant = op.precompute.variant
            key = (op.precompute.state, op.precompute.transform)
            entry = precomputed.get(key)
            if entry is None:
                entry = precomputed[key] = PrecomputedSpec(
                    slot=slot_of(f"__precomputed__{key[0]}.{key[1]}"),
                    state=op.precompute.state,
                    transform=op.precompute.transform,
                    shape=op.precompute.shape,
                    dtype=op.precompute.dtype)
            input_slots = input_slots + (entry.slot,)
        elif op.kernel in DONATING_KERNELS:
            clobbered = DONATED_INPUTS[op.kernel]
            if all(i < len(op.inputs)
                   and op.inputs[i] in dying_inputs
                   and recyclable(op.inputs[i]) for i in clobbered):
                variant = VARIANT_DONATING

        for name in dying_inputs:
            slot = slots[name]
            if slot == donate_slot:
                # The donated buffer lives on as this node's output.
                frees.append((slot, None))
            else:
                frees.append((slot, ctx.arena_key(name)
                              if recyclable(name) else None))

        instructions.append(InstructionSpec(
            node=op.node, kernel=op.kernel, variant=variant,
            input_slots=input_slots, output_slots=output_slots,
            use_out=use_out, out_shape=out_shape, out_dtype=out_dtype,
            donate_slot=donate_slot, check_state_slots=check_state_slots,
            frees=tuple(frees),
            fresh_outputs=0 if inplace else len(op.outputs)))

    state_slots = {slots[name] for name in state_names}
    pre_slots = {entry.slot for entry in precomputed.values()}
    clear_slots = tuple(slot for name, slot in slots.items()
                        if slot not in state_slots and slot not in pre_slots)
    arena_caps: dict[ArenaKey, int] = {}
    for instr in instructions:
        if instr.use_out and instr.donate_slot < 0:
            key = arena_key_for(instr.out_shape, instr.out_dtype)
            arena_caps[key] = arena_caps.get(key, 0) + 1
    entries = tuple(sorted(precomputed.values(), key=lambda e: e.slot))
    return PlanSpec(
        num_slots=len(slots),
        feed_specs=tuple((name, slots[name]) for name in graph.inputs),
        state_bindings=tuple(
            (slots[name], name) for name in sorted(state_names)),
        output_slots=tuple((name, slots[name])
                           for name in ctx.program.outputs),
        clear_slots=clear_slots,
        arena_caps=tuple(sorted(arena_caps.items(),
                                key=lambda item: repr(item[0]))),
        peak_transient_bytes=peak,
        final_transient_bytes=transient,
        instructions=tuple(instructions),
        passes=passes,
        precomputed=entries,
        precomputed_bytes=sum(entry.nbytes for entry in entries),
    )
