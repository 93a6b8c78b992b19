"""Stage 1 of plan lowering: scheduled graph -> linear instruction stream.

The stream (:class:`LoweredOp` list) is the IR the optimization passes
rewrite. It is deliberately *pre-slot*: instructions reference values by
name, carry no free-lists and no byte accounting — all of that is derived
by :mod:`repro.runtime.passes.allocate` *after* the passes ran, so the
numbers always describe the stream that actually executes.

:class:`LoweringContext` carries everything a pass may need about the
program being lowered (specs, state-name sets, node attribute access)
behind one memoized facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...errors import ExecutionError
from ...ir.ops import get_schema
from ...kernels import KERNELS, VIEW_OPS
from ..plan import ArenaKey, arena_key_for


@dataclass(frozen=True)
class PrecomputeRequest:
    """A request for a plan-owned constant slot (pre-allocation).

    ``allocate`` turns this into a :class:`~repro.runtime.plan.
    PrecomputedSpec` (assigning the slot, deduplicating identical
    requests) and switches the instruction to ``variant``, which receives
    the precomputed value as an extra trailing input.
    """

    state: str          #: source state name (must be frozen)
    transform: str      #: repro.kernels.PRECOMPUTE_TRANSFORMS entry
    variant: str        #: kernel variant that consumes the extra input
    shape: tuple[int, ...]
    dtype: str


@dataclass
class LoweredOp:
    """One pre-allocation instruction: names in, names out.

    ``precompute`` (set by precompute_frozen) requests a hoisted constant
    input.
    """

    node: str
    kernel: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    precompute: PrecomputeRequest | None = None

    @property
    def is_view(self) -> bool:
        return self.kernel in VIEW_OPS

    @property
    def is_inplace(self) -> bool:
        return get_schema(self.kernel).inplace


@dataclass
class LoweringContext:
    """Shared, memoized program facts for the pass pipeline."""

    program: Any
    _specs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        program = self.program
        self.graph = program.graph
        self.state_names = set(program.state)
        self.keep = set(program.outputs)
        self.mutable_state = program.mutable_state_names()
        self.nodes = {node.name: node for node in program.schedule}

    def spec(self, name: str):
        value = self._specs.get(name)
        if value is None:
            value = self._specs[name] = self.graph.spec(name)
        return value

    def attrs(self, node_name: str) -> dict[str, Any]:
        return self.nodes[node_name].attrs

    def arena_key(self, name: str) -> ArenaKey:
        s = self.spec(name)
        return arena_key_for(tuple(s.shape), np.dtype(s.dtype.np))

    def shape_dtype(self, name: str) -> tuple[tuple[int, ...], Any]:
        s = self.spec(name)
        return tuple(s.shape), np.dtype(s.dtype.np)

    def nbytes(self, name: str) -> int:
        return self.spec(name).nbytes

    def frozen_state(self, name: str) -> bool:
        """True for state no in-place node ever writes (safe to hoist)."""
        return name in self.state_names and name not in self.mutable_state


def lower(ctx: LoweringContext) -> list[LoweredOp]:
    """Turn the program's schedule into the linear instruction stream.

    Raises:
        ExecutionError: on an op without a registered kernel or an input
            produced by nothing (feeds and state included).
    """
    available = set(ctx.graph.inputs) | ctx.state_names
    stream: list[LoweredOp] = []
    for node in ctx.program.schedule:
        op = node.op_type
        if op not in KERNELS:
            raise ExecutionError(f"no kernel registered for op {op!r}")
        for name in node.inputs:
            if name not in available:
                raise ExecutionError(
                    f"node {node.name!r} input {name!r} unavailable")
        available.update(node.outputs)
        stream.append(LoweredOp(
            node=node.name, kernel=op,
            inputs=tuple(node.inputs), outputs=tuple(node.outputs)))
    for name in ctx.program.outputs:
        if name not in available:
            raise ExecutionError(f"output {name!r} is never produced")
    return stream
