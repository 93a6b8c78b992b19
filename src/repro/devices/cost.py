"""Per-operator roofline latency model applied to compiled schedules.

For every scheduled node::

    compute_us = flops / (peak(dtype) * efficiency(op_class) * quality)
    memory_us  = bytes_moved / bandwidth
    node_us    = max(compute_us, memory_us) + launch (once per fusion group)
    (+ host_dispatch_us per op for interpreted frameworks)

Winograd-bound convolutions get the 2.25x multiply reduction; a layout
mismatch between the graph and the device's preferred layout halves
spatial-op efficiency (the penalty the layout pass exists to avoid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Graph, op_bytes, op_flops
from ..ir.node import Node
from .spec import DeviceSpec

OP_CLASS = {
    "matmul": "gemm", "conv2d": "gemm", "conv2d_dx": "gemm",
    "conv2d_i8": "gemm", "matmul_i8": "gemm",
    "conv2d_dw": "gemm",  # grouped/depthwise variants reclassified per-node
    "maxpool2d": "pool", "avgpool2d": "pool", "maxpool2d_grad": "pool",
    "avgpool2d_grad": "pool", "global_avg_pool": "pool",
    "global_avg_pool_i8": "pool",
    "softmax": "normalize", "log_softmax": "normalize",
    "layernorm": "normalize", "rmsnorm": "normalize",
    "embedding": "gather", "embedding_grad": "gather", "onehot": "gather",
    "apply_sgd": "update", "apply_adam": "update", "apply_lion": "update",
    "reduce_sum": "reduce", "reduce_mean": "reduce", "reduce_max": "reduce",
}

_SPATIAL = {"conv2d", "conv2d_i8", "conv2d_dx", "conv2d_dw", "maxpool2d",
            "avgpool2d"}

#: Metadata-only ops: compiled runtimes implement these as pointer/stride
#: adjustments (zero copies, zero launches). Interpreted frameworks still
#: pay their per-op host dispatch.
VIEW_OPS = {"reshape", "slice"}

WINOGRAD_SPEEDUP = 2.25
LAYOUT_MISMATCH_PENALTY = 0.55


@dataclass
class LatencyReport:
    """Simulated wall-clock for one iteration of a schedule."""

    total_us: float = 0.0
    compute_us: float = 0.0
    memory_us: float = 0.0
    launch_us: float = 0.0
    dispatch_us: float = 0.0
    autodiff_us: float = 0.0
    per_class_us: dict[str, float] = field(default_factory=dict)
    num_kernels: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0


def op_class(op_type: str, attrs: dict | None = None) -> str:
    """Operator cost class; grouped convolutions count as 'depthwise'.

    Depthwise convolutions get their own class because frameworks without
    edge-tuned kernels run them far below dense-conv efficiency (visible in
    the paper's Pi data: TF is ~4x closer to PockEngine on ResNet than on
    MobileNetV2/MCUNet).
    """
    cls = OP_CLASS.get(op_type, "elementwise")
    if cls == "gemm" and attrs and int(attrs.get("groups", 1)) > 1:
        return "depthwise"
    return cls


def _quality_for(quality, cls: str) -> float:
    """Resolve a kernel-quality spec (float or per-class dict) for a class."""
    if isinstance(quality, dict):
        return quality.get(cls, quality.get("default", 0.1))
    return float(quality)


def estimate_latency(
    graph: Graph,
    schedule: list[Node],
    device: DeviceSpec,
    *,
    interpreted: bool = False,
    runtime_autodiff: bool = False,
    kernel_quality=1.0,
    layout_optimized: bool = True,
    events: list | None = None,
) -> LatencyReport:
    """Estimate one iteration's latency for ``schedule`` on ``device``.

    Args:
        interpreted: charge one host-language dispatch per op (PyTorch/TF
            eager runtimes).
        runtime_autodiff: charge per-iteration tape construction — the
            overhead Figure 7 contrasts with compile-time differentiation.
        kernel_quality: multiplier on op efficiency — a float, or a dict
            mapping op classes ('gemm', 'depthwise', ...; 'default') to
            multipliers (frameworks without edge-tuned kernels run below
            the device's attainable peak, unevenly across op classes).
        layout_optimized: whether the compiler matched the device layout.
        events: when given, one ``(node_name, op_type, us)`` tuple is
            appended per scheduled node (view ops included at their
            dispatch-only cost) — the input to the runtime profiler's
            chrome-trace export.
    """
    report = LatencyReport()
    fusion_groups: dict[str, int] = graph.metadata.get("fusion_groups", {})
    graph_layout = graph.metadata.get("layout", "NCHW")
    layout_match = layout_optimized and graph_layout == device.preferred_layout
    groups_seen: set[int] = set()
    group_members: dict[int, set[str]] = {}
    for name, gid in fusion_groups.items():
        group_members.setdefault(gid, set()).add(name)
    produced_by: dict[str, str] = {}
    for node in schedule:
        for out in node.outputs:
            produced_by[out] = node.name

    for node in schedule:
        if node.op_type in VIEW_OPS:
            cost = device.host_dispatch_us if interpreted else 0.0
            if interpreted:
                report.dispatch_us += cost
                report.total_us += cost
            if events is not None:
                events.append((node.name, node.op_type, cost))
            continue
        in_specs = [graph.spec(i) for i in node.inputs]
        out_specs = [graph.spec(o) for o in node.outputs]
        cls = op_class(node.op_type, node.attrs)
        flops = op_flops(node.op_type, in_specs, out_specs, node.attrs)
        if node.attrs.get("algo") == "winograd":
            flops /= WINOGRAD_SPEEDUP

        itemsize = min((s.dtype.itemsize for s in out_specs), default=4)
        dev_cls = "gemm" if cls == "depthwise" else cls
        eff = device.efficiency(dev_cls) * _quality_for(kernel_quality, cls)
        if node.op_type in _SPATIAL and not layout_match:
            eff *= LAYOUT_MISMATCH_PENALTY
        peak = device.peak_for(itemsize) * 1e3  # -> flops per microsecond
        compute_us = flops / max(peak * eff, 1e-9)

        gid = fusion_groups.get(node.name)
        if gid is None:
            moved = op_bytes(in_specs, out_specs)
            launch = device.kernel_launch_us
            report.num_kernels += 1
        else:
            members = group_members[gid]
            # Only traffic crossing the group boundary hits memory.
            moved = sum(
                s.nbytes for i, s in zip(node.inputs, in_specs)
                if produced_by.get(i) not in members
            )
            moved += sum(s.nbytes for s in out_specs)
            if gid not in groups_seen:
                groups_seen.add(gid)
                launch = device.kernel_launch_us
                report.num_kernels += 1
            else:
                launch = 0.0
        memory_us = moved / max(device.mem_bw_gbs * 1e3, 1e-9)

        node_us = max(compute_us, memory_us) + launch
        if interpreted:
            node_us += device.host_dispatch_us
            report.dispatch_us += device.host_dispatch_us
        report.compute_us += compute_us
        report.memory_us += memory_us
        report.launch_us += launch
        report.per_class_us[cls] = report.per_class_us.get(cls, 0.0) \
            + max(compute_us, memory_us)
        report.total_us += node_us
        if events is not None:
            events.append((node.name, node.op_type, node_us))

    if runtime_autodiff:
        # Tape construction + bookkeeping: proportional to graph size, paid
        # every iteration on the host CPU.
        tape = 0.9 * device.host_dispatch_us * len(schedule)
        report.autodiff_us = tape
        report.total_us += tape
    return report

