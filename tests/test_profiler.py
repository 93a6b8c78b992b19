"""Runtime profiler: measured and analytical per-op breakdowns."""

import json

import numpy as np
import pytest

from repro.devices import estimate_latency, get_device
from repro.runtime import (Executor, Program, analytical_profile,
                           profile_run)
from repro.runtime.compiler import compile_training
from repro.train import SGD

from conftest import make_mlp_graph


@pytest.fixture
def program():
    builder, _ = make_mlp_graph()
    return compile_training(builder.graph, optimizer=SGD(0.05))


@pytest.fixture
def feeds(program, rng):
    return {
        "x": rng.standard_normal((4, 5)).astype(np.float32),
        program.meta["labels"]: rng.integers(0, 3, 4).astype(np.int64),
    }


class TestMeasuredProfile:
    def test_one_timing_per_plan_instruction(self, program, feeds):
        """The profiler measures the stream that actually executes: one
        timing per plan instruction, in stream order."""
        profile = profile_run(program, feeds, warmup=0, repeats=1)
        plan = program.plan()
        assert len(profile.timings) == plan.num_instructions
        assert len(profile.timings) <= len(program.schedule)
        assert [t.name for t in profile.timings] \
            == [i.node.name for i in plan.instructions]

    def test_durations_positive_and_monotonic_starts(self, program, feeds):
        profile = profile_run(program, feeds, warmup=0, repeats=2)
        starts = [t.start_us for t in profile.timings]
        assert starts == sorted(starts)
        assert all(t.duration_us >= 0 for t in profile.timings)
        assert profile.total_us > 0

    def test_by_op_type_accounts_everything(self, program, feeds):
        profile = profile_run(program, feeds, warmup=0, repeats=1)
        summary = profile.by_op_type()
        assert sum(c for c, _ in summary.values()) == len(profile.timings)
        assert sum(t for _, t in summary.values()) \
            == pytest.approx(profile.total_us)

    def test_top_returns_slowest(self, program, feeds):
        profile = profile_run(program, feeds, warmup=0, repeats=1)
        top = profile.top(3)
        assert len(top) == 3
        assert top[0].duration_us >= top[1].duration_us \
            >= top[2].duration_us

    def test_rejects_zero_repeats(self, program, feeds):
        with pytest.raises(ValueError):
            profile_run(program, feeds, repeats=0)

    def test_observer_sees_every_instruction(self, program, feeds):
        seen = []
        Executor(program,
                 observer=lambda n, s: seen.append(n.name)).run(feeds)
        assert seen == [i.node.name for i in program.plan().instructions]

    def test_observer_sees_every_node_on_interpreter(self, program, feeds):
        """The interpreter oracle still reports per schedule node."""
        seen = []
        Executor(program, backend="interpreter",
                 observer=lambda n, s: seen.append(n.name)).run(feeds)
        assert seen == [n.name for n in program.schedule]


class TestAnalyticalProfile:
    def test_total_matches_estimate_latency(self, program):
        device = get_device("raspberry_pi_4")
        profile = analytical_profile(program.graph, program.schedule,
                                     device)
        report = estimate_latency(program.graph, program.schedule, device)
        assert profile.total_us == pytest.approx(report.total_us, rel=1e-9)

    def test_interpreted_overhead_shows_per_node(self, program):
        device = get_device("raspberry_pi_4")
        plain = analytical_profile(program.graph, program.schedule, device)
        interp = analytical_profile(program.graph, program.schedule,
                                    device, interpreted=True)
        assert interp.total_us \
            >= plain.total_us + 0.9 * device.host_dispatch_us * len(
                [n for n in program.schedule])

    def test_source_records_device(self, program):
        device = get_device("jetson_nano")
        profile = analytical_profile(program.graph, program.schedule,
                                     device)
        assert profile.source == "jetson_nano"


class TestChromeTrace:
    def test_export_round_trips_json(self, program, feeds, tmp_path):
        profile = profile_run(program, feeds, warmup=0, repeats=1)
        path = profile.save_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == len(profile.timings)
        assert all(e["ph"] == "X" for e in events)
        assert all("dur" in e and "ts" in e for e in events)

    def test_trace_categories_are_op_types(self, program, feeds):
        """Every trace category is the op_type of a plan instruction."""
        profile = profile_run(program, feeds, warmup=0, repeats=1)
        doc = profile.to_chrome_trace()
        cats = {e["cat"] for e in doc["traceEvents"]}
        schedule_ops = {n.op_type for n in program.schedule}
        assert cats <= schedule_ops
        plan = program.plan()
        assert cats == {i.node.op_type for i in plan.instructions}
