"""Observability layer: tracing, spans, Prometheus, JSON logs, kernel timing.

Covers the `repro.obs` package itself (trace contexts, span ring,
Server-Timing codec, Prometheus renderer, JSON formatter), the metric
primitives it renders (locked reads, cumulative buckets), and the
end-to-end contract through the serving stack: request IDs minted at the
gateway and echoed on every response, the six-stage span breakdown in
``Server-Timing`` and ``/v1/trace``, trace carriers surviving the pickle
boundary into spawn-based workers, and a SIGKILL'd worker leaving the
span ring intact.
"""

from __future__ import annotations

import json
import logging
import pickle
import re
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import (STAGES, JsonFormatter, SpanRing, TraceCarrier,
                       Tracer, configure_json_logging, mint_request_id,
                       parse_server_timing, render_prometheus,
                       server_timing_header, split_labels, trace_document)
from repro.serve import FineTuneService, GatewayServer, ServeClient
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry

from conftest import make_mlp_graph


def build_mlp(batch: int):
    return make_mlp_graph(batch=batch, din=5, dhidden=6, dout=3,
                          seed=0)[0].graph


def mlp_example(rng):
    return (rng.standard_normal(5).astype(np.float32),
            int(rng.integers(0, 3)))


# ---------------------------------------------------------------------------
# metric primitives: locked reads, cumulative buckets
# ---------------------------------------------------------------------------


class TestMetricsConcurrency:
    def test_counter_and_gauge_concurrent_updates_and_reads(self):
        counter = Counter("c")
        gauge = Gauge("g")
        hist = Histogram("h")
        iterations = 2000

        def writer():
            for i in range(iterations):
                counter.inc()
                gauge.set(float(i))
                gauge.max(float(i))
                hist.observe(float(i % 50))

        def reader():
            for _ in range(iterations):
                assert counter.value >= 0
                assert gauge.value >= 0
                hist.summary()
                hist.bucket_counts()

        threads = [threading.Thread(target=writer) for _ in range(4)] \
            + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4 * iterations
        _, cumulative, _, count = hist.bucket_counts()
        assert count == 4 * iterations
        assert cumulative[-1] == count

    def test_histogram_buckets_are_le_inclusive_and_cumulative(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 5.0, 7.0, 100.0):
            hist.observe(value)
        bounds, cumulative, total, count = hist.bucket_counts()
        assert tuple(bounds) == (1.0, 5.0, 10.0)
        # le-inclusive: 1.0 counts in the le="1.0" bucket, 5.0 in le="5.0"
        assert cumulative == [2, 3, 4, 5]
        assert count == 5
        assert total == pytest.approx(113.5)

    def test_cumulative_counts_never_decrease(self):
        hist = Histogram("h")
        rng = np.random.default_rng(3)
        for value in rng.exponential(50.0, size=500):
            hist.observe(float(value))
        _, cumulative, _, count = hist.bucket_counts()
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == count == 500


# ---------------------------------------------------------------------------
# obs primitives
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_spans_publish_once_through_the_tracer(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics)
        trace = tracer.trace(session_id="s1", tenant="t1")
        trace.add("admission", 1.0, 1.002)
        trace.add("execute", 1.002, 1.010)
        assert tracer.spans_recorded == 2
        assert len(tracer.ring) == 2
        assert trace.timings_ms() == pytest.approx(
            {"admission": 2.0, "execute": 8.0})
        assert trace.total_ms() == pytest.approx(10.0)
        hist = metrics.histogram("serve.stage_ms[stage=execute]")
        assert hist.count == 1

    def test_request_id_survives_pickle_without_the_tracer(self):
        tracer = Tracer(MetricsRegistry())
        trace = tracer.trace("abc123", session_id="s", tenant="t")
        trace.add("queue_wait", 0.0, 0.001)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.request_id == "abc123"
        assert clone.session_id == "s"
        assert [s.name for s in clone.spans] == ["queue_wait"]
        # The unpickled copy has no tracer: adds still work, unpublished.
        clone.add("execute", 0.0, 0.002)
        assert tracer.spans_recorded == 1

    def test_carrier_is_slim_and_picklable(self):
        carrier = TraceCarrier(request_ids=("a", "b"), sample=True)
        clone = pickle.loads(pickle.dumps(carrier))
        assert clone.request_ids == ("a", "b")
        assert clone.sample is True

    def test_mint_request_id_is_unique_and_header_safe(self):
        ids = {mint_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", rid) for rid in ids)


class TestSpanRing:
    def test_bounded_and_ordered(self):
        ring = SpanRing(capacity=4)
        for i in range(10):
            ring.push({"i": i})
        assert len(ring) == 4
        assert [e["i"] for e in ring.snapshot()] == [6, 7, 8, 9]
        assert ring.pushed == 10

    def test_export_is_a_chrome_trace_document(self):
        tracer = Tracer(MetricsRegistry(), ring_capacity=8)
        trace = tracer.trace("rid")
        trace.add("execute", tracer.epoch, tracer.epoch + 0.005)
        doc = tracer.export()
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(0.0, abs=1.0)
        assert event["dur"] == pytest.approx(5000.0, rel=0.01)
        assert event["args"]["request_id"] == "rid"
        json.dumps(doc)  # must serialize cleanly


class TestSampling:
    def test_one_in_n(self):
        tracer = Tracer(sample_every=4)
        decisions = [tracer.should_sample() for _ in range(16)]
        assert sum(decisions) == 4
        assert Tracer(sample_every=0).should_sample() is False

    def test_worker_payload_ingestion(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics)
        tracer.record_worker_step({
            "pid": 4242,
            "request_ids": ["r1", "r2"],
            "execute": (tracer.epoch, tracer.epoch + 0.004),
            "kernels": [("conv2d", "base", tracer.epoch,
                         tracer.epoch + 0.001)],
        }, session_id="s1")
        events = tracer.ring.snapshot()
        worker = [e for e in events if e["name"] == "worker_execute"]
        assert worker[0]["pid"] == 4242
        assert worker[0]["args"]["request_id"] == ["r1", "r2"]
        kernel = [e for e in events if e["cat"] == "kernel"]
        assert kernel[0]["args"]["variant"] == "base"
        assert metrics.histogram(
            "serve.kernel_ms[op=conv2d,variant=base]").count == 1


class TestServerTiming:
    def test_roundtrip(self):
        timings = {"admission": 0.123, "execute": 45.678}
        header = server_timing_header(timings, total_ms=46.0)
        parsed = parse_server_timing(header)
        assert parsed["admission"] == pytest.approx(0.123)
        assert parsed["execute"] == pytest.approx(45.678)
        assert parsed["total"] == pytest.approx(46.0)

    def test_parse_tolerates_foreign_entries(self):
        parsed = parse_server_timing(
            'cache;desc="hit", db;dur=12.5;desc="q", empty,')
        assert parsed == {"db": 12.5}


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

#: one sample line: name{labels} value  (value may be +Inf/-Inf/NaN)
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$")


def check_prometheus_text(text: str) -> dict[str, list[str]]:
    """Minimal line-format checker; returns sample lines per metric."""
    samples: dict[str, list[str]] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_RE.match(line), f"bad exposition line: {line!r}"
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        samples.setdefault(name, []).append(line)
    return samples


class TestPrometheus:
    def test_split_labels(self):
        assert split_labels("serve.stage_ms[stage=execute]") == \
            ("serve.stage_ms", {"stage": "execute"})
        assert split_labels("serve.kernel_ms[op=conv2d,variant=fused]") == \
            ("serve.kernel_ms", {"op": "conv2d", "variant": "fused"})
        assert split_labels("serve.peak[ab12]") == \
            ("serve.peak", {"id": "ab12"})
        assert split_labels("plain.name") == ("plain.name", {})

    def test_render_is_parseable_and_buckets_are_consistent(self):
        metrics = MetricsRegistry()
        metrics.counter("serve.steps_total", "updates").inc(3)
        metrics.gauge("serve.queue_depth").set(2)
        hist = metrics.histogram("serve.stage_ms[stage=execute]", "latency")
        for value in (0.2, 3.0, 7.0, 40.0, 9000.0):
            hist.observe(value)
        text = render_prometheus(metrics)
        samples = check_prometheus_text(text)
        assert 'serve_steps_total 3.0' in samples["serve_steps_total"]

        buckets = samples["serve_stage_ms_bucket"]
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1].startswith('serve_stage_ms_bucket{le="+Inf"')
        inf_count = counts[-1]
        (count_line,) = samples["serve_stage_ms_count"]
        assert float(count_line.rsplit(" ", 1)[1]) == inf_count == 5
        (sum_line,) = samples["serve_stage_ms_sum"]
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(9050.2)

    def test_full_service_registry_renders_clean(self):
        with FineTuneService(max_batch=2, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            rng = np.random.default_rng(0)
            service.step(session.id, *mlp_example(rng))
            text = service.prometheus_metrics()
        samples = check_prometheus_text(text)
        assert "serve_steps_total" in samples
        assert "serve_stage_ms_bucket" in samples
        assert "serve_step_peak_transient_bytes" in samples
        # per-program gauges carry the program label
        peak = "\n".join(samples["serve_peak_transient_bytes"])
        assert 'program="' in peak


# ---------------------------------------------------------------------------
# structured JSON logging + slow-request sampling
# ---------------------------------------------------------------------------


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(self.format(record))


class TestJsonLogging:
    def test_extra_fields_become_top_level_json(self):
        handler = _Capture()
        handler.setFormatter(JsonFormatter())
        logger = logging.getLogger("repro.test.json")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            logger.info("hello %s", "world",
                        extra={"request_id": "r1", "total_ms": 12.5,
                               "spans": {"execute": 12.0}})
        finally:
            logger.removeHandler(handler)
        doc = json.loads(handler.lines[0])
        assert doc["msg"] == "hello world"
        assert doc["level"] == "INFO"
        assert doc["request_id"] == "r1"
        assert doc["spans"] == {"execute": 12.0}
        assert doc["time"].endswith("Z")

    def test_configure_is_idempotent(self):
        first = configure_json_logging(logger_name="repro.test.idem")
        second = configure_json_logging(logger_name="repro.test.idem")
        logger = logging.getLogger("repro.test.idem")
        try:
            json_handlers = [h for h in logger.handlers
                             if isinstance(h.formatter, JsonFormatter)]
            assert json_handlers == [second]
            assert logger.propagate is False
        finally:
            logger.removeHandler(second)
            assert first is not second

    def test_slow_request_log_carries_the_span_breakdown(self):
        handler = _Capture()
        handler.setFormatter(JsonFormatter())
        logger = logging.getLogger("repro.test.slow")
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        tracer = Tracer(MetricsRegistry(), slow_ms=0.0, logger=logger)
        trace = tracer.trace("slowrid", session_id="s1", tenant="t1")
        trace.add("execute", 0.0, 0.050)
        try:
            assert tracer.maybe_log_slow(trace, loss=1.5, batch_size=2)
        finally:
            logger.removeHandler(handler)
        doc = json.loads(handler.lines[0])
        assert doc["request_id"] == "slowrid"
        assert doc["spans"]["execute"] == pytest.approx(50.0, rel=0.01)
        assert doc["loss"] == 1.5
        assert tracer.slow_requests == 1

    def test_fast_requests_are_not_logged(self):
        tracer = Tracer(slow_ms=1e9)
        trace = tracer.trace()
        trace.add("execute", 0.0, 0.001)
        assert not tracer.maybe_log_slow(trace)
        assert tracer.slow_requests == 0


# ---------------------------------------------------------------------------
# executor-level kernel timing
# ---------------------------------------------------------------------------


class TestInstrObserver:
    def test_observer_sees_every_instruction_with_variants(self):
        from repro.runtime.compiler import compile_training
        from repro.runtime.executor import Executor

        graph = build_mlp(2)
        program = compile_training(graph, loss="softmax_ce")
        executor = Executor(program)
        events: list[tuple[str, str, float, float]] = []
        executor.instr_observer = lambda instr, began, ended: \
            events.append((instr.node.op_type, instr.variant, began, ended))
        rng = np.random.default_rng(0)
        executor.run({"x": rng.standard_normal((2, 5)).astype(np.float32),
                      program.meta["labels"]:
                          rng.integers(0, 3, size=2)})
        assert events, "observer never fired"
        assert all(ended >= began for _, _, began, ended in events)
        variants = {variant for _, variant, _, _ in events}
        assert "base" in variants
        assert len(program.plan().instructions) == len(events)
        # uninstalled observer costs nothing and breaks nothing
        executor.instr_observer = None
        executor.run({"x": rng.standard_normal((2, 5)).astype(np.float32),
                      program.meta["labels"]: rng.integers(0, 3, size=2)})
        assert len(events) == len(program.plan().instructions)


# ---------------------------------------------------------------------------
# end-to-end over the gateway (thread backend)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_gateway():
    service = FineTuneService(max_batch=2, workers=1, trace_sample=1)
    gateway = GatewayServer(service)
    gateway.start()
    session = service.create_session(build_mlp, model_id="mlp",
                                     scheme="full", tenant="tenant-obs")
    client = ServeClient(gateway.url)
    try:
        yield gateway, client, session
    finally:
        client.close()
        gateway.close(drain_timeout=10.0)


class TestGatewayTracing:
    def test_request_id_minted_and_echoed(self, obs_gateway):
        gateway, client, session = obs_gateway
        request = urllib.request.Request(f"{gateway.url}/v1/healthz")
        with urllib.request.urlopen(request) as response:
            minted = response.headers["X-Request-Id"]
        assert re.fullmatch(r"[0-9a-f]{16}", minted)

        request = urllib.request.Request(
            f"{gateway.url}/v1/healthz",
            headers={"X-Request-Id": "my-id-42"})
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Request-Id"] == "my-id-42"

    def test_hostile_request_ids_are_replaced(self, obs_gateway):
        gateway, _, _ = obs_gateway
        request = urllib.request.Request(
            f"{gateway.url}/v1/healthz",
            headers={"X-Request-Id": "x" * 65})
        with urllib.request.urlopen(request) as response:
            echoed = response.headers["X-Request-Id"]
        assert echoed != "x" * 65
        assert re.fullmatch(r"[0-9a-f]{16}", echoed)

    def test_step_carries_all_six_stages(self, obs_gateway):
        _, client, session = obs_gateway
        rng = np.random.default_rng(1)
        result = client.step(session.id, *mlp_example(rng))
        assert set(STAGES) <= set(result["timings"])
        assert result["timings"]["total"] > 0
        span_sum = sum(ms for stage, ms in result["timings"].items()
                       if stage != "total")
        assert span_sum <= result["timings"]["total"] * 1.05
        assert re.fullmatch(r"[0-9a-f]{16}", result["request_id"])

    def test_trace_export_correlates_by_request_id(self, obs_gateway):
        _, client, session = obs_gateway
        rng = np.random.default_rng(2)
        rid = client.step(session.id, *mlp_example(rng))["request_id"]
        doc = client.trace()
        assert doc["displayTimeUnit"] == "ms"
        mine = [e for e in doc["traceEvents"]
                if e.get("args", {}).get("request_id") == rid]
        assert {e["name"] for e in mine} >= set(STAGES)
        assert all(e["ph"] == "X" for e in mine)
        # kernel sampling at 1/1 put kernel rows in the ring too
        assert any(e["cat"] == "kernel" for e in doc["traceEvents"])

    def test_prometheus_endpoint(self, obs_gateway):
        gateway, client, session = obs_gateway
        rng = np.random.default_rng(3)
        client.step(session.id, *mlp_example(rng))
        text = client.prometheus_metrics()
        samples = check_prometheus_text(text)
        assert "serve_stage_ms_bucket" in samples
        assert "serve_kernel_ms_bucket" in samples

    def test_unknown_metrics_format_is_rejected(self, obs_gateway):
        gateway, _, _ = obs_gateway
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{gateway.url}/v1/metrics?format=bogus")
        assert err.value.code == 400


# ---------------------------------------------------------------------------
# cross-process propagation + crash resilience
# ---------------------------------------------------------------------------


class TestProcessBackendTracing:
    def test_request_ids_cross_the_pickle_boundary(self, tmp_path, rng):
        with FineTuneService(workers=1, max_batch=2, backend="process",
                             cache_dir=tmp_path, trace_sample=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            trace = service.tracer.trace("cross1234",
                                         session_id=session.id)
            x, y = mlp_example(rng)
            result = service.submit(session.id, x, np.int64(y),
                                    trace=trace).result()
            assert np.isfinite(result.loss)
            assert result.timings is not None
            events = service.tracer.ring.snapshot()
            workers = [e for e in events if e["name"] == "worker_execute"]
            assert workers, "worker step produced no trace row"
            assert any("cross1234" in e["args"]["request_id"]
                       for e in workers)
            parent_pid = {e["pid"] for e in events
                          if e["cat"] == "stage"
                          and e["name"] != "worker_execute"}
            worker_pid = {e["pid"] for e in workers}
            assert worker_pid.isdisjoint(parent_pid)
            # sampled kernels came home from the worker process
            kernels = [e for e in events if e["cat"] == "kernel"]
            assert kernels and {e["pid"] for e in kernels} == worker_pid
            # the probe surfaces worker-local kernel aggregates
            stats = service.engine.probe()["kernel_stats"]
            assert stats and all(v["count"] >= 1 for v in stats.values())

    def test_sigkilled_worker_leaves_the_ring_valid(self, tmp_path, rng):
        import os
        import signal

        from repro.errors import ServeError

        with FineTuneService(workers=1, max_batch=2, backend="process",
                             cache_dir=tmp_path, trace_sample=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            x, y = mlp_example(rng)
            service.step(session.id, x, np.int64(y))
            before = len(service.tracer.ring)
            assert before > 0

            for pid in service.engine.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(ServeError, match="worker process died"):
                service.step(session.id, x, np.int64(y))

            # Every ring event is still a complete, serializable record —
            # the dead worker contributed nothing torn.
            doc = trace_document(service.tracer.ring.snapshot())
            json.dumps(doc)
            for event in doc["traceEvents"]:
                assert {"name", "ph", "ts", "dur", "pid"} <= set(event)

            # Recovery: the rebuilt pool keeps tracing.
            service.step(session.id, x, np.int64(y))
            after = service.tracer.ring.snapshot()
            assert [e for e in after if e["name"] == "worker_execute"]
