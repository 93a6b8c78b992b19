"""The HTTP serving workload: one load process against one server process.

Starts ``repro serve --http 0 --model mcunet_micro`` with default flags
(thread backend, two step workers) and drives it from ``CLIENTS`` threads.
Each thread owns one keep-alive connection and one tenant session and
sends its next single-example step only after the previous one is acked:
a closed loop, because a fine-tuning client waits for every ack.

Set-up is repeated ``--setups`` times, each with a fresh server: spawn to
the first ack on every session. The last server is kept for the timed
loop. Steps go out with ``wait=False``, so a refusal (429, 409, 5xx) or a
lost response counts as a failed operation instead of being retried.

With ``--trace 1`` the loop alternates fixed-length chunks in which the
client keeps or drops the gateway's ``Server-Timing`` span breakdown; the
kept chunks give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from repro.serve import GatewayError, ServeClient

from common import (RESULT, emit, hermetic_env, latency_metrics,
                    peak_rss_mb, quantile)

MODEL = "mcunet_micro"
CLIENTS = 2
POOL = 64
WARMUP_S = 1.0
CHUNK_S = 0.1
#: the six spans the gateway reports, by the layer that records them
SPANS = {
    "admission": "serve.gateway.admission_ms",
    "serialize": "serve.gateway.serialize_ms",
    "resume": "serve.gateway.resume_ms",
    "queue_wait": "serve.scheduler.queue_wait_ms",
    "batch_wait": "serve.service.batch_wait_ms",
    "execute": "serve.service.execute_ms",
}
PEAK_GAUGE = "serve.peak_transient_bytes[program="


class Server:
    """``repro serve --http 0`` in its own process group; a pump thread
    drains its output so waiting for the address line has a deadline."""

    def __init__(self, env: dict[str, str], timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--model", MODEL],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True)
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("server never reported its address")
            if line is None:
                raise RuntimeError(
                    f"server exited early (rc={self.proc.wait()})")
            if "listening on http://" in line:
                self.url = line.split("listening on ")[1].split()[0]
                return

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL the group if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._pump.join(timeout=10)


class Tenant:
    """One closed-loop client thread's session, inputs and tallies.

    Only its own thread touches a tenant, so the tallies need no lock."""

    def __init__(self, client: ServeClient, index: int, seed: int) -> None:
        self.client = client
        self.attempted = 1  # the session create below
        self.failed = 0
        self.errors: list[str] = []
        self.doc = client.create_session(MODEL, scheme="paper",
                                         tenant=f"bench-{index}")
        rng = np.random.default_rng([seed, index])
        self.examples = [
            (rng.standard_normal(self.doc["input_shape"]).astype(np.float32),
             int(rng.integers(0, self.doc["num_classes"])))
            for _ in range(POOL)]
        self.sent = 0
        self.last_step = 0
        #: steps whose outcome is unknown (refused or lost); each may or
        #: may not have been applied
        self.unsettled = 0
        self.violations: list[str] = []
        self.latencies: dict[bool, list[float]] = {False: [], True: []}
        self.timings: list[dict] = []
        self.batch_sizes: list[int] = []

    def step(self, record: bool | None) -> None:
        """One step; ``record`` None = untimed, else traced or not."""
        x, y = self.examples[self.sent % POOL]
        self.sent += 1
        self.attempted += 1
        began = time.perf_counter()
        try:
            ack = self.client.step(self.doc["session_id"], x, y, wait=False)
        except GatewayError as exc:
            self.failed += 1
            self.errors.append(repr(exc))
            self.unsettled += 1
            return
        elapsed = time.perf_counter() - began
        step = ack["step"]
        if not self.last_step < step <= self.last_step + 1 + self.unsettled:
            self.violations.append(
                f"step {step} after {self.last_step} "
                f"({self.unsettled} unsettled)")
        if ack.get("replayed"):
            self.violations.append(f"step {step} replayed")
        if not math.isfinite(ack["loss"]):
            self.violations.append(f"step {step} loss {ack['loss']}")
        self.last_step, self.unsettled = step, 0
        if record is None:
            return
        self.latencies[record].append(elapsed)
        if record:
            self.timings.append((elapsed, ack.get("timings") or {}))
            self.batch_sizes.append(ack["batch_size"])


def set_up(env, seed: int):
    """Fresh server to the first ack on every session."""
    t0 = time.perf_counter()
    server = Server(env)
    t1 = time.perf_counter()
    client = ServeClient(server.url)
    try:
        tenants = [Tenant(client, i, seed) for i in range(CLIENTS)]
        t2 = time.perf_counter()
        for tenant in tenants:
            tenant.step(None)
        t3 = time.perf_counter()
    except BaseException:
        client.close()
        server.stop()
        raise
    parts = {"serve.setup.listen_ms": (t1 - t0) * 1e3,
             "serve.setup.sessions_ms": (t2 - t1) * 1e3,
             "serve.setup.first_acks_ms": (t3 - t2) * 1e3}
    return server, client, tenants, t3 - t0, parts


def drive(tenants, seconds: float, traced: bool | None) -> float:
    """Run every tenant's closed loop for ``seconds``; returns the wall
    time until the last thread finished. ``traced=None`` is an untimed
    warm-up."""
    start = time.perf_counter()
    deadline = start + seconds
    errors: list[Exception] = []

    def loop(tenant: Tenant) -> None:
        try:
            now = time.perf_counter()
            while now < deadline:
                record = None if traced is None else \
                    traced and int((now - start) / CHUNK_S) % 2 == 1
                tenant.step(record)
                now = time.perf_counter()
        except Exception as exc:  # re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(t,)) for t in tenants]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def layer_metrics(tenants) -> dict:
    """Means over traced requests: the six server spans plus the client
    residual add up to ``trace.step_ms``, the client round trip."""
    timed = [pair for t in tenants for pair in t.timings]
    n = len(timed)
    spans = {name: sum(tm.get(stage, 0.0) for _, tm in timed) / n
             for stage, name in SPANS.items()}
    round_trip = sum(elapsed for elapsed, _ in timed) * 1e3 / n
    sizes = [s for t in tenants for s in t.batch_sizes]
    traced = [x for t in tenants for x in t.latencies[True]]
    untraced = [x for t in tenants for x in t.latencies[False]]
    return {
        "trace.step_ms": round_trip,
        "trace.steps": n,
        **spans,
        "serve.client.residual_ms": round_trip - sum(spans.values()),
        "serve.scheduler.batch_size_mean": sum(sizes) / len(sizes),
        "obs.trace_overhead_ratio":
            quantile(traced, 0.5) / quantile(untraced, 0.5),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setups", type=int, required=True)
    args = parser.parse_args()
    env = hermetic_env()
    setups: list = []
    finished: list[Tenant] = []

    def fresh():
        server, client, tenants, setup_s, parts = set_up(env, args.seed)
        setups.append((setup_s, parts))
        return server, client, tenants

    def close(server, client, tenants) -> None:
        client.close()
        server.stop()
        finished.extend(tenants)

    # Set-ups before and after the timed loop, so setup_s samples the
    # host at more than one moment of the run.
    before = args.setups // 2
    for _ in range(before):
        close(*fresh())
    server, client, tenants = fresh()
    try:
        drive(tenants, min(WARMUP_S, args.seconds / 5), None)
        wall = drive(tenants, args.seconds, bool(args.trace))
        metrics = client.metrics()
        rss_mb = peak_rss_mb(server.proc.pid)
    finally:
        close(server, client, tenants)
    for _ in range(args.setups - before - 1):
        close(*fresh())

    violations = [v for t in finished for v in t.violations]
    result = {
        "attempted": sum(t.attempted for t in finished),
        "failed": sum(t.failed for t in finished),
        "errors": [e for t in finished for e in t.errors][:5],
        "violations": violations[:10],
        "correct": not violations,
        "setups": setups,
    }
    if args.trace:
        result["layers"] = {
            **layer_metrics(tenants),
            "serve.cache.compiles": metrics["serve.cache.compiles"],
        }
    else:
        lat = [x for t in tenants for x in t.latencies[False]]
        result.update(
            latency_metrics(lat, 1, wall),
            peak_transient_bytes=max(
                v for k, v in metrics.items() if k.startswith(PEAK_GAUGE)),
            rss_peak_mb=rss_mb)
    emit(RESULT, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
