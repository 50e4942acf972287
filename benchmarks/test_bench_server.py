"""Benchmark: evaluation-server price throughput and tail latency.

The rung boots the real asyncio :class:`~repro.server.app.EvalServer`
on an ephemeral port (background event-loop thread), warms the one
workload profile, then drives rounds of ``REQUESTS_PER_ROUND``
``/v1/price`` requests at a concurrency of ``CONCURRENCY`` -- each on
its own connection, so the request coalescer sees genuinely concurrent
traffic.  Recorded extras:

- ``qps``     -- requests per second over the measured rounds (own
  wall-clock, not the server's uptime average);
- ``p50_ms`` / ``p99_ms`` -- nearest-rank quantiles of the measured
  rounds' requests, each timed by the client over its whole exchange
  (connect, send, full response, close).  The warm-up round is left
  out: its requests queue behind the one cold profile fill and would
  make the p99 a measure of that fill, not of the hot path;
- ``requests`` -- total priced requests contributing to the figures.

``benchmarks/check_floor.py`` enforces ``--min-server-qps`` and
``--max-server-p99-ms`` over this rung in CI's bench-smoke job.  The
floors are deliberately loose (shared CI runners): they catch the
server's hot path falling off a cliff -- pricing re-profiling per
request, the coalescer serializing, an accidental O(grid) lookup --
not single-digit-percent noise.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.experiments.scale import get_scale
from repro.server import EvalServer, ServerSettings
from repro.server.client import fetch
from repro.server.stats import quantile

HOST = "127.0.0.1"
REQUESTS_PER_ROUND = 64
CONCURRENCY = 8
PRICE_BODY = json.dumps({"workload": "img:sobel3x3",
                         "axes": {"clock_mhz": 50.0,
                                  "fpu": True}}).encode()


class ServerHarness:
    """The evaluation server on a background loop, driven synchronously."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.server = None
        self.port = None
        self.requests = 0
        self.busy_s = 0.0
        #: client-side seconds of every request's whole exchange
        self.latencies: list[float] = []

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop) \
            .result(timeout=120)

    def start(self) -> None:
        async def boot():
            server = EvalServer(settings=ServerSettings(),
                                scale=get_scale("smoke"))
            return server, await server.start(HOST, 0)

        self.server, self.port = self.call(boot())

    def round(self) -> None:
        """One measured round: REQUESTS_PER_ROUND prices, bounded fan-out."""
        async def run_round():
            gate = asyncio.Semaphore(CONCURRENCY)

            async def one():
                async with gate:
                    sent = time.perf_counter()
                    status, _ = await fetch(HOST, self.port, "POST",
                                            "/v1/price", PRICE_BODY)
                    self.latencies.append(time.perf_counter() - sent)
                    assert status == 200

            await asyncio.gather(*[one()
                                   for _ in range(REQUESTS_PER_ROUND)])

        began = time.perf_counter()
        self.call(run_round())
        self.busy_s += time.perf_counter() - began
        self.requests += REQUESTS_PER_ROUND

    def price_stats(self) -> dict:
        async def snap():
            return self.server.stats.snapshot(len(self.server.profiles))

        return self.call(snap())["by_endpoint"]["/v1/price"]

    def close(self) -> None:
        async def down():
            await self.server.aclose()

        self.call(down())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def test_server_price_throughput(benchmark):
    """Warm-profile ``/v1/price`` QPS + client-side p50/p99 latency."""
    harness = ServerHarness()
    harness.start()
    try:
        harness.round()               # warm: fills the profile, JITs paths
        harness.requests, harness.busy_s = 0, 0.0
        harness.latencies.clear()
        benchmark.pedantic(harness.round, rounds=5, iterations=1)
        price = harness.price_stats()
        qps = harness.requests / harness.busy_s
        latencies = sorted(harness.latencies)
        benchmark.extra_info["requests"] = harness.requests
        benchmark.extra_info["qps"] = round(qps, 2)
        benchmark.extra_info["p50_ms"] = round(
            quantile(latencies, 0.50) * 1000.0, 3)
        benchmark.extra_info["p99_ms"] = round(
            quantile(latencies, 0.99) * 1000.0, 3)
        assert len(latencies) == harness.requests
        assert price["requests"] >= harness.requests
        assert qps > 0
    finally:
        harness.close()
