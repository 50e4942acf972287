"""The evaluation server: endpoints, single-flight, coalescing, identity.

The contracts under test (ISSUE 8):

- a materialized ``/v1/sweep`` body is byte-identical to the
  ``repro dse`` CLI rendering of the same spec;
- N identical concurrent cold ``/v1/price`` requests run exactly one
  profiling simulation (single-flight), fault-free *and* under
  injected chaos;
- the prices of one event-loop tick coalesce into one batch (at most
  ``max_batch`` rows a tick) and return the same bits as solo
  evaluations; a failed or cancelled member harms nobody else;
- cold fills run one at a time on one thread that is not the loop's;
- resolving a warm price by lookup changes no byte: the stock grid's
  bodies are pinned by digest, axis values that resolve alike answer
  as a fresh server does, and workload names answer as ``select`` does;
- error paths answer with the intended statuses and never wedge the
  connection, a framing the server cannot follow gets one 400 and a
  close, and a client disconnect mid-request leaves the server's
  caches consistent;
- ``repro serve`` shuts down gracefully on SIGTERM (exit 0).

Everything runs the real asyncio server on an ephemeral port; only the
SIGTERM test spawns a subprocess.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.dse.engine import stream_profiles
from repro.experiments.scale import get_scale
from repro.hw.config import HwConfig
from repro.nfp.linear import BatchNfpEngine
from repro.runner import ExperimentRunner
from repro.runner.resilience import ChaosPolicy, RetryPolicy, UsageError
from repro.server import EvalServer, ServerSettings, batching
from repro.server.batching import PriceBatcher
from repro.server.client import ServerClient, fetch, fetch_json
from repro.server.httpio import (
    BadRequest,
    PayloadTooLarge,
    Request,
    read_request,
)
from repro.server.schemas import price_request
from repro.server.singleflight import SingleFlight
from repro.server.stats import ServerStats, quantile
from repro.vm.config import CoreConfig
from repro.workloads import get_spec

SCALE = get_scale("smoke")
HOST = "127.0.0.1"

PRICE = {"workload": "img:sobel3x3", "axes": {"clock_mhz": 80.0,
                                              "fpu": True}}
SWEEP = {"axes": "clock_mhz=25:50,fpu",
         "workloads": "img:sobel3x3,img:histstats", "format": "json"}


@contextlib.asynccontextmanager
async def server_ctx(**kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("settings", ServerSettings())
    server = EvalServer(**kwargs)
    port = await server.start(HOST, 0)
    try:
        yield server, port
    finally:
        await server.aclose()


# -- units -------------------------------------------------------------------

def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert (args.command, args.host, args.port) == ("serve", HOST, 8650)
    args = build_parser().parse_args(["serve", "--port", "0",
                                      "--scale", "smoke"])
    assert args.port == 0 and args.scale == "smoke"


def test_settings_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SERVER_MAX_BATCH", "5")
    monkeypatch.setenv("REPRO_SERVER_MAX_GRID", "123")
    settings = ServerSettings.from_env()
    assert settings.max_batch == 5
    assert settings.max_grid == 123
    monkeypatch.setenv("REPRO_SERVER_MAX_GRID", "lots")
    with pytest.raises(UsageError):
        ServerSettings.from_env()


def test_quantile_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert quantile(samples, 0.50) == 50.0
    assert quantile(samples, 0.99) == 99.0
    assert quantile(samples, 1.00) == 100.0
    assert quantile([7.0], 0.99) == 7.0


def test_singleflight_collapses_and_retries_after_failure():
    calls = {"n": 0}

    async def fill():
        calls["n"] += 1
        await asyncio.sleep(0.01)
        if calls["n"] == 1:
            raise RuntimeError("first fill fails")
        return "filled"

    async def main():
        flights = SingleFlight()
        waits = {"n": 0}

        def on_wait():
            waits["n"] += 1

        results = await asyncio.gather(
            *[flights.do("k", fill, on_wait=on_wait) for _ in range(5)],
            return_exceptions=True)
        # one execution, the failure propagated to every waiter
        assert calls["n"] == 1 and waits["n"] == 4
        assert all(isinstance(r, RuntimeError) for r in results)
        # the failure was not memoised: the next call retries
        assert await flights.do("k", fill) == "filled"
        assert calls["n"] == 2
        assert not flights.flying("k")

    asyncio.run(main())


def test_runner_run_tasks_is_thread_safe(tmp_path):
    from concurrent.futures import ThreadPoolExecutor
    from repro.dse.evaluate import profile_task
    from repro.vm.config import CoreConfig
    runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
    pair = get_spec("img:histstats").pair(SCALE)
    task = profile_task(pair.float_program, SCALE.max_instructions,
                        CoreConfig())
    with ThreadPoolExecutor(max_workers=4) as pool:
        batches = list(pool.map(lambda _: runner.run_tasks([task]),
                                range(4)))
    first = batches[0]
    assert all(batch == first for batch in batches)


# -- endpoints ---------------------------------------------------------------

def test_healthz_and_stats():
    async def main():
        async with server_ctx() as (server, port):
            status, body = await fetch(HOST, port, "GET", "/v1/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["scale"] == "smoke"
            assert health["uptime_s"] >= 0
            status, body = await fetch(HOST, port, "GET", "/v1/stats")
            assert status == 200
            stats = json.loads(body)
            for field in ("uptime_s", "qps", "requests", "by_endpoint",
                          "profiles", "batching", "sweeps"):
                assert field in stats
            assert stats["by_endpoint"]["/v1/healthz"]["requests"] == 1

    asyncio.run(main())


def test_price_matches_linear_evaluation_exactly():
    async def main():
        async with server_ctx() as (server, port):
            status, payload = await fetch_json(HOST, port, "/v1/price",
                                               PRICE)
            assert status == 200
            # the expected bits, straight from the engine
            from repro.server.schemas import price_request
            config, _, _ = price_request(dict(PRICE), server.base)
            pair = server._workload_spec("img:sobel3x3").pair(SCALE)
            vectors = stream_profiles(
                [pair], [True], budget=SCALE.max_instructions,
                runner=server.runner, base=server.base)[
                    ("img:sobel3x3", "float")]
            nfp = BatchNfpEngine([config.hw]).evaluate(vectors)[0]
            assert payload["time_s"] == nfp.true_time_s
            assert payload["energy_j"] == nfp.true_energy_j
            assert payload["cycles"] == nfp.cycles
            assert payload["retired"] == nfp.retired
            assert payload["build"] == "float"
            assert payload["config"] == "clk80-fpu"
            assert payload["area_les"] > 0

    asyncio.run(main())


def _stampede_body() -> bytes:
    return json.dumps(PRICE).encode()


def run_stampede(server_kwargs: dict, n: int = 6) -> tuple[dict, set]:
    """N identical concurrent cold prices; returns (stats dict, bodies)."""
    async def main():
        async with server_ctx(**server_kwargs) as (server, port):
            results = await asyncio.gather(*[
                fetch(HOST, port, "POST", "/v1/price", _stampede_body())
                for _ in range(n)])
            assert sorted({status for status, _ in results}) == [200]
            _, raw = await fetch(HOST, port, "GET", "/v1/stats")
            return json.loads(raw), {body for _, body in results}

    return asyncio.run(main())


def test_stampede_single_flight_fault_free():
    stats, bodies = run_stampede({})
    assert stats["profiles"]["fills"] == 1
    assert stats["profiles"]["misses"] == 6
    assert stats["profiles"]["waits"] == 5
    assert len(bodies) == 1


def test_stampede_single_flight_under_chaos(tmp_path):
    """The single-flight contract holds while the *one* fill is being
    retried through injected faults -- and prices the same bits."""
    chaos_runner = ExperimentRunner(
        cache_dir=tmp_path / "chaos", workers=1,
        chaos=ChaosPolicy(seed=11, raise_=1.0, depth=1),
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.001))
    stats, bodies = run_stampede({"runner": chaos_runner})
    assert stats["profiles"]["fills"] == 1
    assert len(bodies) == 1
    clean_stats, clean_bodies = run_stampede(
        {"runner": ExperimentRunner(cache_dir=tmp_path / "clean",
                                    workers=1)})
    assert bodies == clean_bodies   # chaos never changes the bits
    assert clean_stats["profiles"]["fills"] == 1


def test_cold_fills_share_one_thread_off_the_loop():
    """Concurrent cold fills of two workloads run on the server's one
    fill thread, never on the event loop's."""
    async def main():
        async with server_ctx() as (server, port):
            threads = []
            fill = server._profile_sync

            def recording_fill(spec, fpu):
                threads.append(threading.get_ident())
                return fill(spec, fpu)

            server._profile_sync = recording_fill
            results = await asyncio.gather(*[
                fetch_json(HOST, port, "/v1/price",
                           {"workload": name, "axes": {"fpu": True}})
                for name in ("img:sobel3x3", "img:histstats")])
            assert [status for status, _ in results] == [200, 200]
            assert server.stats.profile_fills == 2
            return threads, threading.get_ident()

    threads, loop_thread = asyncio.run(main())
    assert len(threads) == 2
    assert threads[0] == threads[1] != loop_thread


# -- the per-tick price batcher ----------------------------------------------

BASE = HwConfig(name="leon3", core=CoreConfig())


@pytest.fixture(scope="module")
def sobel_vectors():
    """The lowered float-build profile of ``img:sobel3x3``."""
    pair = get_spec("img:sobel3x3").pair(SCALE)
    return stream_profiles([pair], [True], budget=SCALE.max_instructions,
                           runner=ExperimentRunner(workers=1),
                           base=BASE)[("img:sobel3x3", "float")]


def clock_hws(clocks) -> list[HwConfig]:
    """The FPU build at each clock, configured as ``/v1/price`` does."""
    return [price_request({"workload": "img:sobel3x3",
                           "axes": {"clock_mhz": mhz, "fpu": True}},
                          BASE)[0].hw for mhz in clocks]


@pytest.fixture
def priced(monkeypatch):
    """The configurations of every ``price_batch`` call, in call order."""
    calls = []
    price_batch = batching.price_batch

    def recording(entries):
        calls.append([hw for hw, _ in entries])
        return price_batch(entries)

    monkeypatch.setattr(batching, "price_batch", recording)
    return calls


def submit_all(batcher, hws, vectors):
    """Every submit as its own task, so all of them join one tick."""
    return asyncio.wait_for(asyncio.gather(
        *[batcher.submit(hw, vectors) for hw in hws],
        return_exceptions=True), timeout=30)


def test_price_coalescing_batches_and_matches_solo_bits(sobel_vectors,
                                                        priced):
    hws = clock_hws((25.0, 40.0, 50.0, 80.0))
    stats = ServerStats()

    async def main():
        return await submit_all(PriceBatcher(ServerSettings(), stats),
                                hws, sobel_vectors)

    results = asyncio.run(main())
    assert priced == [hws]          # one tick, one batch of all four
    assert (stats.batches, stats.batched_requests, stats.max_batch) \
        == (1, 4, 4)
    # coalesced bits == solo bits
    assert results == [BatchNfpEngine([hw]).evaluate(sobel_vectors)[0]
                       for hw in hws]


def test_batcher_prices_max_batch_rows_per_tick_in_order(sobel_vectors,
                                                         monkeypatch):
    hws = clock_hws([25.0 + i for i in range(7)])
    iterations, calls = [0], []
    price_batch = batching.price_batch

    def recording(entries):
        calls.append((iterations[0], [hw for hw, _ in entries]))
        return price_batch(entries)

    monkeypatch.setattr(batching, "price_batch", recording)

    async def main():
        loop = asyncio.get_running_loop()

        def tick():                 # advances once per loop iteration
            iterations[0] += 1
            handle[0] = loop.call_soon(tick)

        handle = [loop.call_soon(tick)]
        try:
            return await submit_all(
                PriceBatcher(ServerSettings(max_batch=3), ServerStats()),
                hws, sobel_vectors)
        finally:
            handle[0].cancel()

    results = asyncio.run(main())
    ticks = [tick for tick, _ in calls]
    chunks = [chunk for _, chunk in calls]
    assert [len(chunk) for chunk in chunks] == [3, 3, 1]
    assert [hw for chunk in chunks for hw in chunk] == hws
    assert ticks == sorted(set(ticks))      # one evaluation per tick
    assert results == [BatchNfpEngine([hw]).evaluate(sobel_vectors)[0]
                       for hw in hws]


def test_batcher_failure_fails_only_its_member(sobel_vectors, monkeypatch):
    """A batch that raises is priced again member by member: only the
    member whose own pricing fails receives the exception."""
    calls = []
    price_batch = batching.price_batch
    hws = clock_hws((25.0, 40.0, 50.0, 80.0))

    def flaky(entries):
        calls.append([hw for hw, _ in entries])
        if any(hw is hws[1] for hw, _ in entries):
            raise RuntimeError("pricing failed")
        return price_batch(entries)

    monkeypatch.setattr(batching, "price_batch", flaky)

    async def main():
        batcher = PriceBatcher(ServerSettings(max_batch=2), ServerStats())
        first = await submit_all(batcher, hws, sobel_vectors)
        again = await asyncio.wait_for(
            batcher.submit(hws[0], sobel_vectors), timeout=30)
        return first, again

    first, again = asyncio.run(main())
    # chunk [0, 1] fails, then prices alone; chunk [2, 3] prices at once
    assert calls == [hws[:2], [hws[0]], [hws[1]], hws[2:], [hws[0]]]
    assert isinstance(first[1], RuntimeError)
    solo = [BatchNfpEngine([hw]).evaluate(sobel_vectors)[0] for hw in hws]
    assert [first[0], *first[2:]] == [solo[0], *solo[2:]]
    # the failure was not sticky: the next submit still prices
    assert again == solo[0]


def test_batcher_skips_cancelled_submitter(sobel_vectors, priced):
    hws = clock_hws((25.0, 40.0, 50.0))
    loop_errors = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _, context: loop_errors.append(context))
        batcher = PriceBatcher(ServerSettings(), ServerStats())
        tasks = [asyncio.ensure_future(batcher.submit(hw, sobel_vectors))
                 for hw in hws]
        await asyncio.sleep(0)      # all three queued, not yet flushed
        assert priced == [] and not any(task.done() for task in tasks)
        tasks[1].cancel()
        return await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=30)

    results = asyncio.run(main())
    assert isinstance(results[1], asyncio.CancelledError)
    assert priced == [[hws[0], hws[2]]]
    assert [results[0], results[2]] == [
        BatchNfpEngine([hw]).evaluate(sobel_vectors)[0]
        for hw in (hws[0], hws[2])]
    assert loop_errors == []


# -- error paths -------------------------------------------------------------

#: so many wait states that no price is a finite float
UNPRICEABLE = {"workload": "fse:00",
               "axes": {"fpu": True, "wait_states": 10 ** 400}}


def test_price_error_paths():
    async def main():
        async with server_ctx() as (server, port):
            cases = [
                (b"{not json", 400, "bad-json"),
                (b"[1, 2]", 400, "bad-json"),
                (json.dumps({"workload": "img:nope"}).encode(), 404,
                 "unknown-workload"),
                (json.dumps({"workload": "img:*"}).encode(), 400,
                 "ambiguous-workload"),
                (json.dumps({"workload": "img:sobel3x3",
                             "axes": {"bogus": 1}}).encode(), 400,
                 "unknown-axis"),
                (json.dumps({"workload": "img:sobel3x3",
                             "axes": {"fpu": "maybe"}}).encode(), 400,
                 "bad-axis-value"),
                (json.dumps({"workload": "img:sobel3x3",
                             "surprise": 1}).encode(), 400,
                 "unknown-field"),
                # non-finite clocks: a 200 would carry NaN, not JSON
                (b'{"workload": "fse:00", "axes": {"clock_mhz": NaN}}',
                 400, "bad-axis-value"),
                (b'{"workload": "fse:00", "axes": {"clock_mhz": Infinity}}',
                 400, "bad-axis-value"),
                # a clock below 1 Hz: its cycle time overflows, and the
                # 200 would carry Infinity
                (b'{"workload": "fse:00", "axes": {"clock_mhz": 1e-320}}',
                 400, "bad-axis-value"),
                (json.dumps(UNPRICEABLE).encode(), 400, "bad-axis-value"),
                # scalars resolve through the axis parser on their JSON
                # text, so what `repro dse --axes` refuses is refused
                # here too, never truncated into a price or a 500
                *((json.dumps({"workload": "fse:00",
                               "axes": axes}).encode(),
                   400, "bad-axis-value")
                  for axes in ({"nwindows": 8.5}, {"nwindows": 16.0},
                               {"wait_states": 1.5}, {"fpu": 2},
                               {"fpu": 0.5}, {"clock_mhz": True},
                               {"clock_mhz": 10 ** 400})),
                # an integer past the interpreter's digit limit, and
                # nesting too deep to decode, are malformed bodies
                (b'{"workload": "fse:00", "axes": {"nwindows": 1'
                 + b"0" * 5000 + b"}}", 400, "bad-json"),
                (b"[" * 100000 + b"]" * 100000, 400, "bad-json"),
            ]
            for body, want_status, want_code in cases:
                status, raw = await fetch(HOST, port, "POST", "/v1/price",
                                          body)
                assert status == want_status, (body, status)
                assert json.loads(raw)["error"]["code"] == want_code
            status, _ = await fetch(HOST, port, "GET", "/v1/price")
            assert status == 405
            status, _ = await fetch(HOST, port, "GET", "/v1/nothing")
            assert status == 404
            # every error above was accounted
            assert server.stats.responses_err == len(cases) + 2

    asyncio.run(main())


def price_call(payload: dict) -> Request:
    return Request(method="POST", path="/v1/price", version="HTTP/1.1",
                   body=json.dumps(payload).encode())


def test_unpriceable_request_fails_alone_in_its_tick():
    """One request with no finite price shares a tick with two others:
    it alone answers 400, and theirs are the bytes of a solo price."""
    good = [{"workload": "fse:00", "axes": {"fpu": True}},
            {"workload": "fse:00", "axes": {"fpu": True, "clock_mhz": 80}}]

    async def main():
        async with server_ctx() as (server, _):
            solo = [await server._dispatch(price_call(payload))
                    for payload in good]
            batches = server.stats.batches
            together = await asyncio.gather(*[
                server._dispatch(price_call(payload))
                for payload in (UNPRICEABLE, *good)])
            assert server.stats.batches == batches + 1  # one shared tick
            return solo, together

    solo, together = asyncio.run(main())
    assert [status for _, status, _, _ in together] == [400, 200, 200]
    assert json.loads(together[0][2])["error"]["code"] == "bad-axis-value"
    assert [body for _, _, body, _ in together[1:]] \
        == [body for _, _, body, _ in solo]


def test_price_at_one_hertz_is_strict_json():
    """The slowest clock a platform accepts still prices, finitely."""
    [(status, body)] = asyncio.run(price_bodies(
        [{"workload": "fse:00", "axes": {"fpu": True, "clock_mhz": 1e-6}}]))
    assert status == 200, body
    priced = json.loads(body, parse_constant=lambda name: pytest.fail(name))
    assert priced["config"] == "clk1e-06-fpu"
    assert priced["time_s"] == priced["cycles"]     # one second a cycle


#: SHA-256 of the 36 ``/v1/price`` bodies of ``img:sobel3x3`` over the
#: stock grid, concatenated in grid order (recorded before the name
#: index, the configuration memo and support pricing existed).
STOCK_PRICE_DIGEST = \
    "9058522898538a94747f1094b44dce313db8105957aaee2cfd01262abe0cffa7"


def stock_price_bodies() -> list[bytes]:
    from repro.dse.axes import DesignSpace
    return [json.dumps({"workload": "img:sobel3x3",
                        "axes": dict(config.axis_values)}).encode()
            for config in DesignSpace.default().configs()]


def test_price_bodies_pinned_over_the_stock_grid():
    """Every response byte of the stock grid is pinned; the second pass
    resolves each configuration from the server's memo."""
    async def main():
        async with server_ctx() as (server, port):
            passes = []
            for _ in range(2):
                bodies = []
                for body in stock_price_bodies():
                    status, raw = await fetch(HOST, port, "POST",
                                              "/v1/price", body)
                    assert status == 200, raw
                    bodies.append(raw)
                passes.append(bodies)
            assert len(server._configs) == 36
            return passes

    first, second = asyncio.run(main())
    assert len(first) == 36
    assert second == first
    assert hashlib.sha256(b"".join(first)).hexdigest() \
        == STOCK_PRICE_DIGEST


async def price_bodies(payloads) -> list[tuple[int, bytes]]:
    """``payloads`` posted in order to one server."""
    async with server_ctx() as (_, port):
        return [await fetch(HOST, port, "POST", "/v1/price",
                            json.dumps(payload).encode())
                for payload in payloads]


def test_price_memo_keys_answer_like_a_fresh_server():
    """Values that resolve alike share a configuration, never a body:
    each answer equals the one a fresh server gives the same request."""
    payloads = [{"workload": "img:sobel3x3", "axes": axes}
                for axes in ({"fpu": True}, {"fpu": 1}, {"fpu": "on"},
                             {"clock_mhz": 50}, {"clock_mhz": 50.0})]
    shared = asyncio.run(price_bodies(payloads))
    for payload, got in zip(payloads, shared):
        assert got[0] == 200
        assert [got] == asyncio.run(price_bodies([payload])), payload
    echoed = [json.loads(body)["axes"] for _, body in shared]
    assert echoed == [{"fpu": True}, {"fpu": 1}, {"fpu": True},
                      {"clock_mhz": 50}, {"clock_mhz": 50.0}]
    assert [type(axes.get("clock_mhz")) for axes in echoed[3:]] \
        == [int, float]


#: SHA-256 over ``status + body`` of the five workload names below
#: (recorded before the name index existed).
WORKLOAD_NAMES_DIGEST = \
    "3bd828cf723eb32a2042f076a0063aab02358c06f84f83d94b81c941186a0d91"


def test_workload_names_answer_as_select_does():
    """An exact name, a glob matching one workload, a family, a preset
    and an unknown name: the index changes no status and no byte."""
    names = ("img:sobel3x3", "img:sob*", "img", "table3", "img:nope")
    answers = asyncio.run(price_bodies(
        [{"workload": name, "axes": {"fpu": True}} for name in names]))
    assert [status for status, _ in answers] == [200, 200, 400, 400, 404]
    assert answers[0] == answers[1]
    digest = hashlib.sha256(b"".join(
        b"%d " % status + body for status, body in answers)).hexdigest()
    assert digest == WORKLOAD_NAMES_DIGEST


def test_oversized_body_rejected_413():
    async def main():
        settings = ServerSettings(max_body=64)
        async with server_ctx(settings=settings) as (server, port):
            status, raw = await fetch(HOST, port, "POST", "/v1/price",
                                      b"x" * 200)
            assert status == 413
            assert json.loads(raw)["error"]["code"] == "payload-too-large"

    asyncio.run(main())


async def raw_exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload`` on a fresh connection; every byte until EOF."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=30)
    finally:
        writer.close()
        await writer.wait_closed()


def split_response(raw: bytes) -> tuple[int, bytes, bytes, bytes]:
    """``(status, head, body, rest)`` of the first response in ``raw``."""
    head, _, rest = raw.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    return int(head.split()[1]), head, rest[:length], rest[length:]


_CHUNK = json.dumps(PRICE).encode()


@pytest.mark.parametrize("payload, want_status", [
    # a chunked body the server cannot frame: one 400, not a second
    # response parsed out of the chunk
    (b"POST /v1/price HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
     + b"%x\r\n" % len(_CHUNK) + _CHUNK + b"\r\n0\r\n\r\n", 400),
    (b"POST /v1/price HTTP/1.1\r\nContent-Length: 2\r\n"
     b"Content-Length: 40\r\n\r\n{}" + b" " * 38, 400),
    (b"POST /v1/price HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", 400),
    # HTTP/1.0 closes by default
    (b"GET /v1/healthz HTTP/1.0\r\n\r\n", 200),
], ids=["chunked", "conflicting-length", "signed-length", "http10"])
def test_one_response_then_close(payload, want_status):
    async def main():
        async with server_ctx() as (server, port):
            return await raw_exchange(port, payload)

    status, head, body, rest = split_response(asyncio.run(main()))
    assert status == want_status
    assert b"Connection: close" in head
    assert rest == b""              # exactly one response, then EOF
    if status == 400:
        assert json.loads(body)["error"]["code"] == "bad-request"


def test_http10_keep_alive_on_request():
    async def main():
        async with server_ctx() as (server, port):
            reader, writer = await asyncio.open_connection(HOST, port)
            try:
                for _ in range(2):  # the connection outlives the first
                    writer.write(b"GET /v1/healthz HTTP/1.0\r\n"
                                 b"Connection: keep-alive\r\n\r\n")
                    await writer.drain()
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=30)
                    assert b"Connection: keep-alive" in head
                    length = int(re.search(rb"Content-Length: (\d+)",
                                           head).group(1))
                    body = await reader.readexactly(length)
                    assert json.loads(body)["status"] == "ok"
            finally:
                writer.close()
                await writer.wait_closed()
            return server.stats.by_endpoint["/v1/healthz"]["requests"]

    assert asyncio.run(main()) == 2


_REQUEST_LINES = st.sampled_from([
    b"GET /v1/healthz HTTP/1.1", b"POST /v1/price HTTP/1.0",
    b"GET / HTTP/2", b"GET /v1/stats", b""])
_HEADER_LINES = st.sampled_from([
    b"Content-Length: 0", b"Content-Length: 5", b"Content-Length: 100",
    b"Content-Length: -1", b"Content-Length: 1_0", b"Content-Length: 5, 5",
    b"Content-Length: " + b"9" * 5000, b"Transfer-Encoding: chunked",
    b"Connection: close", b"Connection: keep-alive", b"Host: x",
    b"no-colon", b"X-Big: " + b"a" * 20000])


@st.composite
def http_bytes(draw):
    """Request-shaped bytes, any piece of them possibly random."""
    line = draw(st.one_of(_REQUEST_LINES, st.binary(max_size=40)))
    headers = draw(st.lists(st.one_of(_HEADER_LINES,
                                      st.binary(max_size=40)), max_size=5))
    data = (b"\r\n".join([line, *headers]) + b"\r\n\r\n"
            + draw(st.binary(max_size=120)))
    return data[:draw(st.integers(0, len(data)))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=300), http_bytes()))
@example(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
         b"Content-Length: 4\r\n\r\nbody")
def test_read_request_fuzzed_bytes_then_eof(data):
    """Any bytes then EOF: a request, a clean EOF, or a named error --
    never another exception, never a hang."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await asyncio.wait_for(read_request(reader, 64),
                                          timeout=10)
        except (BadRequest, PayloadTooLarge, asyncio.IncompleteReadError):
            return None

    request = asyncio.run(main())
    if request is not None:
        assert isinstance(request, Request)
        assert len(request.body) \
            == int(request.headers.get("content-length", "0")) <= 64


def test_oversized_grid_rejected_413():
    async def main():
        settings = ServerSettings(max_grid=3)
        async with server_ctx(settings=settings) as (server, port):
            status, raw = await fetch_json(HOST, port, "/v1/sweep",
                                           dict(SWEEP))
            assert status == 413
            assert raw["error"]["code"] == "grid-too-large"
            assert server.stats.sweeps == 0

    asyncio.run(main())


def test_sweep_error_paths():
    async def main():
        async with server_ctx() as (server, port):
            status, raw = await fetch_json(
                HOST, port, "/v1/sweep", {"axes": "warp_factor=9"})
            assert status == 400
            assert raw["error"]["code"] == "bad-axes"
            status, raw = await fetch_json(
                HOST, port, "/v1/sweep", {"workloads": "img:nope"})
            assert status == 404
            status, raw = await fetch_json(
                HOST, port, "/v1/sweep", {"format": "yaml"})
            assert status == 400
            assert raw["error"]["code"] == "bad-format"
            status, raw = await fetch_json(
                HOST, port, "/v1/sweep", {"mode": "metered"})
            assert status == 400
            assert raw["error"]["code"] == "bad-mode"
            # values the platform config rejects, and values sharing a
            # configuration label, in both modes
            for mode in ("stream", "profile"):
                for axes in ("clock_mhz=-5", "clock_mhz=0", "clock_mhz=nan",
                             "clock_mhz=1e-320",
                             "nwindows=1", "clock_mhz=50:50:80",
                             "clock_mhz=50:50.00001", "fpu=1:1"):
                    status, raw = await fetch_json(
                        HOST, port, "/v1/sweep",
                        {"mode": mode, "workloads": "fse:00", "axes": axes})
                    assert status == 400, (mode, axes)
                    assert raw["error"]["code"] == "bad-axes"
                # a point no sweep can price is the client's error too:
                # wait states past the float range, and clocks whose V^2
                # energy factor overflows a float
                for workloads, axes in (
                        ("fse:00", f"wait_states={10 ** 400},fpu=1"),
                        ("fse:00", "clock_mhz=1e200,fpu=1"),
                        ("fse:00", "clock_mhz=1e155,fpu=1"),
                        ("fse:00,fse:01,img:sobel3x3",
                         "clock_mhz=3e152,fpu=0:1,nwindows=2:8")):
                    status, raw = await fetch_json(
                        HOST, port, "/v1/sweep",
                        {"mode": mode, "workloads": workloads,
                         "axes": axes})
                    assert status == 400, (mode, axes)
                    assert raw["error"]["code"] == "bad-sweep"
            # refused in the parent, before any shard task runs
            status, raw = await fetch_json(
                HOST, port, "/v1/sweep",
                {"mode": "stream", "shards": 2, "workloads": "fse:00",
                 "axes": "clock_mhz=1e200,fpu=1"})
            assert status == 400
            assert raw["error"]["code"] == "bad-sweep"
            status, raw = await fetch_json(
                HOST, port, "/v1/sweep", {"mode": "profile", "front_cap": 8})
            assert status == 400
            assert raw["error"]["code"] == "bad-front-cap"
            # refinement is streamed only, like front_cap and shards:
            # an explicit profile mode and an absent mode both refuse it
            for extra in ({"mode": "profile"}, {}):
                status, raw = await fetch_json(
                    HOST, port, "/v1/sweep",
                    {**extra, "refine": 1, "workloads": "fse:00",
                     "axes": "clock_mhz=25:50,fpu=1"})
                assert status == 400, extra
                assert raw["error"]["code"] == "bad-refine"
            assert server.stats.sweeps == 0

    asyncio.run(main())


def test_sweep_schema_validates_front_cap():
    from repro.server.schemas import ApiError, sweep_request
    assert sweep_request({"mode": "stream", "front_cap": 4}).front_cap == 4
    assert sweep_request({}).front_cap is None
    for bad in ({"mode": "stream", "front_cap": 0},
                {"mode": "stream", "front_cap": True},
                {"mode": "profile", "front_cap": 4},
                {"front_cap": 4}):
        with pytest.raises(ApiError, match="front_cap") as err:
            sweep_request(bad)
        assert err.value.code == "bad-front-cap"


# -- the byte-identity contract ----------------------------------------------

def reference_render(fmt: str, mode: str = "profile") -> bytes:
    from repro.experiments import dse as dse_driver
    result = dse_driver.run(SCALE, axes=SWEEP["axes"],
                            workloads=SWEEP["workloads"],
                            stream=(mode == "stream"))
    return result.render(fmt).encode()


def test_sweep_byte_identical_to_cli_driver():
    async def main():
        async with server_ctx() as (server, port):
            for fmt in ("json", "csv"):
                status, body = await fetch(
                    HOST, port, "POST", "/v1/sweep",
                    json.dumps(dict(SWEEP, format=fmt)).encode())
                assert status == 200
                assert body == reference_render(fmt), fmt
            assert server.stats.sweeps == 2

    asyncio.run(main())


def test_materialized_sweep_leaves_no_run_manifest(tmp_path, monkeypatch):
    """A materialized ``/v1/sweep`` keeps its simulations in the result
    cache and writes nothing under ``<cache root>/runs``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    async def main():
        async with server_ctx() as (server, port):
            status, _ = await fetch_json(
                HOST, port, "/v1/sweep",
                {"mode": "profile", "workloads": "fse:00", "axes": "fpu"})
            assert status == 200
            assert server.stats.sweeps == 1

    asyncio.run(main())
    assert any(tmp_path.glob("*.json"))
    assert not (tmp_path / "runs").exists()


def test_streamed_sweep_byte_identical_to_driver():
    async def main():
        async with server_ctx() as (server, port):
            status, body = await fetch(
                HOST, port, "POST", "/v1/sweep",
                json.dumps(dict(SWEEP, mode="stream")).encode())
            assert status == 200
            assert body == reference_render("json", mode="stream")

    asyncio.run(main())


# -- disconnects and shutdown ------------------------------------------------

def test_disconnect_mid_request_is_counted_and_harmless():
    async def main():
        async with server_ctx() as (server, port):
            reader, writer = await asyncio.open_connection(HOST, port)
            head = ("POST /v1/price HTTP/1.1\r\n"
                    "Content-Length: 100\r\n\r\n")
            writer.write(head.encode() + b"only-ten-b")
            await writer.drain()
            writer.transport.abort()   # RST mid-body
            for _ in range(100):
                if server.stats.disconnects:
                    break
                await asyncio.sleep(0.01)
            assert server.stats.disconnects == 1
            # the server is unharmed: next request prices normally
            status, _ = await fetch(HOST, port, "POST", "/v1/price",
                                    _stampede_body())
            assert status == 200

    asyncio.run(main())


def test_disconnect_mid_sweep_leaves_results_consistent():
    async def main():
        async with server_ctx() as (server, port):
            reader, writer = await asyncio.open_connection(HOST, port)
            body = json.dumps(SWEEP).encode()
            head = (f"POST /v1/sweep HTTP/1.1\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n")
            writer.write(head.encode() + body)
            await writer.drain()
            writer.transport.abort()   # gone before the response
            for _ in range(600):       # the sweep itself still completes
                if server.stats.sweeps:
                    break
                await asyncio.sleep(0.05)
            assert server.stats.sweeps == 1
            # the result cache stayed consistent: the re-issued sweep
            # renders byte-identically to the CLI reference
            status, payload = await fetch(HOST, port, "POST", "/v1/sweep",
                                          json.dumps(SWEEP).encode())
            assert status == 200
            assert payload == reference_render("json")

    asyncio.run(main())


def test_serve_subprocess_sigterm_graceful(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.setdefault("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env)
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        client = ServerClient(HOST, port)
        deadline = time.monotonic() + 30
        while True:
            try:
                status, _ = client.get("/v1/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "healthz never came up"
            time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
