"""The evaluation server: hot profiles, coalesced pricing, sweeps on demand.

:class:`EvalServer` is the long-lived process behind ``repro serve``.
It owns one resilient cached runner, a dict of hot lowered profiles
(:class:`~repro.nfp.linear.ProfileVectors` keyed by ``(workload,
build)``), a per-key single-flight table for cold fills, and a price
coalescer -- the four pieces that turn the profile-once linear engine
into a service:

- ``/v1/price`` looks the profile up hot, or fills it through
  :func:`repro.dse.engine.stream_profiles` (one simulation, via the
  PR-2/PR-6 cached fault-tolerant runner) behind a single-flight lock;
  fills run one at a time on the server's one fill thread, and pricing
  rides the current event-loop tick's batch
  (:class:`~repro.server.batching.PriceBatcher`) on the loop thread.
- ``/v1/sweep`` delegates to the ``repro dse`` driver in a worker
  thread of its own, so a long sweep never queues a cold fill behind
  it, and a materialized sweep's response body is *byte-identical*
  to ``repro dse --format json`` for the same spec.
- ``/v1/healthz`` and ``/v1/stats`` render liveness and the
  :class:`~repro.server.stats.ServerStats` snapshot.

Shutdown is graceful: SIGTERM/SIGINT stop the accept loop, in-flight
requests drain for ``REPRO_SERVER_DRAIN_S`` seconds, and the process
exits 0.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.dse.axes import DesignSpace
from repro.dse.engine import config_area_les, stream_profiles
from repro.hw.config import HwConfig
from repro.runner.resilience import UsageError
from repro.server.batching import PriceBatcher
from repro.server.httpio import (
    BadRequest,
    PayloadTooLarge,
    Request,
    read_request,
    response_bytes,
)
from repro.server.schemas import (
    ApiError,
    SweepRequest,
    parse_json,
    price_request,
    sweep_request,
)
from repro.server.settings import ServerSettings
from repro.server.singleflight import SingleFlight
from repro.server.stats import ServerStats
from repro.vm.config import CoreConfig

ENDPOINTS = ("/v1/healthz", "/v1/stats", "/v1/price", "/v1/sweep")

_CONTENT_TYPES = {
    "json": "application/json",
    "csv": "text/csv; charset=utf-8",
    "text": "text/plain; charset=utf-8",
}


class EvalServer:
    """One serving process: hot profiles + coalesced linear pricing.

    A warm ``/v1/price`` is resolved by lookup, not rebuilt: the
    workload name is one probe into an index of exact registered names
    (:meth:`_workload_spec`), the validated axis values key a bounded
    memo of built configurations (:func:`~repro.server.schemas.price_request`),
    and the profile is a probe into the hot tier.  Pricing then visits
    only the mnemonics the profile retired (its support), so a warm
    request costs a few dozen multiply-adds and the response bytes are
    those a fresh server would send.
    """

    def __init__(self, settings: ServerSettings | None = None,
                 scale=None, runner=None, base: HwConfig | None = None):
        from repro.experiments.scale import get_scale
        from repro.experiments.setup import runner_from_env
        self.settings = settings if settings is not None \
            else ServerSettings.from_env()
        self.scale = scale if scale is not None else get_scale(None)
        self.runner = runner if runner is not None else runner_from_env()
        self.base = base if base is not None else HwConfig(
            name="leon3", core=CoreConfig())
        self.stats = ServerStats(
            latency_window=self.settings.latency_window)
        #: the hot tier: (workload name, build tag) -> lowered profile
        self.profiles: dict[tuple[str, str], object] = {}
        #: exact workload name -> spec, built on first use
        #: (:meth:`_name_index`)
        self._specs: dict[str, object] | None = None
        #: resolved axis values -> built configuration over ``self.base``
        #: (bounded; see :func:`repro.server.schemas.price_request`)
        self._configs: dict = {}
        self.flights = SingleFlight()
        #: cold fills, one at a time on one long-lived thread (the
        #: runner serializes them anyway): the default executor may
        #: start a second thread for a fill, and a new thread grows a
        #: malloc arena of its own, which shows in peak RSS
        self._fill_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-fill")
        self.batcher = PriceBatcher(self.settings, self.stats)
        #: sweeps run one at a time (they own the runner for minutes)
        self.sweep_lock = asyncio.Lock()
        self._active: set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and accept; returns the bound port (``port=0`` picks one)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight work, close every connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.settings.drain_s
        while self._busy and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._active):
            writer.close()
        self._fill_pool.shutdown(wait=False, cancel_futures=True)
        # give the per-connection handlers a tick to unwind
        await asyncio.sleep(0)

    async def serve(self, host: str, port: int) -> None:
        """``repro serve``: run until SIGTERM/SIGINT, then drain and return."""
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix loops
                pass
        bound = await self.start(host, port)
        # the one stdout line: scripts (and the smoke client) parse it
        print(f"repro-serve listening on {host}:{bound}", flush=True)
        try:
            await stop.wait()
        finally:
            await self.aclose()
        print(f"repro-serve drained after {self.stats.requests} requests",
              file=sys.stderr, flush=True)

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._active.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader,
                                                 self.settings.max_body)
                except BadRequest as exc:
                    error = ApiError(400, "bad-request", str(exc))
                except PayloadTooLarge as exc:
                    error = ApiError(413, "payload-too-large", str(exc))
                else:
                    if request is None:
                        break
                    started = time.monotonic()
                    self._busy += 1
                    try:
                        label, status, body, ctype = \
                            await self._dispatch(request)
                    finally:
                        self._busy -= 1
                    self.stats.record(label, status,
                                      time.monotonic() - started)
                    writer.write(response_bytes(
                        status, body, ctype,
                        keep_alive=request.keep_alive))
                    await writer.drain()
                    if not request.keep_alive:
                        break
                    continue
                # protocol-level failure: answer once, then close (the
                # unread rest of the stream is not parseable)
                self.stats.record("other", error.status, 0.0)
                writer.write(response_bytes(error.status, error.body(),
                                            keep_alive=False))
                await writer.drain()
                break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            self.stats.disconnects += 1
        finally:
            self._active.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request
                        ) -> tuple[str, int, bytes, str]:
        label = request.path if request.path in ENDPOINTS else "other"
        try:
            if request.path == "/v1/healthz":
                self._require(request, "GET")
                return label, 200, self._healthz_body(), "application/json"
            if request.path == "/v1/stats":
                self._require(request, "GET")
                body = json.dumps(
                    self.stats.snapshot(profiles_hot=len(self.profiles)),
                    sort_keys=True).encode() + b"\n"
                return label, 200, body, "application/json"
            if request.path == "/v1/price":
                self._require(request, "POST")
                return await self._price(request)
            if request.path == "/v1/sweep":
                self._require(request, "POST")
                return await self._sweep(request)
            raise ApiError(404, "not-found",
                           f"no route {request.method} {request.path}; "
                           f"endpoints: {', '.join(ENDPOINTS)}")
        except ApiError as exc:
            return label, exc.status, exc.body(), "application/json"
        except Exception as exc:   # a bug, not a client error: say so once
            error = ApiError(500, "internal",
                             f"{type(exc).__name__}: {exc}")
            return label, error.status, error.body(), "application/json"

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise ApiError(405, "method-not-allowed",
                           f"{request.path} takes {method}, "
                           f"not {request.method}")

    def _healthz_body(self) -> bytes:
        return json.dumps({
            "status": "ok",
            "scale": self.scale.name,
            "uptime_s": self.stats.uptime_s,
        }, sort_keys=True).encode() + b"\n"

    # -- /v1/price -----------------------------------------------------------

    async def _price(self, request: Request) -> tuple[str, int, bytes, str]:
        config, workload, axes = price_request(parse_json(request.body),
                                               self.base, self._configs)
        spec = self._workload_spec(workload)
        build = "float" if config.hw.core.has_fpu else "fixed"
        key = (spec.name, build)
        vectors = self.profiles.get(key)
        if vectors is not None:
            self.stats.profile_hits += 1
        else:
            self.stats.profile_misses += 1
            vectors = await self.flights.do(
                key, lambda: self._fill_profile(spec, key),
                on_wait=self._count_wait)
        try:
            nfp = await self.batcher.submit(config.hw, vectors)
        except ValueError as exc:   # no finite price under these axes
            raise ApiError(400, "bad-axis-value", str(exc)) from None
        body = json.dumps({
            "workload": spec.name,
            "build": build,
            "config": config.name,
            "axes": {name: value for name, value in axes},
            "time_s": nfp.true_time_s,
            "energy_j": nfp.true_energy_j,
            "cycles": nfp.cycles,
            "retired": nfp.retired,
            "area_les": config_area_les(config),
        }, sort_keys=True, allow_nan=False).encode() + b"\n"
        return "/v1/price", 200, body, "application/json"

    def _count_wait(self) -> None:
        self.stats.profile_waits += 1

    def _workload_spec(self, workload: str):
        """The one spec ``workload`` names, exactly as ``select`` finds it.

        An exact registered name is one dict probe into an index built
        on first use from ``select(name)`` for every registered name, so
        it answers what ``select`` answers.  Anything else -- a glob, a
        family, a preset, an unknown name or a workload registered after
        the index was built -- goes through ``select``.
        """
        if self._specs is None:
            self._specs = self._name_index()
        spec = self._specs.get(workload)
        if spec is not None:
            return spec
        from repro.workloads import select
        try:
            specs = select(workload, self.scale)
        except ValueError as exc:
            raise ApiError(404, "unknown-workload", str(exc)) from None
        if len(specs) != 1:
            raise ApiError(400, "ambiguous-workload",
                           f"workload filter {workload!r} matches "
                           f"{len(specs)} workloads; /v1/price prices "
                           f"exactly one (try 'repro workloads list')")
        return specs[0]

    def _name_index(self) -> dict:
        """Registered name -> the one spec ``select(name)`` returns."""
        from repro.workloads import select, specs
        index = {}
        for spec in specs():
            try:
                found = select(spec.name, self.scale)
            except ValueError:      # outside this server's scale
                continue
            if len(found) == 1:
                index[spec.name] = found[0]
        return index

    async def _fill_profile(self, spec, key: tuple[str, str]):
        """The single-flight fill: one profiling simulation, then hot."""
        self.stats.profile_fills += 1
        fpu = key[1] == "float"
        # the caller's context variables travel along, as with to_thread
        call = functools.partial(contextvars.copy_context().run,
                                 self._profile_sync, spec, fpu)
        try:
            vectors = await asyncio.get_running_loop().run_in_executor(
                self._fill_pool, call)
        except UsageError as exc:     # self-modifying: no linear pricing
            raise ApiError(422, "unclean-workload", str(exc)) from None
        except RuntimeError as exc:   # retries ran out
            raise ApiError(502, "profiling-failed", str(exc)) from None
        self.profiles[key] = vectors
        return vectors

    def _profile_sync(self, spec, fpu: bool):
        pair = spec.pair(self.scale)
        build = "float" if fpu else "fixed"
        vectors = stream_profiles(
            [pair], [fpu], budget=self.scale.max_instructions,
            runner=self.runner, base=self.base)
        return vectors[(pair.name, build)]

    # -- /v1/sweep -----------------------------------------------------------

    async def _sweep(self, request: Request) -> tuple[str, int, bytes, str]:
        spec = sweep_request(parse_json(request.body))
        from repro.workloads import select
        try:
            space = (DesignSpace.from_spec(spec.axes) if spec.axes
                     else DesignSpace.default())
            space.check(self.base)
        except ValueError as exc:
            raise ApiError(400, "bad-axes", str(exc)) from None
        try:
            suite = select(spec.workloads or "table3", self.scale)
        except ValueError as exc:
            raise ApiError(404, "unknown-workloads", str(exc)) from None
        points = space.size * len(suite)
        if points > self.settings.max_grid:
            raise ApiError(
                413, "grid-too-large",
                f"sweep of {space.size} configs x {len(suite)} workloads "
                f"= {points} points exceeds the {self.settings.max_grid}-"
                f"point request budget (REPRO_SERVER_MAX_GRID)")
        async with self.sweep_lock:
            try:
                rendered = await asyncio.to_thread(self._sweep_sync, spec)
            except ValueError as exc:   # a UsageError, or no finite price
                raise ApiError(400, "bad-sweep", str(exc)) from None
            except RuntimeError as exc:
                raise ApiError(502, "profiling-failed", str(exc)) from None
        self.stats.sweeps += 1
        return ("/v1/sweep", 200, rendered.encode("utf-8"),
                _CONTENT_TYPES[spec.fmt])

    def _sweep_sync(self, spec: SweepRequest) -> str:
        # the CLI's own driver end to end, so a materialized sweep body
        # is byte-identical to `repro dse --format json`
        from repro.experiments import dse as dse_driver
        return dse_driver.run(
            self.scale, axes=spec.axes,
            workloads=spec.workloads,
            stream=(spec.mode == "stream"),
            refine=spec.refine,
            front_cap=spec.front_cap,
            shards=spec.shards).render(spec.fmt)


def serve_command(args) -> int:
    """The ``repro serve`` CLI branch."""
    try:
        from repro.experiments.scale import get_scale
        server = EvalServer(settings=ServerSettings.from_env(),
                            scale=get_scale(args.scale))
        asyncio.run(server.serve(args.host, args.port))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:   # pragma: no cover - signal-handler race
        return 130
    return 0
