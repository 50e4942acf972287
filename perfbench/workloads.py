"""The workloads: what each runs, how it is timed, how it is checked.

==============  ===========================================================
workload        measured operation
==============  ===========================================================
table3-cold     ``repro table3 --scale smoke`` with an empty result cache
                for every invocation (a fresh process each time)
serve-price     a closed loop of 2 keep-alive connections posting seeded
                ``/v1/price`` requests to ``repro serve --scale smoke``,
                after 5 workloads x 2 builds were warmed in set-up
==============  ===========================================================

Outputs are checked on every operation: the table3 report must match a
stored SHA-256 (text reports are rounded, so energy drift at the 1e-12
level cannot flip it) and Table III must read exactly 1.39 / 1.65 /
5.82 / 5.71; every server response must be HTTP 200, and a seeded sample
of them is re-priced in-process through ``stream_profiles`` +
``BatchNfpEngine``: cycles, retired counts, time and area exactly,
energy within 1e-12 relative.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import procs
from stats import Tally

SCALE = "smoke"
HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _ref:
    REFERENCE = json.load(_ref)

#: Table III as the text report prints it: energy/time mean, then max
TABLE3_FIGURES = ("1.39", "1.65", "5.82", "5.71")
#: rounds of ``repro workloads list`` preflights before each table3
#: invocation; spread over the whole run and over every CPU the pool
#: uses, their median is steadier than a few taken back to back
PREFLIGHT_ROUNDS = 2
#: the server's warm set (5 workloads x both builds)
SERVE_WORKLOADS = ("img:sobel3x3", "img:gauss5x5", "fse:00",
                   "hevc:gradient_pan_intra_qp10", "pipe:xfel")
#: the stock design-space axes the request stream draws from
SERVE_AXES = (("clock_mhz", (25.0, 50.0, 80.0)), ("fpu", (False, True)),
              ("nwindows", (4, 8, 16)), ("wait_states", (0, 2)))
SERVE_CONNECTIONS = 2
#: servers booted and warmed at once per untraced run; ``setup_s`` is
#: their median.  A server fills its profiles one simulation at a time,
#: so a lone set-up rides the speed of one CPU; two at once, like the
#: paired table3 preflights, spread over both
SERVE_SETUPS = 2
#: the traced set-up's sweep: the stock grid over the warm set, streamed,
#: so the dse layer's pricing and reduction run inside the trace
SERVE_SWEEP = {"mode": "stream", "workloads": ",".join(SERVE_WORKLOADS)}
SERVE_SWEEP_CONFIGS = 36
#: a server that takes longer to warm (or to answer) has hung
WARM_TIMEOUT_S = 60.0
#: re-priced in-process after each run
VERIFY_SAMPLE = 48


@dataclass
class Context:
    """What every workload needs: directories, environment, knobs."""

    workload: str
    root: str            #: the checkout the benchmark runs in
    work: str            #: this run's scratch directory
    trace_dir: str
    env: dict            #: the children's environment, minus the cache
    seed: int
    seconds: float
    trace: bool
    _serial: itertools.count = field(default_factory=itertools.count)

    def fresh_cache(self) -> str:
        path = os.path.join(self.work, f"cache-{next(self._serial)}")
        os.makedirs(path)
        return path

    def child_env(self, cache: str) -> dict:
        return dict(self.env, REPRO_CACHE_DIR=cache)

    def cli(self, *args: str) -> list[str]:
        return [procs.python(), "-m", "repro", *args]

    def traced(self, out: str, *args: str) -> list[str]:
        return [procs.python(), os.path.join(HERE, "traced.py"), out, *args]

    def trace_path(self) -> str:
        return os.path.join(self.trace_dir,
                            f"{self.workload}-seed{self.seed}-"
                            f"{next(self._serial)}.json")


@dataclass
class Outcome:
    """Everything a workload measured; :mod:`run` turns it into metrics."""

    command: str
    tally: Tally = field(default_factory=Tally)
    latencies_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)   #: per operation
    peak_rss_mb: float = 0.0
    setups_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0          #: measured time the operations covered
    #: trace runs: untraced and traced operation latencies, trace files
    traced_latencies_s: list[float] = field(default_factory=list)
    traces: list[str] = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _exit_problem(inv: procs.Invocation, what: str) -> str | None:
    if inv.code == 0:
        return None
    tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return f"{what} exited {inv.code}: {' '.join(tail)}"


def _setup(ctx: Context, argv: list[str], cache: str, expect: str,
           scratch: str) -> float:
    """One timed set-up command; a failed set-up aborts the run."""
    inv = procs.invoke(argv, ctx.child_env(cache), scratch)
    problem = _exit_problem(inv, "set-up") or (
        None if expect in inv.stdout.decode(errors="replace")
        else f"set-up printed no {expect!r}")
    if problem:
        raise RuntimeError(problem)
    return inv.wall_s


def _measure_cli(ctx: Context, out: Outcome, args: list[str], check,
                 cache_for) -> None:
    """Invoke ``repro <args>`` until ``ctx.seconds`` have passed, and
    at least twice.

    Trace runs alternate untraced and traced invocations (starting
    untraced), so the tracing overhead is measured inside one run.
    ``cache_for()`` names the cache directory of the next invocation.
    """
    start = time.perf_counter()
    for i in itertools.count():
        traced = ctx.trace and i % 2 == 1
        cache = cache_for()
        if traced:
            path = ctx.trace_path()
            argv = ctx.traced(path, "--", *args)
        else:
            argv = ctx.cli(*args)
        inv = procs.invoke(argv, ctx.child_env(cache), ctx.work)
        out.tally.record(_exit_problem(inv, "repro"),
                         check(inv.stdout) if inv.code == 0 else None)
        if traced:
            out.traced_latencies_s.append(inv.wall_s)
            out.traces.append(path)
        else:
            out.latencies_s.append(inv.wall_s)
            out.cpu_s.append(inv.cpu_s)
            out.peak_rss_mb = max(out.peak_rss_mb, inv.peak_rss_mb)
            out.busy_s += inv.wall_s
        if time.perf_counter() - start >= ctx.seconds and i >= 1:
            break


# -- table3-cold ---------------------------------------------------------------

def table3_figures(stdout: bytes) -> tuple[str, ...]:
    """The four Table III error figures of a text report."""
    found = re.findall(rb"(Mean|Maximum) absolute error\s*\|\s*([\d.]+) %"
                       rb"\s*\|\s*([\d.]+) %", stdout)
    return tuple(v.decode() for _, energy, time_ in found
                 for v in (energy, time_))


def table3_cold(ctx: Context) -> Outcome:
    args = ["table3", "--scale", SCALE]
    out = Outcome(command=" ".join(args))
    # set-up is the preflight: import the package, fill the registry;
    # as many run at once as table3 has pool workers
    preflight = ctx.cli("workloads", "list", "--scale", SCALE)
    preflight_cache = ctx.fresh_cache()
    slots = [os.path.join(ctx.work, f"preflight-{i}")
             for i in range(int(ctx.env["REPRO_WORKERS"]))]
    for slot in slots:
        os.makedirs(slot)

    def preflight_in(slot: str) -> float:
        return _setup(ctx, preflight, preflight_cache,
                      "workload registry: 15 workloads", slot)

    want = REFERENCE["table3-cold"]
    caches: list[str] = []

    def check(stdout: bytes) -> str | None:
        figures = table3_figures(stdout)
        if figures != TABLE3_FIGURES:
            return f"Table III reads {figures}"
        got = _digest(stdout)
        return None if got == want else f"report digest {got[:12]}"

    def cache_for() -> str:
        while caches:                    # drop the previous cold cache
            shutil.rmtree(caches.pop(), ignore_errors=True)
        with ThreadPoolExecutor(len(slots)) as pool:
            for _ in range(PREFLIGHT_ROUNDS):
                out.setups_s.extend(pool.map(preflight_in, slots))
        caches.append(ctx.fresh_cache())
        return caches[-1]

    _measure_cli(ctx, out, args, check, cache_for)
    return out


# -- serve-price ---------------------------------------------------------------

def request_stream(seed: int, n: int = 4096) -> list[tuple[dict, bytes]]:
    """``n`` seeded ``/v1/price`` payloads over the warm set, cycled."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        payload = {"workload": rng.choice(SERVE_WORKLOADS),
                   "axes": {name: rng.choice(values)
                            for name, values in SERVE_AXES}}
        out.append((payload, json.dumps(payload).encode()))
    return out


async def _closed_loop(port: int, stream, seconds: float, tally: Tally,
                       latencies: list[float], kept: list) -> None:
    """``SERVE_CONNECTIONS`` clients, each sending its next request
    only after the previous response arrived."""
    cursor = itertools.cycle(stream)
    deadline = time.perf_counter() + seconds

    async def client():
        conn = procs.Connection("127.0.0.1", port)
        await conn.open()
        try:
            while time.perf_counter() < deadline:
                payload, body = next(cursor)
                sent = time.perf_counter()
                try:
                    status, reply = await conn.request("POST", "/v1/price",
                                                       body)
                except (OSError, asyncio.IncompleteReadError) as exc:
                    tally.record(f"connection: {exc!r}")
                    return
                latencies.append(time.perf_counter() - sent)
                if tally.record(None if status == 200
                                else f"HTTP {status}"):
                    kept.append((payload, reply))
        finally:
            await conn.close()

    await asyncio.wait_for(
        asyncio.gather(*(client() for _ in range(SERVE_CONNECTIONS))),
        seconds + WARM_TIMEOUT_S)


def _boot_and_warm(ctx: Context, cache: str,
                   traced_out: str | None = None) -> tuple:
    """Boot a server on ``cache`` and price every warm-set build once;
    returns (server, seconds from boot until all hot)."""
    args = ["serve", "--scale", SCALE, "--host", "127.0.0.1", "--port", "0"]
    argv = (ctx.traced(traced_out, "--", *args) if traced_out
            else ctx.cli(*args))
    start = time.perf_counter()
    server = procs.Server(argv, ctx.child_env(cache), f"{cache}.log")

    async def warm():
        conn = procs.Connection("127.0.0.1", server.port)
        await conn.open()
        try:
            for name in SERVE_WORKLOADS:
                for fpu in (False, True):
                    body = json.dumps({"workload": name,
                                       "axes": {"fpu": fpu}}).encode()
                    status, reply = await conn.request("POST", "/v1/price",
                                                       body)
                    if status != 200:
                        raise RuntimeError(f"warming {name} (fpu={fpu}) "
                                           f"-> HTTP {status}: {reply[:200]}")
        finally:
            await conn.close()

    try:
        asyncio.run(asyncio.wait_for(warm(), WARM_TIMEOUT_S))
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - start


def _close(server: procs.Server, out: Outcome) -> None:
    code = server.close()
    if code != 0:
        out.tally.fail(f"server exited {code} on SIGTERM")


def _boot_at_once(ctx: Context, out: Outcome,
                  caches: list[str]) -> list[procs.Server]:
    """One server per cache, booted and warmed at the same time; their
    set-up times go to ``out``.  If any fails, the others are closed."""
    with ThreadPoolExecutor(len(caches)) as pool:
        futures = [pool.submit(_boot_and_warm, ctx, cache)
                   for cache in caches]
    servers, failure = [], None
    for future in futures:
        try:
            server, took = future.result()
        except Exception as exc:        # closed below, then re-raised
            failure = failure or exc
            continue
        servers.append(server)
        out.setups_s.append(took)
    if failure is not None:
        for server in servers:
            _close(server, out)
        raise failure
    return servers


def _traced_server(ctx: Context, out: Outcome, stream, kept: list) -> str:
    """The traced half of a trace run: a traced server on a fresh cache
    whose set-up (boot, cold fills, one streamed sweep) and request phase
    are both recorded.  Returns the cache, now warm."""
    cache = ctx.fresh_cache()
    path = ctx.trace_path()
    server, took = _boot_and_warm(ctx, cache, path)
    out.setups_s.append(took)
    try:
        report = procs.request_json(server.port, "POST", "/v1/sweep",
                                    SERVE_SWEEP, WARM_TIMEOUT_S)
        if report["configs"] != SERVE_SWEEP_CONFIGS:
            raise RuntimeError(f"set-up sweep covers {report['configs']} "
                               f"configs, not {SERVE_SWEEP_CONFIGS}")
        server.signal(signal.SIGUSR1)
        time.sleep(0.05)
        asyncio.run(_closed_loop(server.port, stream, ctx.seconds / 2,
                                 out.tally, out.traced_latencies_s, kept))
        out.server_stats = procs.request_json(server.port, "GET",
                                              "/v1/stats")
    finally:
        _close(server, out)
    out.traces.append(path)
    return cache


def serve_price(ctx: Context) -> Outcome:
    """Untraced runs boot ``SERVE_SETUPS`` servers at once, each on a
    fresh cache, and measure against the last.  Trace runs measure a traced
    server first, then a plain ``repro serve`` on the cache it warmed,
    for the untraced half."""
    out = Outcome(command=f"repro serve --scale {SCALE} + "
                          f"{SERVE_CONNECTIONS}-connection closed loop of "
                          f"POST /v1/price")
    stream = request_stream(ctx.seed)
    kept: list = []
    if ctx.trace:
        cache = _traced_server(ctx, out, stream, kept)
        server, _ = _boot_and_warm(ctx, cache)
        phase = ctx.seconds / 2
    else:
        caches = [ctx.fresh_cache() for _ in range(SERVE_SETUPS)]
        *others, server = _boot_at_once(ctx, out, caches)
        for other in others:
            _close(other, out)
        cache = caches[-1]
        phase = ctx.seconds
    try:
        cpu0, _ = server.cpu_and_rss()
        start = time.perf_counter()
        asyncio.run(_closed_loop(server.port, stream, phase, out.tally,
                                 out.latencies_s, kept))
        out.busy_s = time.perf_counter() - start
        cpu1, rss = server.cpu_and_rss()
        out.cpu_s = [(cpu1 - cpu0) / max(1, len(out.latencies_s))]
        out.peak_rss_mb = rss
    finally:
        _close(server, out)
    rng = random.Random(ctx.seed)
    sample = rng.sample(kept, min(VERIFY_SAMPLE, len(kept)))
    points = [dict(json.loads(reply), axes=payload["axes"])
              for payload, reply in sample]
    for problem in reprice(ctx, cache, points):
        out.tally.fail(problem)
    out.notes["repriced"] = len(sample)
    return out


# -- the in-process oracle ---------------------------------------------------

def reprice(ctx: Context, cache: str, points: list[dict]) -> list[str]:
    """Re-price server responses one at a time, in-process.

    Profiles come from the run's warm result cache through
    ``stream_profiles``; each point is priced alone by a fresh
    ``BatchNfpEngine``.  Returns one message per mismatching point.
    """
    src = os.path.join(ctx.root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.dse.axes import DesignSpace
    from repro.dse.engine import config_area_les, stream_profiles
    from repro.experiments.scale import get_scale
    from repro.hw.config import HwConfig
    from repro.nfp.linear import BatchNfpEngine
    from repro.runner import ExperimentRunner
    from repro.vm.config import CoreConfig
    from repro.workloads import select

    scale = get_scale(SCALE)
    pairs = [spec.pair(scale)
             for spec in select(",".join(SERVE_WORKLOADS), scale)]
    base = HwConfig(name="leon3", core=CoreConfig(metered_blocks_enabled=True))
    vectors = stream_profiles(
        pairs, [False, True], budget=scale.max_instructions,
        runner=ExperimentRunner(cache_dir=cache, workers=1), base=base)
    problems = []
    for point in points:
        names = list(point["axes"])
        space = DesignSpace(tuple((n, (point["axes"][n],)) for n in names))
        config = space.config_for([point["axes"][n] for n in names], base)
        build = "float" if config.hw.core.has_fpu else "fixed"
        nfp = BatchNfpEngine([config.hw]).evaluate(
            vectors[(point["workload"], build)])[0]
        exact = (point["cycles"] == nfp.cycles
                 and point["retired"] == nfp.retired
                 and point["time_s"] == nfp.true_time_s
                 and point["area_les"] == config_area_les(config))
        close = (abs(point["energy_j"] - nfp.true_energy_j)
                 <= 1e-12 * abs(nfp.true_energy_j))
        if not (exact and close):
            problems.append(f"{point['workload']} @ {point['axes']} "
                            f"re-prices differently")
    return problems


WORKLOADS = {
    "table3-cold": table3_cold,
    "serve-price": serve_price,
}
