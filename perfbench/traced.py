"""Run one ``repro`` command with spans around each layer's public calls.

    python perfbench/traced.py OUT.json -- <repro args>

The launcher imports the package, replaces the layer-boundary functions
listed in :data:`TARGETS` with span-recording wrappers (every module
that bound the same function object by name gets the wrapper too), then
calls ``repro.cli.main`` and writes the spans to ``OUT.json`` as Chrome
trace events when it returns.  No file of the program is changed.  All
wrapped modules are imported up front, including ones the command may
never load itself (a traced ``repro table3`` also imports the server).

SIGUSR1 notes a ``requests`` mark in the file, so a traced server's
set-up can be told apart from the requests that follow it; ``repro
serve`` returns from ``main`` on SIGTERM, after which the file is
written.  A server request's ``server.read`` span starts when its first
bytes reach the connection's stream, not when the handler begins to
wait for them.

Simulation runs in pool workers, so the ``vm`` layer is read from the
payloads the runner gets back (``sim.retired``, ``sim.wall_seconds``),
split by task mode.
"""

from __future__ import annotations

import asyncio
import importlib
import itertools
import logging
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import TRACE_ID, Tracer  # noqa: E402

TRACER = Tracer()


def _n_tasks(result, args, kwargs):
    return {"tasks": len(args[1])}


def _pool_payloads(result, args, kwargs):
    """Simulated instructions and simulator seconds per task mode."""
    from repro.runner.resilience import is_failure
    out = {"tasks": len(args[1])}
    for task, payload in zip(args[1], result or ()):
        if is_failure(payload):
            out["failed"] = out.get("failed", 0) + 1
            continue
        sim = payload.get("sim")
        if sim is None:          # shard pricing tasks carry no simulation
            continue
        mode = task.mode
        out[f"{mode}_retired"] = out.get(f"{mode}_retired", 0) \
            + sim["retired"]
        out[f"{mode}_sim_s"] = out.get(f"{mode}_sim_s", 0.0) \
            + sim["wall_seconds"]
    return out


def _cache_hit(result, args, kwargs):
    return {"hit": int(result is not None)}


def _instructions(result, args, kwargs):
    return {"instructions": len(result.text) // 4}


def _rows(result, args, kwargs):
    return {"rows": len(args[1])}


def _configs(result, args, kwargs):
    return {"configs": args[0].size}


def _front(result, args, kwargs):
    return {"front_size": result.front_size} if args[1] == "*" else {}


def _report_bytes(result, args, kwargs):
    return {"bytes": len(result.encode("utf-8"))}


def _batch(result, args, kwargs):
    return {"size": len(args[0])}


#: (module, attribute or Class.method, span name, attribute extractor)
TARGETS = (
    ("repro.workloads.registry", "WorkloadSpec.program", "workloads.build",
     None),
    ("repro.workloads.pipeline", "_invocation_program", "workloads.build",
     None),
    ("repro.kir.codegen", "compile_module", "workloads.compile", None),
    ("repro.kir.codegen", "generate_assembly", "kir.codegen", None),
    ("repro.asm.assembler", "assemble", "asm.assemble", _instructions),
    ("repro.runner.tasks", "task_key", "runner.task_key", None),
    ("repro.runner.pool", "ExperimentRunner.run_tasks", "runner.run_tasks",
     _n_tasks),
    ("repro.runner.cache", "ResultCache.get", "runner.cache_get",
     _cache_hit),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put", None),
    ("repro.runner.resilience", "ResilientExecutor.run", "runner.pool",
     _pool_payloads),
    ("repro.dse.engine", "config_area_les", "hw.area", None),
    ("repro.dse.evaluate", "composed_vectors", "nfp.lower", None),
    ("repro.nfp.linear", "BatchNfpEngine.__init__", "nfp.batch_eval",
     _rows),
    ("repro.nfp.linear", "BatchNfpEngine.evaluate", "nfp.batch_eval", None),
    ("repro.experiments.setup", "get_bench", "nfp.calibrate", None),
    ("repro.dse.engine", "sweep_streamed", "dse.sweep", _configs),
    ("repro.dse.engine", "stream_profiles", "dse.profiles", None),
    ("repro.dse.stream", "_FastSweep.run", "dse.price_reduce", None),
    ("repro.dse.stream", "_FastSweep.workload_front", "dse.finalize",
     _front),
    ("repro.experiments.dse", "run", "experiments.dse", None),
    ("repro.experiments.table3", "run", "experiments.table3", None),
    ("repro.experiments.dse", "DseStreamResult.render",
     "experiments.render", _report_bytes),
    ("repro.experiments.table3", "Table3Result.render",
     "experiments.render", _report_bytes),
    ("repro.server.httpio", "read_request", "server.read", None),
    ("repro.server.httpio", "response_bytes", "server.respond", None),
    ("repro.server.schemas", "parse_json", "server.parse", None),
    ("repro.server.schemas", "price_request", "server.parse", None),
    ("repro.server.app", "EvalServer._dispatch", "server.dispatch", None),
    ("repro.server.app", "EvalServer._price", "server.price", None),
    ("repro.server.app", "EvalServer._workload_spec", "server.select",
     None),
    ("repro.server.batching", "PriceBatcher.submit", "server.batch_wait",
     None),
    ("repro.server.batching", "price_batch", "server.price_batch", _batch),
)

_REQUESTS = itertools.count(1)


def _stamp_arrivals() -> None:
    """Note on each stream reader when the first bytes of its next
    request arrive (the clients wait for each reply, so a request never
    arrives while the previous one is being read)."""
    feed = asyncio.StreamReader.feed_data

    def feed_data(self, data):
        if data and getattr(self, "perfbench_arrived", None) is None:
            self.perfbench_arrived = time.perf_counter()
        feed(self, data)
    asyncio.StreamReader.feed_data = feed_data


def _read_request(fn):
    """``read_request`` with its own trace id per request, and a
    ``server.read`` span from the request's first byte to its return:
    the idle wait on a keep-alive connection is not server work."""
    async def read_request(reader, *args, **kwargs):
        TRACE_ID.set(next(_REQUESTS))
        request = await fn(reader, *args, **kwargs)
        arrived = getattr(reader, "perfbench_arrived", None)
        reader.perfbench_arrived = None
        if TRACER.enabled and request is not None and arrived is not None:
            TRACER.add("server.read", arrived, time.perf_counter())
        return request
    return read_request


def install() -> None:
    """Wrap every target."""
    _stamp_arrivals()
    for module_name, attr, span, attrs in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:                          # a method: patch the class
            owner = getattr(module, owner_name)
            setattr(owner, name,
                    TRACER.wrap(span, owner.__dict__[name], attrs))
            continue
        original = getattr(module, name)
        wrapped = (_read_request(original) if span == "server.read"
                   else TRACER.wrap(span, original, attrs))
        # every module that bound the same object by name (``from x
        # import f``) calls through its own binding
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)


class _RunnerEvents(logging.Handler):
    """Counts ``repro.runner`` retry events (give-ups are counted from
    the failure payloads)."""

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("event=retry"):
            TRACER.count("runner.retries")


def main(argv: list[str]) -> int:
    out, rest = argv[0], argv[1:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    TRACER.enabled = True
    signal.signal(signal.SIGUSR1, lambda *_: TRACER.mark("requests"))
    TRACE_ID.set(os.getpid())           # one id per invocation
    root = TRACER.begin("cli")
    handle = TRACER.begin("experiments.import")
    importlib.import_module("repro.cli")
    for module_name in dict.fromkeys(target[0] for target in TARGETS):
        importlib.import_module(module_name)
    TRACER.end("experiments.import", handle)
    install()
    logger = logging.getLogger("repro.runner")
    logger.addHandler(_RunnerEvents())
    from repro.cli import main as cli_main
    try:
        return cli_main(rest)
    finally:
        TRACER.end("cli", root, {"argv0": rest[0] if rest else ""})
        TRACER.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
