"""Per-layer metrics from trace files, per operation.

A CLI trace holds one invocation; every time and count is divided by the
number of traced invocations, so each metric reads "per invocation".

A server trace holds a traced set-up (boot, the cold profile fills and
one streamed ``/v1/sweep``), then, after a ``requests`` mark, a traced
phase of requests.  Its ``server.*``, ``hw.*``, ``nfp.batch_*`` and
``nfp.self_s`` metrics are per request of that phase; every other
metric describes the whole set-up, which is where a server builds,
simulates, caches and lowers profiles and where the sweep prices and
reduces its grid.

The ``<layer>.self_s`` metrics are the layers' self times: span
durations minus the time their child spans cover.
"""

from __future__ import annotations

import json

from spans import attr_sum, layer_self_times, span_totals

#: the repository's layers, as span-name prefixes
LAYERS = ("workloads", "kir", "asm", "runner", "hw", "nfp", "dse",
          "experiments", "server")

#: name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "workloads.build_s": "s", "workloads.programs": "count",
    "kir.codegen_s": "s", "asm.assemble_s": "s",
    "asm.instructions": "count", "runner.task_key_s": "s",
    "runner.cache_hits": "count", "runner.cache_misses": "count",
    "runner.cache_get_s": "s", "runner.cache_put_s": "s",
    "runner.pool_wait_s": "s", "runner.retries": "count",
    "runner.failed_tasks": "count",
    "vm.metered_retired": "count", "vm.metered_sim_s": "s",
    "vm.profiled_retired": "count", "vm.profiled_sim_s": "s",
    "vm.mips": "MIPS",
    "hw.area_calls": "count", "hw.area_s": "s",
    "nfp.lower_s": "s", "nfp.batch_eval_s": "s", "nfp.batch_rows": "count",
    "nfp.calibrate_s": "s",
    "dse.profiles_s": "s", "dse.price_reduce_s": "s", "dse.finalize_s": "s",
    "dse.configs": "count", "dse.front_size": "count",
    "dse.configs_per_s": "1/s",
    "experiments.import_s": "s", "experiments.render_s": "s",
    "experiments.report_bytes": "bytes",
    "server.parse_s": "s", "server.select_s": "s",
    "server.batch_wait_s": "s", "server.price_batch_s": "s",
    "server.mean_batch": "count", "server.p50_ms": "ms",
    "server.p99_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage_pct": "%", "trace.overhead_pct": "%",
}

#: metrics a server trace reports per request (the rest: per set-up)
PER_REQUEST = ("server.", "hw.", "nfp.batch_", "nfp.self_s")


def load(path: str) -> tuple[list[dict], dict, dict]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["traceEvents"], data["counters"], data["marks"]


def _layer_values(events: list[dict], counters: dict) -> dict[str, float]:
    """Summed (not yet per-operation) layer metrics of one trace."""
    totals = span_totals(events)

    def dur(name: str) -> float:
        return totals.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    hits = attr_sum(events, "runner.cache_get", "hit")
    retired = {mode: attr_sum(events, "runner.pool", f"{mode}_retired")
               for mode in ("metered", "profile", "fast")}
    sim_s = {mode: attr_sum(events, "runner.pool", f"{mode}_sim_s")
             for mode in ("metered", "profile", "fast")}
    # each request of a coalesced batch waited for that batch's pricing
    batch_share = sum(ev["dur"] / 1e6 * ev["args"].get("size", 1)
                      for ev in events if ev["name"] == "server.price_batch")
    out = {
        "workloads.build_s": dur("workloads.build"),
        "workloads.programs": calls("workloads.compile"),
        "kir.codegen_s": dur("kir.codegen"),
        "asm.assemble_s": dur("asm.assemble"),
        "asm.instructions": attr_sum(events, "asm.assemble", "instructions"),
        "runner.task_key_s": dur("runner.task_key"),
        "runner.cache_hits": hits,
        "runner.cache_misses": calls("runner.cache_get") - hits,
        "runner.cache_get_s": dur("runner.cache_get"),
        "runner.cache_put_s": dur("runner.cache_put"),
        "runner.pool_wait_s": dur("runner.pool"),
        "runner.retries": counters.get("runner.retries", 0),
        "runner.failed_tasks": attr_sum(events, "runner.pool", "failed"),
        "vm.metered_retired": retired["metered"],
        "vm.metered_sim_s": sim_s["metered"],
        "vm.profiled_retired": retired["profile"],
        "vm.profiled_sim_s": sim_s["profile"],
        "_retired": sum(retired.values()),
        "_sim_s": sum(sim_s.values()),
        "hw.area_calls": calls("hw.area"),
        "hw.area_s": dur("hw.area"),
        "nfp.lower_s": dur("nfp.lower"),
        "nfp.batch_eval_s": dur("nfp.batch_eval"),
        "nfp.batch_rows": attr_sum(events, "nfp.batch_eval", "rows"),
        "nfp.calibrate_s": dur("nfp.calibrate"),
        "dse.profiles_s": dur("dse.profiles"),
        "dse.price_reduce_s": dur("dse.price_reduce"),
        "dse.finalize_s": dur("dse.finalize"),
        "dse.configs": attr_sum(events, "dse.sweep", "configs"),
        "dse.front_size": attr_sum(events, "dse.finalize", "front_size"),
        "experiments.import_s": dur("experiments.import"),
        "experiments.render_s": dur("experiments.render"),
        "experiments.report_bytes": attr_sum(events, "experiments.render",
                                             "bytes"),
        "server.parse_s": dur("server.read") + dur("server.parse"),
        "server.select_s": dur("server.select"),
        "server.batch_wait_s": dur("server.batch_wait") - batch_share,
        "server.price_batch_s": dur("server.price_batch"),
        "_batches": calls("server.price_batch"),
        "_requests": calls("server.price"),
        # a request's server-side time: read from its first byte,
        # dispatch, response framing (none of them nests in another)
        "_served_s": (dur("server.read") + dur("server.dispatch")
                      + dur("server.respond")),
    }
    own = layer_self_times(events)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


def _finish(summed: dict[str, float]) -> None:
    """Derived rates, in place, from summed values."""
    summed["vm.mips"] = (summed["_retired"] / summed["_sim_s"] / 1e6
                         if summed["_sim_s"] else 0.0)
    price_s = summed["dse.price_reduce_s"]
    summed["dse.configs_per_s"] = (summed["dse.configs"] / price_s
                                   if price_s else 0.0)


def per_operation(traces: list[str], ops: int, op_wall_s: float,
                  server_stats: dict) -> tuple[dict[str, float],
                                               dict[str, float]]:
    """(per-layer metrics, per-layer self seconds) per operation.

    ``op_wall_s`` is the summed wall time of the traced operations (CLI
    invocations as the parent saw them, or requests as the client saw
    them); ``trace.coverage_pct`` is the share of it the layer spans
    cover.  For a server, the server's handling of each request counts
    as covered; the rest is transport and the client.
    """
    summed: dict[str, float] = {}
    setup: dict[str, float] = {}
    for path in traces:
        events, counters, marks = load(path)
        if "requests" in marks:         # a server: set-up, then requests
            setup = _layer_values(
                [ev for ev in events if ev["ts"] < marks["requests"]],
                counters)
            events, counters = [ev for ev in events
                                if ev["ts"] >= marks["requests"]], {}
        for name, value in _layer_values(events, counters).items():
            summed[name] = summed.get(name, 0.0) + value
    _finish(summed)
    ops = max(1, ops)
    metrics = {name: summed[name] / ops for name in METRICS if name in summed}
    metrics["vm.mips"] = summed["vm.mips"]
    metrics["dse.configs_per_s"] = summed["dse.configs_per_s"]
    if setup:
        _finish(setup)
        metrics.update((name, setup[name]) for name in setup
                       if name in METRICS and not name.startswith(PER_REQUEST))
        metrics["server.mean_batch"] = summed["_requests"] / max(
            1, summed["_batches"])
        covered = summed["_served_s"]
    else:
        metrics["server.mean_batch"] = 0.0
        covered = sum(summed[f"{layer}.self_s"] for layer in LAYERS)
    metrics["trace.coverage_pct"] = 100.0 * covered / op_wall_s
    latency = (server_stats.get("by_endpoint", {}).get("/v1/price", {})
               .get("latency") or {})
    metrics["server.p50_ms"] = latency.get("p50_ms", 0.0)
    metrics["server.p99_ms"] = latency.get("p99_ms", 0.0)
    metrics["trace.overhead_pct"] = 0.0         # set by the caller
    self_s = {layer: summed[f"{layer}.self_s"] / ops for layer in LAYERS}
    return metrics, self_s
