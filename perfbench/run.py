"""The repository benchmark: one workload per call, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each call sets up its workload (timed
as ``setup_s``), repeats the workload's operation for ``--seconds``,
checks every output, and prints one JSON object as the last line of
standard output:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json, tracing off;
- ``--trace 1``: the per-layer metrics, from operations run under
  ``perfbench/traced.py``, next to as many run without it, so the
  tracing overhead is measured in the same run.  Trace files (Chrome
  trace-event JSON) stay under ``.perfbench/traces/``.

A readable summary, the environment record and (with ``--trace 1``) the
per-layer self-time table go to standard error; the same record is kept
as ``.perfbench/results/<workload>-seed<N>-trace<T>.json``.  The seed
picks the serve-price request stream; table3-cold has fixed inputs.
See ``workloads.py`` for what each workload runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402
from stats import tail_percentile  # noqa: E402

#: end-to-end metrics: name -> unit
END_TO_END = {
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
WORKERS_CAP = 2


def _commit(root: str) -> str:
    """The checkout's commit, when it is a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="ascii") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root: str, seed: int, workers: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "REPRO_WORKERS": workers,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": _commit(root),
        "seed": seed,
    }


def end_to_end(out: workloads.Outcome) -> dict[str, float]:
    return {
        "latency_ms": statistics.median(out.latencies_s) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
        "setup_s": statistics.median(out.setups_s),
    }


def per_layer(out: workloads.Outcome) -> tuple[dict, dict]:
    ops = len(out.traced_latencies_s)
    metrics, self_s = layers.per_operation(
        out.traces, ops, sum(out.traced_latencies_s), out.server_stats)
    untraced = statistics.median(out.latencies_s)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(out.traced_latencies_s) - untraced) / untraced
    return metrics, self_s


def layer_table(name: str, metrics: dict, self_s: dict,
                op_wall_s: float) -> str:
    lines = [f"per-layer self time, {name} (per operation, traced wall "
             f"{op_wall_s * 1e3:.3f} ms)"]
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if seconds:
            lines.append(f"  {layer:<12} {seconds * 1e3:12.3f} ms "
                         f"{100 * seconds / op_wall_s:6.1f} %")
    coverage = metrics["trace.coverage_pct"]
    flag = "" if coverage >= 90.0 else "   << below 90%: layers unaccounted"
    lines.append(f"  coverage {coverage:.1f} %, tracing overhead "
                 f"{metrics['trace.overhead_pct']:+.1f} %{flag}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    if os.environ.get("REPRO_CHAOS"):
        print("error: REPRO_CHAOS is set; fault injection would make the "
              "timings meaningless", file=sys.stderr)
        return 2

    workers = min(WORKERS_CAP, len(os.sched_getaffinity(0)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(root, "src"),
               REPRO_WORKERS=str(workers))
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"run-{os.getpid()}")
    trace_dir = os.path.join(base, "traces")
    results = os.path.join(base, "results")
    for path in (work, trace_dir, results):
        os.makedirs(path, exist_ok=True)
    ctx = workloads.Context(workload=args.workload, root=root, work=work,
                            trace_dir=trace_dir, env=env, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace))
    started = time.perf_counter()
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {args.workload}: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out.latencies_s:
        print(f"error: {args.workload}: no operation completed "
              f"({'; '.join(out.tally.reasons)})", file=sys.stderr)
        return 1

    if args.trace:
        values, self_s = per_layer(out)
        units = layers.METRICS
    else:
        values, self_s = end_to_end(out), {}
        units = END_TO_END
    record = {
        "workload": args.workload,
        "command": out.command,
        "environment": environment(root, args.seed, workers),
        "operations": len(out.latencies_s),
        "operations_per_s": len(out.latencies_s) / out.busy_s,
        "setups_s": out.setups_s,
        "cpu_ms": statistics.median(out.cpu_s) * 1e3,
        "traced_operations": len(out.traced_latencies_s),
        "fail_ratio": out.tally.fail_ratio,
        "failures": out.tally.reasons,
        "run_s": time.perf_counter() - started,
        "notes": out.notes,
    }
    tail = tail_percentile(out.latencies_s)
    if tail:
        record["tail"] = {"percentile": tail[0], "ms": tail[1] * 1e3,
                          "samples": tail[2]}
    else:           # too few for a tail: every CLI invocation, in order
        record["latencies_ms"] = [s * 1e3 for s in out.latencies_s]
    if args.trace:
        record["self_s"] = self_s
        record["traces"] = [os.path.relpath(p, root) for p in out.traces]
    result = {
        "correct": out.tally.failed == 0,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(record, result=result), handle, indent=2)
    print(json.dumps(record, indent=2), file=sys.stderr)
    if args.trace:
        ops = len(out.traced_latencies_s)
        print(layer_table(args.workload, values, self_s,
                          sum(out.traced_latencies_s) / ops),
              file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
