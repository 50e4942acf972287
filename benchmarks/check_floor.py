#!/usr/bin/env python3
"""Throughput regression guard over a trimmed ``BENCH_*.json`` report.

CI's bench-smoke job runs ``run_bench.py`` and then this checker.  Two
kinds of floors keep the PR-1/PR-2/PR-4 fast paths honest (the
profile-once floor is enforced twice: over the Table III preset and
over the PR-5 imaging-family rung):

* an *absolute* simulated-MIPS floor for the fast ISS loop -- set very
  conservatively (CI runners are slow and noisy), it only catches
  catastrophic regressions such as block translation silently turning
  off;
* *relative* speedup floors between each fast path and its recorded
  per-instruction A/B baseline from the same run -- machine-independent,
  so they catch "the fast path stopped being fast" on any hardware.  The
  batch floor compares median configs/sec between the streamed
  million-config sweep and the faithful per-point baseline sweep, the
  PR-8 server floor bounds warm ``/v1/price`` throughput from below
  and its client-side p99 latency from above, the shard floor
  compares configs/sec between the sharded and serial streamed sweep
  (enforced only when the recorded run had 4+ shards worth of cores;
  smaller runners record the honest ratio without failing), and the
  PR-10 pipeline floor compares the composed-profile pipeline sweep
  against metering every stage invocation of the frame stream.

Exit status is non-zero when any floor is violated or a required rung is
missing from the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def find_entry(suites: dict, test_name: str) -> dict | None:
    """The trimmed entry whose pytest id ends in ``::<test_name>``."""
    for fullname, entry in suites.items():
        if fullname.endswith(f"::{test_name}"):
            return entry
    return None


def median_s(entry: dict) -> float:
    """The entry's median round (its mean in snapshots without one)."""
    return entry.get("median_s", entry["mean_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path,
                        help="trimmed BENCH_*.json written by run_bench.py")
    parser.add_argument("--min-mips", type=float, default=2.0,
                        help="absolute floor for fast-ISS simulated MIPS "
                             "(default: %(default)s)")
    parser.add_argument("--min-block-speedup", type=float, default=2.0,
                        help="fast ISS blocks-vs-per-instruction wall "
                             "speedup floor (default: %(default)sx)")
    parser.add_argument("--min-metered-speedup", type=float, default=1.5,
                        help="testbed profile+price vs stepwise-oracle "
                             "wall speedup floor (default: %(default)sx)")
    parser.add_argument("--min-dse-profile-speedup", type=float,
                        default=10.0,
                        help="profiled-vs-metered DSE sweep wall speedup "
                             "floor (default: %(default)sx)")
    parser.add_argument("--min-pipeline-speedup", type=float, default=20.0,
                        help="composed-vs-metered pipeline sweep wall "
                             "speedup floor (default: %(default)sx)")
    parser.add_argument("--min-batch-speedup", type=float, default=100.0,
                        help="streamed batch pricing vs per-point sweep "
                             "median configs/sec ratio floor (default: "
                             "%(default)sx)")
    parser.add_argument("--min-shard-scaling", type=float, default=3.0,
                        help="sharded vs serial streamed-sweep configs/sec "
                             "ratio floor, enforced only when the recorded "
                             "run had >= 4 shards (default: %(default)sx)")
    parser.add_argument("--min-server-qps", type=float, default=20.0,
                        help="warm-profile /v1/price throughput floor in "
                             "requests/sec (default: %(default)s)")
    parser.add_argument("--max-server-p99-ms", type=float, default=500.0,
                        help="client-side /v1/price p99 latency ceiling "
                             "in ms over the measured rounds (default: "
                             "%(default)s)")
    args = parser.parse_args(argv)

    suites = json.loads(args.report.read_text())["suites"]
    failures: list[str] = []

    def require(test_name: str) -> dict | None:
        entry = find_entry(suites, test_name)
        if entry is None:
            failures.append(f"required rung {test_name!r} missing "
                            f"from {args.report}")
        return entry

    iss = require("test_iss_throughput")
    iss_slow = require("test_iss_throughput_per_instruction")
    metered = require("test_metered_throughput")
    metered_slow = require("test_metered_throughput_per_instruction")
    dse_profiled = require("test_dse_sweep_throughput_profiled")
    dse_metered = require("test_dse_sweep_throughput_metered")
    img_profiled = require("test_imaging_sweep_throughput_profiled")
    img_metered = require("test_imaging_sweep_throughput_metered")
    pipe_metered = require("test_pipeline_sweep_throughput_metered")
    pipe_composed = require("test_pipeline_sweep_throughput_composed")
    batch_streamed = require("test_batch_eval_throughput_streamed")
    batch_per_point = require("test_batch_eval_throughput_per_point")
    server = require("test_server_price_throughput")
    shard_serial = require("test_shard_sweep_throughput_serial")
    shard_sharded = require("test_shard_sweep_throughput_sharded")

    if iss is not None:
        mips = float(iss.get("mips", 0.0))
        print(f"fast ISS            : {mips:8.2f} simulated MIPS "
              f"(floor {args.min_mips})")
        if mips < args.min_mips:
            failures.append(
                f"fast ISS throughput {mips:.2f} MIPS is below the "
                f"{args.min_mips} MIPS floor")
    if iss is not None and iss_slow is not None:
        speedup = iss_slow["mean_s"] / iss["mean_s"]
        print(f"block translation   : {speedup:8.2f}x vs per-instruction "
              f"(floor {args.min_block_speedup}x)")
        if speedup < args.min_block_speedup:
            failures.append(
                f"superblock ISS speedup {speedup:.2f}x is below the "
                f"{args.min_block_speedup}x floor")
    if metered is not None and metered_slow is not None:
        speedup = metered_slow["mean_s"] / metered["mean_s"]
        print(f"profile + price     : {speedup:8.2f}x vs stepwise oracle "
              f"(floor {args.min_metered_speedup}x)")
        if speedup < args.min_metered_speedup:
            failures.append(
                f"profile + price speedup {speedup:.2f}x is below the "
                f"{args.min_metered_speedup}x floor")
    for tag, rung_metered, rung_profiled in (
            ("DSE", dse_metered, dse_profiled),
            ("imaging", img_metered, img_profiled)):
        if rung_metered is None or rung_profiled is None:
            continue
        speedup = rung_metered["mean_s"] / rung_profiled["mean_s"]
        print(f"{f'profile-once {tag}':<20}: {speedup:8.2f}x vs metered "
              f"sweep (floor {args.min_dse_profile_speedup}x)")
        if speedup < args.min_dse_profile_speedup:
            failures.append(
                f"profiled {tag} sweep speedup {speedup:.2f}x is below "
                f"the {args.min_dse_profile_speedup}x floor")
    if pipe_metered is not None and pipe_composed is not None:
        speedup = pipe_metered["mean_s"] / pipe_composed["mean_s"]
        print(f"composed pipelines  : {speedup:8.2f}x vs metered stream "
              f"sweep (floor {args.min_pipeline_speedup}x)")
        if speedup < args.min_pipeline_speedup:
            failures.append(
                f"composed pipeline sweep speedup {speedup:.2f}x is "
                f"below the {args.min_pipeline_speedup}x floor")
    if batch_streamed is not None and batch_per_point is not None:
        # the rungs sweep different-sized spaces on purpose (10^6 vs a
        # 2,000-config subspace), so the machine-independent figure is
        # the configs/sec ratio, not a wall-clock ratio; each rung runs
        # several rounds and the ratio takes their medians, which one
        # slow round cannot move
        streamed_rate = (float(batch_streamed["configs"])
                         / median_s(batch_streamed))
        per_point_rate = (float(batch_per_point["configs"])
                          / median_s(batch_per_point))
        speedup = streamed_rate / per_point_rate
        print(f"batch NFP pricing   : {speedup:8.2f}x configs/sec vs "
              f"per-point sweep (floor {args.min_batch_speedup}x)")
        if speedup < args.min_batch_speedup:
            failures.append(
                f"streamed batch pricing {speedup:.2f}x configs/sec is "
                f"below the {args.min_batch_speedup}x floor")
    if shard_serial is not None and shard_sharded is not None:
        shards = int(shard_sharded.get("shards", 0))
        serial_rate = float(shard_serial["configs"]) / shard_serial["mean_s"]
        sharded_rate = (float(shard_sharded["configs"])
                        / shard_sharded["mean_s"])
        scaling = sharded_rate / serial_rate
        if shards >= 4:
            print(f"sharded sweep       : {scaling:8.2f}x configs/sec vs "
                  f"serial at {shards} shards "
                  f"(floor {args.min_shard_scaling}x)")
            if scaling < args.min_shard_scaling:
                failures.append(
                    f"sharded sweep scaling {scaling:.2f}x at {shards} "
                    f"shards is below the {args.min_shard_scaling}x floor")
        else:
            # too few cores to demand 3x: record, don't enforce
            print(f"sharded sweep       : {scaling:8.2f}x configs/sec vs "
                  f"serial at {shards} shards (floor skipped: needs >= 4)")
    if server is not None:
        qps = float(server.get("qps", 0.0))
        p99_ms = float(server.get("p99_ms", float("inf")))
        print(f"server /v1/price    : {qps:8.2f} req/s "
              f"(floor {args.min_server_qps}), p99 {p99_ms:.1f} ms "
              f"(ceiling {args.max_server_p99_ms})")
        if qps < args.min_server_qps:
            failures.append(
                f"server price throughput {qps:.2f} req/s is below the "
                f"{args.min_server_qps} req/s floor")
        if p99_ms > args.max_server_p99_ms:
            failures.append(
                f"server price p99 {p99_ms:.1f} ms is above the "
                f"{args.max_server_p99_ms} ms ceiling")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all throughput floors hold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
