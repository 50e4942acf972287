#!/usr/bin/env python3
"""Run the benchmark suites and record a trimmed perf snapshot.

Runs the micro + figure benchmarks under ``pytest-benchmark`` with
``--benchmark-json``, then trims the (large) raw report down to the
numbers the perf trajectory cares about -- mean and median wall seconds
per benchmark and the simulated-MIPS extra where a benchmark reports one --
and writes them to ``BENCH_<n>.json`` next to this script (``<n>``
auto-increments so successive PRs leave a comparable series).

Usage::

    python benchmarks/run_bench.py            # micro + figure suites
    python benchmarks/run_bench.py --all      # every benchmark suite
    python benchmarks/run_bench.py --out BENCH_x.json -k iss
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: the default tracked suites: substrate micro-costs + the figure drivers
#: + the runner-cache warm/cold rungs + the profile-once DSE sweep pairs
#: (Table III preset and the imaging-family rung)
DEFAULT_SUITES = (
    "test_bench_micro.py",
    "test_bench_figure1_landscape.py",
    "test_bench_figure4_showcase.py",
    "test_bench_runner_cache.py",
    "test_bench_dse_profile.py",
    "test_bench_workloads.py",
    "test_bench_batch_eval.py",
    "test_bench_server.py",
    "test_bench_shard_scaling.py",
    "test_bench_pipeline.py",
)


def next_output_path() -> Path:
    taken = []
    for path in BENCH_DIR.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            taken.append(int(match.group(1)))
    return BENCH_DIR / f"BENCH_{max(taken, default=0) + 1}.json"


def trim(raw: dict) -> dict:
    """Keep per-benchmark mean and median seconds plus the informative
    extras."""
    suites: dict[str, dict] = {}
    for bench in raw.get("benchmarks", []):
        entry: dict[str, object] = {
            "mean_s": bench["stats"]["mean"],
            "median_s": bench["stats"]["median"],
            "rounds": bench["stats"]["rounds"],
        }
        extra = bench.get("extra_info") or {}
        for key in ("mips", "retired", "cycles", "translated_blocks",
                    "points", "configs",
                    "profiled_runs", "frames", "qps", "p50_ms", "p99_ms",
                    "requests", "shards", "cpus"):
            if key in extra:
                entry[key] = extra[key]
        suites[bench["fullname"]] = entry
    return {
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "python": raw.get("machine_info", {}).get("python_version", ""),
        "datetime": raw.get("datetime", ""),
        "suites": suites,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true",
                        help="run every benchmark suite, not just the "
                             "micro + figure defaults")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: next BENCH_<n>.json)")
    parser.add_argument("-k", default=None,
                        help="pytest -k expression forwarded to the run")
    parser.add_argument("--scale", default=None,
                        help="REPRO_SCALE for the run (smoke/default/full)")
    args = parser.parse_args(argv)

    targets = [str(BENCH_DIR)] if args.all else [
        str(BENCH_DIR / name) for name in DEFAULT_SUITES]

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if args.scale:
        env["REPRO_SCALE"] = args.scale
    # the recorded run includes the showcase bench and measures honest
    # cold-compute numbers: a fresh result-cache directory per invocation
    # (removed afterwards unless the caller pinned one)
    env["REPRO_RUN_SHOWCASE"] = "1"
    scratch_cache = None
    if "REPRO_CACHE_DIR" not in env:
        scratch_cache = tempfile.mkdtemp(prefix="repro-bench-")
        env["REPRO_CACHE_DIR"] = scratch_cache

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        raw_path = Path(handle.name)
    try:
        cmd = [sys.executable, "-m", "pytest", *targets, "-q",
               f"--benchmark-json={raw_path}"]
        if args.k:
            cmd += ["-k", args.k]
        status = subprocess.run(cmd, env=env, cwd=REPO_ROOT).returncode
        if status != 0:
            print(f"benchmark run failed with status {status}",
                  file=sys.stderr)
            return status
        raw = json.loads(raw_path.read_text())
    finally:
        raw_path.unlink(missing_ok=True)
        if scratch_cache is not None:
            shutil.rmtree(scratch_cache, ignore_errors=True)

    trimmed = trim(raw)
    # fail loudly instead of recording a hollow snapshot: a rung that
    # silently stops producing JSON (deselected, skipped, renamed) would
    # otherwise vanish from the perf trajectory unnoticed
    if not trimmed["suites"]:
        print("no benchmarks recorded: the run produced an empty report",
              file=sys.stderr)
        return 1
    if not args.k:
        # the tracked suites must each contribute at least one rung
        # (with --all the extra suites may legitimately skip, but the
        # tracked trajectory still has to be complete)
        missing = [name for name in DEFAULT_SUITES
                   if not any(name in fullname
                              for fullname in trimmed["suites"])]
        if missing:
            for name in missing:
                print(f"suite {name} produced no benchmark JSON "
                      "(skipped or deselected?)", file=sys.stderr)
            return 1

    out_path = args.out or next_output_path()
    out_path.write_text(json.dumps(trimmed, indent=2, sort_keys=True)
                        + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
