"""Benchmark: profiled vs metered DSE sweep (the PR-3 smoke grid).

The metered rung measures the full smoke design-space exploration --
36 candidate platforms x 6 workload pairs, one metered simulation (a
profiled run priced for its platform) per point, through
``sweep(..., metered=True)`` -- cold: a fresh cacheless runner per
round, so every point is computed.  The profiled rung runs the
identical grid through ``sweep``: one profile simulation per distinct
workload build (12 for the smoke suite) plus a linear evaluation per
point.

``benchmarks/check_floor.py`` enforces the relative floor between the
two rungs (>= 10x); the exactness contract (bit-identical integer
counters/cycles, energy to 1e-12 relative) is pinned by
``tests/test_profile.py``, not re-checked here.

Both rungs run with ``workers=1``: on multi-core machines the pool
accelerates both sweeps roughly equally, so the single-process ratio is
the honest algorithmic speedup and is machine-independent.

Both carry the ``showcase`` marker (the metered side alone costs minutes
of simulation), so plain test sweeps skip them; ``run_bench.py`` sets
``REPRO_RUN_SHOWCASE=1`` and records both, and CI's bench-smoke job
enforces the floor on the recorded pair.
"""

from __future__ import annotations

import pytest

from repro.dse import DesignSpace, sweep
from repro.experiments.workloads import workload_pairs
from repro.runner import ExperimentRunner


@pytest.fixture(scope="module")
def grid_inputs(scale):
    """The smoke sweep inputs, with workload programs pre-built."""
    return DesignSpace.default(), workload_pairs(scale)


def _cold_runner():
    # no cache directory: every round recomputes every simulation
    return ExperimentRunner(cache_dir=None, workers=1)


@pytest.mark.showcase
def test_dse_sweep_throughput_metered(benchmark, grid_inputs, scale):
    """One metered simulation per (config, workload) point, cold."""
    space, pairs = grid_inputs

    def run():
        return sweep(space, pairs, budget=scale.max_instructions,
                     runner=_cold_runner(), metered=True)

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.points) == space.size * len(pairs)
    benchmark.extra_info["points"] = len(grid.points)
    benchmark.extra_info["configs"] = space.size
    benchmark.extra_info["retired"] = sum(p.retired for p in grid.points)


@pytest.mark.showcase
def test_dse_sweep_throughput_profiled(benchmark, grid_inputs, scale):
    """One profiled simulation per workload build + linear evaluation."""
    space, pairs = grid_inputs

    def run():
        return sweep(space, pairs, budget=scale.max_instructions,
                     runner=_cold_runner())

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.points) == space.size * len(pairs)
    benchmark.extra_info["points"] = len(grid.points)
    benchmark.extra_info["configs"] = space.size
    # every build of every pair profiles exactly once
    benchmark.extra_info["profiled_runs"] = 2 * len(pairs)
