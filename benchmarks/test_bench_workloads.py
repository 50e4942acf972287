"""Benchmark: profiled vs metered sweep over the imaging rung.

The PR-5 counterpart of ``test_bench_dse_profile``: the same stock
design space (36 candidate platforms), but over the new image-processing
workloads -- the 3x3 Sobel convolution and the histogram/statistics
kernel, both through the registry (``img:sobel3x3,img:histstats``).  The
metered rung pays one simulation per (config, workload) point, cold;
the profiled rung profiles each distinct build once (4
profile runs) and prices every point with the linear evaluator.

``benchmarks/check_floor.py`` enforces the same profiled-vs-metered
speedup floor on this pair as on the Table III rung, so the profile-once
fast path stays honest over the enlarged workload set; exactness over
the imaging family is pinned by ``tests/test_workloads.py``.

Both rungs run single-process and cacheless per round (see
``test_bench_dse_profile`` for why that ratio is the machine-independent
algorithmic speedup), and both carry the ``showcase`` marker.
"""

from __future__ import annotations

import pytest

from repro.dse import DesignSpace, sweep
from repro.runner import ExperimentRunner
from repro.workloads import select_pairs

WORKLOADS = "img:sobel3x3,img:histstats"


@pytest.fixture(scope="module")
def imaging_inputs(scale):
    """The imaging sweep inputs, with workload programs pre-built."""
    return DesignSpace.default(), select_pairs(WORKLOADS, scale)


def _cold_runner():
    # no cache directory: every round recomputes every simulation
    return ExperimentRunner(cache_dir=None, workers=1)


@pytest.mark.showcase
def test_imaging_sweep_throughput_metered(benchmark, imaging_inputs, scale):
    """One metered simulation per (config, imaging workload) point."""
    space, pairs = imaging_inputs

    def run():
        return sweep(space, pairs, budget=scale.max_instructions,
                     runner=_cold_runner(), metered=True)

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.points) == space.size * len(pairs)
    benchmark.extra_info["points"] = len(grid.points)
    benchmark.extra_info["configs"] = space.size
    benchmark.extra_info["retired"] = sum(p.retired for p in grid.points)


@pytest.mark.showcase
def test_imaging_sweep_throughput_profiled(benchmark, imaging_inputs, scale):
    """One profiled simulation per imaging build + linear evaluation."""
    space, pairs = imaging_inputs

    def run():
        return sweep(space, pairs, budget=scale.max_instructions,
                     runner=_cold_runner())

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.points) == space.size * len(pairs)
    benchmark.extra_info["points"] = len(grid.points)
    benchmark.extra_info["configs"] = space.size
    # every build of every pair profiles exactly once
    benchmark.extra_info["profiled_runs"] = 2 * len(pairs)
