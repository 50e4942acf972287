"""Benchmark: composed vs metered pipeline sweep (the PR-10 rungs).

The metered rung sweeps the XFEL frame pipeline across a 45-platform
space (nwindows x wait-states x clock; the FPU is pinned so there is a
single build) by metering every stage invocation of the stream on every
candidate -- cold, cacheless, one full simulation per (config,
invocation).  The composed rung runs the identical sweep on the profile
algebra: one profile simulation per distinct stage invocation build,
then every platform is priced by composing the per-invocation profiles
(:func:`repro.nfp.linear.compose_profiles`) and batch-evaluating the
result -- no further simulation, whatever the config count.

``benchmarks/check_floor.py`` enforces the relative floor between the
rungs (>= 20x); the exactness contract (bit-identical cycles/retired,
energy to 1e-12 relative) is pinned by ``tests/test_pipeline.py``, not
re-checked here.

Both rungs run with ``workers=1``: the pool accelerates both sweeps
roughly equally, so the single-process ratio is the honest algorithmic
speedup and is machine-independent.  Both carry the ``showcase`` marker
(the metered side simulates the stage chain hundreds of times), so
plain test sweeps skip them; ``run_bench.py`` sets
``REPRO_RUN_SHOWCASE=1`` and records both, and CI's bench-smoke job
enforces the floor on the recorded pair.
"""

from __future__ import annotations

import pytest

from repro.dse import DesignSpace, sweep
from repro.runner import ExperimentRunner
from repro.workloads.pipeline import XFEL, pipeline_pair

#: the FPU is pinned (single build) so the rung ratio isolates the
#: per-config cost: metered re-simulates the stream on all 45 platforms,
#: composed prices them from one profile set
SPACE = DesignSpace.from_spec(
    "nwindows=2:4:8,wait_states=0:1:2,clock_mhz=25:50:80:120:160")


@pytest.fixture(scope="module")
def pipeline_inputs(scale):
    """The pipeline sweep inputs, with invocation programs pre-built."""
    return SPACE, [pipeline_pair(XFEL, scale)]


def _cold_runner():
    # no cache directory: every round recomputes every simulation
    return ExperimentRunner(cache_dir=None, workers=1)


@pytest.mark.showcase
def test_pipeline_sweep_throughput_metered(benchmark, pipeline_inputs,
                                           scale):
    """Every stage invocation metered on every candidate platform."""
    space, pairs = pipeline_inputs

    def run():
        return sweep(space, pairs, budget=scale.max_instructions,
                     runner=_cold_runner(), metered=True)

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.points) == space.size and not grid.failures
    benchmark.extra_info["points"] = len(grid.points)
    benchmark.extra_info["configs"] = space.size
    benchmark.extra_info["frames"] = XFEL.frames
    benchmark.extra_info["retired"] = sum(p.retired for p in grid.points)


@pytest.mark.showcase
def test_pipeline_sweep_throughput_composed(benchmark, pipeline_inputs,
                                            scale):
    """One profile per invocation build, composition prices the rest."""
    space, pairs = pipeline_inputs

    def run():
        return sweep(space, pairs, budget=scale.max_instructions,
                     runner=_cold_runner())

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.points) == space.size and not grid.failures
    benchmark.extra_info["points"] = len(grid.points)
    benchmark.extra_info["configs"] = space.size
    benchmark.extra_info["frames"] = XFEL.frames
    benchmark.extra_info["profiled_runs"] = len(
        pairs[0].float_invocations)
