"""Benchmark: streamed batch pricing vs the per-point linear evaluator.

The streamed rung runs ``sweep_streamed`` over a million-configuration
design space (a 12,500-step clock sweep x FPU x 8 window counts x 5
wait-state settings) at smoke scale: the streamed-sweep engine
(:class:`~repro.dse.stream._FastSweep`) prices the cartesian product in
vectorized chunks from factored per-axis cost tables and reduces it into
exact Pareto fronts without ever materializing the grid.
The per-point rung prices a 2,000-configuration subspace the pre-batch
way -- one :class:`~repro.nfp.linear.LinearNfpEngine` evaluation per
(configuration, workload) point over ``DesignSpace.iter_configs`` -- and
reduces each stream's points with ``pareto_front`` and ``knee_point``,
the materialized sweep's own reduction; it is the honest A/B baseline
for the batch fast path.

Both rungs run 5 rounds.  ``benchmarks/check_floor.py`` enforces the
relative floor in *configs per second* on the rungs' median rounds
(>= 100x; both rungs record a ``configs`` extra).
The exactness contract (bit-identical integer cycles, energy to 1e-12
relative, streamed report byte-identical to the materialized sweep) is
pinned by ``tests/test_batch_eval.py`` and ``tests/test_stream.py``, not
re-checked here.

The workload profiles are simulated once in the module fixture (and
content-cached), so both rungs time pure pricing, not simulation.  Both
carry the ``showcase`` marker; ``run_bench.py`` sets
``REPRO_RUN_SHOWCASE=1`` and records them, and CI's bench-smoke job
enforces the floor on the recorded pair.
"""

from __future__ import annotations

import pytest

from repro.dse import DesignSpace, sweep_streamed
from repro.dse.evaluate import profile_task
from repro.dse.workload import resolve_pairs
from repro.hw.config import HwConfig
from repro.nfp.linear import ExecutionProfile, LinearNfpEngine
from repro.runner import ExperimentRunner
from repro.runner.tasks import task_key
from repro.vm.config import CoreConfig

#: the streamed space: 12,500 clock steps x 2 x 8 x 5 = 1,000,000 configs
CLOCKS = tuple(12.5 + i * 75.0 / 12_499 for i in range(12_500))
NWINDOWS = (2, 3, 4, 6, 8, 12, 16, 24)
WAIT_STATES = (0, 1, 2, 3, 4)

#: rounds per rung: the floor compares the rungs' median rounds
ROUNDS = 5


def million_config_space() -> DesignSpace:
    return DesignSpace((
        ("clock_mhz", CLOCKS),
        ("fpu", (False, True)),
        ("nwindows", NWINDOWS),
        ("wait_states", WAIT_STATES),
    ))


def per_point_space() -> DesignSpace:
    # 50 x 2 x 4 x 5 = 2,000 configs: large enough for a stable
    # configs/sec figure, small enough that the rung stays seconds
    return DesignSpace((
        ("clock_mhz", CLOCKS[::250]),
        ("fpu", (False, True)),
        ("nwindows", NWINDOWS[::2]),
        ("wait_states", WAIT_STATES),
    ))


@pytest.fixture(scope="module")
def priced_inputs(scale):
    """Workload pairs, base platform, and pre-simulated profiles."""
    from dataclasses import replace

    pairs = resolve_pairs(None, scale)
    base = HwConfig(name="leon3", core=CoreConfig())
    runner = ExperimentRunner(workers=1)
    jobs = []
    for pair in pairs:
        for fpu in (False, True):
            core = replace(base.core, has_fpu=fpu)
            _, program = pair.build_for(core)
            jobs.append(profile_task(program, scale.max_instructions, core))
    profiles = {}
    for task, payload in zip(jobs, runner.run_tasks(jobs)):
        profiles.setdefault(
            task_key(task), ExecutionProfile.from_payload(payload["profile"]))
    return pairs, base, runner, profiles


@pytest.mark.showcase
def test_batch_eval_throughput_streamed(benchmark, priced_inputs, scale):
    """10^6 configs x the smoke suite through the streamed batch path."""
    pairs, base, runner, _ = priced_inputs
    space = million_config_space()

    def run():
        # shards=1 pins the serial path: this rung measures the
        # single-process batch evaluator, not the sharded pool
        return sweep_streamed(space, pairs, budget=scale.max_instructions,
                              runner=runner, base=base, front_cap=64,
                              shards=1)

    summary = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert summary.configs == space.size == 1_000_000
    benchmark.extra_info["configs"] = summary.configs
    benchmark.extra_info["points"] = summary.configs * len(pairs)


@pytest.mark.showcase
def test_batch_eval_throughput_per_point(benchmark, priced_inputs, scale):
    """The pre-batch baseline: a faithful per-point sweep.

    Per configuration: one LinearNfpEngine evaluation per workload,
    DsePoint assembly and synthesis area, collected per workload and
    aggregate; then each stream's front and knee through
    ``pareto_front`` and ``knee_point`` -- the same deliverable the
    streamed rung times end to end.
    """
    from repro.dse.engine import AGGREGATE, DsePoint, config_area_les
    from repro.dse.pareto import knee_point, pareto_front

    pairs, base, runner, profiles = priced_inputs
    space = per_point_space()
    keyed = []  # (pair, fpu -> (build tag, profile key))
    from dataclasses import replace
    for pair in pairs:
        keys = {}
        for fpu in (False, True):
            core = replace(base.core, has_fpu=fpu)
            build, program = pair.build_for(core)
            keys[fpu] = (build, task_key(profile_task(
                program, scale.max_instructions, core)))
        keyed.append((pair, keys))

    def run():
        key = (lambda p: p.objectives)
        streams = {pair.name: [] for pair, _ in keyed}
        streams[AGGREGATE] = []
        for config in space.iter_configs(base):
            engine = LinearNfpEngine(config.hw)
            area = config_area_les(config)
            agg = None
            build = None
            for pair, keys in keyed:
                build, profile_key = keys[config.hw.core.has_fpu]
                nfp = engine.evaluate(profiles[profile_key])
                streams[pair.name].append(DsePoint(
                    config=config.name, axis_values=config.axis_values,
                    workload=pair.name, build=build, time_s=nfp.true_time_s,
                    energy_j=nfp.true_energy_j, area_les=area,
                    retired=nfp.retired, cycles=nfp.cycles))
                add = (nfp.true_time_s, nfp.true_energy_j,
                       nfp.retired, nfp.cycles)
                agg = add if agg is None else tuple(
                    a + b for a, b in zip(agg, add))
            streams[AGGREGATE].append(DsePoint(
                config=config.name, axis_values=config.axis_values,
                workload=AGGREGATE, build=build, time_s=agg[0],
                energy_j=agg[1], area_les=area, retired=agg[2],
                cycles=agg[3]))
        return {name: (front, knee_point(front, key=key))
                for name, points in streams.items()
                for front in [pareto_front(points, key=key)]}

    fronts = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert all(front for front, _ in fronts.values())
    benchmark.extra_info["configs"] = space.size
    benchmark.extra_info["points"] = space.size * len(pairs)
