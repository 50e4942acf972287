"""Profiling and pricing of sweeps: profile once, or meter per point.

One profiling pass serves every sweep: :func:`profile_builds` takes the
``(pair, core)`` builds a sweep needs and submits one ``profile``
:class:`~repro.runner.tasks.SimTask` per part of each build, all in one
batch through the shared cached/parallel runner.  The streamed sweep
and the evaluation server fill through it
(:func:`repro.dse.engine.stream_profiles`), and so does the default
materialized pricer, :func:`profiled_points`:

1. the grid's points group into builds by ``(pair, functional-core
   essentials)`` (:func:`profile_core`), and each build is profiled
   exactly once -- a 36-config sweep over 6 workload pairs needs 12
   profiled runs instead of 216 metered ones;
2. every build's points are then priced by one batch linear evaluator
   (:class:`repro.nfp.linear.BatchNfpEngine`): its configurations lower
   to a deduplicated cost-row matrix and each point is one
   constant-size combine over exact dot products -- the same bits the
   streamed sweep (:func:`repro.dse.engine.sweep_streamed`) produces,
   which is what makes streamed and materialized reports byte-identical.

The metered oracle (:func:`metered_points`) pays one instrumented
simulation per (configuration, workload) point instead.  Integer
counters and cycles are bit-identical to it (it profiles every point and
prices it for its own board, see
:meth:`repro.hw.board.Board.measure_raw`); dynamic energy agrees within
``1e-12`` relative, the batch combine regrouping the same exact sums.
Profiles of runs that wrote into their own code (self-modifying
kernels) are flagged unclean, and the points of their builds
transparently fall back to the metered oracle, point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.asm.program import Program
from repro.dse.workload import WorkloadPair, pipeline_parts
from repro.hw.config import HwConfig
from repro.nfp.linear import (
    BatchNfpEngine,
    ExecutionProfile,
    ProfileVectors,
    compose_profiles,
    lower_profile,
)
from repro.runner import ExperimentRunner
from repro.runner.resilience import TaskFailure, is_failure, log_event
from repro.runner.tasks import SimTask, raw_from_payload
from repro.vm.config import CoreConfig


@dataclass(frozen=True)
class PointNfp:
    """The NFPs of one evaluated grid point (profile or fallback path)."""

    time_s: float
    energy_j: float
    cycles: int | None  #: None on the estimation path (no cycle sim)
    retired: int
    profiled: bool  #: False when the point fell back to full simulation


def profile_core(core: CoreConfig) -> CoreConfig:
    """The canonical functional core a profile of ``core`` is keyed by.

    Only parameters that influence the *functional* execution survive:
    FPU presence (build selection / fp-disabled traps) and the RAM
    geometry (addresses and stack placement feed the data-dependent
    energy hash).  Window count and block sizes are architecturally
    invariant, so normalising them lets every configuration of a sweep
    share one profile per workload build.  ``metered_blocks_enabled``
    is preserved: it selects profile-fused blocks vs per-instruction
    observation, which record identical profiles but are worth keying
    apart, exactly like the metered path.
    """
    return CoreConfig(has_fpu=core.has_fpu, ram_size=core.ram_size,
                      ram_base=core.ram_base,
                      stack_reserve=core.stack_reserve,
                      metered_blocks_enabled=core.metered_blocks_enabled)


def profile_task(program: Program, budget: int,
                 core: CoreConfig) -> SimTask:
    """The profile task pricing any configuration over ``core``'s stream."""
    return SimTask(mode="profile", program=program, budget=budget,
                   core=profile_core(core))


def composed_vectors(parts: Sequence[tuple[ExecutionProfile, int]]
                     ) -> ProfileVectors:
    """Lowered vectors of a weighted profile list (one part: passthrough).

    The single-part unweighted case lowers the profile directly -- the
    historical plain-workload path, preserved bit-for-bit -- and a real
    composition prices through
    :func:`repro.nfp.linear.compose_profiles`, so one composed vector
    set stands for the whole frame stream.
    """
    if len(parts) == 1 and parts[0][1] == 1:
        return lower_profile(parts[0][0])
    return lower_profile(compose_profiles(parts))


def profile_builds(builds: Sequence[tuple[WorkloadPair, CoreConfig]], *,
                   budget: int, runner: ExperimentRunner
                   ) -> list[ProfileVectors | TaskFailure | None]:
    """Profile every ``(pair, core)`` build once, in one runner batch.

    Each build is the program ``pair.build_for(core)`` selects, a plain
    program or a weighted pipeline part list
    (:func:`~repro.dse.workload.pipeline_parts`): one profile task per
    part, all of them in one :meth:`~repro.runner.ExperimentRunner.run_tasks`
    batch.  Per build, in order, the result is its composed
    :class:`~repro.nfp.linear.ProfileVectors`; the
    :class:`~repro.runner.resilience.TaskFailure` of its first part
    whose retries ran out; or ``None`` when a part wrote into its own
    code (an unclean, self-modifying profile has no linear pricing).
    Nothing here raises for a failed task.
    """
    parts_per_build = [pipeline_parts(pair.build_for(core)[1])
                       for pair, core in builds]
    tasks = [profile_task(program, budget, core)
             for (_, core), parts in zip(builds, parts_per_build)
             for program, _ in parts]
    payloads = iter(runner.run_tasks(tasks))
    out: list[ProfileVectors | TaskFailure | None] = []
    for parts in parts_per_build:
        mine = [next(payloads) for _ in parts]
        failed = next((p for p in mine if is_failure(p)), None)
        if failed is not None:
            out.append(TaskFailure.from_payload(failed))
            continue
        profiles = [ExecutionProfile.from_payload(p["profile"]) for p in mine]
        if not all(profile.clean for profile in profiles):
            out.append(None)
            continue
        out.append(composed_vectors(
            [(profile, count) for profile, (_, count)
             in zip(profiles, parts)]))
    return out


def metered_points(items: Sequence[tuple[HwConfig, WorkloadPair]], *,
                   budget: int,
                   runner: ExperimentRunner
                   ) -> list[PointNfp | TaskFailure]:
    """Meter every ``(configuration, workload pair)`` grid point: the oracle.

    One batch of metered :class:`~repro.runner.tasks.SimTask`s, one per
    part of each point's build (a plain program is one part, a composed
    pipeline one run per invocation).  A pipeline point combines its
    parts exactly, which is what keeps metered and composed-profile
    sweeps *bit-identical* in cycles and time: total cycles are the
    exact integer sum of weighted per-invocation cycles, and total time
    is ``cycles * cycle_seconds`` -- the very expression the linear
    evaluator (and :class:`~repro.hw.board.Board` itself) applies to the
    same integer.  Dynamic energy sums the weighted per-invocation
    nanojoule totals through ``math.fsum`` (<= 1e-12 relative of the
    composed-profile energy), and static energy is priced over the
    total time.  A one-part point reproduces its raw payload unchanged.
    A failed part surfaces as its :class:`TaskFailure` in the point's
    slot; nothing here raises for a failed task.
    """
    parts_per_item = [pipeline_parts(pair.build_for(hw.core)[1])
                      for hw, pair in items]
    tasks = [SimTask(mode="metered", program=program, budget=budget, hw=hw)
             for (hw, _), parts in zip(items, parts_per_item)
             for program, _ in parts]
    payloads = iter(runner.run_tasks(tasks))
    out: list[PointNfp | TaskFailure] = []
    for (hw, _), parts in zip(items, parts_per_item):
        mine = [next(payloads) for _ in parts]
        failed = next((p for p in mine if is_failure(p)), None)
        if failed is not None:
            out.append(TaskFailure.from_payload(failed))
            continue
        raws = [raw_from_payload(payload) for payload in mine]
        if len(parts) == 1 and parts[0][1] == 1:
            raw = raws[0]
            out.append(PointNfp(
                time_s=raw.true_time_s, energy_j=raw.true_energy_j,
                cycles=raw.cycles, retired=raw.sim.retired,
                profiled=False))
            continue
        cycles = sum(count * raw.cycles
                     for (_, count), raw in zip(parts, raws))
        retired = sum(count * raw.sim.retired
                      for (_, count), raw in zip(parts, raws))
        time_s = cycles * hw.cycle_seconds
        dyn_nj = math.fsum(count * raw.dyn_energy_nj
                           for (_, count), raw in zip(parts, raws))
        out.append(PointNfp(
            time_s=time_s,
            energy_j=dyn_nj * 1e-9 + hw.static_power_w * time_s,
            cycles=cycles, retired=retired, profiled=False))
    return out


def profiled_points(items: Sequence[tuple[HwConfig, WorkloadPair]], *,
                    budget: int,
                    runner: ExperimentRunner
                    ) -> list[PointNfp | TaskFailure]:
    """Evaluate every ``(configuration, workload pair)`` grid point.

    The pairs may mix plain :class:`~repro.dse.workload.WorkloadPair`
    points with composed :class:`~repro.dse.workload.PipelinePair`
    points.  Points group into builds by ``(pair, profile_core)``: each
    build is profiled once (:func:`profile_builds`, one batch for the
    whole grid) and all of its points are priced in one
    :class:`~repro.nfp.linear.BatchNfpEngine`.  Points of builds whose
    profile came back unclean *or never came back at all* go to
    :func:`metered_points`.  A grid point whose profile *and* metered
    fallback both exhausted their retries surfaces as the fallback's
    :class:`~repro.runner.resilience.TaskFailure` in its slot; nothing
    here raises for a failed task.
    """
    groups: dict[tuple[int, CoreConfig], list[int]] = {}
    for i, (hw, pair) in enumerate(items):
        groups.setdefault((id(pair), profile_core(hw.core)), []).append(i)
    members = list(groups.values())
    results = profile_builds(
        [(items[indices[0]][1], items[indices[0]][0].core)
         for indices in members], budget=budget, runner=runner)

    failed = [len(indices) for indices, result in zip(members, results)
              if isinstance(result, TaskFailure)]
    if failed:
        log_event("profile-fallback", profiles=len(failed),
                  points=sum(failed))
    out: list[PointNfp | TaskFailure | None] = [None] * len(items)
    dirty: list[int] = []
    for indices, vectors in zip(members, results):
        if not isinstance(vectors, ProfileVectors):
            dirty.extend(indices)
            continue
        # one cost-row matrix per build: cycles/time bit-identical to
        # the per-point engine, energy within its ~1-ulp regrouping, and
        # bit-identical to the streamed sweep, which prices the same way
        engine = BatchNfpEngine([items[i][0] for i in indices])
        for i, nfp in zip(indices, engine.evaluate(vectors)):
            out[i] = PointNfp(
                time_s=nfp.true_time_s, energy_j=nfp.true_energy_j,
                cycles=nfp.cycles, retired=nfp.retired, profiled=True)

    # self-modifying workloads (unclean profiles) and points whose
    # profile task failed outright are priced by the metered oracle
    # (shared with it through the result cache)
    if dirty:
        dirty.sort()
        for i, nfp in zip(dirty, metered_points(
                [items[i] for i in dirty], budget=budget, runner=runner)):
            out[i] = nfp
    return out
