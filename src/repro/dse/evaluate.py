"""Pricing of materialized sweep grids: profile once, or meter per point.

The metered oracle (:func:`metered_points`) pays one instrumented
simulation per (configuration, workload) point even though every
configuration executes the same instruction stream.  The default
pricer (:func:`profiled_points`) is the profile-once alternative:

1. every distinct ``(program, functional-core essentials)`` of the grid
   is profiled exactly once (``profile`` :class:`~repro.runner.tasks.SimTask`
   through the shared cached/parallel runner -- a 36-config sweep over
   6 workload pairs needs 12 profiled runs instead of 216 metered ones);
2. every grid point is then priced by the batch linear evaluator
   (:class:`repro.nfp.linear.BatchNfpEngine`): per profile, all of its
   configurations lower to a deduplicated cost-row matrix and each
   point is one constant-size combine over exact dot products -- the
   same bits the streamed sweep (:func:`repro.dse.engine.sweep_streamed`)
   produces, which is what makes streamed and materialized reports
   byte-identical.

Integer counters and cycles are bit-identical to the metered oracle
(which profiles every point and prices it for its own board, see
:meth:`repro.hw.board.Board.measure_raw`); dynamic energy agrees within
``1e-12`` relative, the batch combine regrouping the same exact sums.
Profiles of runs that wrote into their own code (self-modifying
kernels) are flagged unclean and their grid points transparently fall
back to the metered oracle, point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.asm.program import Program
from repro.dse.workload import pipeline_parts
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
from repro.runner.tasks import SimTask, raw_from_payload, task_key
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


def metered_points(items: Sequence[tuple[HwConfig, object]], *,
                   budget: int,
                   runner: ExperimentRunner
                   ) -> list[PointNfp | TaskFailure]:
    """Meter every ``(configuration, program)`` grid point: the oracle.

    One batch of metered :class:`~repro.runner.tasks.SimTask`s, one per
    part of each point (a plain program is one part, a composed
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
    parts_per_item = [pipeline_parts(program) for _, program in items]
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


def profiled_points(items: Sequence[tuple[HwConfig, object]], *,
                    budget: int,
                    runner: ExperimentRunner
                    ) -> list[PointNfp | TaskFailure]:
    """Evaluate every ``(configuration, program)`` grid point.

    ``items`` may mix plain :class:`Program` grid points with composed
    :class:`~repro.dse.workload.PipelineProgram` points; each point is
    a weighted part list (:func:`~repro.dse.workload.pipeline_parts`),
    plain programs being the one-part case.

    One batch of deduplicating profile tasks over all parts (the
    runner's content addressing collapses the grid onto its distinct
    invocation builds), one linear evaluation per point over its
    composed vectors, and -- only where a part profile came back
    unclean *or never came back at all* -- :func:`metered_points` for
    those points.  A grid point whose profile *and* metered fallback
    both exhausted their retries surfaces as the fallback's
    :class:`~repro.runner.resilience.TaskFailure` in its slot; nothing
    here raises for a failed task.
    """
    parts_per_item = [pipeline_parts(program) for _, program in items]
    tasks = []
    for (hw, _), parts in zip(items, parts_per_item):
        for program, _ in parts:
            tasks.append(profile_task(program, budget, hw.core))
    keys = [task_key(task) for task in tasks]
    payloads = runner.run_tasks(tasks)
    profiles: dict[str, ExecutionProfile] = {}
    for key, payload in zip(keys, payloads):
        if key not in profiles and not is_failure(payload):
            profiles[key] = ExecutionProfile.from_payload(payload["profile"])

    # per-item composition keys: ((part task key, weight), ...) -- two
    # grid points share pricing iff they price the same weighted parts
    item_keys: list[tuple[tuple[str, int], ...]] = []
    pos = 0
    for parts in parts_per_item:
        item_keys.append(tuple(
            (keys[pos + j], count) for j, (_, count) in enumerate(parts)))
        pos += len(parts)

    # fallback: self-modifying workloads (unclean profiles) and points
    # whose profile task failed outright are priced by the metered
    # oracle (shared with it through the result cache)
    dirty = [i for i, ikeys in enumerate(item_keys)
             if any(key not in profiles or not profiles[key].clean
                    for key, _ in ikeys)]
    failed_profiles = sum(1 for key in set(keys) if key not in profiles)
    if failed_profiles:
        log_event("profile-fallback", profiles=failed_profiles,
                  points=sum(1 for key in keys if key not in profiles))
    fallback: dict[int, PointNfp | TaskFailure] = {}
    if dirty:
        fallback = dict(zip(dirty, metered_points(
            [items[i] for i in dirty], budget=budget, runner=runner)))

    # clean points are priced in one batch per distinct composition:
    # the configurations lower to a deduplicated cost-row matrix and
    # every point is a constant-size combine (cycles/time bit-identical
    # to the per-point engine; energy within its ~1-ulp regrouping, and
    # bit-identical to the streamed sweep, which prices the same way)
    clean: dict[tuple, list[int]] = {}
    for i, ikeys in enumerate(item_keys):
        if i not in fallback:
            clean.setdefault(ikeys, []).append(i)
    linear: dict[int, PointNfp] = {}
    vectors: dict[tuple, ProfileVectors] = {}
    for ikeys, indices in clean.items():
        if ikeys not in vectors:
            vectors[ikeys] = composed_vectors(
                [(profiles[key], count) for key, count in ikeys])
        engine = BatchNfpEngine([items[i][0] for i in indices])
        for i, nfp in zip(indices, engine.evaluate(vectors[ikeys])):
            linear[i] = PointNfp(
                time_s=nfp.true_time_s, energy_j=nfp.true_energy_j,
                cycles=nfp.cycles, retired=nfp.retired, profiled=True)

    return [fallback.get(i, linear.get(i)) for i in range(len(items))]
