"""The sweep engine: design space x workload suite -> objective grid.

Every ``(candidate platform, workload)`` point is one deterministic
metered simulation, expressed as a :class:`~repro.runner.tasks.SimTask`
and submitted to the PR-2 :class:`~repro.runner.ExperimentRunner` in a
single batch -- so a sweep is parallel across worker processes, content-
addressed in the on-disk result cache (a re-run or an overlapping later
sweep only computes what it has never seen), and bit-reproducible: the
grid is built purely from the deterministic ``true_*`` accumulator
totals, never from the stateful instrument model, so warm, cold, serial
and parallel sweeps produce identical floats.

The estimation-based variant (:func:`sweep_estimated`) runs the paper's
fast Eq.-1 path instead of the metered testbed; it exists for presets
such as the Table IV FPU exploration (:mod:`repro.dse.presets`).

Sweeps are fault-tolerant: a grid cell whose task retries ran out
becomes a :class:`FailedCell` on :attr:`DseGrid.failures` (excluded
from Pareto structure, marked in reports) instead of aborting the
campaign, and :func:`sweep_checkpointed` persists completed cells
through a :class:`~repro.runner.resilience.SweepCheckpoint` after every
chunk, so an interrupted ``repro dse`` resumes from its last checkpoint
(:class:`SweepInterrupted` carries the partial grid out of a
``KeyboardInterrupt``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.dse.axes import DesignSpace, SweepConfig
from repro.dse.pareto import classify, knee_point, pareto_front
from repro.dse.workload import PipelineProgram, WorkloadPair, pipeline_parts
from repro.hw.area import memctrl_les, synthesize
from repro.hw.config import HwConfig
from repro.runner import ExperimentRunner

if TYPE_CHECKING:   # import cycle: repro.nfp's package init reaches back here
    from repro.nfp.linear import ProfileVectors
from repro.runner.resilience import (
    SweepCheckpoint,
    TaskFailure,
    UsageError,
    is_failure,
    log_event,
)
from repro.runner.tasks import SimTask

#: Objective names, in the order :attr:`DsePoint.objectives` reports them.
OBJECTIVES = ("time_s", "energy_j", "area_les")

#: Workload label of per-configuration aggregate points.
AGGREGATE = "*"


@dataclass(frozen=True)
class DsePoint:
    """One evaluated (configuration, workload) grid point."""

    config: str
    axis_values: tuple[tuple[str, object], ...]
    workload: str
    build: str
    time_s: float
    energy_j: float
    area_les: int
    retired: int
    cycles: int | None = None  #: None on the estimation path (no cycle sim)

    @property
    def objectives(self) -> tuple[float, float, float]:
        """The minimised objective vector ``(time, energy, area)``."""
        return (self.time_s, self.energy_j, float(self.area_les))

    def value(self, axis_name: str, default=None):
        for name, value in self.axis_values:
            if name == axis_name:
                return value
        return default


@dataclass(frozen=True)
class FailedCell:
    """One grid cell whose task retries ran out (kept out of Pareto)."""

    config: str
    workload: str
    build: str
    attempts: int
    error: str


class SweepInterrupted(KeyboardInterrupt):
    """A sweep was interrupted; carries the partial grid built so far."""

    def __init__(self, grid: "DseGrid", completed: int, total: int):
        super().__init__(f"sweep interrupted at {completed}/{total} cells")
        self.grid = grid
        self.completed = completed
        self.total = total


@dataclass(frozen=True)
class DseGrid:
    """The full sweep result: every point, in deterministic order.

    ``failures`` records cells that never produced a result (attempt
    budget exhausted); they are excluded from points, aggregates and
    Pareto views, and rendered as explicitly failed by the report.
    """

    points: tuple[DsePoint, ...]
    failures: tuple[FailedCell, ...] = ()

    def workloads(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.workload)
        return tuple(seen)

    def configs(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.config)
        return tuple(seen)

    def axis_names(self) -> tuple[str, ...]:
        if not self.points:
            return ()
        return tuple(name for name, _ in self.points[0].axis_values)

    def select(self, workload: str | None = None,
               config: str | None = None) -> tuple[DsePoint, ...]:
        return tuple(p for p in self.points
                     if (workload is None or p.workload == workload)
                     and (config is None or p.config == config))

    def point(self, config: str, workload: str) -> DsePoint:
        for p in self.points:
            if p.config == config and p.workload == workload:
                return p
        raise KeyError((config, workload))

    def aggregate(self) -> tuple[DsePoint, ...]:
        """Per-configuration totals across the whole workload suite.

        Time, energy and retired counts sum over workloads (every
        configuration runs the full suite, so the sums are comparable);
        area is a property of the configuration itself.  Configurations
        with failed cells cover less of the suite, so their sums would
        not be comparable -- they are left out of the aggregate (and the
        report marks them).
        """
        expected = len(self.workloads())
        out = []
        for config in self.configs():
            points = self.select(config=config)
            if len(points) != expected:
                continue
            cycles: int | None = None
            if all(p.cycles is not None for p in points):
                cycles = sum(p.cycles for p in points)
            out.append(DsePoint(
                config=config,
                axis_values=points[0].axis_values,
                workload=AGGREGATE,
                build=points[0].build,
                time_s=sum(p.time_s for p in points),
                energy_j=sum(p.energy_j for p in points),
                area_les=points[0].area_les,
                retired=sum(p.retired for p in points),
                cycles=cycles,
            ))
        return tuple(out)

    # -- Pareto views --------------------------------------------------------

    def front(self, workload: str | None = None) -> tuple[DsePoint, ...]:
        """Non-dominated configurations for ``workload`` (or the aggregate)."""
        points = (self.aggregate() if workload is None
                  else self.select(workload=workload))
        return tuple(pareto_front(points, key=lambda p: p.objectives))

    def knee(self, workload: str | None = None) -> DsePoint:
        """The balanced front pick for ``workload`` (or the aggregate)."""
        front = self.front(workload)
        return knee_point(front, key=lambda p: p.objectives)

    def dominated_flags(self, workload: str | None = None
                        ) -> tuple[tuple[DsePoint, bool], ...]:
        """``(point, on_front)`` pairs for ``workload`` (or the aggregate)."""
        points = (self.aggregate() if workload is None
                  else self.select(workload=workload))
        flags = classify(points, key=lambda p: p.objectives)
        return tuple(zip(points, flags))


def config_area_les(config: SweepConfig) -> int:
    """Synthesis area of one candidate: core components + memory interface."""
    core_les = synthesize(config.hw.core, name=config.name).total_les
    return core_les + memctrl_les(int(config.value("wait_states", 0)))


#: Historical private name (pre-serving-layer callers import it).
_config_area_les = config_area_les


def _grid_jobs(configs: Sequence[SweepConfig],
               pairs: Sequence[WorkloadPair]
               ) -> list[tuple[SweepConfig, WorkloadPair, str, object]]:
    jobs = []
    for config in configs:
        for pair in pairs:
            build, program = pair.build_for(config.hw.core)
            jobs.append((config, pair, build, program))
    return jobs


def _grid_from_jobs(jobs: Sequence[tuple[SweepConfig, WorkloadPair, str,
                                         object]],
                    nfps: Sequence[tuple[float, float, int, int | None]
                                   | TaskFailure]
                    ) -> DseGrid:
    """Assemble the grid from per-job ``(time, energy, retired, cycles)``.

    The single construction point shared by the metered, profiled and
    checkpointed sweeps, so the paths cannot drift apart structurally --
    only the NFP source differs.  A :class:`TaskFailure` in an NFP slot
    becomes a :class:`FailedCell` instead of a point.
    """
    points = []
    failures = []
    for (config, pair, build, _), nfp in zip(jobs, nfps):
        if isinstance(nfp, TaskFailure):
            failures.append(FailedCell(
                config=config.name, workload=pair.name, build=build,
                attempts=nfp.attempts, error=nfp.error))
            continue
        time_s, energy_j, retired, cycles = nfp
        points.append(DsePoint(
            config=config.name,
            axis_values=config.axis_values,
            workload=pair.name,
            build=build,
            time_s=time_s,
            energy_j=energy_j,
            area_les=config_area_les(config),
            retired=retired,
            cycles=cycles,
        ))
    return DseGrid(points=tuple(points), failures=tuple(failures))


def _job_nfps(jobs: Sequence[tuple[SweepConfig, WorkloadPair, str, object]],
              *, budget: int, runner: ExperimentRunner,
              profile: bool) -> list[tuple[float, float, int, int | None]
                                    | TaskFailure]:
    """Per-job deterministic NFPs -- the one place both sweep paths
    actually execute anything.  Failed tasks surface as
    :class:`TaskFailure` records in their slots, never as exceptions."""
    if profile:
        # deferred: repro.dse.evaluate reaches repro.nfp, whose package
        # import reaches back into this module through the presets
        from repro.dse.evaluate import profiled_points
        out: list[tuple[float, float, int, int | None] | TaskFailure] = []
        for nfp in profiled_points(
                [(config.hw, program) for config, _, _, program in jobs],
                budget=budget, runner=runner):
            if isinstance(nfp, TaskFailure):
                out.append(nfp)
            else:
                out.append((nfp.time_s, nfp.energy_j, nfp.retired,
                            nfp.cycles))
        return out
    # the metered path prices a job part by part: a plain program is
    # one part, a composed pipeline one metered run per invocation,
    # combined exactly (weighted integer cycle sums; see
    # :func:`repro.dse.evaluate.metered_parts_nfp`) -- the oracle the
    # composed profile path is tested bit-identical against
    from repro.dse.evaluate import metered_parts_nfp   # deferred, as above
    tasks = []
    slices = []
    for config, _, _, program in jobs:
        parts = pipeline_parts(program)
        start = len(tasks)
        for part_program, _ in parts:
            tasks.append(SimTask(mode="metered", program=part_program,
                                 budget=budget, hw=config.hw))
        slices.append((config.hw, parts, start, len(tasks)))
    payloads = runner.run_tasks(tasks)
    out = []
    for hw, parts, start, stop in slices:
        nfp = metered_parts_nfp(hw, parts, payloads[start:stop])
        if isinstance(nfp, TaskFailure):
            out.append(nfp)
        else:
            out.append((nfp.time_s, nfp.energy_j, nfp.retired, nfp.cycles))
    return out


def sweep(space: DesignSpace | Sequence[SweepConfig],
          pairs: Sequence[WorkloadPair], *,
          budget: int,
          runner: ExperimentRunner | None = None,
          base: HwConfig | None = None) -> DseGrid:
    """Measure every (configuration, workload) point on the metered testbed.

    All points are submitted to ``runner`` as one batch of metered
    :class:`SimTask`s: duplicates dedupe, cached results are read back,
    and the misses fan out across the worker pool.  The grid holds the
    deterministic accumulator totals only, so two sweeps of the same
    space are bit-identical regardless of cache state or parallelism.
    """
    configs = (space.configs(base) if isinstance(space, DesignSpace)
               else tuple(space))
    runner = runner if runner is not None else ExperimentRunner()
    jobs = _grid_jobs(configs, pairs)
    return _grid_from_jobs(jobs, _job_nfps(jobs, budget=budget,
                                           runner=runner, profile=False))


def sweep_profiled(space: DesignSpace | Sequence[SweepConfig],
                   pairs: Sequence[WorkloadPair], *,
                   budget: int,
                   runner: ExperimentRunner | None = None,
                   base: HwConfig | None = None) -> DseGrid:
    """Profile once per workload build, evaluate every config linearly.

    The profile-once twin of :func:`sweep`: instead of one metered
    simulation per grid point, each distinct workload build is profiled
    once (parallel, content-cached) and every candidate platform is then
    priced by the linear evaluator (:mod:`repro.dse.evaluate`) -- the
    sweep's cost drops from ``O(configs x workloads)`` simulations to
    ``O(workloads)`` simulations plus ``O(configs x workloads)`` dot
    products.  Retired counts and cycles are bit-identical to
    :func:`sweep`; times are bit-identical (same integer cycles, same
    conversion) and energies agree to the metered accumulator's own
    float-rounding drift (<= 1e-12 relative across the smoke suite; the
    drift grows as the square root of the retired count, see
    :mod:`repro.nfp.linear`).  Self-modifying workloads fall back to
    metered simulation per point, so the grid is always exact.
    """
    configs = (space.configs(base) if isinstance(space, DesignSpace)
               else tuple(space))
    runner = runner if runner is not None else ExperimentRunner()
    jobs = _grid_jobs(configs, pairs)
    return _grid_from_jobs(jobs, _job_nfps(jobs, budget=budget,
                                           runner=runner, profile=True))


def _cell_key(config: SweepConfig, pair: WorkloadPair) -> str:
    return f"{config.name}\t{pair.name}"


def _cell_to_json(nfp) -> list | dict:
    if isinstance(nfp, TaskFailure):
        return {"failed": {"key": nfp.key, "mode": nfp.mode,
                           "attempts": nfp.attempts, "error": nfp.error}}
    return list(nfp)


def _cell_from_json(cell) -> tuple | TaskFailure:
    if isinstance(cell, dict):
        return TaskFailure(**cell["failed"])
    time_s, energy_j, retired, cycles = cell
    return (time_s, energy_j, retired, cycles)


def sweep_checkpointed(space: DesignSpace | Sequence[SweepConfig],
                       pairs: Sequence[WorkloadPair], *,
                       budget: int,
                       runner: ExperimentRunner | None = None,
                       base: HwConfig | None = None,
                       profile: bool = False,
                       checkpoint: SweepCheckpoint | None = None,
                       chunk: int = 32) -> DseGrid:
    """:func:`sweep`/:func:`sweep_profiled` with periodic checkpoints.

    The grid is computed in chunks of ``chunk`` cells; after each chunk
    the completed cells' deterministic NFPs are flushed into
    ``checkpoint`` (atomic JSON; floats round-trip exactly), so a
    re-opened checkpoint resumes with only the missing cells and the
    resumed report is byte-identical to an uninterrupted run.  A
    ``KeyboardInterrupt`` flushes the checkpoint and re-raises as
    :class:`SweepInterrupted` carrying the partial grid, with no cell
    half-recorded.  With ``checkpoint=None`` the chunked execution (and
    the partial grid on interrupt) remains; only persistence is off.
    """
    configs = (space.configs(base) if isinstance(space, DesignSpace)
               else tuple(space))
    runner = runner if runner is not None else ExperimentRunner()
    jobs = _grid_jobs(configs, pairs)
    cells = checkpoint.cells if checkpoint is not None else {}
    keys = [_cell_key(config, pair) for config, pair, _, _ in jobs]
    missing = [i for i, key in enumerate(keys) if key not in cells]
    try:
        for start in range(0, len(missing), max(1, chunk)):
            ids = missing[start:start + max(1, chunk)]
            nfps = _job_nfps([jobs[i] for i in ids], budget=budget,
                             runner=runner, profile=profile)
            for i, nfp in zip(ids, nfps):
                cells[keys[i]] = _cell_to_json(nfp)
            if checkpoint is not None:
                checkpoint.flush(total=len(jobs))
    except KeyboardInterrupt:
        if checkpoint is not None:
            checkpoint.flush(total=len(jobs))
        done = [i for i, key in enumerate(keys) if key in cells]
        grid = _grid_from_jobs(
            [jobs[i] for i in done],
            [_cell_from_json(cells[keys[i]]) for i in done])
        log_event("interrupted", completed=len(done), total=len(jobs))
        raise SweepInterrupted(grid, completed=len(done),
                               total=len(jobs)) from None
    return _grid_from_jobs(jobs, [_cell_from_json(cells[key])
                                  for key in keys])


# -- streaming sweeps --------------------------------------------------------

@dataclass(frozen=True)
class WorkloadFront:
    """Streaming-sweep summary of one workload (or the aggregate).

    ``front`` holds the first ``front_cap`` front members in arrival
    (= flat configuration) order; ``front_size`` is always the exact
    count, so a capped summary still reports how much was truncated.
    """

    workload: str
    points: int                     #: configurations offered to this stream
    front_size: int                 #: exact non-dominated count
    front: tuple[DsePoint, ...]     #: materialized members (maybe capped)
    knee: DsePoint
    best_time: DsePoint
    best_energy: DsePoint
    best_area: DsePoint


@dataclass(frozen=True)
class StreamSummary:
    """Everything a streamed sweep retains: fronts, knees, per-objective
    winners -- never the grid.

    :meth:`from_grid` derives the identical structure from a materialized
    :class:`DseGrid`, which is what the byte-identity tests (and the CI
    streamed-vs-materialized check) compare reports through.
    """

    axis_names: tuple[str, ...]
    workloads: tuple[str, ...]
    configs: int                    #: configurations priced (incl. refined)
    space_size: int                 #: cartesian size of the base space
    refined: int                    #: refinement configurations on top
    front_cap: int | None
    aggregate: WorkloadFront
    per_workload: tuple[WorkloadFront, ...]

    @classmethod
    def from_grid(cls, grid: DseGrid,
                  front_cap: int | None = None) -> "StreamSummary":
        """The summary a streamed sweep of the same space would produce.

        Only defined for complete grids: the streamed path has no
        failure slots (a profile that cannot be priced raises), so a
        grid with failures has no streamed twin.
        """
        if grid.failures:
            raise ValueError("a grid with failed cells has no streamed twin")
        key = (lambda p: p.objectives)

        def build(workload: str) -> WorkloadFront:
            points = (grid.aggregate() if workload == AGGREGATE
                      else grid.select(workload=workload))
            front = pareto_front(points, key=key)
            best = {}
            for objective in OBJECTIVES:
                index = min(range(len(points)),
                            key=lambda i: (getattr(points[i], objective), i))
                best[objective] = points[index]
            return WorkloadFront(
                workload=workload, points=len(points), front_size=len(front),
                front=tuple(front if front_cap is None else front[:front_cap]),
                knee=knee_point(front, key=key),
                best_time=best["time_s"], best_energy=best["energy_j"],
                best_area=best["area_les"])

        configs = len(grid.configs())
        return cls(
            axis_names=grid.axis_names(),
            workloads=grid.workloads(),
            configs=configs,
            space_size=configs,
            refined=0,
            front_cap=front_cap,
            aggregate=build(AGGREGATE),
            per_workload=tuple(build(w) for w in grid.workloads()),
        )


def stream_profiles(pairs: Sequence[WorkloadPair], fpu_builds: Sequence[bool],
                    *, budget: int, runner: ExperimentRunner,
                    base: HwConfig) -> dict[tuple[str, str], ProfileVectors]:
    """One lowered profile per (workload, build) -- or an exception.

    A composed pipeline pair profiles each weighted invocation and
    lowers the exact composition
    (:func:`repro.nfp.linear.compose_profiles`), so downstream pricing
    never distinguishes pipelines from plain workloads.

    The streamed path has no per-cell failure slots: a profile whose
    retries ran out raises, and an unclean (self-modifying) profile has
    no linear pricing at all, so it raises a :class:`UsageError`
    pointing at the materialized ``--profile`` sweep, whose per-point
    metered fallback handles it exactly.

    Also the evaluation server's cold-fill entry point: one (workload,
    build) pair profiled through the resilient cached runner yields the
    lowered vectors the server keeps hot, with exactly the failure
    semantics above (re-entrant: no module or engine state is touched).
    """
    from repro.dse.evaluate import (   # deferred, see _job_nfps
        composed_vectors,
        profile_task,
    )
    from repro.nfp.linear import ExecutionProfile
    entries = []   # (name, build, [(flat task index, weight), ...])
    tasks = []
    owners = []    # flat task index -> (name, build)
    for pair in pairs:
        for fpu in fpu_builds:
            core = replace(base.core, has_fpu=fpu)
            build, program = pair.build_for(core)
            part_ids = []
            for part_program, count in pipeline_parts(program):
                part_ids.append((len(tasks), count))
                tasks.append(profile_task(part_program, budget, core))
                owners.append((pair.name, build))
            entries.append((pair.name, build, part_ids))
    flat_profiles: list[ExecutionProfile] = []
    for (name, build), payload in zip(owners, runner.run_tasks(tasks)):
        if is_failure(payload):
            failure = TaskFailure.from_payload(payload)
            raise RuntimeError(
                f"profiling {name!r} ({build}) failed after "
                f"{failure.attempts} attempts: {failure.error}")
        profile = ExecutionProfile.from_payload(payload["profile"])
        if not profile.clean:
            raise UsageError(
                f"workload {name!r} ({build}) is self-modifying; the "
                f"streamed sweep has no metered fallback -- run the "
                f"materialized profiled sweep instead")
        flat_profiles.append(profile)
    vectors: dict[tuple[str, str], ProfileVectors] = {}
    for name, build, part_ids in entries:
        vectors[(name, build)] = composed_vectors(
            [(flat_profiles[i], count) for i, count in part_ids])
    return vectors


def sweep_streamed(space: DesignSpace,
                   pairs: Sequence[WorkloadPair], *,
                   budget: int,
                   runner: ExperimentRunner | None = None,
                   base: HwConfig | None = None,
                   chunk: int = 65536,
                   refine: int = 0,
                   front_cap: int | None = None,
                   shards: int | None = None) -> StreamSummary:
    """Generate-price-reduce: sweep a space without materializing it.

    The streaming counterpart of :func:`sweep_profiled`: each distinct
    workload build is profiled once, then one
    :class:`~repro.dse.stream._FastSweep` prices the cartesian product
    from factored per-axis cost tables in bounded-memory chunks and
    reduces it on the fly into exact Pareto fronts, per-objective
    minima and knees -- the full grid never exists, so million-config
    spaces fit in memory proportional to the front plus one chunk.
    Results are byte-identical to
    ``StreamSummary.from_grid(sweep_profiled(...))`` at equal
    ``front_cap`` (the property tests and the CI check enforce it).
    Every axis needs a lowering hook (``Axis.lower``; all stock axes
    have one); a space the engine cannot price exactly raises a
    :class:`~repro.runner.resilience.UsageError` pointing at the
    materialized sweep -- there is no fallback path.

    ``refine`` adds that many adaptive coordinate-refinement rounds
    around the streaming aggregate knee
    (:meth:`~repro.dse.stream._FastSweep.refine`); refined candidates
    are off-grid, so a refined summary is a superset of the base
    space's.  ``front_cap`` bounds how many front members are
    *materialized* as points per workload (fronts over near-continuous
    axes can approach the grid in size); counts, knees and minima are
    always exact.

    ``shards`` splits the flat index space into that many contiguous
    ranges priced in parallel worker processes (:mod:`repro.dse.shard`);
    the parent folds their exported reductions into its own sweep's
    stores and finishes exactly as the inline sweep does -- Pareto
    reduction is associative, so the summary (and every report built
    from it) is byte-identical to ``shards=1``.  ``None`` picks a count
    from the worker budget but keeps small spaces inline.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("sweep_streamed needs at least one workload pair")
    if front_cap is not None and front_cap < 1:
        raise ValueError(f"front_cap must be positive, got {front_cap}")
    runner = runner if runner is not None else ExperimentRunner()
    base = base if base is not None else HwConfig()
    space.check(base)   # fail before any profiling
    fpu_axis_values = None
    for name, values in space.axes:
        if name == "fpu":
            fpu_axis_values = values
    fpu_builds = (sorted({bool(v) for v in fpu_axis_values})
                  if fpu_axis_values is not None
                  else [base.core.has_fpu])
    vectors = stream_profiles(pairs, fpu_builds, budget=budget,
                              runner=runner, base=base)

    # deferred: both modules import back into this one, and the sweep
    # engine loads numpy
    from repro.dse.shard import price_shards, resolve_shards
    from repro.dse.stream import _FastSweep
    fast = _FastSweep(space, pairs, vectors, base, chunk)
    n_shards = resolve_shards(shards, space.size)
    if n_shards > 1:
        for shard in price_shards(space, pairs, vectors, base, runner,
                                  chunk=chunk, shards=n_shards):
            for workload, export in shard.items():
                fast.stores[workload].absorb(export)
    else:
        fast.run()
    refined = fast.refine(refine)
    workload_names = [pair.name for pair in pairs]
    return StreamSummary(
        axis_names=space.axis_names,
        workloads=tuple(workload_names),
        configs=space.size + refined,
        space_size=space.size,
        refined=refined,
        front_cap=front_cap,
        aggregate=fast.workload_front(AGGREGATE, front_cap),
        per_workload=tuple(fast.workload_front(name, front_cap)
                           for name in workload_names),
    )


def sweep_estimated(space: DesignSpace | Sequence[SweepConfig],
                    pairs: Sequence[WorkloadPair], *,
                    budget: int,
                    estimator_for: Callable[[SweepConfig], object],
                    base: HwConfig | None = None) -> DseGrid:
    """Estimate every grid point with the mechanistic model (Eq. 1).

    ``estimator_for`` maps a candidate configuration to the
    :class:`~repro.nfp.estimator.NFPEstimator` calibrated for it; the
    estimator's own functional core runs the simulation, exactly as the
    pre-engine Table IV code path did, so presets built on this function
    reproduce their historical numbers bit-for-bit.
    """
    configs = (space.configs(base) if isinstance(space, DesignSpace)
               else tuple(space))
    points = []
    for config in configs:
        estimator = estimator_for(config)
        for pair in pairs:
            build, program = pair.build_for(config.hw.core)
            if isinstance(program, PipelineProgram):
                raise UsageError(
                    f"pipeline workload {pair.name!r} has no estimation "
                    f"path; use the profiled, streamed or metered sweep")
            report = estimator.estimate_program(
                program, kernel_name=f"{pair.name}-{build}",
                max_instructions=budget)
            points.append(DsePoint(
                config=config.name,
                axis_values=config.axis_values,
                workload=pair.name,
                build=build,
                time_s=report.time_s,
                energy_j=report.energy_j,
                area_les=config_area_les(config),
                retired=report.sim.retired,
                cycles=None,
            ))
    return DseGrid(points=tuple(points))
