"""The sweep engine: design space x workload suite -> objective grid.

Every sweep plans the same way: the candidates come from the axes'
lowerings (:class:`~repro.dse.axes.AxisLowering`), and the workload
builds are profiled in one pass
(:func:`repro.dse.evaluate.profile_builds`).  What differs between the
sweeps is only pricing and reduction.  Three public sweeps share this
module:

- :func:`sweep` materializes the grid.  Each distinct workload build is
  profiled once and every (candidate platform, workload) point is
  priced from that profile; ``metered=True`` runs one metered
  simulation per point instead, the oracle the priced grid is tested
  against.  Either way every simulation is a
  :class:`~repro.runner.tasks.SimTask` submitted to the
  :class:`~repro.runner.ExperimentRunner`, so a sweep is parallel
  across worker processes, content-addressed in the on-disk result
  cache, and bit-reproducible: the grid is built purely from the
  deterministic ``true_*`` totals, never from the stateful instrument
  model, so warm, cold, serial and parallel sweeps produce identical
  floats.
- :func:`sweep_streamed` prices the same space without materializing
  it and keeps only fronts, knees and per-objective winners; its
  profiles come from :func:`stream_profiles`, the same pass the
  evaluation server fills through.
- :func:`sweep_estimated` runs the paper's fast Eq.-1 path instead of
  the testbed; the Table IV FPU exploration
  (:func:`repro.nfp.dse.explore_fpu`) is built on it.

Every sweep reduces through one Pareto engine, the column store of
:mod:`repro.dse.pareto`: the grid views (:meth:`DseGrid.front`,
:meth:`DseGrid.knee`, :meth:`DseGrid.dominated_flags`) classify through
it, and every :class:`WorkloadFront` -- streamed, sharded or
:meth:`StreamSummary.from_grid` -- finishes one store through
:meth:`WorkloadFront.of`.

Materialized sweeps are fault-tolerant: a grid cell whose task retries
ran out becomes a :class:`FailedCell` on :attr:`DseGrid.failures`
(excluded from Pareto structure, marked in reports) instead of
aborting the campaign.  An interrupted sweep keeps every simulation
that finished, in the runner's result cache, so running it again
simulates only the rest and prices the grid anew in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.dse.axes import DesignSpace, SweepConfig
from repro.dse.pareto import (
    OBJECTIVES,
    _knee_seq,
    _Store,
    _store_of,
    classify,
    knee_point,
    pareto_front,
)
from repro.dse.workload import PipelineProgram, WorkloadPair
from repro.hw.area import memctrl_les, synthesize
from repro.hw.config import HwConfig
from repro.runner import ExperimentRunner

if TYPE_CHECKING:   # import cycle: repro.nfp's package init reaches back here
    from repro.dse.evaluate import PointNfp
    from repro.nfp.linear import ProfileVectors
from repro.runner.resilience import TaskFailure, UsageError

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
        report marks them).  One pass groups the points by configuration,
        in order of first appearance and keeping each configuration's
        point order, so every sum adds the same floats in the same order
        as a per-configuration :meth:`select` would.
        """
        expected = len(self.workloads())
        by_config: dict[str, list[DsePoint]] = {}
        for p in self.points:
            by_config.setdefault(p.config, []).append(p)
        out = []
        for config, points in by_config.items():
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


def _grid_jobs(space: DesignSpace | Sequence[SweepConfig],
               pairs: Sequence[WorkloadPair], base: HwConfig | None
               ) -> list[tuple[SweepConfig, WorkloadPair, str, object]]:
    configs = (space.configs(base) if isinstance(space, DesignSpace)
               else tuple(space))
    jobs = []
    for config in configs:
        for pair in pairs:
            build, program = pair.build_for(config.hw.core)
            jobs.append((config, pair, build, program))
    return jobs


def _grid_from_jobs(jobs: Sequence[tuple[SweepConfig, WorkloadPair, str,
                                         object]],
                    nfps: Sequence[PointNfp | TaskFailure]) -> DseGrid:
    """Assemble the grid from per-job NFPs.

    A job whose task retries ran out carries its :class:`TaskFailure`,
    which becomes a :class:`FailedCell` instead of a point.  The single
    construction point of every materialized grid (priced, metered or
    estimated), so the paths cannot drift apart structurally -- only
    the NFP source differs.
    """
    points = []
    failures = []
    for (config, pair, build, _), nfp in zip(jobs, nfps):
        if isinstance(nfp, TaskFailure):
            failures.append(FailedCell(
                config=config.name, workload=pair.name, build=build,
                attempts=nfp.attempts, error=nfp.error))
            continue
        points.append(DsePoint(
            config=config.name,
            axis_values=config.axis_values,
            workload=pair.name,
            build=build,
            time_s=nfp.time_s,
            energy_j=nfp.energy_j,
            area_les=config_area_les(config),
            retired=nfp.retired,
            cycles=nfp.cycles,
        ))
    return DseGrid(points=tuple(points), failures=tuple(failures))


def sweep(space: DesignSpace | Sequence[SweepConfig],
          pairs: Sequence[WorkloadPair], *,
          budget: int,
          runner: ExperimentRunner | None = None,
          base: HwConfig | None = None,
          metered: bool = False) -> DseGrid:
    """Price every (configuration, workload) point into a grid.

    By default each distinct workload build is profiled once (parallel,
    content-cached) and every candidate platform is priced from that
    profile (:func:`repro.dse.evaluate.profiled_points`): the cost is
    ``O(workloads)`` simulations plus ``O(configs x workloads)`` dot
    products.  ``metered=True`` runs one metered simulation per point
    instead (:func:`repro.dse.evaluate.metered_points`) -- the oracle
    the profile-once grid is tested against.  Retired counts, cycles
    and times are bit-identical between the two; energies agree to the
    metered accumulator's own float-rounding drift (<= 1e-12 relative
    across the smoke suite, see :mod:`repro.nfp.linear`).
    Self-modifying workloads fall back to metering per point, so the
    grid is always exact.  The grid holds deterministic totals only, so
    two sweeps of one space are bit-identical regardless of cache state
    or parallelism.  Failed tasks surface as failed cells, never as
    exceptions.
    """
    # deferred: repro.dse.evaluate reaches repro.nfp, whose package
    # import reaches back into this module through repro.nfp.dse
    from repro.dse.evaluate import metered_points, profiled_points
    runner = runner if runner is not None else ExperimentRunner()
    jobs = _grid_jobs(space, pairs, base)
    price = metered_points if metered else profiled_points
    return _grid_from_jobs(jobs, price(
        [(config.hw, pair) for config, pair, _, _ in jobs],
        budget=budget, runner=runner))


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

    @classmethod
    def of(cls, workload: str, store: _Store, front_cap: int | None,
           points_at: Callable[[list[int]], list[DsePoint]]
           ) -> "WorkloadFront":
        """Finish one Pareto store: the (capped) front, the knee and the
        per-objective winners, looked up as points by their seqs.

        The one finish of every summary: streamed, sharded and
        :meth:`StreamSummary.from_grid` alike.
        """
        fin = store.finalize()
        front_size = int(fin["seq"].size)
        limit = (front_size if front_cap is None
                 else min(front_cap, front_size))
        seqs = fin["seq"][:limit].tolist() + [_knee_seq(fin)]
        seqs.extend(store.best[objective][1] for objective in OBJECTIVES)
        points = points_at(seqs)
        best_time, best_energy, best_area = points[limit + 1:]
        return cls(
            workload=workload,
            points=store.count,
            front_size=front_size,
            front=tuple(points[:limit]),
            knee=points[limit],
            best_time=best_time,
            best_energy=best_energy,
            best_area=best_area)


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

        Each workload's points (and the aggregate's) go into one Pareto
        store in grid order and finish through :meth:`WorkloadFront.of`,
        exactly as a streamed sweep's stores do.  Only defined for
        complete grids: the streamed path has no failure slots (a
        profile that cannot be priced raises), so a grid with failures
        has no streamed twin.
        """
        if grid.failures:
            raise ValueError("a grid with failed cells has no streamed twin")

        def build(workload: str) -> WorkloadFront:
            points = (grid.aggregate() if workload == AGGREGATE
                      else grid.select(workload=workload))
            return WorkloadFront.of(
                workload, _store_of([p.objectives for p in points]),
                front_cap, lambda seqs: [points[s] for s in seqs])

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

    The builds are ``pairs x fpu_builds`` over ``base.core``, profiled
    in one runner batch by :func:`repro.dse.evaluate.profile_builds`.
    A composed pipeline pair profiles each weighted invocation and
    lowers the exact composition
    (:func:`repro.nfp.linear.compose_profiles`), so downstream pricing
    never distinguishes pipelines from plain workloads.

    The streamed path has no per-cell failure slots: a profile whose
    retries ran out raises, and an unclean (self-modifying) profile has
    no linear pricing at all, so it raises a :class:`UsageError`
    pointing at the materialized sweep, whose per-point metered
    fallback handles it exactly.

    Also the evaluation server's cold-fill entry point: one (workload,
    build) pair profiled through the resilient cached runner yields the
    lowered vectors the server keeps hot, with exactly the failure
    semantics above (re-entrant: no module or engine state is touched).
    """
    from repro.dse.evaluate import profile_builds   # deferred, see sweep
    builds = [(pair, replace(base.core, has_fpu=fpu))
              for pair in pairs for fpu in fpu_builds]
    vectors: dict[tuple[str, str], ProfileVectors] = {}
    for (pair, core), result in zip(builds, profile_builds(
            builds, budget=budget, runner=runner)):
        name, build = pair.name, pair.build_for(core)[0]
        if isinstance(result, TaskFailure):
            raise RuntimeError(
                f"profiling {name!r} ({build}) failed after "
                f"{result.attempts} attempts: {result.error}")
        if result is None:
            raise UsageError(
                f"workload {name!r} ({build}) is self-modifying; the "
                f"streamed sweep has no metered fallback -- run the "
                f"materialized sweep (drop --stream) instead")
        vectors[(name, build)] = result
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

    The streaming counterpart of :func:`sweep`: each distinct
    workload build is profiled once, then one
    :class:`~repro.dse.stream._FastSweep` prices the cartesian product
    from factored per-axis cost tables in bounded-memory chunks and
    reduces it on the fly into exact Pareto fronts, per-objective
    minima and knees -- the full grid never exists, so million-config
    spaces fit in memory proportional to the front plus one chunk.
    Results are byte-identical to
    ``StreamSummary.from_grid(sweep(...))`` at equal
    ``front_cap`` (the property tests and the CI check enforce it).
    A space the engine cannot price exactly (two axes lowering one
    cost-model field, cycle counts past int64) raises a
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
    pre-engine Table IV code path did, so :func:`repro.nfp.dse.explore_fpu`
    reproduces its historical numbers bit-for-bit.  Estimated points
    carry no cycle count.
    """
    from repro.dse.evaluate import PointNfp   # deferred, see sweep
    jobs = _grid_jobs(space, pairs, base)
    nfps = []
    for config, pair, build, program in jobs:
        if isinstance(program, PipelineProgram):
            raise UsageError(
                f"pipeline workload {pair.name!r} has no estimation "
                f"path; use the profiled, streamed or metered sweep")
        report = estimator_for(config).estimate_program(
            program, kernel_name=f"{pair.name}-{build}",
            max_instructions=budget)
        nfps.append(PointNfp(time_s=report.time_s, energy_j=report.energy_j,
                             cycles=None, retired=report.sim.retired,
                             profiled=False))
    return _grid_from_jobs(jobs, nfps)
