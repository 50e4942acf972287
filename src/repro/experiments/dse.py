"""The ``repro dse`` driver: sweep a design space over the workload suite.

The generalized counterpart of Table IV: instead of one FPU bit, a
multi-dimensional grid of candidate platforms (clock frequency, FPU,
register windows, memory wait states, ... -- see :mod:`repro.dse.axes`)
is priced across a workload suite resolved from the registry (default:
the paper's Table III preset; the ``--workloads`` flag selects any
preset/family/glob combination).  Each workload build is profiled once
on the testbed, through the shared cached parallel runner, and every
candidate platform is priced from that profile
(:func:`repro.dse.engine.sweep`).  The result is the Pareto structure
over (time, energy, area): which configurations are worth building, and
which are dominated.

The profiles are the only costly part of a sweep, and the runner caches
each one the moment it finishes.  An interrupted sweep therefore
resumes by being run again with the same arguments: it simulates only
the profiles still missing and prices the whole grid in one batch, so
its report is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.axes import DesignSpace
from repro.dse.engine import DseGrid, StreamSummary, sweep, sweep_streamed
from repro.dse.report import StreamReport, SweepReport
from repro.dse.workload import resolve_pairs
from repro.experiments.scale import Scale, get_scale
from repro.experiments.setup import runner_from_env
from repro.hw.config import HwConfig
from repro.runner.resilience import UsageError
from repro.vm.config import CoreConfig


@dataclass
class DseResult:
    """Sweep outcome plus the context it ran in."""

    report: SweepReport
    space: DesignSpace
    scale_name: str

    @property
    def grid(self) -> DseGrid:
        return self.report.grid

    def render(self, fmt: str = "text") -> str:
        return self.report.render(fmt)


@dataclass
class DseStreamResult:
    """Streamed sweep outcome: the retained summary, never a grid."""

    report: StreamReport
    space: DesignSpace
    scale_name: str

    @property
    def summary(self) -> StreamSummary:
        return self.report.summary

    def render(self, fmt: str = "text") -> str:
        return self.report.render(fmt)


def run(scale: Scale | str | None = None,
        axes: str | None = None,
        workloads: str | None = None,
        stream: bool = False,
        refine: int = 0,
        front_cap: int | None = None,
        shards: int | None = None) -> DseResult | DseStreamResult:
    """Sweep ``axes`` (a ``DesignSpace.from_spec`` string, or the stock
    space) across a workload suite, profiling each workload build once.

    ``workloads`` is a registry filter (``repro dse --workloads``):
    preset names, families or globs over workload names, comma-combined
    (``img:*,fse:00``); ``None`` runs the paper's Table III preset,
    rendering exactly as before the registry existed.

    Every candidate platform is priced by the linear evaluator from
    those profiles, with the metered fallback for self-modifying
    workloads (see :func:`repro.dse.engine.sweep` for the exactness
    contract).

    A ``KeyboardInterrupt`` propagates unchanged; every profile that
    finished before it is already in the result cache, so calling
    ``run`` again with the same arguments resumes the sweep.

    ``stream`` (the ``repro dse --stream`` flag; ``refine > 0`` implies
    it) runs the generate-price-reduce path instead
    (:func:`repro.dse.engine.sweep_streamed`): the grid is never
    materialized, so million-config spaces sweep in bounded memory, and
    the report renders byte-identically to the materialized sweep at
    equal ``front_cap`` (a positive count, streamed sweeps only).

    ``shards`` (the ``repro dse --shards`` flag, streamed only) prices
    the flat config space across that many parallel worker processes
    with exact Pareto-front merging -- reports are byte-identical to
    ``--shards 1`` (see :mod:`repro.dse.shard`).  ``None`` derives a
    count from ``REPRO_WORKERS`` for large grids and keeps small ones
    serial.
    """
    scale = scale if isinstance(scale, Scale) else get_scale(
        scale if isinstance(scale, str) else None)
    space = (DesignSpace.from_spec(axes) if axes
             else DesignSpace.default())
    base = HwConfig(name="leon3", core=CoreConfig())
    runner = runner_from_env()
    suite = f", workloads {workloads}" if workloads else ""
    if stream or refine:
        if refine < 0:
            raise UsageError("--refine takes a non-negative round count")
        if shards is not None and shards < 1:
            raise UsageError("--shards takes a positive shard count")
        if front_cap is not None and front_cap < 1:
            raise UsageError("--front-cap takes a positive member count")
        mode = f", refine {refine}" if refine else ""
        title = (f"design-space exploration ({scale.name} scale, "
                 f"streamed{mode}{suite})")
        summary = sweep_streamed(
            space, resolve_pairs(workloads, scale),
            budget=scale.max_instructions, runner=runner, base=base,
            refine=refine, front_cap=front_cap, shards=shards)
        return DseStreamResult(
            report=StreamReport(summary, title=title),
            space=space, scale_name=scale.name)
    if shards is not None:
        raise UsageError("--shards only applies to streamed sweeps; "
                         "add --stream (or --refine)")
    if front_cap is not None:
        raise UsageError("--front-cap only applies to streamed sweeps; "
                         "add --stream (or --refine)")
    title = f"design-space exploration ({scale.name} scale{suite})"
    grid = sweep(space, resolve_pairs(workloads, scale),
                 budget=scale.max_instructions, runner=runner, base=base)
    return DseResult(report=SweepReport(grid, title=title),
                     space=space, scale_name=scale.name)
