"""The ``repro pipeline`` driver: structural sweeps of frame pipelines.

Pipelines (:mod:`repro.workloads.pipeline`) are priced by exact profile
composition, which makes their *structure* sweepable like any hardware
axis: a variant chain (a stage toggled off, a stage applied twice) is
just a different weighted sum over per-invocation profiles, so a
structural x hardware sweep costs one profile per distinct invocation
build plus dot products -- no additional simulation per variant.

``run`` sweeps the selected pipelines (optionally augmented with their
one-change structural variants) across a hardware design space on the
composed profile path (:func:`repro.dse.engine.sweep`); each
variant rides through the engine as its own workload, so the report's
Pareto structure compares chains and platforms in one grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.axes import DesignSpace
from repro.dse.engine import DseGrid, sweep
from repro.dse.report import SweepReport
from repro.experiments.scale import Scale, get_scale
from repro.experiments.setup import runner_from_env
from repro.hw.config import HwConfig
from repro.runner.resilience import UsageError
from repro.vm.config import CoreConfig
from repro.workloads.pipeline import (
    STAGES,
    PipelineSpec,
    pipeline_pair,
    pipeline_variant,
)
from repro.workloads.registry import specs


def registered_pipelines(name: str | None = None) -> tuple[PipelineSpec, ...]:
    """Registered pipeline specs, optionally narrowed to one name."""
    pipelines = tuple(spec.pipeline for spec in specs("pipe"))
    if name is None:
        return pipelines
    for pipeline in pipelines:
        if pipeline.name == name:
            return (pipeline,)
    known = ", ".join(p.name for p in pipelines)
    raise UsageError(f"unknown pipeline {name!r}; registered: {known}")


def structural_variants(spec: PipelineSpec,
                        repeat: int = 2) -> tuple[PipelineSpec, ...]:
    """The one-change neighbourhood of a chain: drops and repeats.

    One variant per stage toggled off (chains of a single stage have
    nothing to drop) and one per non-terminal stage applied ``repeat``
    times back to back -- terminal stages reduce their frame away, so
    repeating them is structurally invalid.  Deterministic order: drops
    in chain order, then repeats in chain order.
    """
    variants = []
    distinct = list(dict.fromkeys(spec.stages))
    if len(distinct) > 1:
        for stage in distinct:
            variants.append(pipeline_variant(spec, drop=(stage,)))
    if repeat > 1:
        for stage in distinct:
            if "terminal" in STAGES[stage].tags:
                continue
            variants.append(pipeline_variant(spec,
                                             repeats={stage: repeat}))
    return tuple(variants)


@dataclass
class PipelineResult:
    """Structural sweep outcome plus the context it ran in."""

    report: SweepReport
    space: DesignSpace
    scale_name: str
    pipelines: tuple[str, ...]

    @property
    def grid(self) -> DseGrid:
        return self.report.grid

    def render(self, fmt: str = "text") -> str:
        return self.report.render(fmt)


def run(scale: Scale | str | None = None,
        pipeline: str | None = None,
        axes: str | None = None,
        variants: bool = False,
        repeat: int = 2) -> PipelineResult:
    """Sweep pipelines (x structural variants) over a hardware space.

    ``pipeline`` selects one registered pipeline by name (default: all
    of them); ``axes`` is a ``DesignSpace.from_spec`` string (default:
    the stock grid).  With ``variants`` each pipeline also sweeps its
    one-change structural neighbourhood (:func:`structural_variants`):
    every stage toggled off and every non-terminal stage applied
    ``repeat`` times.  All chains are priced on the composed profile
    path, so the whole structural dimension reuses one profile per
    distinct stage invocation.
    """
    scale = scale if isinstance(scale, Scale) else get_scale(
        scale if isinstance(scale, str) else None)
    space = (DesignSpace.from_spec(axes) if axes
             else DesignSpace.default())
    if repeat < 2:
        raise UsageError("--repeat takes a count >= 2")
    chains: list[PipelineSpec] = []
    for spec in registered_pipelines(pipeline):
        chains.append(spec)
        if variants:
            chains.extend(structural_variants(spec, repeat=repeat))
    base = HwConfig(name="leon3", core=CoreConfig())
    grid = sweep(
        space, [pipeline_pair(chain, scale) for chain in chains],
        budget=scale.max_instructions, runner=runner_from_env(), base=base)
    mode = ", structural variants" if variants else ""
    title = (f"pipeline sweep ({scale.name} scale, composed profiles"
             f"{mode})")
    return PipelineResult(
        report=SweepReport(grid, title=title),
        space=space, scale_name=scale.name,
        pipelines=tuple(chain.name for chain in chains))


def catalogue(scale: Scale | None = None) -> list[tuple[str, str, str, int]]:
    """``(name, chain, classes, frames)`` rows for ``repro pipeline list``."""
    rows = []
    for spec in registered_pipelines():
        classes = ", ".join(f"{cls.name} x{cls.count}"
                            for cls in spec.classes)
        rows.append((spec.name, spec.chain(), classes, spec.frames))
    return rows
