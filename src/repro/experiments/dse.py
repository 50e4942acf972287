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

Long sweeps are fault-tolerant: completed cells are checkpointed
periodically under ``<cache root>/runs/<run id>.json``, an interrupted
sweep raises :class:`DseInterrupted` carrying the partial result, and
``repro dse --resume RUN_ID`` continues from the last checkpoint with a
byte-identical final report (the sweep parameters must match the ones
the checkpoint was taken under).  Checkpointing is on whenever the result
cache is (or when a run id is named explicitly), so ``REPRO_CACHE=off``
runs stay fully stateless by default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.dse.axes import DesignSpace
from repro.dse.engine import (
    DseGrid,
    StreamSummary,
    SweepInterrupted,
    sweep,
    sweep_streamed,
)
from repro.dse.report import StreamReport, SweepReport
from repro.dse.workload import resolve_pairs
from repro.experiments.scale import Scale, get_scale
from repro.experiments.setup import runner_from_env
from repro.hw.config import HwConfig
from repro.runner.resilience import (
    CheckpointStore,
    SweepCheckpoint,
    UsageError,
    cache_base_dir,
)
from repro.vm.config import CoreConfig


def checkpoint_root() -> Path:
    """Where sweep checkpoint manifests live (``<cache root>/runs``)."""
    return cache_base_dir() / "runs"


def default_run_id(spec: dict) -> str:
    """The content-derived run id of a sweep: same sweep, same id.

    Hashed over the checkpoint spec (scale, axes with their values,
    workload filter), so re-invoking an interrupted command line
    resumes its own checkpoint without the user naming anything.
    """
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class DseResult:
    """Sweep outcome plus the context it ran in."""

    report: SweepReport
    space: DesignSpace
    scale_name: str
    run_id: str | None = None   #: checkpoint id (None: checkpointing off)
    partial: bool = False       #: True when the sweep was interrupted

    @property
    def grid(self) -> DseGrid:
        return self.report.grid

    def render(self, fmt: str = "text") -> str:
        return self.report.render(fmt)


class DseInterrupted(KeyboardInterrupt):
    """``repro dse`` was interrupted; carries the partial result."""

    def __init__(self, result: DseResult, completed: int, total: int):
        super().__init__(
            f"dse sweep interrupted at {completed}/{total} cells")
        self.result = result
        self.completed = completed
        self.total = total


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
        resume: str | None = None,
        run_id: str | None = None,
        checkpoint_every: int = 8,
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

    ``resume`` continues a previous run's checkpoint by id: it must
    exist, and a checkpoint taken under other sweep parameters raises
    :class:`~repro.runner.resilience.UsageError` naming the differing
    keys, leaving the checkpoint untouched.  ``run_id`` names a run
    explicitly; a stored checkpoint under that id whose parameters
    differ is started afresh.  An interruption (Ctrl-C) flushes the
    checkpoint and raises :class:`DseInterrupted` with the partial
    result attached.

    ``stream`` (the ``repro dse --stream`` flag; ``refine > 0`` implies
    it) runs the generate-price-reduce path instead
    (:func:`repro.dse.engine.sweep_streamed`): the grid is never
    materialized, so million-config spaces sweep in bounded memory, and
    the report renders byte-identically to the materialized sweep at
    equal ``front_cap`` (a positive count, streamed sweeps only).
    Streamed sweeps keep no checkpoint (pricing restarts in seconds; the
    profile simulations are already content-cached), so they are
    incompatible with ``resume``/``run_id``.

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
    if stream or refine:
        if resume is not None or run_id is not None:
            raise UsageError(
                "streamed sweeps keep no checkpoint; drop "
                "--resume/--run-id or drop --stream/--refine")
        if refine < 0:
            raise UsageError("--refine takes a non-negative round count")
        if shards is not None and shards < 1:
            raise UsageError("--shards takes a positive shard count")
        if front_cap is not None and front_cap < 1:
            raise UsageError("--front-cap takes a positive member count")
        mode = f", refine {refine}" if refine else ""
        suite = f", workloads {workloads}" if workloads else ""
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
    spec = {
        "scale": scale.name,
        "axes": [[name, list(values)] for name, values in space.axes],
        "workloads": workloads or "",
    }
    checkpoint = None
    rid = None
    if runner.cache is not None or resume is not None or run_id is not None:
        store = CheckpointStore(checkpoint_root())
        if resume is not None:
            rid = resume
            manifest = store.load(rid)
            if manifest is None:
                raise UsageError(
                    f"no checkpoint {rid!r} under {store.root} -- "
                    f"run ids are printed when a sweep is interrupted")
            stored = manifest.get("spec")
            stored = stored if isinstance(stored, dict) else {}
            differ = sorted(key for key in stored.keys() | spec.keys()
                            if stored.get(key) != spec.get(key))
            if differ:
                raise UsageError(
                    f"checkpoint {rid!r} was taken with other sweep "
                    f"parameters (differing: {', '.join(differ)}); rerun "
                    f"with the original parameters to resume it")
        else:
            rid = run_id or default_run_id(spec)
        checkpoint = SweepCheckpoint.open(store, rid, spec)

    suite = f", workloads {workloads}" if workloads else ""
    title = f"design-space exploration ({scale.name} scale{suite})"
    try:
        grid = sweep(
            space, resolve_pairs(workloads, scale),
            budget=scale.max_instructions, runner=runner, base=base,
            checkpoint=checkpoint, chunk=checkpoint_every)
    except SweepInterrupted as exc:
        partial = DseResult(
            report=SweepReport(exc.grid, title=f"{title} [partial]"),
            space=space, scale_name=scale.name, run_id=rid, partial=True)
        raise DseInterrupted(partial, completed=exc.completed,
                             total=exc.total) from None
    return DseResult(report=SweepReport(grid, title=title),
                     space=space, scale_name=scale.name, run_id=rid)
