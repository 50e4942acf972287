"""Multi-dimensional hardware design-space exploration.

The NFP model exists to answer design questions; this package turns the
reproduction into the exploration tool the paper motivates.  A
:class:`DesignSpace` (an ordered selection of registered axes -- clock
frequency, FPU presence, register windows, memory wait states, ...) is
swept across the workload suite through the cached parallel
:class:`~repro.runner.ExperimentRunner`; the resulting :class:`DseGrid`
is classified into Pareto fronts over (time, energy, area) and rendered
as text, CSV or JSON (:class:`SweepReport`).

The sweeps are :func:`sweep` (the materialized grid, priced from one
profile per workload build; ``metered=True`` is the per-point oracle),
:func:`sweep_streamed` (fronts without the grid) and
:func:`sweep_estimated` (the paper's Eq. 1 path behind Table IV).

Entry points::

    python -m repro dse --scale smoke              # stock 36-config sweep
    python -m repro dse --axes clock_mhz,fpu       # custom space
    python -m repro dse --scale smoke --stream     # no grid in memory
"""

from repro.dse.axes import (
    AXES,
    DEFAULT_AXIS_NAMES,
    Axis,
    AxisLowering,
    DesignSpace,
    SweepConfig,
    get_axis,
    register_axis,
)
from repro.dse.engine import (
    AGGREGATE,
    OBJECTIVES,
    DseGrid,
    DsePoint,
    FailedCell,
    StreamSummary,
    WorkloadFront,
    sweep,
    sweep_estimated,
    sweep_streamed,
)
from repro.dse.pareto import (
    classify,
    dominates,
    knee_point,
    pareto_front,
)
from repro.dse.report import StreamReport, SweepReport
from repro.dse.workload import WorkloadPair, resolve_pairs

__all__ = [
    "AGGREGATE",
    "AXES",
    "Axis",
    "AxisLowering",
    "DEFAULT_AXIS_NAMES",
    "DesignSpace",
    "DseGrid",
    "DsePoint",
    "FailedCell",
    "OBJECTIVES",
    "StreamReport",
    "StreamSummary",
    "SweepConfig",
    "SweepReport",
    "WorkloadFront",
    "WorkloadPair",
    "classify",
    "dominates",
    "get_axis",
    "knee_point",
    "pareto_front",
    "register_axis",
    "resolve_pairs",
    "sweep",
    "sweep_estimated",
    "sweep_streamed",
]
