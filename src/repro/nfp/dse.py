"""Design-space exploration: is the FPU worth its chip area? (Section VI.D)

The model's first application in the paper: simulate a workload compiled
*with* FP instructions on a core with FPU and compiled *soft-float* on a
core without, compare estimated time/energy, and weigh the savings against
the synthesis area increase (Table IV).

Since the generalized exploration engine landed (:mod:`repro.dse`), this
module is a thin preset over it: :func:`explore_fpu` sweeps the one-axis
FPU design space on the estimation path
(:func:`repro.dse.engine.sweep_estimated`) and reshapes the grid into
the classic Table IV report.  The numbers are bit-identical to the
pre-engine implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dse.axes import DesignSpace
from repro.dse.engine import sweep_estimated
from repro.dse.workload import WorkloadPair
from repro.hw.area import fpu_area_increase
from repro.nfp.estimator import NFPEstimator
from repro.vm.config import CoreConfig
from repro.vm.cpu import DEFAULT_BUDGET

__all__ = ["WorkloadPair", "DseRow", "DseReport", "explore_fpu"]

#: Configuration names of the Table IV space (the fpu axis labels).
FPU_CONFIG = "fpu"
NOFPU_CONFIG = "nofpu"


@dataclass(frozen=True)
class DseRow:
    """Table IV row for one workload: relative change when adding an FPU."""

    workload: str
    energy_change: float
    time_change: float
    float_energy_j: float
    fixed_energy_j: float
    float_time_s: float
    fixed_time_s: float

    @property
    def energy_change_percent(self) -> float:
        return 100.0 * self.energy_change

    @property
    def time_change_percent(self) -> float:
        return 100.0 * self.time_change


@dataclass(frozen=True)
class DseReport:
    """Full Table IV: per-workload changes plus the area cost."""

    rows: tuple[DseRow, ...]
    area_increase: float

    @property
    def area_increase_percent(self) -> float:
        return 100.0 * self.area_increase

    def row(self, workload: str) -> DseRow:
        for r in self.rows:
            if r.workload == workload:
                return r
        raise KeyError(workload)


def explore_fpu(estimator_fpu: NFPEstimator, estimator_nofpu: NFPEstimator,
                workloads: Sequence[WorkloadPair],
                max_instructions: int = DEFAULT_BUDGET) -> DseReport:
    """Run the Table-IV experiment over ``workloads``.

    Each workload's ``float`` build is estimated on the FPU platform and
    its ``fixed`` build on the FPU-less platform; the reported change is
    ``(float - fixed) / fixed``, i.e. what introducing an FPU changes.
    """
    grid = sweep_estimated(
        DesignSpace.single("fpu", (True, False)), workloads,
        budget=max_instructions,
        estimator_for=lambda config: (estimator_fpu if config.hw.core.has_fpu
                                      else estimator_nofpu))
    rows = []
    for pair in workloads:
        with_fpu = grid.point(FPU_CONFIG, pair.name)
        without_fpu = grid.point(NOFPU_CONFIG, pair.name)
        rows.append(DseRow(
            workload=pair.name,
            energy_change=(with_fpu.energy_j - without_fpu.energy_j)
            / without_fpu.energy_j,
            time_change=(with_fpu.time_s - without_fpu.time_s)
            / without_fpu.time_s,
            float_energy_j=with_fpu.energy_j,
            fixed_energy_j=without_fpu.energy_j,
            float_time_s=with_fpu.time_s,
            fixed_time_s=without_fpu.time_s,
        ))
    return DseReport(rows=tuple(rows),
                     area_increase=fpu_area_increase(CoreConfig()))
