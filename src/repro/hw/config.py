"""Full hardware configuration: functional core + non-functional cost model.

:class:`HwConfig` is what "synthesising a LEON3 onto the DE2-115" pins
down in the paper: clock rate, presence of the FPU, cycle and energy cost
structure, and static power.  Factory functions provide the two
configurations the paper evaluates (baseline CPU with FPU, and the same
CPU without FPU for ``-msoft-float`` builds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from repro.hw.energy import (
    DEFAULT_JITTER_AMPLITUDE,
    UNTAKEN_BRANCH_ENERGY_FACTOR,
    WINDOW_TRAP_ENERGY_NJ,
    default_energy_table,
)
from repro.hw.timing import (
    UNTAKEN_BRANCH_DISCOUNT,
    WINDOW_TRAP_CYCLES,
    default_cycle_table,
)
from repro.vm.config import CoreConfig


class ScaledDynTable(dict):
    """A dynamic-energy table derived as ``base * scale``.

    Entry-wise identical to ``{m: nj * scale for m, nj in base.items()}``
    but carries its factorization, so batch evaluators can reduce the
    base table once and rescale the dots -- one multiply per derived
    table instead of one exact reduction (see
    :class:`repro.nfp.linear.BatchNfpEngine`).  Workers receive it
    pickled down to a plain mapping, which only costs them the fast
    dedup, never correctness.
    """

    __slots__ = ("base", "scale")

    def __init__(self, base: Mapping[str, float], scale: float):
        super().__init__({m: nj * scale for m, nj in base.items()})
        self.base = base
        self.scale = scale


def check_clock_hz(clock_hz: float) -> None:
    """Raise ``ValueError`` unless ``clock_hz`` is a finite rate of at
    least 1 Hz (a slower clock's cycle time, ``1 / clock_hz``, can
    overflow to infinity)."""
    if not (math.isfinite(clock_hz) and clock_hz > 0):
        raise ValueError("clock_hz must be positive and finite")
    if clock_hz < 1.0:
        raise ValueError("clock_hz must be at least 1 Hz")


@dataclass(frozen=True)
class HwConfig:
    """A fully priced hardware platform.

    Attributes
    ----------
    name:
        Human-readable configuration name (used in reports).
    core:
        Functional configuration handed to the simulator.
    clock_hz:
        Core clock; the DE2-115 LEON3 designs run at 50 MHz.
    cycle_table / dyn_energy_nj:
        Per-mnemonic base costs (see :mod:`repro.hw.timing` /
        :mod:`repro.hw.energy`).
    static_power_w:
        Leakage + clock-tree power charged for the whole run duration.
    jitter_amplitude:
        Data-dependent dynamic-energy variation (+/- fraction).
    """

    name: str = "leon3-50mhz"
    core: CoreConfig = field(default_factory=CoreConfig)
    clock_hz: float = 50e6
    cycle_table: Mapping[str, int] = field(
        default_factory=lambda: MappingProxyType(default_cycle_table()))
    dyn_energy_nj: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType(default_energy_table()))
    static_power_w: float = 0.040
    jitter_amplitude: float = DEFAULT_JITTER_AMPLITUDE
    untaken_branch_discount: int = UNTAKEN_BRANCH_DISCOUNT
    untaken_branch_energy_factor: float = UNTAKEN_BRANCH_ENERGY_FACTOR
    window_trap_cycles: int = WINDOW_TRAP_CYCLES
    window_trap_energy_nj: float = WINDOW_TRAP_ENERGY_NJ

    def __post_init__(self) -> None:
        check_clock_hz(self.clock_hz)
        if not 0 <= self.jitter_amplitude < 0.5:
            raise ValueError("jitter_amplitude must be in [0, 0.5)")

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.clock_hz

    @cached_property
    def cost_table(self) -> dict[str, tuple[int, float, int]]:
        """``mnemonic -> (base cycles, dynamic energy nJ, cost flag)``.

        The merged retire-cost table every meter over this configuration
        shares.  Built once per :class:`HwConfig` instance (the build
        loops over all instruction specs, so hoisting it out of the
        per-measurement path matters for the testbed's throughput); the
        ``cached_property`` write lands in the instance ``__dict__``
        directly, which is legal on frozen dataclasses.
        """
        from repro.vm.blocks import cost_flags

        # the flag classification is shared with the profiled block
        # compiler and the execution profiler via cost_flags()
        return {mnemonic: (self.cycle_table[mnemonic],
                           self.dyn_energy_nj[mnemonic], flag)
                for mnemonic, flag in cost_flags().items()}

    # -- pickling (the experiment runner ships configs to worker processes) --

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("cost_table", None)  # cached_property: rebuilt on demand
        state["cycle_table"] = dict(self.cycle_table)
        state["dyn_energy_nj"] = dict(self.dyn_energy_nj)
        return state

    def __setstate__(self, state):
        state["cycle_table"] = MappingProxyType(state["cycle_table"])
        state["dyn_energy_nj"] = MappingProxyType(state["dyn_energy_nj"])
        self.__dict__.update(state)


def leon3_fpu(**core_overrides) -> HwConfig:
    """The paper's baseline CPU *including* the FPU."""
    return HwConfig(name="leon3-fpu",
                    core=CoreConfig(has_fpu=True, **core_overrides))


def leon3_nofpu(**core_overrides) -> HwConfig:
    """The same CPU synthesised without an FPU (soft-float kernels only)."""
    return HwConfig(name="leon3-nofpu",
                    core=CoreConfig(has_fpu=False, **core_overrides))
