"""The measurement testbed: run a kernel, measure time and energy.

:class:`Board` plays the role of the paper's Terasic DE2-115 + GRMON +
power-meter setup: it executes the kernel on an *instrumented* simulator
loop, obtains the cycle-accurate time and data-dependent energy of the
run, then passes the totals through the instrument model to produce what
the experimenter would read off.

The testbed cost model is linear in execution counts (the paper's Eq. 1),
so the totals come from one profiled run on the profile-fused superblocks
(:class:`repro.vm.profiler.ProfileMeter`) priced for this board by
:class:`repro.nfp.linear.LinearNfpEngine`: cycles, retired counts and
time are bit-identical to observing every retired instruction, and
energy agrees within 1e-12 relative.  :class:`CostMeter` is that
per-instruction observer -- the stepwise root oracle.  The board meters
with it directly when the run wrote into its own code (its profile is
unclean) or when the core disables instrumented blocks.

:meth:`Board.measure` splits into two halves: :meth:`Board.measure_raw`
runs the simulation and returns the *deterministic* totals (cacheable and
computable in a worker process, see :mod:`repro.runner`), and
:meth:`Board.reading` applies the stateful instrument model -- which must
happen in the parent process, in measurement order, because real
instruments consume their noise sequence one reading at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.hw.config import HwConfig
from repro.hw.powermeter import InstrumentModel
from repro.vm.blocks import FLAG_BRANCH as _FLAG_BRANCH
from repro.vm.blocks import FLAG_INTDIV as _FLAG_INTDIV
from repro.vm.blocks import jitter_table
from repro.vm.cpu import DEFAULT_BUDGET
from repro.vm.profiler import profile_run
from repro.vm.simulator import SimulationResult, Simulator
from repro.vm.state import CpuState


@dataclass
class Measurement:
    """One testbed measurement of a kernel run.

    ``true_*`` are the exact values accumulated by the hardware model;
    ``time_s``/``energy_j`` are the instrument readings (what the paper's
    Eq. 3 calls the measured values).
    """

    time_s: float
    energy_j: float
    true_time_s: float
    true_energy_j: float
    cycles: int
    sim: SimulationResult

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0


@dataclass
class RawMeasurement:
    """The deterministic half of a measurement (no instrument noise).

    Everything here is a pure function of (program, hardware config,
    budget): safe to compute in a worker process and to cache on disk
    keyed by content (see :mod:`repro.runner`).
    """

    cycles: int
    dyn_energy_nj: float
    true_time_s: float
    true_energy_j: float
    sim: SimulationResult


class CostMeter:
    """Retire observer accumulating cycles and dynamic energy.

    The per-instruction definition of the testbed cost model: ``table``
    holds per-mnemonic ``(base cycles, dynamic nJ, flag)`` entries
    (shared per :class:`HwConfig` via :attr:`HwConfig.cost_table`), the
    ``amp``/``untaken_*``/``wtrap_*`` constants parameterise the flag
    behaviours, and ``cycles``/``dyn_energy_nj`` accumulate in retire
    order.  :class:`repro.nfp.linear.LinearNfpEngine` reproduces these
    totals from an execution profile.
    """

    __slots__ = ("cycles", "dyn_energy_nj", "table", "amp", "jit",
                 "untaken_cycles", "untaken_energy_factor",
                 "wtrap_cycles", "wtrap_energy_nj", "spills", "fills")

    def __init__(self, config: HwConfig):
        self.cycles = 0
        self.dyn_energy_nj = 0.0
        self.table = config.cost_table
        self.amp = config.jitter_amplitude
        self.jit = jitter_table(self.amp)
        self.untaken_cycles = config.untaken_branch_discount
        self.untaken_energy_factor = config.untaken_branch_energy_factor
        self.wtrap_cycles = config.window_trap_cycles
        self.wtrap_energy_nj = config.window_trap_energy_nj
        self.spills = 0
        self.fills = 0

    def on_retire(self, pc: int, mnemonic: str, st: CpuState) -> None:
        base_cyc, dyn, flag = self.table[mnemonic]
        value = st.last_value
        if flag:
            if flag == _FLAG_BRANCH:
                if not st.taken:
                    base_cyc -= self.untaken_cycles
                    dyn *= self.untaken_energy_factor
            elif flag == _FLAG_INTDIV:
                base_cyc -= (32 - value.bit_length()) >> 1
            else:  # save/restore: charge window overflow/underflow traps
                if st.spill_count != self.spills:
                    self.spills = st.spill_count
                    base_cyc += self.wtrap_cycles
                    dyn += self.wtrap_energy_nj
                if st.fill_count != self.fills:
                    self.fills = st.fill_count
                    base_cyc += self.wtrap_cycles
                    dyn += self.wtrap_energy_nj
        self.cycles += base_cyc
        h = ((value * 2654435761) ^ (pc * 0x9E3779B1)) & 0xFFFFFFFF
        h ^= h >> 15
        # table lookup == jitter_factor(pc, value, amp), bit-identically
        self.dyn_energy_nj += dyn * self.jit[h & 0xFFFF]


class Board:
    """A synthesised CPU configuration on the test bench.

    Parameters
    ----------
    config:
        Hardware configuration (timing, energy, clock, FPU presence).
    instruments:
        Timer/power-meter model; a fresh default instance is created when
        omitted.  Pass :class:`~repro.hw.powermeter.PerfectInstruments`
        to read exact values.
    """

    def __init__(self, config: HwConfig | None = None,
                 instruments: InstrumentModel | None = None):
        self.config = config or HwConfig()
        self.instruments = instruments or InstrumentModel()

    def measure_raw(self, program: Program,
                    max_instructions: int = DEFAULT_BUDGET) -> RawMeasurement:
        """Run ``program`` and return the exact cycle/energy totals."""
        # deferred: repro.nfp imports this module
        from repro.nfp.linear import ExecutionProfile, LinearNfpEngine
        config = self.config
        if config.core.metered_blocks_enabled:
            sim, profile = profile_run(program, config.core,
                                       max_instructions)
            if profile["clean"]:
                nfp = LinearNfpEngine(config).evaluate(
                    ExecutionProfile.from_payload(profile))
                return RawMeasurement(
                    cycles=nfp.cycles,
                    dyn_energy_nj=nfp.dyn_energy_nj,
                    true_time_s=nfp.true_time_s,
                    true_energy_j=nfp.true_energy_j,
                    sim=sim,
                )
            # the run wrote into its own code: meter it per instruction
        meter = CostMeter(config)
        sim = Simulator(program, config.core).run_metered(
            meter, max_instructions=max_instructions)
        true_time = meter.cycles * config.cycle_seconds
        true_energy = (meter.dyn_energy_nj * 1e-9 +
                       config.static_power_w * true_time)
        return RawMeasurement(
            cycles=meter.cycles,
            dyn_energy_nj=meter.dyn_energy_nj,
            true_time_s=true_time,
            true_energy_j=true_energy,
            sim=sim,
        )

    def reading(self, raw: RawMeasurement) -> Measurement:
        """Read ``raw`` off this board's (stateful) instruments."""
        return Measurement(
            time_s=self.instruments.read_time(raw.true_time_s),
            energy_j=self.instruments.read_energy(raw.true_energy_j),
            true_time_s=raw.true_time_s,
            true_energy_j=raw.true_energy_j,
            cycles=raw.cycles,
            sim=raw.sim,
        )

    def measure(self, program: Program,
                max_instructions: int = DEFAULT_BUDGET) -> Measurement:
        """Run ``program`` on the bench and measure time and energy."""
        return self.reading(self.measure_raw(
            program, max_instructions=max_instructions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Board({self.config.name!r}, {self.config.clock_hz/1e6:.0f} MHz)"


# Re-exported convenience: a single retire-cost sanity checker used in tests.
def instruction_cost(config: HwConfig, mnemonic: str) -> tuple[int, float]:
    """Base (cycles, dynamic energy nJ) of ``mnemonic`` under ``config``."""
    return (config.cycle_table[mnemonic], config.dyn_energy_nj[mnemonic])
