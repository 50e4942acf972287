"""Shared test utilities."""

from __future__ import annotations

from repro.asm import assemble
from repro.hw.board import CostMeter, RawMeasurement
from repro.hw.config import HwConfig
from repro.kir import Module, compile_module
from repro.vm import CoreConfig, SimulationResult, Simulator

EXIT_EPILOGUE = """
    mov 0, %g1
    ta 5
"""


def run_asm(source: str, has_fpu: bool = True,
            max_instructions: int = 5_000_000,
            nwindows: int = 8) -> SimulationResult:
    """Assemble and run a source snippet (must exit via ``ta 5``)."""
    config = CoreConfig(has_fpu=has_fpu, nwindows=nwindows)
    program = assemble(source)
    return Simulator(program, config).run(max_instructions=max_instructions)


def run_exit_code(body: str, **kwargs) -> int:
    """Run ``body`` (with %o0 as eventual exit code) and return the code."""
    source = f"    .text\n_start:\n{body}\n{EXIT_EPILOGUE}"
    return run_asm(source, **kwargs).exit_code


def run_kir(module: Module, float_abi: str = "hard", has_fpu: bool = True,
            max_instructions: int = 50_000_000) -> SimulationResult:
    """Compile a kernel-IR module and run it."""
    program = compile_module(module, float_abi=float_abi)
    config = CoreConfig(has_fpu=has_fpu)
    return Simulator(program, config).run(max_instructions=max_instructions)


def meter_stepwise(program, hw: HwConfig,
                   max_instructions: int = 50_000_000) -> RawMeasurement:
    """The stepwise root oracle: ``CostMeter`` observing every retire.

    Independent of :meth:`repro.hw.board.Board.measure_raw` (one
    profiled run priced for the board), so the equivalence tests compare
    two computations instead of the profile with itself.
    """
    meter = CostMeter(hw)
    sim = Simulator(program, hw.core).run_metered(
        meter, max_instructions=max_instructions)
    true_time = meter.cycles * hw.cycle_seconds
    return RawMeasurement(
        cycles=meter.cycles,
        dyn_energy_nj=meter.dyn_energy_nj,
        true_time_s=true_time,
        true_energy_j=meter.dyn_energy_nj * 1e-9
        + hw.static_power_w * true_time,
        sim=sim,
    )
