"""Functional configuration of the simulated core.

:class:`CoreConfig` holds everything the *functional* simulation needs to
know; timing/energy/area parameters (the non-functional side) live in
:mod:`repro.hw.config`, which embeds a ``CoreConfig``.  This mirrors the
paper's split between the OVP processor model (functional) and the
measurement-derived cost model (non-functional).

Two knobs pick between the one block emitter
(:func:`repro.vm.blocks.compile_block`) and the per-instruction loops:
``blocks_enabled`` for functional runs and ``metered_blocks_enabled``
for profiled runs, which compile the same blocks with profiling on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.vm.memory import DEFAULT_BASE, DEFAULT_SIZE

#: Default maximum number of fused instructions per translated superblock.
DEFAULT_BLOCK_SIZE = 32


@dataclass(frozen=True)
class CoreConfig:
    """Functional parameters of a LEON3-class SPARC V8 core.

    Attributes
    ----------
    has_fpu:
        Whether the GRFPU is present.  Without it, executing any FP opcode
        raises the ``fp_disabled`` trap (kernels must be built soft-float).
    nwindows:
        Number of register windows (LEON3 default is 8); deeper call
        chains incur window overflow/underflow trap costs in the hardware
        model.
    ram_size, ram_base:
        Geometry of the single RAM bank.
    stack_reserve:
        Bytes reserved at the top of RAM for the initial stack.
    blocks_enabled:
        When ``True`` (the default) the fast ISS loop dispatches whole
        translated superblocks (:func:`repro.vm.blocks.compile_block`
        with profiling off); when ``False`` it falls back to the
        per-instruction loop.  Both modes produce bit-identical
        architectural results and counters -- the knob exists for A/B
        experiments and exactness-sensitive tooling.
    block_size:
        Maximum number of straight-line instructions fused into one
        superblock (the block terminator and a fused delay slot come on
        top of this).
    metered_blocks_enabled:
        When ``True`` (the default) the *instrumented* loop
        (:meth:`repro.vm.cpu.Cpu.run_profiled`) dispatches the same
        superblocks compiled with profiling on, and the hardware testbed
        (:meth:`repro.hw.board.Board.measure_raw`) prices the profiled
        run; when ``False`` both observe every retired instruction, the
        testbed through its stepwise cost meter
        (:class:`repro.hw.board.CostMeter`).  Cycles, counters and time
        are bit-identical either way and energy agrees within 1e-12
        relative -- the knob exists for A/B benchmarks and
        exactness-sensitive tooling.
    """

    has_fpu: bool = True
    nwindows: int = 8
    ram_size: int = DEFAULT_SIZE
    ram_base: int = DEFAULT_BASE
    stack_reserve: int = 1 << 20
    blocks_enabled: bool = True
    block_size: int = DEFAULT_BLOCK_SIZE
    metered_blocks_enabled: bool = True

    def __post_init__(self) -> None:
        if self.nwindows < 2 or self.nwindows > 32:
            raise ValueError("SPARC V8 allows 2..32 register windows")
        if self.stack_reserve <= 0 or self.stack_reserve >= self.ram_size:
            raise ValueError("stack_reserve must be within RAM")
        if self.block_size < 1 or self.block_size > 1024:
            raise ValueError("block_size must be in 1..1024")

    def without_fpu(self) -> "CoreConfig":
        """A copy of this configuration with the FPU removed."""
        return replace(self, has_fpu=False)

    def with_fpu(self) -> "CoreConfig":
        """A copy of this configuration with the FPU present."""
        return replace(self, has_fpu=True)

    def with_blocks(self, enabled: bool = True,
                    block_size: int | None = None) -> "CoreConfig":
        """A copy with block translation toggled (and optionally resized)."""
        return replace(self, blocks_enabled=enabled,
                       block_size=self.block_size if block_size is None
                       else block_size)

    def with_metered_blocks(self, enabled: bool = True) -> "CoreConfig":
        """A copy with profiled block dispatch toggled."""
        return replace(self, metered_blocks_enabled=enabled)
