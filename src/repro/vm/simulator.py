"""High-level simulation facade: platform model + kernel, as in OVP.

To run a simulation OVP needs *a platform model* (CPU + memory) and *the
application as a binary executable (the kernel)*; :class:`Simulator` wires
exactly that: it instantiates RAM, loads a :class:`~repro.asm.program.Program`,
prepares the ABI environment (initial stack, exit stub) and executes until
the kernel calls the exit service.

The result carries the per-category instruction counts ``n_c`` that the
mechanistic model of :mod:`repro.nfp` multiplies with specific energies and
times (Eq. 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.asm.program import Program
from repro.isa import encoder
from repro.isa.categories import CATEGORY_IDS
from repro.vm.config import CoreConfig
from repro.vm.cpu import DEFAULT_BUDGET, Cpu, RetireObserver
from repro.vm.memory import Memory
from repro.vm.morpher import SEMIHOST_TRAP, Morpher
from repro.vm.state import CpuState
from repro.vm.syscalls import SYS_EXIT, semihost_dispatch


@dataclass
class SimulationResult:
    """Everything a simulation run produced.

    ``category_counts`` maps Table-I category ids (``"int_arith"`` ...) to
    retire counts; ``counts_vector`` is the same data in Table-I order for
    the estimation model.
    """

    exit_code: int
    retired: int
    category_counts: dict[str, int]
    mnemonic_counts: dict[str, int]
    console: str
    wall_seconds: float
    translated_pcs: int
    max_window_depth: int
    spill_count: int
    fill_count: int
    extras: dict[str, float] = field(default_factory=dict)

    @cached_property
    def counts_vector(self) -> tuple[int, ...]:
        """Category counts in Table-I order.

        Cached as a tuple: sweeps and reports hit this once per
        estimate, and the counts never change after the run.
        """
        return tuple(self.category_counts[cid] for cid in CATEGORY_IDS)

    @property
    def mips(self) -> float:
        """Simulated instructions per second of wall time (in millions)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.retired / self.wall_seconds / 1e6


class Simulator:
    """One loaded platform ready to execute a kernel.

    Parameters
    ----------
    program:
        The linked kernel image.
    config:
        Functional core configuration (FPU presence, windows, RAM).
    """

    _EXIT_STUB_BYTES = 16

    def __init__(self, program: Program, config: CoreConfig | None = None):
        self.program = program
        self.config = config or CoreConfig()
        self.memory = Memory(self.config.ram_size, self.config.ram_base)

        ram_end = self.memory.end
        if program.end_addr > ram_end - self.config.stack_reserve:
            raise ValueError(
                f"program ends at 0x{program.end_addr:08x} which collides "
                f"with the {self.config.stack_reserve}-byte stack reserve")
        self.memory.load_program(program.origin, program.load_image,
                                 program.bss_addr, program.bss_size)

        # Exit stub: a kernel that simply returns from its entry point lands
        # here and exits cleanly with %o0 as status (mirrors crt0 behaviour).
        stub_addr = ram_end - self._EXIT_STUB_BYTES
        self.memory.write_u32(stub_addr, encoder.encode_arith(
            "or", rd=1, rs1=0, imm=SYS_EXIT))
        self.memory.write_u32(stub_addr + 4, encoder.encode_trap(
            "ta", rs1=0, imm=SEMIHOST_TRAP))
        self.memory.write_u32(stub_addr + 8, encoder.encode_nop())
        self.memory.write_u32(stub_addr + 12, encoder.encode_nop())

        self.state = CpuState(self.memory, nwindows=self.config.nwindows)
        self.state.pc = program.entry
        self.state.npc = program.entry + 4
        stack_top = (ram_end - self._EXIT_STUB_BYTES - 96) & ~0x7
        self.state.regs[14] = stack_top          # %sp
        self.state.regs[30] = stack_top          # %fp
        self.state.regs[15] = stub_addr - 8      # %o7: `retl` reaches the stub

        self.morpher = Morpher(self.state, has_fpu=self.config.has_fpu,
                               semihost=semihost_dispatch)
        self.cpu = Cpu(self.state, self.morpher,
                       blocks_enabled=self.config.blocks_enabled,
                       block_size=self.config.block_size,
                       metered_blocks_enabled=self.config
                       .metered_blocks_enabled)
        self._consumed = False

    def run(self, max_instructions: int = DEFAULT_BUDGET) -> SimulationResult:
        """Execute the kernel on the fast functional loop (the ISS path)."""
        self._claim()
        start = time.perf_counter()
        self.cpu.run(max_instructions=max_instructions)
        elapsed = time.perf_counter() - start
        return self._result(elapsed)

    def run_metered(self, observer: RetireObserver,
                    max_instructions: int = DEFAULT_BUDGET) -> SimulationResult:
        """Execute with a per-instruction observer (the stepwise oracle)."""
        self._claim()
        start = time.perf_counter()
        self.cpu.run_metered(observer, max_instructions=max_instructions)
        elapsed = time.perf_counter() - start
        return self._result(elapsed)

    def run_profiled(self, profiler,
                     max_instructions: int = DEFAULT_BUDGET
                     ) -> SimulationResult:
        """Execute while ``profiler`` records the execution profile.

        One such run per (program, input) supplies everything the linear
        NFP evaluator (:mod:`repro.nfp.linear`) needs to price *any*
        hardware configuration without further simulation; see
        :class:`repro.vm.profiler.ProfileMeter`.
        """
        self._claim()
        start = time.perf_counter()
        self.cpu.run_profiled(profiler, max_instructions=max_instructions)
        elapsed = time.perf_counter() - start
        result = self._result(elapsed)
        # one block cache: the profiled blocks are the translated blocks
        result.extras["profiled_blocks"] = result.extras["translated_blocks"]
        result.extras["avg_profiled_block_len"] = \
            result.extras["avg_block_len"]
        result.extras["smc_invalidations"] = float(self.cpu.invalidations)
        return result

    def _claim(self) -> None:
        if self._consumed:
            raise RuntimeError(
                "a Simulator instance runs exactly once; build a new one "
                "(state is not re-initialisable in place)")
        self._consumed = True

    def _result(self, elapsed: float) -> SimulationResult:
        st = self.state
        counts = dict(zip(CATEGORY_IDS, st.cat_counts))
        n_blocks, avg_len = self.cpu.block_stats()
        return SimulationResult(
            exit_code=st.exit_code if st.exit_code is not None else -1,
            retired=st.retired,
            category_counts=counts,
            mnemonic_counts=self.morpher.mnemonic_counts(),
            console=st.console_text(),
            wall_seconds=elapsed,
            translated_pcs=self.cpu.translated_pcs(),
            max_window_depth=st.max_wdepth,
            spill_count=st.spill_count,
            fill_count=st.fill_count,
            extras={
                "block_mode": 1.0 if self.config.blocks_enabled else 0.0,
                "translated_blocks": float(n_blocks),
                "avg_block_len": avg_len,
            },
        )


def simulate(program: Program, config: CoreConfig | None = None,
             max_instructions: int = DEFAULT_BUDGET) -> SimulationResult:
    """Assemble-and-go convenience: run ``program`` on the fast ISS."""
    return Simulator(program, config).run(max_instructions=max_instructions)
