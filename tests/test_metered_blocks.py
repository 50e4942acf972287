"""The testbed's profile + price measurement == stepwise metering.

:meth:`repro.hw.board.Board.measure_raw` measures a kernel with one run
on the profile-fused superblocks priced for the board by
:class:`repro.nfp.linear.LinearNfpEngine`.  It must reproduce the
stepwise root oracle -- :class:`repro.hw.board.CostMeter` observing every
retired instruction (``tests.helpers.meter_stepwise``) -- across the
whole hardware cost model: base cycle/energy tables, untaken-branch
discounts, divide bit-length shortening, window-trap spill/fill charges
and the per-instruction energy-jitter hash.  Cycles, retired counts,
time, spill/fill counts and console output are bit-identical; energy is
within 1e-12 relative.  Self-modifying kernels fall back to the oracle
itself and match exactly, energy included.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.asm import assemble
from repro.hw.board import Board, CostMeter, RawMeasurement
from repro.hw.config import HwConfig, leon3_fpu, leon3_nofpu
from repro.hw.energy import jitter_factor
from repro.nfp.linear import ExecutionProfile, LinearNfpEngine
from repro.vm import CoreConfig, MemoryFault, Simulator, WatchdogTimeout
from repro.vm.blocks import jitter_table
from repro.vm.profiler import ProfileMeter

from test_vm_blocks import CALL_KERNEL, FP_KERNEL, MIXED_KERNEL
from tests.helpers import meter_stepwise

#: SimulationResult fields that must match bit-for-bit across modes.
SIM_FIELDS = (
    "exit_code", "retired", "category_counts", "mnemonic_counts",
    "console", "max_window_depth", "spill_count", "fill_count",
)


def measure_both(source_or_program, factory=leon3_fpu,
                 max_instructions=50_000_000,
                 **core_overrides) -> tuple[RawMeasurement, RawMeasurement]:
    """Measure on the board (profile + price) and with the oracle."""
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    hw = factory(**core_overrides)
    priced = Board(hw).measure_raw(program, max_instructions=max_instructions)
    return priced, meter_stepwise(program, hw, max_instructions)


def assert_meter_identical(priced: RawMeasurement, stepped: RawMeasurement,
                           exact_energy: bool = False) -> None:
    assert priced.cycles == stepped.cycles
    assert priced.true_time_s == stepped.true_time_s
    if exact_energy:
        assert priced.dyn_energy_nj == stepped.dyn_energy_nj
        assert priced.true_energy_j == stepped.true_energy_j
    else:
        # the oracle's running float sum drifts by ~sqrt(retired) ulp;
        # the priced energy is a correctly rounded sum of exact terms
        assert priced.dyn_energy_nj == pytest.approx(stepped.dyn_energy_nj,
                                                     rel=1e-12)
        assert priced.true_energy_j == pytest.approx(stepped.true_energy_j,
                                                     rel=1e-12)
    for field in SIM_FIELDS:
        assert getattr(priced.sim, field) == getattr(stepped.sim, field), \
            field


def priced_partial(simulator: Simulator, meter: ProfileMeter, hw: HwConfig):
    """Price the profile of a run that raised (no SimulationResult)."""
    partial = SimpleNamespace(
        mnemonic_counts=simulator.morpher.mnemonic_counts(),
        retired=simulator.state.retired)
    return LinearNfpEngine(hw).evaluate(
        ExecutionProfile.from_payload(meter.snapshot(partial, clean=True)))


class TestModeEquivalence:
    @pytest.mark.parametrize("kernel",
                             [MIXED_KERNEL, FP_KERNEL, CALL_KERNEL],
                             ids=["mixed", "fp", "call"])
    def test_hand_kernels(self, kernel):
        blocked, stepped = measure_both(kernel)
        assert_meter_identical(blocked, stepped)
        assert blocked.sim.exit_code == 0
        assert blocked.sim.extras["profiled_blocks"] > 0

    @pytest.mark.parametrize("block_size", [1, 2, 3, 8])
    def test_small_block_sizes(self, block_size):
        blocked, stepped = measure_both(MIXED_KERNEL, block_size=block_size)
        assert_meter_identical(blocked, stepped)

    def test_branch_discount_both_directions(self):
        src = """
    .text
_start:
    set 2000, %o1
loop:
    cmp %o1, 1000
    bgu over           ! taken for the first 1000 trips, then untaken
    nop
over:
    subcc %o1, 1, %o1
    bne loop
    nop
    mov 0, %g1
    ta 5
"""
        blocked, stepped = measure_both(src)
        assert_meter_identical(blocked, stepped)

    def test_divide_shortening_operand_dependent(self):
        src = """
    .text
_start:
    wr %g0, 0, %y
    set 0xF0000000, %o1
    mov 3, %o2
    set 500, %o3
dloop:
    udiv %o1, %o2, %o0
    udiv %o2, %o2, %g2    ! tiny quotient: large shortening
    subcc %o3, 1, %o3
    bne dloop
    nop
    mov 0, %o0
    mov 0, %g1
    ta 5
"""
        blocked, stepped = measure_both(src)
        assert_meter_identical(blocked, stepped)

    def test_window_trap_charges(self):
        deep = """
    .text
_start:
    set 300, %o2
outer:
    mov 10, %o0
    call rec
    nop
    subcc %o2, 1, %o2
    bne outer
    nop
    mov 0, %g1
    ta 5
rec:
    save %sp, -96, %sp
    cmp %i0, 0
    ble done
    nop
    sub %i0, 1, %o0
    call rec
    nop
done:
    ret
    restore
"""
        blocked, stepped = measure_both(deep, nwindows=3)
        assert_meter_identical(blocked, stepped)
        assert blocked.sim.spill_count > 0

    def test_hevclite_decoder(self):
        from repro.experiments.scale import get_scale
        from repro.experiments.workloads import hevc_program
        scale = get_scale("smoke")
        blocked, stepped = measure_both(
            hevc_program(0, "hard", scale),
            max_instructions=scale.max_instructions)
        assert_meter_identical(blocked, stepped)
        assert blocked.sim.exit_code == 0

    def test_fse_softfloat(self):
        from repro.experiments.scale import get_scale
        from repro.experiments.workloads import fse_program
        scale = get_scale("smoke")
        blocked, stepped = measure_both(
            fse_program(0, "soft", scale), factory=leon3_nofpu,
            max_instructions=scale.max_instructions)
        assert_meter_identical(blocked, stepped)
        assert blocked.sim.exit_code == 0

    def test_delay_slot_block_entry(self):
        """A taken branch whose delay slot is itself a block entry.

        The unsafe (faultable) delay slot keeps the branch on its
        per-instruction closure, so the delay instruction is dispatched
        with ``npc`` pointing at the branch target -- the profiled block's
        delayed-control entry path.
        """
        src = """
    .text
_start:
    set buf, %o2
    set 200, %o1
loop:
    subcc %o1, 1, %o1
    bne loop
    ld [%o2], %g2
    mov 0, %g1
    ta 5

    .data
    .align 4
buf:
    .word 1234
"""
        blocked, stepped = measure_both(src)
        assert_meter_identical(blocked, stepped)


class TestJitterTables:
    def test_table_matches_reference_formula(self):
        table = jitter_table(0.05)
        for i in (0, 1, 0x7FFF, 0x8000, 0xFFFF, 12345):
            assert table[i] == 1.0 + 0.05 * (i / 32768.0 - 1.0)

    def test_table_lookup_matches_jitter_factor(self):
        amp = 0.05
        table = jitter_table(amp)
        for pc, value in ((0x40000000, 0), (0x40000abc, 0xFFFFFFFF),
                          (0x40001234, 123456), (0x40fffffc, 2654435761)):
            h = ((value * 2654435761) ^ (pc * 0x9E3779B1)) & 0xFFFFFFFF
            h ^= h >> 15
            assert table[h & 0xFFFF] == jitter_factor(pc, value, amp)

    def test_zero_amplitude(self):
        assert set(jitter_table(0.0)) == {1.0}


class TestSelfModifyingCode:
    """The SMC kernels of test_vm_blocks, re-run under metering.

    Their profiles are unclean, so the board meters them stepwise: the
    result is the oracle's, energy included."""

    def _kernels(self):
        import test_vm_blocks as tvb
        holder = tvb.TestSelfModifyingCode()
        patch = holder._patch_word()
        from repro.isa import encoder
        nop_word = encoder.encode_nop()
        cross = f"""
    .text
_start:
    set new_insn, %o2
    ld [%o2], %g3
    call doit
    nop
    mov %o0, %l0
    set patch, %o1
    st %g3, [%o1]
    call doit
    nop
    smul %l0, 100, %l0
    add %l0, %o0, %o0
    mov 0, %g1
    ta 5
doit:
patch:
    mov 7, %o0
    retl
    nop

    .data
    .align 4
new_insn:
    .word {patch}
"""
        loop_patch = f"""
    .text
_start:
    set 50, %o1
    set branch_site, %o2
    set new_insn, %o3
    ld [%o3], %g4
loop:
    subcc %o1, 1, %o1
    cmp %o1, 5
    bne keep
    nop
    st %g4, [%o2]
keep:
    subcc %o1, 0, %g0
branch_site:
    bne loop
    nop
    mov %o1, %o0
    mov 0, %g1
    ta 5

    .data
    .align 4
new_insn:
    .word {nop_word}
"""
        return [("cross", cross, 742), ("loop", loop_patch, 5)]

    def test_smc_under_metering(self):
        for name, src, exit_code in self._kernels():
            blocked, stepped = measure_both(src)
            assert blocked.sim.exit_code == exit_code, name
            assert_meter_identical(blocked, stepped, exact_energy=True)


class TestEdges:
    INFINITE = """
    .text
_start:
    add %g1, 1, %g1
    ba _start
    nop
"""

    @pytest.mark.parametrize("budget", [1, 2, 3, 100, 1000, 1001])
    def test_watchdog_exactness(self, budget):
        """Profiled blocks stop exactly at the budget, like stepping."""
        config = HwConfig()
        program = assemble(self.INFINITE)
        blocked = Simulator(program, config.core)
        profiler = ProfileMeter()
        with pytest.raises(WatchdogTimeout):
            blocked.run_profiled(profiler, max_instructions=budget)
        stepped = Simulator(program, config.core)
        meter = CostMeter(config)
        with pytest.raises(WatchdogTimeout):
            stepped.run_metered(meter, max_instructions=budget)
        assert blocked.state.retired == stepped.state.retired == budget
        nfp = priced_partial(blocked, profiler, config)
        assert nfp.cycles == meter.cycles
        assert nfp.dyn_energy_nj == pytest.approx(meter.dyn_energy_nj,
                                                  rel=1e-12)

    def test_fault_mid_block_meter_state(self):
        """A fault inside a profiled block leaves the profile and the
        architectural state exactly where stepwise metering leaves them."""
        src = """
    .text
_start:
    set 0x407fff00, %o2
loop:
    ld [%o2], %g2
    add %o2, 4, %o2
    subcc %g0, 0, %g0
    be loop
    nop
    ta 5
"""
        config = HwConfig()
        program = assemble(src)
        blocked = Simulator(program, config.core)
        profiler = ProfileMeter()
        with pytest.raises(MemoryFault):
            blocked.run_profiled(profiler)
        assert blocked.cpu.block_stats()[0] > 0  # faulted on the block path
        stepped = Simulator(program, config.core)
        meter = CostMeter(config)
        with pytest.raises(MemoryFault):
            stepped.run_metered(meter)
        outcomes = []
        for sim in (blocked, stepped):
            st = sim.state
            outcomes.append((st.retired, st.pc, st.npc, st.taken,
                             list(st.cat_counts), st.regs[10]))
        assert outcomes[0] == outcomes[1]
        nfp = priced_partial(blocked, profiler, config)
        assert nfp.cycles == meter.cycles
        assert nfp.dyn_energy_nj == pytest.approx(meter.dyn_energy_nj,
                                                  rel=1e-12)

    def test_opaque_observer_uses_stepping_loop(self):
        class Recorder:
            def __init__(self):
                self.events = []

            def on_retire(self, pc, mnemonic, st):
                self.events.append((pc, mnemonic))

        observer = Recorder()
        sim = Simulator(assemble("""
    .text
_start:
    mov 3, %o0
    mov 0, %g1
    ta 5
"""))
        result = sim.run_metered(observer)
        assert len(observer.events) == result.retired

    def test_metered_blocks_knob(self):
        config = CoreConfig()
        assert config.metered_blocks_enabled
        assert not config.with_metered_blocks(False).metered_blocks_enabled
        assert config.with_metered_blocks(False) \
            .with_metered_blocks(True).metered_blocks_enabled

    def test_cost_table_cached_per_config(self):
        config = HwConfig()
        assert config.cost_table is config.cost_table
        assert config.cost_table["udiv"][2] != 0  # intdiv flag set
        other = leon3_nofpu()
        assert other.cost_table is not config.cost_table
