"""Superblock translation: block mode == per-instruction mode, exactly.

Covers the exactness contract of :mod:`repro.vm.blocks` (identical
``SimulationResult`` fields in both dispatch modes on every workload
family), translation-cache invalidation for self-modifying and
host-patched code, delay-slot entries, watchdog exactness, the
block-statistics surface, and a Hypothesis property that pins generated
hot self-loops to the stepwise oracle on every block tier.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.isa import encoder
from repro.isa.decoder import decode
from repro.vm import CoreConfig, Simulator, WatchdogTimeout
from repro.vm.cpu import BLOCK_COMPILE_THRESHOLD
from repro.vm.profiler import ProfileMeter

#: the SimulationResult fields that must match bit-for-bit across modes
#: (``translated_pcs`` legitimately differs: the block scanner may decode
#: straight-line words that execution never reaches).
IDENTICAL_FIELDS = (
    "exit_code", "retired", "category_counts", "mnemonic_counts",
    "console", "max_window_depth", "spill_count", "fill_count",
)


def run_both(source_or_program, max_instructions=50_000_000, **cfg):
    """Run in block mode and per-instruction mode; return both results."""
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    blocked = Simulator(program, CoreConfig(**cfg)).run(
        max_instructions=max_instructions)
    stepped = Simulator(
        program, CoreConfig(**cfg).with_blocks(False)).run(
        max_instructions=max_instructions)
    return blocked, stepped


def assert_identical(blocked, stepped):
    for field in IDENTICAL_FIELDS:
        assert getattr(blocked, field) == getattr(stepped, field), field


MIXED_KERNEL = """
    ! loads, stores, mul, branches both directions, delay-slot work
    .text
_start:
    set 3000, %o1
    mov 0, %o0
    set buf, %o2
loop:
    ld [%o2], %g2
    smul %g2, %g2, %g2
    add %o0, %g2, %o0
    st %o0, [%o2 + 4]
    and %o1, 28, %g3
    add %o2, %g3, %g4
    subcc %o1, 1, %o1
    bne loop
    nop
    mov 2, %g1
    ta 5
    mov 0, %o0
    mov 0, %g1
    ta 5

    .data
    .align 8
buf:
    .word 3, 0, 7, 0, 11, 0, 2, 0
"""

FP_KERNEL = """
    ! exercises fpops, fcmp and fbranches inside/around blocks
    .text
_start:
    set vals, %o2
    lddf [%o2], %f0
    lddf [%o2 + 8], %f2
    set 400, %o1
floop:
    faddd %f0, %f2, %f4
    fmuld %f4, %f2, %f4
    fdivd %f4, %f2, %f6
    fsqrtd %f6, %f8
    fcmpd %f8, %f2
    fbg keep
    nop
    fmovs %f2, %f8
keep:
    fdtoi %f8, %f10
    subcc %o1, 1, %o1
    bne floop
    nop
    set 0, %o0
    mov 0, %g1
    ta 5

    .data
    .align 8
vals:
    .word 0x40091EB8, 0x51EB851F   ! 3.14
    .word 0x3FF80000, 0x00000000   ! 1.5
"""

CALL_KERNEL = """
    ! call/save/restore terminators; window spill depth
    .text
_start:
    set 200, %o1
cloop:
    call twice
    mov %o1, %o0
    subcc %o1, 1, %o1
    bne cloop
    nop
    mov 0, %o0
    mov 0, %g1
    ta 5
twice:
    save %sp, -96, %sp
    add %i0, %i0, %i0
    ret
    restore %i0, 0, %o0
"""


class TestModeEquivalence:
    @pytest.mark.parametrize("kernel", [MIXED_KERNEL, FP_KERNEL, CALL_KERNEL],
                             ids=["mixed", "fp", "call"])
    def test_hand_kernels(self, kernel):
        blocked, stepped = run_both(kernel)
        assert_identical(blocked, stepped)
        assert blocked.exit_code == 0
        assert blocked.extras["block_mode"] == 1.0
        assert blocked.extras["translated_blocks"] > 0
        assert stepped.extras["block_mode"] == 0.0
        assert stepped.extras["translated_blocks"] == 0.0

    @pytest.mark.parametrize("block_size", [1, 2, 3, 8])
    def test_small_block_sizes(self, block_size):
        """Tiny blocks stress chaining, terminators and delay fallbacks."""
        blocked, stepped = run_both(MIXED_KERNEL, block_size=block_size)
        assert_identical(blocked, stepped)

    def test_long_straight_line_chain(self):
        """Thousands of sequential instructions must not exhaust the stack.

        Fall-through chaining passes the successor exactly its own length,
        so chains bottom out after one frame instead of recursing once per
        block.  With block_size=1 every instruction is its own block --
        the worst case.
        """
        body = "\n".join(f"    add %g1, 1, %g1" for _ in range(2500))
        src = (f"    .text\n_start:\n{body}\n    mov %g1, %o0\n"
               f"    mov 0, %g1\n    ta 5\n")
        # run twice per mode so the straight line crosses the compile
        # threshold... it cannot (executed once per sim), so force heat
        # aside: small block_size + repeated outer loop instead
        looped = f"""
    .text
_start:
    set 40, %o2
outer:
{body}
    subcc %o2, 1, %o2
    bne outer
    mov 0, %g1
    mov %g1, %o0
    mov 0, %g1
    ta 5
"""
        blocked, stepped = run_both(looped, block_size=1)
        assert_identical(blocked, stepped)
        blocked, stepped = run_both(src)
        assert_identical(blocked, stepped)

    def test_no_fpu_blocks_end_at_fpops(self):
        """Without an FPU the fp_disabled trap must fire exactly as before."""
        from repro.vm import FpuDisabled
        src = """
    .text
_start:
    mov 1, %g2
    faddd %f0, %f2, %f4
    ta 5
"""
        for enabled in (True, False):
            config = CoreConfig(has_fpu=False, blocks_enabled=enabled)
            with pytest.raises(FpuDisabled):
                Simulator(assemble(src), config).run()

    def test_hevclite_hard_and_soft(self):
        """The paper's HEVC-lite decoder, hard-float and soft-float ABIs."""
        from repro.experiments.scale import get_scale
        from repro.experiments.workloads import hevc_program
        scale = get_scale("smoke")
        for abi in ("hard", "soft"):
            blocked, stepped = run_both(hevc_program(0, abi, scale))
            assert_identical(blocked, stepped)
            assert blocked.exit_code == 0

    def test_fse_softfloat(self):
        """The soft-float FSE kernel (heaviest soft-FP workload)."""
        from repro.experiments.scale import get_scale
        from repro.experiments.workloads import fse_program
        scale = get_scale("smoke")
        blocked, stepped = run_both(fse_program(0, "soft", scale))
        assert_identical(blocked, stepped)
        assert blocked.exit_code == 0


class TestWatchdogExactness:
    INFINITE = """
    .text
_start:
    add %g1, 1, %g1
    ba _start
    nop
"""

    @pytest.mark.parametrize("budget", [1, 2, 3, 100, 1000, 1001])
    def test_watchdog_retires_exact_budget(self, budget):
        for enabled in (True, False):
            sim = Simulator(assemble(self.INFINITE),
                            CoreConfig(blocks_enabled=enabled))
            with pytest.raises(WatchdogTimeout):
                sim.run(max_instructions=budget)
            assert sim.state.retired == budget, enabled


class TestFaultExactness:
    def test_self_loop_fault_state_matches_stepwise(self):
        """A fault mid-self-loop must leave identical architectural state."""
        from repro.vm import MemoryFault
        # the load walks forward 4 bytes per iteration and eventually
        # leaves RAM: the fault interrupts a hot, internally-iterating block
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
        states = []
        for enabled in (True, False):
            sim = Simulator(assemble(src), CoreConfig(blocks_enabled=enabled))
            with pytest.raises(MemoryFault):
                sim.run()
            st = sim.state
            states.append((st.retired, st.pc, st.npc, st.taken,
                           list(st.cat_counts), st.regs[10]))
        assert states[0] == states[1]


class TestSelfModifyingCode:
    def _patch_word(self):
        # "mov 42, %o0" == or %g0, 42, %o0
        return encoder.encode_arith("or", rd=8, rs1=0, imm=42)

    def test_cross_block_patch(self):
        """Patching an already-executed, cached subroutine must retranslate."""
        src = f"""
    .text
_start:
    set new_insn, %o2
    ld [%o2], %g3
    call doit
    nop
    mov %o0, %l0           ! first result: 7
    set patch, %o1
    st %g3, [%o1]          ! overwrite 'mov 7, %o0' with 'mov 42, %o0'
    call doit
    nop
    smul %l0, 100, %l0
    add %l0, %o0, %o0      ! 7 * 100 + 42
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
    .word {self._patch_word()}
"""
        blocked, stepped = run_both(src)
        assert blocked.exit_code == 742
        assert_identical(blocked, stepped)

    def test_same_block_patch(self):
        """A store may overwrite an instruction later in its *own* block."""
        src = f"""
    .text
_start:
    set new_insn, %o2
    ld [%o2], %g3
    set site, %o1
    call warm               ! translate the straight-line run once
    nop
    st %g3, [%o1]           ! patch two instructions ahead
    nop
site:
    mov 7, %o0              ! becomes 'mov 42, %o0'
    mov 0, %g1
    ta 5
warm:
    retl
    nop

    .data
    .align 4
new_insn:
    .word {self._patch_word()}
"""
        blocked, stepped = run_both(src)
        assert blocked.exit_code == 42
        assert_identical(blocked, stepped)

    def test_self_loop_patch_exits_loop(self):
        """Patching the back edge of the currently-iterating hot loop."""
        # Overwrite 'bne loop' with a nop once %o1 hits 5: the loop must
        # fall through immediately after the store becomes visible.
        nop_word = encoder.encode_nop()
        src = f"""
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
    st %g4, [%o2]          ! kill the back edge
keep:
branch_site_pre:
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
        blocked, stepped = run_both(src)
        assert blocked.exit_code == 5
        assert_identical(blocked, stepped)

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_hot_store_into_watch_range_edges(self, edge):
        """A compiled store into the lowest or the highest translated word
        retranslates it: the blocks read the watch range once per
        dispatch, and both bounds of their guard must be exact."""
        hot = 2 * BLOCK_COMPILE_THRESHOLD
        patch = {"first": ("first", encoder.encode_arith(
                     "or", rd=8, rs1=0, imm=2)),       # mov 2, %o0
                 "last": ("last", encoder.encode_arith(
                     "add", rd=8, rs1=8, imm=20))}[edge]
        stores = "\n".join(["    .word sink, 0"] * hot)
        program = assemble(f"""
    .text
_start:
first:
    mov 1, %o0             ! the lowest translated word
    tst %l7
    bne finish
    nop
    call tail              ! translate the highest word before the loop
    nop
    mov 1, %l7
    set stores, %l2
    set {hot + 1}, %o3
    ba loop
    nop
    .skip 256              ! the loop's page holds neither target
loop:
    ld [%l2], %o2
    ld [%l2 + 4], %o1
    st %o1, [%o2]          ! hot on sink, then onto the edge word
    add %l2, 8, %l2
    subcc %o3, 1, %o3
    bne loop
    nop
    ba first
    nop
finish:
    call tail
    nop
    mov 0, %g1
    ta 5
    .skip 256
tail:
    retl
last:
    add %o0, 10, %o0       ! the highest translated word

    .data
    .align 8
sink:
    .word 0
stores:
{stores}
    .word {patch[0]}, {patch[1]}
""")
        core = CoreConfig()
        runs = {"blocks": Simulator(program, core),
                "profiled": Simulator(program, core),
                "stepwise": Simulator(program, core.with_blocks(False))}
        results = {"blocks": runs["blocks"].run(),
                   "profiled": runs["profiled"].run_profiled(ProfileMeter()),
                   "stepwise": runs["stepwise"].run()}
        expected = {"first": 2 + 10, "last": 1 + 20}[edge]
        for tier, result in results.items():
            assert result.exit_code == expected, tier
            assert_identical(result, results["stepwise"])
        state = runs["blocks"].state
        assert (state.code_lo, state.code_hi - 4)[edge == "last"] == \
            program.symbols[patch[0]]
        for tier in ("blocks", "profiled"):
            assert runs[tier].cpu._block_info, f"{tier}: no loop compiled"

    def test_host_write_invalidates_step_cache(self):
        """Memory pokes from the host must also drop stale translations."""
        src = """
    .text
_start:
    mov 7, %o0
    mov 0, %g1
    ta 5
"""
        sim = Simulator(assemble(src), CoreConfig())
        cpu, state = sim.cpu, sim.state
        entry = state.pc
        assert cpu.step() == "or"          # mov is or %g0, imm; now cached
        assert state.regs[8] == 7
        state.pc, state.npc = entry, entry + 4     # rewind
        state.mem.write_u32(entry, encoder.encode_arith(
            "or", rd=8, rs1=0, imm=99))
        assert cpu.step() == "or"
        assert state.regs[8] == 99, "stale closure executed after host patch"


# -- differential property: counted self-loops ---------------------------------
#
# Hot self-loops are where the block emitter does the most: condition codes
# held in locals, flags no iteration reads computed only at the exits, and
# counters deferred to the exits.  An outer loop runs every inner loop past
# the compile threshold, so the loop exits and the flag readers after each
# loop compile too and the exits chain into them.

#: data registers of the generated loops (not the buffer base %l0, the
#: loop counters %l1/%l6 or the flag accumulators %g5/%i0-%i4)
_DATA_REGS = ("%g2", "%g3", "%g4", "%o0", "%o1", "%o2", "%o3", "%o4",
              "%o5", "%l2", "%l3", "%l4", "%l5")
_ALU_OPS = ("add", "addcc", "sub", "subcc", "addx", "addxcc", "subx",
            "subxcc", "and", "andcc", "andn", "andncc", "or", "orcc", "orn",
            "orncc", "xor", "xorcc", "xnor", "xnorcc", "umul", "umulcc",
            "smul", "smulcc")
_SHIFT_OPS = ("sll", "srl", "sra")
_BICC = ("ba", "bn", "bne", "be", "bg", "ble", "bge", "bl", "bgu", "bleu",
         "bcc", "bcs", "bpos", "bneg", "bvc", "bvs")
_OUTER_TRIPS = 2 * BLOCK_COMPILE_THRESHOLD

_reg = st.sampled_from(_DATA_REGS)
#: register and buffer words: a flag edge, or bits spread over the whole
#: word (an odd multiplier permutes u32, and Hypothesis favours small
#: integers, which rarely set bit 31)
_u32 = st.one_of(
    st.sampled_from((0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)),
    st.integers(0, 2**32 - 1).map(lambda x: x * 0x9E3779B1 & 0xFFFFFFFF))


@st.composite
def _alu_op(draw) -> str:
    mnemonic = draw(st.sampled_from(_ALU_OPS + _SHIFT_OPS))
    imm = st.integers(0, 31) if mnemonic in _SHIFT_OPS \
        else st.integers(-4096, 4095)
    operand = draw(st.one_of(imm.map(str), _reg))
    return f"{mnemonic} {draw(_reg)}, {operand}, {draw(_reg)}"


@st.composite
def _mem_op(draw) -> str:
    offset = 4 * draw(st.integers(0, 15))  # a word of the 64-byte buffer
    if draw(st.booleans()):
        return f"ld [%l0 + {offset}], {draw(_reg)}"
    return f"st {draw(_reg)}, [%l0 + {offset}]"


@st.composite
def _loop(draw) -> dict:
    # half the bodies stay memory-free: loops that cannot fault are the
    # ones whose dead flags the emitter defers to the exits, where an ALU
    # delay slot (half the slots) may overwrite the scratch they read
    ops = st.one_of(_alu_op(), _mem_op()) if draw(st.booleans()) \
        else _alu_op()
    return {"body": draw(st.lists(ops, min_size=1, max_size=8)),
            "annul": draw(st.booleans()),
            "delay": draw(st.one_of(_alu_op(), st.just("nop") | _mem_op())),
            "trips": draw(st.integers(1, 12)),
            "reader": draw(st.sampled_from(_BICC))}


def _self_loop_source(loops: list[dict], regs: list[int],
                      words: list[int]) -> str:
    """Counted self-loops inside an outer loop, each followed by flag
    readers that fold N, Z, V and C into the %i0-%i4 accumulators."""
    lines = ["    .text", "_start:", "    set buf, %l0",
             f"    set {_OUTER_TRIPS}, %l1"]
    lines += [f"    set {value}, {reg}" for reg, value in zip(_DATA_REGS, regs)]
    lines.append("outer:")
    for k, loop in enumerate(loops):
        lines.append(f"    set {loop['trips']}, %l6")
        lines.append(f"loop{k}:")
        lines += [f"    {op}" for op in loop["body"]]
        lines += ["    subcc %l6, 1, %l6",
                  f"    bne{',a' if loop['annul'] else ''} loop{k}",
                  f"    {loop['delay']}",
                  "    addx %g0, 0, %g5",        # C
                  "    add %i0, %g5, %i0"]
        for acc, (branch, label) in enumerate(
                (("bvs", "v"), ("bneg", "n"), ("be", "z"),
                 (loop["reader"], "r")), start=1):
            lines += [f"    {branch} {label}{k}", "    nop",
                      f"    add %i{acc}, 1, %i{acc}", f"{label}{k}:"]
    lines += ["    subcc %l1, 1, %l1", "    bne outer", "    nop",
              "    mov 0, %g1", "    ta 5",
              "    .data", "    .align 8", "buf:"]
    lines += [f"    .word {word}" for word in words]
    return "\n".join(lines) + "\n"


class TestSelfLoopDifferential:
    @settings(max_examples=200, deadline=None)
    @given(loops=st.lists(_loop(), min_size=1, max_size=2),
           regs=st.lists(_u32, min_size=len(_DATA_REGS),
                         max_size=len(_DATA_REGS)),
           words=st.lists(_u32, min_size=16, max_size=16))
    def test_counted_self_loops_agree_across_tiers(self, loops, regs, words):
        """Stepwise, functional blocks, profiled blocks and observed
        profiling agree on registers, Y, N/Z/V/C, pc/npc, the buffer and
        every count; both profiling tiers record the same profile."""
        program = assemble(_self_loop_source(loops, regs, words))
        # a small RAM keeps shrinking cheap: every retained failing
        # example holds four simulators
        core = CoreConfig(ram_size=1 << 16, stack_reserve=1 << 12)
        runs = {"stepwise": Simulator(program, core.with_blocks(False)),
                "blocks": Simulator(program, core),
                "profiled": Simulator(program, core),
                "observed": Simulator(program,
                                      core.with_metered_blocks(False))}
        meters = {tier: ProfileMeter() for tier in ("profiled", "observed")}
        outcomes, profiles = {}, {}
        buf = program.symbols["buf"] - runs["blocks"].memory.base
        for tier, sim in runs.items():
            if tier in meters:
                result = sim.run_profiled(meters[tier])
                profiles[tier] = meters[tier].snapshot(result, clean=True)
            else:
                result = sim.run()
            state = sim.state
            outcomes[tier] = (
                list(state.regs), state.y, state.icc, state.pc, state.npc,
                bytes(state.mem.ram[buf:buf + 64]), result.exit_code,
                result.retired, result.category_counts,
                result.mnemonic_counts)
        for tier in ("blocks", "profiled", "observed"):
            assert outcomes[tier] == outcomes["stepwise"], tier
        assert profiles["profiled"] == profiles["observed"]
        # every hot loop whose branch fuses its delay slot ran as a
        # self-loop block in both block tiers
        for k, loop in enumerate(loops):
            if loop["trips"] > 1 and not loop["delay"].startswith(
                    ("ld", "st")):
                entry = program.symbols[f"loop{k}"]
                for tier in ("blocks", "profiled"):
                    source = runs[tier].cpu._blocks[entry][0] \
                        .__block_source__
                    assert "while True:" in source, (tier, k)


class TestBlockSurface:
    def test_extras_and_stats(self):
        # only hot entries cross the compile threshold: the inner loop
        # becomes a superblock, the once-executed prologue stays stepped
        blocked, stepped = run_both(MIXED_KERNEL)
        assert blocked.extras["translated_blocks"] >= 1
        assert blocked.extras["avg_block_len"] > 1.0
        assert stepped.extras["avg_block_len"] == 0.0

    def test_decode_is_memoized(self):
        word = encoder.encode_arith("add", rd=3, rs1=1, rs2=2)
        assert decode(word) is decode(word)

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(block_size=0)
        with pytest.raises(ValueError):
            CoreConfig(block_size=4096)

    def test_config_copies_preserve_knobs(self):
        config = CoreConfig(blocks_enabled=False, block_size=7)
        assert config.without_fpu().block_size == 7
        assert not config.with_fpu().blocks_enabled
        assert config.with_blocks(True).blocks_enabled
        assert config.with_blocks(True, 9).block_size == 9
