"""Simulator core: memory, ALU semantics, condition codes, delay slots."""

from __future__ import annotations

import multiprocessing
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.vm import (
    CoreConfig,
    DivisionByZero,
    IllegalInstruction,
    Memory,
    MemoryFault,
    Simulator,
    WatchdogTimeout,
)
from tests.helpers import run_asm, run_exit_code

u32s = st.integers(min_value=0, max_value=0xFFFFFFFF)
M32 = 0xFFFFFFFF


def _s32(x):
    x &= M32
    return x - 0x100000000 if x & 0x80000000 else x


class TestMemory:
    def test_roundtrips(self):
        mem = Memory(size=4096, base=0x40000000)
        mem.write_u32(0x40000010, 0xDEADBEEF)
        assert mem.read_u32(0x40000010) == 0xDEADBEEF
        mem.write_u16(0x40000020, 0xBEEF)
        assert mem.read_u16(0x40000020) == 0xBEEF
        mem.write_u8(0x40000001, 0xAB)
        assert mem.read_u8(0x40000001) == 0xAB
        mem.write_u64(0x40000028, 0x0123456789ABCDEF)
        assert mem.read_u64(0x40000028) == 0x0123456789ABCDEF

    def test_big_endian_layout(self):
        mem = Memory(size=64, base=0x40000000)
        mem.write_u32(0x40000000, 0x11223344)
        assert mem.read_u8(0x40000000) == 0x11
        assert mem.read_u8(0x40000003) == 0x44

    @pytest.mark.parametrize("addr,size", [
        (0x40000002, 4),  # misaligned word
        (0x40000001, 2),  # misaligned half
        (0x40000004, 8),  # misaligned double
    ])
    def test_alignment_faults(self, addr, size):
        mem = Memory(size=64, base=0x40000000)
        with pytest.raises(MemoryFault):
            {4: mem.read_u32, 2: mem.read_u16, 8: mem.read_u64}[size](addr)

    def test_out_of_range(self):
        mem = Memory(size=64, base=0x40000000)
        with pytest.raises(MemoryFault):
            mem.read_u32(0x40000040)
        with pytest.raises(MemoryFault):
            mem.read_u32(0x3FFFFFFC)

    def test_f64_roundtrip(self):
        mem = Memory(size=64, base=0x40000000)
        mem.write_f64(0x40000008, 3.141592653589793)
        assert mem.read_f64(0x40000008) == 3.141592653589793

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Memory(size=0)
        with pytest.raises(ValueError):
            Memory(size=64, base=0x40000001)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/statm")
    def test_ram_holds_only_the_pages_a_kernel_touches(self):
        """A 64 MiB RAM costs the pages a run touches, not 64 MiB."""
        def resident_bytes() -> int:
            with open("/proc/self/statm", encoding="ascii") as statm:
                pages = int(statm.read().split()[1])
            return pages * os.sysconf("SC_PAGE_SIZE")

        program = assemble("""
    .text
_start:
    set 1000, %o1
loop:
    st %o1, [%sp - 8]
    subcc %o1, 1, %o1
    bne loop
    nop
    mov 0, %o0
    mov 0, %g1
    ta 5
""")
        before = resident_bytes()
        result = Simulator(program, CoreConfig(ram_size=64 << 20)).run()
        grown = resident_bytes() - before
        assert result.exit_code == 0
        assert grown < 16 << 20, f"resident set grew {grown >> 20} MiB"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork")
    def test_ram_is_private_across_fork(self):
        """A forked child sees the parent's RAM, and its writes stay its
        own: the mapping is private, not shared."""
        mem = Memory(size=4096)
        mem.write_u32(mem.base, 0x11111111)

        def child():
            seen = mem.read_u32(mem.base)
            mem.write_u32(mem.base, 0x22222222)
            ok = seen == 0x11111111 and mem.read_u32(mem.base) == 0x22222222
            sys.exit(0 if ok else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        assert proc.exitcode == 0
        assert mem.read_u32(mem.base) == 0x11111111


def _alu_program(op: str, a: int, b: int) -> str:
    return f"""
    set {a}, %o1
    set {b}, %o2
    {op} %o1, %o2, %o0
"""


_ALU_REFERENCE = {
    "add": lambda a, b, y: (a + b) & M32,
    "sub": lambda a, b, y: (a - b) & M32,
    "and": lambda a, b, y: a & b,
    "or": lambda a, b, y: a | b,
    "xor": lambda a, b, y: a ^ b,
    "andn": lambda a, b, y: a & ~b & M32,
    "orn": lambda a, b, y: (a | ~b) & M32,
    "xnor": lambda a, b, y: ~(a ^ b) & M32,
    "umul": lambda a, b, y: (a * b) & M32,
    "smul": lambda a, b, y: (_s32(a) * _s32(b)) & M32,
}


class TestAlu:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(_ALU_REFERENCE)), u32s, u32s)
    def test_against_reference(self, op, a, b):
        code = run_exit_code(_alu_program(op, a, b))
        assert code == _ALU_REFERENCE[op](a, b, 0)

    @settings(max_examples=15, deadline=None)
    @given(u32s, st.integers(min_value=0, max_value=31))
    def test_shifts(self, a, count):
        assert run_exit_code(_alu_program("sll", a, count)) == (a << count) & M32
        assert run_exit_code(_alu_program("srl", a, count)) == a >> count
        assert run_exit_code(
            _alu_program("sra", a, count)) == (_s32(a) >> count) & M32

    @settings(max_examples=15, deadline=None)
    @given(u32s, st.integers(min_value=1, max_value=0xFFFFFFFF))
    def test_udiv_with_zero_y(self, a, b):
        body = f"""
    wr %g0, 0, %y
    set {a}, %o1
    set {b}, %o2
    udiv %o1, %o2, %o0
"""
        assert run_exit_code(body) == a // b

    def test_udiv_uses_y_as_high_word(self):
        # dividend = (1 << 32 | 0) / 2 overflows 32 bits -> clamps
        body = """
    mov 1, %o3
    wr %o3, 0, %y
    mov 0, %o1
    mov 2, %o2
    udiv %o1, %o2, %o0
"""
        assert run_exit_code(body) == 0x80000000

    def test_udiv_overflow_clamps(self):
        body = """
    mov 1, %o3
    wr %o3, 0, %y
    mov 0, %o1
    mov 1, %o2
    udiv %o1, %o2, %o0
"""
        assert run_exit_code(body) == 0xFFFFFFFF

    def test_division_by_zero_traps(self):
        with pytest.raises(DivisionByZero):
            run_exit_code("""
    wr %g0, 0, %y
    mov 5, %o1
    udiv %o1, %g0, %o0
""")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1),
           st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_sdiv(self, a, b):
        if b == 0:
            return
        body = f"""
    set {a & M32}, %o1
    sra %o1, 31, %o3
    wr %o3, 0, %y
    set {b & M32}, %o2
    sdiv %o1, %o2, %o0
"""
        expected = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected = -expected
        expected = max(-(2**31), min(2**31 - 1, expected))
        assert run_exit_code(body) == expected & M32

    def test_umul_sets_y(self):
        body = """
    set 0x10000, %o1
    set 0x10000, %o2
    umul %o1, %o2, %g3
    rd %y, %o0
"""
        assert run_exit_code(body) == 1  # 2^32 -> high word 1

    def test_g0_is_hardwired_zero(self):
        assert run_exit_code("""
    set 1234, %g0
    mov %g0, %o0
""") == 0


class TestConditionCodes:
    @pytest.mark.parametrize("a,b,branch,taken", [
        (5, 5, "be", True),
        (5, 6, "bne", True),
        (6, 5, "bg", True),
        (5, 6, "bl", True),
        (5, 5, "bge", True),
        (5, 5, "ble", True),
        (0x80000000, 1, "bl", True),     # signed: negative < 1
        (0x80000000, 1, "bgu", True),    # unsigned: huge > 1
        (1, 2, "bleu", True),
        (2, 1, "bcc", True),             # no borrow
        (1, 2, "bcs", True),             # borrow
        (5, 6, "bg", False),
        (5, 5, "bne", False),
    ])
    def test_branch_conditions(self, a, b, branch, taken):
        body = f"""
    set {a}, %o1
    set {b}, %o2
    cmp %o1, %o2
    {branch} yes
    nop
    mov 0, %o0
    ba out
    nop
yes:
    mov 1, %o0
out:
"""
        assert run_exit_code(body) == (1 if taken else 0)

    def test_overflow_flag(self):
        # 0x7fffffff + 1 overflows signed -> bvs taken
        body = """
    set 0x7FFFFFFF, %o1
    addcc %o1, 1, %g3
    bvs yes
    nop
    mov 0, %o0
    ba out
    nop
yes:
    mov 1, %o0
out:
"""
        assert run_exit_code(body) == 1

    def test_addx_carry_chain(self):
        # 64-bit add: 0xFFFFFFFF + 1 = carry into the high word
        body = """
    set 0xFFFFFFFF, %o1
    addcc %o1, 1, %o2      ! low word = 0, carry set
    addx %g0, %g0, %o0     ! high word = carry
"""
        assert run_exit_code(body) == 1


class TestControlFlow:
    def test_delay_slot_executes(self):
        assert run_exit_code("""
    mov 0, %o0
    ba over
    add %o0, 5, %o0        ! delay slot executes
    add %o0, 100, %o0      ! skipped
over:
""") == 5

    def test_annulled_delay_slot_on_untaken(self):
        assert run_exit_code("""
    mov 0, %o0
    cmp %o0, 1
    be,a over              ! not taken, annul: skip the delay slot
    add %o0, 5, %o0
    add %o0, 1, %o0
over:
""") == 1

    def test_ba_annul_skips_delay_slot(self):
        assert run_exit_code("""
    mov 0, %o0
    ba,a over
    add %o0, 5, %o0        ! annulled
over:
    add %o0, 2, %o0
""") == 2

    def test_taken_conditional_with_annul_executes_slot(self):
        assert run_exit_code("""
    mov 0, %o0
    cmp %o0, 0
    be,a over
    add %o0, 5, %o0        ! taken: delay slot executes
    add %o0, 100, %o0
over:
""") == 5

    def test_call_sets_o7_and_retl_returns(self):
        assert run_exit_code("""
    call func
    nop
    ba out
    nop
func:
    retl
    mov 42, %o0
out:
""") == 42

    def test_jmpl_indirect(self):
        assert run_exit_code("""
    set target, %o1
    jmpl %o1, %g0
    nop
    mov 0, %o0
target:
    mov 7, %o0
""", ) == 7

    def test_misaligned_jump_faults(self):
        with pytest.raises(MemoryFault):
            run_exit_code("""
    set target + 2, %o1
    jmpl %o1, %g0
    nop
target:
    nop
""")

    def test_illegal_instruction(self):
        with pytest.raises(IllegalInstruction):
            run_asm("""
    .text
_start:
    .word 0
""")

    def test_watchdog(self):
        with pytest.raises(WatchdogTimeout):
            run_asm("""
    .text
_start:
    ba _start
    nop
""", max_instructions=1000)
