"""Load/store instruction semantics: widths, signs, pairs, endianness."""

from __future__ import annotations

import traceback

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.vm import CoreConfig, MemoryFault, Simulator
from repro.vm.cpu import BLOCK_COMPILE_THRESHOLD
from repro.vm.memory import DEFAULT_BASE
from repro.vm.profiler import ProfileMeter
from tests.helpers import run_asm, run_exit_code

_DATA = """
    .data
    .align 8
buf:
    .word 0x81828384, 0x01020304
    .word 0, 0
"""


def _mem_kernel(body: str) -> str:
    return f"    .text\n_start:\n    set buf, %o1\n{body}\n" \
           f"    mov 0, %g1\n    ta 5\n{_DATA}"


class TestLoads:
    @pytest.mark.parametrize("op,offset,expected", [
        ("ld", 0, 0x81828384),
        ("ld", 4, 0x01020304),
        ("ldub", 0, 0x81),
        ("ldub", 3, 0x84),
        ("ldsb", 0, 0xFFFFFF81),   # sign-extended
        ("ldsb", 4, 0x01),
        ("lduh", 0, 0x8182),
        ("ldsh", 0, 0xFFFF8182),
        ("ldsh", 4, 0x0102),
    ])
    def test_load_widths(self, op, offset, expected):
        result = run_asm(_mem_kernel(f"    {op} [%o1 + {offset}], %o0"))
        assert result.exit_code == expected

    def test_ldd_fills_even_odd_pair(self):
        result = run_asm(_mem_kernel("""
    ldd [%o1], %o2
    xor %o2, %o3, %o0
"""))
        assert result.exit_code == 0x81828384 ^ 0x01020304

    def test_register_indexed_address(self):
        result = run_asm(_mem_kernel("""
    mov 4, %o2
    ld [%o1 + %o2], %o0
"""))
        assert result.exit_code == 0x01020304

    def test_misaligned_load_faults(self):
        with pytest.raises(MemoryFault):
            run_asm(_mem_kernel("    ld [%o1 + 2], %o0"))

    def test_misaligned_ldd_faults(self):
        with pytest.raises(MemoryFault):
            run_asm(_mem_kernel("    ldd [%o1 + 4], %o2"))


class TestStores:
    @pytest.mark.parametrize("op,offset,readback,expected", [
        ("st", 8, "ld [%o1 + 8], %o0", 0xCAFEBABE),
        ("sth", 8, "lduh [%o1 + 8], %o0", 0xBABE),
        ("stb", 9, "ldub [%o1 + 9], %o0", 0xBE),
    ])
    def test_store_widths(self, op, offset, readback, expected):
        result = run_asm(_mem_kernel(f"""
    set 0xCAFEBABE, %o2
    {op} %o2, [%o1 + {offset}]
    {readback}
"""))
        assert result.exit_code == expected

    def test_partial_store_preserves_neighbours(self):
        result = run_asm(_mem_kernel("""
    set 0xFF, %o2
    stb %o2, [%o1 + 1]
    ld [%o1], %o0
"""))
        assert result.exit_code == 0x81FF8384

    def test_std_writes_pair(self):
        result = run_asm(_mem_kernel("""
    set 0x11111111, %o2
    set 0x22222222, %o3
    std %o2, [%o1 + 8]
    ld [%o1 + 8], %g2
    ld [%o1 + 12], %g3
    sub %g2, %g3, %o0
"""))
        assert result.exit_code == (0x11111111 - 0x22222222) & 0xFFFFFFFF

    def test_store_outside_ram_faults(self):
        with pytest.raises(MemoryFault):
            run_exit_code("""
    set 0x10000000, %o1
    st %g0, [%o1]
""")


class TestFpMemory:
    def test_lddf_stdf_roundtrip(self):
        result = run_asm(_mem_kernel("""
    lddf [%o1], %f0
    stdf %f0, [%o1 + 8]
    ld [%o1 + 8], %g2
    ld [%o1], %g3
    xor %g2, %g3, %o0
"""))
        assert result.exit_code == 0

    def test_ldf_stf_single_word(self):
        result = run_asm(_mem_kernel("""
    ldf [%o1 + 4], %f5
    stf %f5, [%o1 + 8]
    ld [%o1 + 8], %o0
"""))
        assert result.exit_code == 0x01020304


class TestStorePatterns:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_word_roundtrip_arbitrary_patterns(self, value):
        result = run_asm(_mem_kernel(f"""
    set {value}, %o2
    st %o2, [%o1 + 8]
    ld [%o1 + 8], %o0
"""))
        assert result.exit_code == value

    def test_byte_order_big_endian(self):
        result = run_asm(_mem_kernel("""
    set 0x11223344, %o2
    st %o2, [%o1 + 8]
    ldub [%o1 + 8], %o0     ! MSB first on SPARC
"""))
        assert result.exit_code == 0x11


# -- fault boundaries on hot loops ---------------------------------------------
#
# The tests above run straight-line code once, so their accesses execute on
# the cold per-instruction closures.  Here every access sits in a loop that
# runs past the compile threshold, so it executes inside a compiled fast
# block and a compiled profiled block, and then steps onto a boundary: the
# blocks' fault test must agree with the stepwise oracle on every edge.

_HOT_ITERATIONS = 2 * BLOCK_COMPILE_THRESHOLD

#: access width -> (load, store) mnemonics; the data register is %o4
#: (the %o4/%o5 pair for the 8-byte forms)
_WIDTHS = {1: ("ldub", "stb"), 2: ("lduh", "sth"), 4: ("ld", "st"),
           8: ("ldd", "std")}

#: boundary -> (base, index) register values of the final access, as
#: assembler expressions over (ram_size, width)
_EDGES = {
    "last-valid": lambda ram, size: (DEFAULT_BASE + ram - size, 0),
    "past-end": lambda ram, size: (DEFAULT_BASE + ram, 0),
    "misaligned": lambda ram, size: ("buf + 1", 0),
    "below-base": lambda ram, size: (DEFAULT_BASE - size, 0),
    # base + index carries past 2^32: back onto the buffer, or below RAM
    "wraps-onto-ram": lambda ram, size: (0xFFFFFF00, "buf + 0x100"),
    "wraps-below-ram": lambda ram, size: (0xFFFFFF00, 0x108),
}

#: 8 MiB (the default, a power of two: the one-AND fault test) and a
#: size just past 3 MiB (the AND plus the upper-bound comparison)
_RAM_SIZES = (CoreConfig().ram_size, 3 * 1024 * 1024 + 8)


def _hot_access_kernel(op: str, edge: tuple) -> str:
    """A loop whose access runs hot at ``buf``, then once at ``edge``.

    Each pass loads its base and index registers from ``operands`` --
    ``buf, 0`` for the hot passes, then the edge pair -- so the final
    access steps onto the boundary inside the same compiled self-loop
    that ran the hot passes.
    """
    store = op.startswith("st")
    access = f"{op} %o4, [%o1 + %o2]" if store \
        else f"{op} [%o1 + %o2], %o4"
    hot = "\n".join(["    .word buf, 0"] * _HOT_ITERATIONS)
    return f"""
    .text
_start:
    set operands, %l2
    set {_HOT_ITERATIONS + 1}, %o3
    set 0x81828384, %o4
    set 0x01020304, %o5
loop:
    ld [%l2], %o1
    ld [%l2 + 4], %o2
    {access}
    add %l0, %o4, %l0
    add %o4, 3, %o4
    add %l2, 8, %l2
    subcc %o3, 1, %o3
    bne loop
    nop
    mov %l0, %o0
    mov 0, %g1
    ta 5
    .data
    .align 8
buf:
    .word 0x81828384, 0x01020304, 0x05060708, 0x090a0b0c
operands:
{hot}
    .word {edge[0]}, {edge[1]}
"""


def _run_tier(program, core: CoreConfig, tier: str) -> tuple:
    """Run one simulator tier; returns its architectural outcome."""
    sim = Simulator(program, core)
    fault = compiled = None
    try:
        if tier == "blocks":
            sim.run()
        elif tier == "profiled":
            sim.run_profiled(ProfileMeter())
        else:
            sim.run_metered(ProfileMeter())
    except MemoryFault as exc:
        fault = (type(exc), exc.addr, exc.size, str(exc), exc.pc)
        # which code raised: a generated block (<block ...>/<pblock ...>)
        # or a per-instruction closure
        compiled = any(frame.f_code.co_filename.startswith(("<block",
                                                            "<pblock"))
                       for frame, _ in traceback.walk_tb(exc.__traceback__))
    st = sim.state
    outcome = (fault, st.retired, list(st.regs), st.pc, st.npc,
               bytes(st.mem.ram))
    return outcome, compiled, sim.cpu


@pytest.mark.parametrize("ram_size", _RAM_SIZES,
                         ids=lambda size: f"ram{size:#x}")
@pytest.mark.parametrize("edge", sorted(_EDGES))
@pytest.mark.parametrize("size", sorted(_WIDTHS))
@pytest.mark.parametrize("kind", ["load", "store"])
def test_hot_loop_fault_boundaries(kind, size, edge, ram_size):
    """Fast blocks, profiled blocks and the stepwise oracle agree on a
    hot access stepping onto each RAM boundary: the same fault (type,
    addr, size, message, pc) or the same clean exit, with the same
    retired count, registers, pc/npc and RAM contents."""
    op = _WIDTHS[size][kind == "store"]
    program = assemble(_hot_access_kernel(op, _EDGES[edge](ram_size, size)))
    core = CoreConfig(ram_size=ram_size)

    oracle, _, _ = _run_tier(program, core, "stepwise")
    for tier in ("blocks", "profiled"):
        outcome, compiled, cpu = _run_tier(program, core, tier)
        assert outcome[0] == oracle[0], tier
        assert outcome[1:] == oracle[1:], tier
        loop = program.symbols["loop"]
        assert loop in cpu._blocks, f"{tier}: the loop never compiled"
        source = cpu._blocks[loop][0].__block_source__
        # a power-of-two RAM needs only the AND; any other size adds the
        # upper-bound comparison
        pow2 = ram_size & (ram_size - 1) == 0
        assert (" or off > " in source) != pow2, tier
        if oracle[0] is not None:
            assert compiled, f"{tier}: the fault came from a cold closure"

    faults = {"past-end", "below-base", "wraps-below-ram"} | (
        {"misaligned"} if size > 1 else set())
    assert (oracle[0] is not None) == (edge in faults)
