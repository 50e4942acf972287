"""Disassembler coverage: every implemented instruction renders sanely,
and rendering agrees with the assembler (asm -> encode -> disasm -> asm)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.isa import decode, disassemble
from repro.isa.encoder import (
    encode_arith,
    encode_branch,
    encode_call,
    encode_fbranch,
    encode_fpop,
    encode_jmpl,
    encode_mem,
    encode_nop,
    encode_rdy,
    encode_sethi,
    encode_trap,
    encode_wry,
)
from repro.isa.opcodes import (
    ARITH_MNEMONIC_TO_OP3,
    FCC_NAME_TO_COND,
    FPOP_MNEMONIC_TO_OPF,
    FPOP_TWO_SOURCE,
    ICC_COND_NAMES,
    ICC_NAME_TO_COND,
    MEM_MNEMONIC_TO_OP3,
    TRAP_COND_NAMES,
)


def test_every_mnemonic_disassembles():
    words = []
    for m in ARITH_MNEMONIC_TO_OP3:
        words.append((m, encode_arith(m, 1, 2, rs2=3)))
        words.append((m, encode_arith(m, 1, 2, imm=5)))
    for m in MEM_MNEMONIC_TO_OP3:
        words.append((m, encode_mem(m, 1, 2, imm=-8)))
        words.append((m, encode_mem(m, 1, 2, rs2=4)))
    for m in ICC_COND_NAMES.values():
        words.append((m, encode_branch(m, 16)))
        words.append((m, encode_branch(m, -16, annul=True)))
    for m in FCC_NAME_TO_COND:
        words.append((m, encode_fbranch(m, 8)))
    for m in FPOP_MNEMONIC_TO_OPF:
        words.append((m, encode_fpop(m, 4, 2, 0)))
    for m in TRAP_COND_NAMES.values():
        words.append((m, encode_trap(m, imm=5)))
    words.append(("call", encode_call(400)))
    words.append(("jmpl", encode_jmpl(0, 15, imm=8)))
    words.append(("sethi", encode_sethi(3, 0x3FF)))
    words.append(("nop", encode_nop()))
    words.append(("rd", encode_rdy(5)))
    words.append(("wr", encode_wry(5, imm=0)))
    for mnemonic, word in words:
        text = disassemble(decode(word))
        head = text.split()[0].split(",")[0]
        # the rendered mnemonic matches (allowing retl/ret synthetics)
        assert head.startswith(mnemonic[:2]) or head in ("retl", "ret"), \
            f"{mnemonic}: {text}"


def test_branch_target_rendering():
    word = encode_branch("bne", -24, annul=True)
    assert disassemble(decode(word)) == "bne,a . - 24"
    assert disassemble(decode(word), pc=0x40000100) == "bne,a 0x400000e8"


def test_call_target_with_pc():
    word = encode_call(0x40)
    assert disassemble(decode(word), pc=0x40000000) == "call 0x40000040"


def test_ret_retl_synthetics():
    assert disassemble(decode(encode_jmpl(0, 31, imm=8))) == "ret"
    assert disassemble(decode(encode_jmpl(0, 15, imm=8))) == "retl"


def test_sethi_rendering():
    assert disassemble(decode(encode_sethi(2, 0x12345))) == \
        "sethi %hi(0x48d1400), %g2"


def _reassembled(word: int) -> tuple[str, int]:
    """Disassemble ``word`` and assemble the text back at the same pc."""
    rendered = disassemble(decode(word))
    prog = assemble(f"    .text\n_start:\n    {rendered}\n")
    return rendered, int.from_bytes(prog.text[:4], "big")


@pytest.mark.parametrize("line", [
    "add %g2, %g4, %g1",
    "subcc %o0, -42, %o1",
    "ld [%o0 + 64], %o2",
    "ld [%o1 + %g0], %o2",
    "ldd [%o0], %o2",
    "stb %o2, [%o0 + 3]",
    "faddd %f0, %f2, %f4",
    "fsqrtd %f6, %f8",
    "fitod %f1, %f2",
    "fcmps %f3, %f4",
    "umul %g1, %g2, %g3",
    "save %sp, -96, %sp",
])
def test_asm_disasm_asm_fixpoint(line):
    """Assembling the disassembly reproduces the same machine word."""
    prog1 = assemble(f"    .text\n_start:\n    {line}\n")
    word1 = int.from_bytes(prog1.text[:4], "big")
    rendered, word2 = _reassembled(word1)
    assert word1 == word2, f"{line!r} -> {rendered!r}"


_REG = st.integers(0, 31)
_SIMM13 = st.integers(-4096, 4095)
_SHIFTS = ("sll", "srl", "sra")


@st.composite
def _encoded_words(draw) -> int:
    """Encoder output for every ALU, memory and FP-operate mnemonic (random
    registers, register or simm13 second operands), plus ``.``-relative
    branches and calls."""
    family = draw(st.sampled_from(("arith", "mem", "fpop", "branch", "call")))
    if family == "arith":
        m = draw(st.sampled_from(sorted(ARITH_MNEMONIC_TO_OP3)))
        rd, rs1 = draw(_REG), draw(_REG)
        if draw(st.booleans()):
            return encode_arith(m, rd, rs1, rs2=draw(_REG))
        imm = draw(st.integers(0, 31) if m in _SHIFTS else _SIMM13)
        return encode_arith(m, rd, rs1, imm=imm)
    if family == "mem":
        m = draw(st.sampled_from(sorted(MEM_MNEMONIC_TO_OP3)))
        rd, rs1 = draw(_REG), draw(_REG)
        if draw(st.booleans()):
            return encode_mem(m, rd, rs1, rs2=draw(_REG))
        return encode_mem(m, rd, rs1, imm=draw(_SIMM13))
    if family == "fpop":
        # the canonical encodings the assembler emits: one-source ops
        # leave rs1 zero, compares leave rd zero
        m = draw(st.sampled_from(sorted(FPOP_MNEMONIC_TO_OPF)))
        rd = 0 if m in ("fcmps", "fcmpd") else draw(_REG)
        rs1 = draw(_REG) if m in FPOP_TWO_SOURCE else 0
        return encode_fpop(m, rd, draw(_REG), rs1)
    if family == "branch":
        m = draw(st.sampled_from(sorted(ICC_NAME_TO_COND)
                                 + sorted(FCC_NAME_TO_COND)))
        disp = 4 * draw(st.integers(-(1 << 21), (1 << 21) - 1))
        encode = encode_branch if m in ICC_NAME_TO_COND else encode_fbranch
        return encode(m, disp, annul=draw(st.booleans()))
    return encode_call(4 * draw(st.integers(-(1 << 29), (1 << 29) - 1)))


@settings(max_examples=400, deadline=None)
@given(_encoded_words())
def test_asm_disasm_asm_fixpoint_property(word):
    """Disassembling any encoder output and assembling the text back
    reproduces the word: every operand form the disassembler emits goes
    through the assembler's scanner and expression evaluator."""
    rendered, again = _reassembled(word)
    assert again == word, f"{word:#010x} -> {rendered!r} -> {again:#010x}"
