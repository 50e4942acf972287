"""Textual disassembly of decoded instructions (Fig. 2's *disassembler*).

Produces conventional SPARC assembly such as ``add %g2, %g4, %g1`` or
``ld [%o0 + 4], %o1``.  When a program counter is supplied, branch and call
targets are rendered as absolute addresses; otherwise as ``. +/- offset``.
"""

from __future__ import annotations

from repro.isa.decoder import DecodedInstr, decode
from repro.isa.registers import freg_name, reg_name


def _addr_operand(instr: DecodedInstr) -> str:
    base = reg_name(instr.rs1)
    if instr.i:
        if instr.imm == 0:
            return f"[{base}]"
        sign = "+" if instr.imm >= 0 else "-"
        return f"[{base} {sign} {abs(instr.imm)}]"
    # `[base]` assembles to the immediate form, so an explicit %g0 index
    # keeps the register form (and the word) through a round trip
    return f"[{base} + {reg_name(instr.rs2)}]"


def _operand2(instr: DecodedInstr) -> str:
    return str(instr.imm) if instr.i else reg_name(instr.rs2)


def _target(instr: DecodedInstr, pc: int | None) -> str:
    if pc is not None:
        return f"0x{(pc + instr.imm) & 0xFFFFFFFF:08x}"
    if instr.imm >= 0:
        return f". + {instr.imm}"
    return f". - {abs(instr.imm)}"


def disassemble(instr: DecodedInstr | int, pc: int | None = None) -> str:
    """Render ``instr`` (a :class:`DecodedInstr` or raw word) as text."""
    if isinstance(instr, int):
        instr = decode(instr)
    kind = instr.kind
    m = instr.mnemonic

    if kind == "nop":
        return "nop"
    if kind == "sethi":
        return f"sethi %hi(0x{instr.imm << 10:x}), {reg_name(instr.rd)}"
    if kind == "arith" or kind in ("save", "restore"):
        return (f"{m} {reg_name(instr.rs1)}, {_operand2(instr)}, "
                f"{reg_name(instr.rd)}")
    if kind in ("branch", "fbranch"):
        suffix = ",a" if instr.annul else ""
        return f"{m}{suffix} {_target(instr, pc)}"
    if kind == "call":
        return f"call {_target(instr, pc)}"
    if kind == "jmpl":
        dest = reg_name(instr.rd)
        if instr.i:
            if instr.rs1 == 31 and instr.imm == 8 and instr.rd == 0:
                return "ret"
            if instr.rs1 == 15 and instr.imm == 8 and instr.rd == 0:
                return "retl"
            sign = "+" if instr.imm >= 0 else "-"
            return f"jmpl {reg_name(instr.rs1)} {sign} {abs(instr.imm)}, {dest}"
        return f"jmpl {reg_name(instr.rs1)} + {reg_name(instr.rs2)}, {dest}"
    if kind == "load":
        dreg = freg_name(instr.rd) if m in ("ldf", "lddf") else reg_name(instr.rd)
        return f"{m} {_addr_operand(instr)}, {dreg}"
    if kind == "store":
        dreg = freg_name(instr.rd) if m in ("stf", "stdf") else reg_name(instr.rd)
        return f"{m} {dreg}, {_addr_operand(instr)}"
    if kind == "rdy":
        return f"rd %y, {reg_name(instr.rd)}"
    if kind == "wry":
        return f"wr {reg_name(instr.rs1)}, {_operand2(instr)}, %y"
    if kind == "trap":
        return f"{m} {instr.imm}" if instr.i else (
            f"{m} {reg_name(instr.rs1)} + {reg_name(instr.rs2)}")
    if kind == "fpop":
        one_source = m in ("fmovs", "fnegs", "fabss", "fsqrts", "fsqrtd",
                           "fitos", "fitod", "fstoi", "fdtoi", "fstod",
                           "fdtos")
        if one_source:
            return f"{m} {freg_name(instr.rs2)}, {freg_name(instr.rd)}"
        return (f"{m} {freg_name(instr.rs1)}, {freg_name(instr.rs2)}, "
                f"{freg_name(instr.rd)}")
    if kind == "fcmp":
        return f"{m} {freg_name(instr.rs1)}, {freg_name(instr.rs2)}"
    raise AssertionError(f"unhandled kind {kind!r}")  # pragma: no cover
