"""The two-pass assembler core.

Pass 1 sizes every statement and binds labels to section offsets; pass 2
resolves expressions against the final symbol table and encodes machine
words.  Synthetic instructions expand here (``set`` may occupy one or two
words -- the expansion size is decided deterministically in pass 1).

Comments and operand lists are found by one compiled token scan in which
double-quoted strings and ``'c'`` char literals are atoms, so ``'#'``,
``'!'`` or ``','`` never start a comment or split an operand.  Pass 1
keeps an instruction's operand text whole (only ``set`` is sized from
its operands); pass 2 splits it where it encodes the instruction.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from repro.asm.errors import AsmError
from repro.asm.expr import evaluate, references_symbols
from repro.asm.program import Program
from repro.isa import encoder
from repro.isa.errors import EncodeError
from repro.isa.fields import fits_simm13, u32
from repro.isa.opcodes import (
    ARITH_MNEMONIC_TO_OP3,
    FCC_NAME_TO_COND,
    FPOP_MNEMONIC_TO_OPF,
    FPOP_TWO_SOURCE,
    ICC_NAME_TO_COND,
    MEM_MNEMONIC_TO_OP3,
    STORE_MNEMONICS,
    TRAP_NAME_TO_COND,
)
from repro.isa.registers import is_freg, is_reg, parse_freg, parse_reg

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_MEM_ADDR_RE = re.compile(r"^\s*(%\w+)\s*(?:([+-])\s*(.+?))?\s*$")

_DEFAULT_ORIGIN = 0x40000000

_WORD = struct.Struct(">I").pack


@dataclass
class _Item:
    """One sized statement produced by pass 1."""

    section: str
    offset: int
    size: int
    kind: str  # "instr" | "data"
    mnemonic: str
    annul: bool
    #: the operand text after the mnemonic (split where it is used)
    args: str
    line_no: int
    raw: str


#: The atoms that give a statement its structure: double-quoted strings
#: (an unterminated one runs to the end of the line) and ``'c'`` char
#: literals, inside which nothing is structural, and the comma, bracket,
#: paren and comment characters outside them.  Scans search for these
#: only, so plain operand text is never visited character by character.
_ATOM_RE = re.compile(r"""
    "(?:[^"\\]|\\.)*"?
  | '(?:[^'\\]|\\.)'
  | [,()\[\]!\#]
""", re.VERBOSE | re.DOTALL)


def _strip_comment(line: str) -> str:
    """``line`` without its ``!``/``#`` comment and surrounding blanks."""
    if "!" in line or "#" in line:
        for atom in _ATOM_RE.finditer(line):
            if atom.group() in ("!", "#"):
                return line[:atom.start()].strip()
    return line.strip()


def _split_operands(text: str) -> list[str]:
    """Split on top-level commas (strings, char literals and ``[]``/``()``
    groups are atoms)."""
    if not text.strip():
        return []
    parts: list[str] = []
    depth = 0
    start = 0
    for atom in _ATOM_RE.finditer(text):
        token = atom.group()
        if token == ",":
            if not depth:
                parts.append(text[start:atom.start()].strip())
                start = atom.end()
        elif token in ("[", "("):
            depth += 1
        elif token in ("]", ")"):
            depth -= 1
    parts.append(text[start:].strip())
    return parts


def _parse_string_literal(text: str) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AsmError(f"expected string literal, got {text!r}")
    body = text[1:-1]
    out = bytearray()
    i = 0
    escapes = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34, "'": 39}
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise AsmError("dangling escape in string literal")
            code = escapes.get(body[i + 1])
            if code is None:
                raise AsmError(f"unknown escape \\{body[i + 1]}")
            out.append(code)
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


_SYNTHETIC_SIZES = {
    "nop": 4, "mov": 4, "cmp": 4, "tst": 4, "clr": 4, "inc": 4, "dec": 4,
    "neg": 4, "not": 4, "ret": 4, "retl": 4, "jmp": 4, "rd": 4, "wr": 4,
}


class Assembler:
    """Assemble SPARC V8 source into a :class:`~repro.asm.program.Program`.

    Parameters
    ----------
    origin:
        Load/link address of ``.text`` (LEON3 RAM base by default).
    entry_symbol:
        Execution starts at this label when defined, else at ``origin``.
    """

    def __init__(self, origin: int = _DEFAULT_ORIGIN,
                 entry_symbol: str = "_start"):
        if origin % 8:
            raise AsmError(f"origin must be 8-byte aligned, got {origin:#x}")
        self.origin = origin
        self.entry_symbol = entry_symbol

    # -- pass 1 -------------------------------------------------------------

    def assemble(self, source: str) -> Program:
        """Assemble ``source`` and return the linked program image."""
        items: list[_Item] = []
        # symbol -> (section, offset) for labels; absolute ints for .equ
        label_defs: dict[str, tuple[str, int]] = {}
        equ_defs: dict[str, int] = {}
        lc = {".text": 0, ".data": 0, ".bss": 0}
        section = ".text"

        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw_line)
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                name = match.group(1)
                if name in label_defs or name in equ_defs:
                    raise AsmError(f"duplicate symbol {name!r}", line_no)
                label_defs[name] = (section, lc[section])
                line = match.group(2).strip()
            if not line:
                continue

            fields = line.split(None, 1)
            head = fields[0].lower()
            rest = fields[1] if len(fields) > 1 else ""

            if head.startswith("."):
                section, consumed = self._directive_pass1(
                    head, rest, section, lc, items, equ_defs, line_no, raw_line)
                if consumed:
                    continue
                continue

            annul = False
            if head.endswith(",a"):
                head = head[:-2]
                annul = True
            size = self._instr_size(head, rest, equ_defs, line_no)
            if section != ".text":
                raise AsmError(
                    f"instruction {head!r} outside .text", line_no)
            items.append(_Item(section, lc[section], size, "instr", head,
                               annul, rest, line_no, raw_line.strip()))
            lc[section] += size

        return self._pass2(items, label_defs, equ_defs, lc)

    def _directive_pass1(self, head: str, rest: str, section: str,
                         lc: dict[str, int], items: list[_Item],
                         equ_defs: dict[str, int], line_no: int,
                         raw: str) -> tuple[str, bool]:
        operands = _split_operands(rest)

        def emit(size: int) -> None:
            items.append(_Item(section, lc[section], size, "data", head,
                               False, rest, line_no, raw.strip()))
            lc[section] += size

        if head in (".text", ".data", ".bss"):
            return head, True
        if head in (".global", ".globl", ".type", ".size"):
            return section, True
        if head in (".equ", ".set"):
            if len(operands) != 2:
                raise AsmError(f"{head} needs `name, value`", line_no)
            name = operands[0]
            try:
                value = evaluate(operands[1], equ_defs)
            except AsmError as exc:
                raise exc.at_line(line_no)
            equ_defs[name] = value
            return section, True
        if head == ".align":
            if len(operands) != 1:
                raise AsmError(".align needs one operand", line_no)
            try:
                alignment = evaluate(operands[0], equ_defs)
            except AsmError as exc:
                raise exc.at_line(line_no)
            if alignment <= 0 or alignment & (alignment - 1):
                raise AsmError(
                    f".align must be a power of two, got {alignment}", line_no)
            pad = (-lc[section]) % alignment
            if pad:
                emit(pad)
            return section, True
        if head in (".skip", ".space"):
            if len(operands) not in (1, 2):
                raise AsmError(f"{head} needs `size[, fill]`", line_no)
            try:
                size = evaluate(operands[0], equ_defs)
            except AsmError as exc:
                raise exc.at_line(line_no)
            if size < 0:
                raise AsmError(f"negative {head} size", line_no)
            emit(size)
            return section, True
        if head in (".word", ".half", ".byte"):
            if section == ".bss":
                raise AsmError(f"{head} not allowed in .bss", line_no)
            unit = {".word": 4, ".half": 2, ".byte": 1}[head]
            if not operands:
                raise AsmError(f"{head} needs at least one value", line_no)
            emit(unit * len(operands))
            return section, True
        if head in (".ascii", ".asciz"):
            if section == ".bss":
                raise AsmError(f"{head} not allowed in .bss", line_no)
            data = _parse_string_literal(rest)
            emit(len(data) + (1 if head == ".asciz" else 0))
            return section, True
        raise AsmError(f"unknown directive {head!r}", line_no)

    def _instr_size(self, mnemonic: str, args: str,
                    equ_defs: dict[str, int], line_no: int) -> int:
        if mnemonic == "set":
            operands = _split_operands(args)
            if len(operands) != 2:
                raise AsmError("set needs `value, register`", line_no)
            expr = operands[0]
            if references_symbols(expr):
                return 8
            try:
                value = u32(evaluate(expr, equ_defs))
            except AsmError as exc:
                raise exc.at_line(line_no)
            signed = value - 0x100000000 if value & 0x80000000 else value
            if fits_simm13(signed) or (value & 0x3FF) == 0:
                return 4
            return 8
        return 4

    # -- pass 2 -------------------------------------------------------------

    def _pass2(self, items: list[_Item], label_defs: dict[str, tuple[str, int]],
               equ_defs: dict[str, int], lc: dict[str, int]) -> Program:
        def align8(addr: int) -> int:
            return (addr + 7) & ~7

        text_base = self.origin
        data_base = align8(text_base + lc[".text"])
        bss_base = align8(data_base + lc[".data"])
        bases = {".text": text_base, ".data": data_base, ".bss": bss_base}

        symbols = dict(equ_defs)
        for name, (section, offset) in label_defs.items():
            symbols[name] = bases[section] + offset

        text = bytearray(lc[".text"])
        data = bytearray(lc[".data"])

        for item in items:
            addr = bases[item.section] + item.offset
            try:
                blob = self._encode_item(item, addr, symbols)
            except AsmError as exc:
                raise exc.at_line(item.line_no)
            except (EncodeError, ValueError) as exc:
                raise AsmError(str(exc), item.line_no) from exc
            if len(blob) != item.size:
                raise AsmError(
                    f"internal: pass1 sized {item.size} bytes but pass2 "
                    f"encoded {len(blob)} for {item.raw!r}", item.line_no)
            buf = text if item.section == ".text" else data
            if item.section == ".bss":
                continue
            buf[item.offset:item.offset + len(blob)] = blob

        entry = symbols.get(self.entry_symbol, text_base)
        return Program(
            origin=text_base,
            text=bytes(text),
            data=bytes(data),
            data_addr=data_base,
            bss_addr=bss_base,
            bss_size=lc[".bss"],
            entry=entry,
            symbols=symbols,
        )

    # -- statement encoding --------------------------------------------------

    def _encode_item(self, item: _Item, addr: int,
                     symbols: dict[str, int]) -> bytes:
        if item.kind == "data":
            return self._encode_data(item, addr, symbols)
        words = self._encode_instr(item.mnemonic, item.annul,
                                   _split_operands(item.args), addr, symbols)
        return b"".join([_WORD(u32(w)) for w in words])

    def _encode_data(self, item: _Item, addr: int,
                     symbols: dict[str, int]) -> bytes:
        head = item.mnemonic
        operands = _split_operands(item.args)
        if head in (".skip", ".space"):
            fill = 0
            if len(operands) == 2:
                fill = evaluate(operands[1], symbols, addr) & 0xFF
            return bytes([fill]) * item.size
        if head == ".align":
            return bytes(item.size)
        if head in (".word", ".half", ".byte"):
            unit = {".word": 4, ".half": 2, ".byte": 1}[head]
            fmt = {4: ">I", 2: ">H", 1: ">B"}[unit]
            out = bytearray()
            for op in operands:
                value = evaluate(op, symbols, addr) & ((1 << (unit * 8)) - 1)
                out += struct.pack(fmt, value)
            return bytes(out)
        if head in (".ascii", ".asciz"):
            blob = _parse_string_literal(" ".join(operands) if
                                         len(operands) > 1 else
                                         operands[0])
            return blob + (b"\x00" if head == ".asciz" else b"")
        raise AsmError(f"internal: unsized directive {head!r}")

    def _reg_or_imm(self, text: str, symbols: dict[str, int],
                    addr: int) -> tuple[int | None, int | None]:
        """Parse an op2 operand: (register, None) or (None, immediate)."""
        if is_reg(text):
            return parse_reg(text), None
        value = evaluate(text, symbols, addr)
        if not fits_simm13(value):
            raise AsmError(f"immediate {value} does not fit simm13")
        return None, value

    def _mem_address(self, text: str, symbols: dict[str, int],
                     addr: int) -> tuple[int, int | None, int | None]:
        """Parse ``[base]``, ``[base + reg]``, ``[base +/- imm]``."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise AsmError(f"expected memory operand in brackets: {text!r}")
        inner = text[1:-1].strip()
        match = _MEM_ADDR_RE.match(inner)
        if not match or not is_reg(match.group(1)):
            raise AsmError(f"unsupported address form: {text!r}")
        base = parse_reg(match.group(1))
        if match.group(2) is None:
            return base, None, 0
        sign, tail = match.group(2), match.group(3).strip()
        if is_reg(tail):
            if sign == "-":
                raise AsmError("register offsets cannot be subtracted")
            return base, parse_reg(tail), None
        value = evaluate(tail, symbols, addr)
        if sign == "-":
            value = -value
        if not fits_simm13(value):
            raise AsmError(f"address offset {value} does not fit simm13")
        return base, None, value

    def _encode_instr(self, m: str, annul: bool, ops: list[str], addr: int,
                      symbols: dict[str, int]) -> list[int]:
        """Encode one (possibly synthetic) instruction into words."""
        if m == "nop":
            self._arity(m, ops, 0)
            return [encoder.encode_nop()]

        if m in ICC_NAME_TO_COND:
            self._arity(m, ops, 1)
            target = evaluate(ops[0], symbols, addr)
            return [encoder.encode_branch(m, target - addr, annul)]
        if m in FCC_NAME_TO_COND:
            self._arity(m, ops, 1)
            target = evaluate(ops[0], symbols, addr)
            return [encoder.encode_fbranch(m, target - addr, annul)]
        if m in TRAP_NAME_TO_COND:
            self._arity(m, ops, 1)
            value = evaluate(ops[0], symbols, addr)
            return [encoder.encode_trap(m, rs1=0, imm=value)]

        if m == "call":
            self._arity(m, ops, 1)
            if is_reg(ops[0]):
                return [encoder.encode_jmpl(15, parse_reg(ops[0]), imm=0)]
            target = evaluate(ops[0], symbols, addr)
            return [encoder.encode_call(target - addr)]
        if m == "jmp":
            self._arity(m, ops, 1)
            base, rs2, imm = self._jump_address(ops[0], symbols, addr)
            return [encoder.encode_jmpl(0, base, rs2, imm)]
        if m == "jmpl":
            self._arity(m, ops, 2)
            base, rs2, imm = self._jump_address(ops[0], symbols, addr)
            return [encoder.encode_jmpl(parse_reg(ops[1]), base, rs2, imm)]
        if m == "ret":
            self._arity(m, ops, 0)
            return [encoder.encode_jmpl(0, 31, imm=8)]
        if m == "retl":
            self._arity(m, ops, 0)
            return [encoder.encode_jmpl(0, 15, imm=8)]

        if m == "sethi":
            self._arity(m, ops, 2)
            value = evaluate(ops[0], symbols, addr)
            return [encoder.encode_sethi(parse_reg(ops[1]), value)]
        if m == "set":
            self._arity(m, ops, 2)
            rd = parse_reg(ops[1])
            value = u32(evaluate(ops[0], symbols, addr))
            signed = value - 0x100000000 if value & 0x80000000 else value
            symbolic = references_symbols(ops[0])
            if not symbolic and fits_simm13(signed):
                return [encoder.encode_arith("or", rd, 0, imm=signed)]
            if not symbolic and (value & 0x3FF) == 0:
                return [encoder.encode_sethi(rd, value >> 10)]
            return [
                encoder.encode_sethi(rd, (value >> 10) & 0x3FFFFF),
                encoder.encode_arith("or", rd, rd, imm=value & 0x3FF),
            ]

        if m in ("save", "restore") and not ops:
            return [encoder.encode_arith(m, 0, 0, rs2=0)]
        if m in ARITH_MNEMONIC_TO_OP3:
            self._arity(m, ops, 3)
            rs1 = parse_reg(ops[0])
            rd = parse_reg(ops[2])
            reg2, imm = self._reg_or_imm(ops[1], symbols, addr)
            return [encoder.encode_arith(m, rd, rs1, reg2, imm)]

        if m in MEM_MNEMONIC_TO_OP3:
            if m in STORE_MNEMONICS:
                self._arity(m, ops, 2)
                data_op, mem_op = ops[0], ops[1]
            else:
                self._arity(m, ops, 2)
                mem_op, data_op = ops[0], ops[1]
            if m in ("ldf", "lddf", "stf", "stdf"):
                rd = parse_freg(data_op)
            else:
                rd = parse_reg(data_op)
            base, rs2, imm = self._mem_address(mem_op, symbols, addr)
            return [encoder.encode_mem(m, rd, base, rs2, imm)]

        if m in FPOP_MNEMONIC_TO_OPF:
            if m in ("fcmps", "fcmpd"):
                self._arity(m, ops, 2)
                return [encoder.encode_fpop(m, 0, parse_freg(ops[1]),
                                            parse_freg(ops[0]))]
            if m in FPOP_TWO_SOURCE:
                self._arity(m, ops, 3)
                return [encoder.encode_fpop(m, parse_freg(ops[2]),
                                            parse_freg(ops[1]),
                                            parse_freg(ops[0]))]
            self._arity(m, ops, 2)
            return [encoder.encode_fpop(m, parse_freg(ops[1]),
                                        parse_freg(ops[0]))]

        if m == "rd":
            self._arity(m, ops, 2)
            if ops[0].strip().lower() != "%y":
                raise AsmError("only `rd %y, reg` is supported")
            return [encoder.encode_rdy(parse_reg(ops[1]))]
        if m == "wr":
            if len(ops) == 2:
                ops = [ops[0], "%g0", ops[1]]
            self._arity(m, ops, 3)
            if ops[2].strip().lower() != "%y":
                raise AsmError("only `wr reg, op2, %y` is supported")
            reg2, imm = self._reg_or_imm(ops[1], symbols, addr)
            return [encoder.encode_wry(parse_reg(ops[0]), reg2, imm)]

        if m == "mov":
            self._arity(m, ops, 2)
            if ops[0].strip().lower() == "%y":
                return [encoder.encode_rdy(parse_reg(ops[1]))]
            if ops[1].strip().lower() == "%y":
                return [encoder.encode_wry(parse_reg(ops[0]), None, 0)]
            if is_freg(ops[0]) or is_freg(ops[1]):
                return [encoder.encode_fpop("fmovs", parse_freg(ops[1]),
                                            parse_freg(ops[0]))]
            rd = parse_reg(ops[1])
            reg2, imm = self._reg_or_imm(ops[0], symbols, addr)
            return [encoder.encode_arith("or", rd, 0, reg2, imm)]
        if m == "cmp":
            self._arity(m, ops, 2)
            reg2, imm = self._reg_or_imm(ops[1], symbols, addr)
            return [encoder.encode_arith("subcc", 0, parse_reg(ops[0]),
                                         reg2, imm)]
        if m == "tst":
            self._arity(m, ops, 1)
            return [encoder.encode_arith("orcc", 0, 0,
                                         rs2=parse_reg(ops[0]))]
        if m == "clr":
            self._arity(m, ops, 1)
            return [encoder.encode_arith("or", parse_reg(ops[0]), 0, rs2=0)]
        if m in ("inc", "dec"):
            base = "add" if m == "inc" else "sub"
            if len(ops) == 1:
                rd = parse_reg(ops[0])
                return [encoder.encode_arith(base, rd, rd, imm=1)]
            self._arity(m, ops, 2)
            rd = parse_reg(ops[1])
            step = evaluate(ops[0], symbols, addr)
            return [encoder.encode_arith(base, rd, rd, imm=step)]
        if m == "neg":
            rd = parse_reg(ops[-1])
            rs = parse_reg(ops[0])
            return [encoder.encode_arith("sub", rd, 0, rs2=rs)]
        if m == "not":
            rd = parse_reg(ops[-1])
            rs = parse_reg(ops[0])
            return [encoder.encode_arith("xnor", rd, rs, rs2=0)]

        raise AsmError(f"unknown mnemonic {m!r}")

    def _jump_address(self, text: str, symbols: dict[str, int],
                      addr: int) -> tuple[int, int | None, int | None]:
        """Parse a jmpl-style address: ``reg``, ``reg + reg``, ``reg +/- imm``."""
        match = _MEM_ADDR_RE.match(text.strip())
        if not match or not is_reg(match.group(1)):
            raise AsmError(f"unsupported jump address: {text!r}")
        base = parse_reg(match.group(1))
        if match.group(2) is None:
            return base, None, 0
        sign, tail = match.group(2), match.group(3).strip()
        if is_reg(tail):
            if sign == "-":
                raise AsmError("register offsets cannot be subtracted")
            return base, parse_reg(tail), None
        value = evaluate(tail, symbols, addr)
        if sign == "-":
            value = -value
        return base, None, value

    @staticmethod
    def _arity(mnemonic: str, ops: list[str], expected: int) -> None:
        if len(ops) != expected:
            raise AsmError(
                f"{mnemonic} expects {expected} operand(s), got {len(ops)}")


def assemble(source: str, origin: int = _DEFAULT_ORIGIN,
             entry_symbol: str = "_start") -> Program:
    """Convenience wrapper: assemble ``source`` with default settings."""
    return Assembler(origin=origin, entry_symbol=entry_symbol).assemble(source)
