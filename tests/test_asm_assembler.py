"""Assembler tests: expressions, directives, synthetics, errors."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from repro.asm import AsmError, assemble
from repro.asm.expr import _Parser, _tokenize, evaluate, references_symbols
from repro.isa.decoder import decode
from repro.isa.disasm import disassemble
from repro.isa.encoder import encode_arith


class TestExpressions:
    @pytest.mark.parametrize("text,expected", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("0x10 | 0b101", 0x15),
        ("1 << 20", 1 << 20),
        ("-8 / 2", -4),
        ("7 % 4", 3),
        ("~0 & 0xFF", 0xFF),
        ("'A'", 65),
        ("'\\n'", 10),
        ("%hi(0x40000000)", 0x40000000 >> 10),
        ("%lo(0x12345)", 0x12345 & 0x3FF),
        ("012", 12),
        ("-0x10", -16),
        (" 0b101 ", 5),
        ("-7", -7),
        ("0X1f", 31),
        ("4095", 4095),
    ])
    def test_literals(self, text, expected):
        assert evaluate(text) == expected

    def test_symbols(self):
        assert evaluate("base + 4 * n", {"base": 100, "n": 3}) == 112

    def test_undefined_symbol(self):
        with pytest.raises(AsmError):
            evaluate("missing + 1")

    def test_location_counter(self):
        assert evaluate(". + 8", location=0x40000000) == 0x40000008
        with pytest.raises(AsmError):
            evaluate(".")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_hi_lo_reconstruct(self, value):
        hi = evaluate(f"%hi({value})")
        lo = evaluate(f"%lo({value})")
        assert ((hi << 10) | lo) == value

    def test_references_symbols(self):
        assert references_symbols("label + 4")
        assert references_symbols("%hi(buf)")
        assert not references_symbols("0x1234 + 8")
        for literal in ("012", "-0x10", " 0b101 ", "-7", "0X1f", "4095"):
            assert not references_symbols(literal)

    def test_division_by_zero(self):
        with pytest.raises(AsmError):
            evaluate("1 / 0")

    @given(st.integers(-(1 << 40), 1 << 40),
           st.sampled_from(("{}", "{:#x}", "{:#X}", "{:#b}", "0{}")))
    def test_literal_shortcut_matches_parser(self, value, form):
        """A lone (negated) literal skips the parser; both agree."""
        text = ("-" if value < 0 else "") + form.format(abs(value))
        parsed = _Parser(_tokenize(text), {}, None).parse()
        assert evaluate(text) == parsed == value


class TestDirectives:
    def test_sections_and_symbols(self):
        prog = assemble("""
            .text
        _start:
            nop
            .data
            .align 8
        table:
            .word 1, 2, 3
        msg:
            .asciz "hi"
            .bss
            .align 8
        buffer:
            .skip 64
        """)
        assert prog.symbols["_start"] == prog.origin
        table = prog.symbols["table"]
        assert table % 8 == 0
        assert prog.symbols["msg"] == table + 12
        assert prog.symbols["buffer"] % 8 == 0
        assert prog.bss_size >= 64
        # .word contents land in the image
        image = prog.load_image
        off = table - prog.origin
        assert struct.unpack(">III", image[off:off + 12]) == (1, 2, 3)
        assert image[prog.symbols["msg"] - prog.origin:][:3] == b"hi\x00"

    def test_equ_and_word_expressions(self):
        prog = assemble("""
            .equ SIZE, 16
            .text
        _start:
            nop
            .data
        val:
            .word SIZE * 2 + 1, _start
        """)
        off = prog.symbols["val"] - prog.origin
        words = struct.unpack(">II", prog.load_image[off:off + 8])
        assert words == (33, prog.origin)

    def test_byte_half_ascii(self):
        prog = assemble("""
            .data
        d:
            .byte 1, 255, 'A'
            .half 0xBEEF
            .ascii "ab"
        """)
        off = prog.symbols["d"] - prog.origin
        blob = prog.load_image[off:off + 7]
        assert blob == bytes([1, 255, 65, 0xBE, 0xEF, 97, 98])

    @pytest.mark.parametrize("source,fragment", [
        (".align 3", "power of two"),
        (".equ", "needs"),
        (".word", "at least one"),
        (".bogus 1", "unknown directive"),
        (".bss\n .word 1", "not allowed in .bss"),
        ("label: \nlabel: nop", "duplicate"),
        (".data\n nop", "outside .text"),
    ])
    def test_directive_errors(self, source, fragment):
        with pytest.raises(AsmError) as err:
            assemble(source)
        assert fragment in str(err.value)


class TestInstructions:
    def _words(self, body: str) -> list[int]:
        prog = assemble(f"    .text\n_start:\n{body}\n")
        return [int.from_bytes(prog.text[i:i + 4], "big")
                for i in range(0, len(prog.text), 4)]

    def test_basic_encodings_disassemble_back(self):
        source_lines = [
            "add %g2, %g4, %g1",
            "sub %o0, 42, %o1",
            "ld [%o0 + 4], %o2",
            "st %o2, [%fp - 8]",
            "faddd %f0, %f2, %f4",
            "fcmpd %f0, %f2",
            "rd %y, %g3",
            "wr %g3, 0, %y",
        ]
        words = self._words("\n".join(f"    {s}" for s in source_lines))
        # %fp - 8 renders back as %i6 - 8
        rendered = [disassemble(decode(w)) for w in words]
        assert rendered[0] == "add %g2, %g4, %g1"
        assert rendered[1] == "sub %o0, 42, %o1"
        assert rendered[2] == "ld [%o0 + 4], %o2"
        assert "st %o2, [%i6 - 8]" == rendered[3]
        assert rendered[4] == "faddd %f0, %f2, %f4"
        assert rendered[5] == "fcmpd %f0, %f2"
        assert rendered[6] == "rd %y, %g3"
        assert rendered[7] == "wr %g3, 0, %y"

    def test_set_expansion_sizes(self):
        # small literal -> 1 word, round 22-bit -> 1 word, general -> 2 words
        assert len(self._words("    set 100, %o0")) == 1
        assert len(self._words("    set 0x12345400, %o0")) == 1
        assert len(self._words("    set 0x12345678, %o0")) == 2

    def test_set_symbol_always_two_words(self):
        prog = assemble("""
            .text
        _start:
            set tiny, %o0
            .data
        tiny:
            .word 0
        """)
        assert len(prog.text) == 8

    def test_synthetic_expansions(self):
        words = self._words("""
    mov 7, %o0
    cmp %o0, 3
    tst %o1
    clr %g4
    inc %o0
    dec 2, %o0
    neg %o1, %o2
    not %o1
    retl
    nop
""")
        texts = [disassemble(decode(w)) for w in words]
        assert texts[0] == "or %g0, 7, %o0"
        assert texts[1] == "subcc %o0, 3, %g0"
        assert texts[2] == "orcc %g0, %o1, %g0"
        assert texts[3] == "or %g0, %g0, %g4"
        assert texts[4] == "add %o0, 1, %o0"
        assert texts[5] == "sub %o0, 2, %o0"
        assert texts[6] == "sub %g0, %o1, %o2"
        assert texts[8] == "retl"

    def test_branch_targets_and_annul(self):
        prog = assemble("""
            .text
        _start:
            ba,a done
            nop
        done:
            nop
        """)
        word = int.from_bytes(prog.text[:4], "big")
        instr = decode(word)
        assert instr.annul and instr.imm == 8

    def test_call_and_register_call(self):
        words = self._words("""
    call _start
    nop
    call %o3
    nop
""")
        assert decode(words[0]).mnemonic == "call"
        jmpl = decode(words[2])
        assert jmpl.mnemonic == "jmpl" and jmpl.rd == 15

    @pytest.mark.parametrize("source,fragment", [
        ("add %g1, %g2", "expects 3"),
        ("bne", "expects 1"),
        ("frobnicate %g1", "unknown mnemonic"),
        ("add %g1, 9999, %g2", "simm13"),
        ("ld [%o0 - %o1], %g1", "subtracted"),
        ("ld %o0, %g1", "brackets"),
        # operands the encoder rejects
        ("sll %o0, 40, %o1", "shift count out of range: 40"),
        ("ta 300", "trap number out of range: 300"),
        ("sethi 0x400000, %o1", "sethi immediate out of range"),
        ("ba _start + 0x10000000", "branch displacement out of range"),
    ])
    def test_instruction_errors(self, source, fragment):
        with pytest.raises(AsmError) as err:
            assemble(f"    .text\n_start:\n    {source}\n")
        assert fragment in str(err.value)
        assert err.value.line == 3

    def test_error_carries_line_number(self):
        with pytest.raises(AsmError) as err:
            assemble("    .text\n_start:\n    nop\n    bogus %g1\n")
        assert err.value.line == 4


def _mov_imm(rd: int, value: int) -> str:
    """The hex word of ``or %g0, value, rd`` (``mov``/``set`` of a char)."""
    return struct.pack(">I", encode_arith("or", rd, 0, imm=value)).hex()


class TestCharLiteralAtoms:
    """``'#'``, ``'!'`` and ``','`` are char literals, not a comment
    start or an operand separator, wherever an expression is allowed."""

    @pytest.mark.parametrize("body,section,expected", [
        ("set '#', %o0", "text", _mov_imm(8, 0x23)),
        ("set '!', %o1", "text", _mov_imm(9, 0x21)),
        ("set ',', %o2", "text", _mov_imm(10, 0x2C)),
        ("mov ',', %o2", "text", _mov_imm(10, 0x2C)),
        ("mov '#', %o3  ! a trailing comment", "text", _mov_imm(11, 0x23)),
        ("set '!', %o4  # a trailing comment", "text", _mov_imm(12, 0x21)),
        (".data\n    .byte ',', '#'", "data", "2c23"),
        (".data\n    .byte ',', '#'  ! a trailing comment", "data", "2c23"),
    ])
    def test_char_literals_with_separators(self, body, section, expected):
        prog = assemble(f"    .text\n_start:\n    {body}\n")
        assert getattr(prog, section).hex() == expected
