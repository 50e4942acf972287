"""Constant-expression evaluation for assembler operands.

Grammar (standard precedence, all integer arithmetic)::

    expr    := or
    or      := xor ('|' xor)*
    xor     := and ('^' and)*
    and     := shift ('&' shift)*
    shift   := sum (('<<' | '>>') sum)*
    sum     := term (('+' | '-') term)*
    term    := unary (('*' | '/' | '%') unary)*
    unary   := ('-' | '~' | '+') unary | atom
    atom    := INT | SYMBOL | '(' expr ')' | '%hi' '(' expr ')'
             | '%lo' '(' expr ')' | "'" CHAR "'" | '.'

``%hi(x)`` yields the upper 22 bits (for ``sethi``), ``%lo(x)`` the lower
10 bits, so ``sethi %hi(x), r; or r, %lo(x), r`` materialises ``x``.
``.`` evaluates to the current location counter when one is supplied.
"""

from __future__ import annotations

import re

from repro.asm.errors import AsmError, UndefinedSymbolError

#: An integer literal: hexadecimal, binary or decimal (``012`` is 12).
_NUM = r"0[xX][0-9a-fA-F]+|0[bB][01]+|\d+"

_TOKEN_RE = re.compile(
    rf"""
    \s*(?:
        (?P<hi>%hi\b) | (?P<lo>%lo\b) |
        (?P<num>{_NUM}) |
        (?P<char>'(?:\\.|[^'\\])') |
        (?P<sym>\.(?![\w])|[A-Za-z_.$][\w.$]*) |
        (?P<op><<|>>|[()+\-*/%&|^~])
    )
    """,
    re.VERBOSE,
)

#: A whole expression that is one integer literal, optionally negated.
_LITERAL_RE = re.compile(rf"\s*(?P<neg>-?)(?P<num>{_NUM})\s*")

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


def _number(token: str) -> int:
    """The value of one ``num`` token."""
    prefix = token[:2].lower()
    if prefix == "0x":
        return int(token, 16)
    if prefix == "0b":
        return int(token, 2)
    return int(token, 10)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise AsmError(f"cannot tokenize expression at {rest!r}")
        tokens.append(match.group().strip())
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], symbols: dict[str, int],
                 location: int | None):
        self._tokens = tokens
        self._pos = 0
        self._symbols = symbols
        self._location = location

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise AsmError("unexpected end of expression")
        self._pos += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise AsmError(f"expected {token!r}, got {got!r}")

    def parse(self) -> int:
        value = self._or()
        if self._peek() is not None:
            raise AsmError(f"trailing tokens in expression: {self._peek()!r}")
        return value

    def _binary(self, sub, ops) -> int:
        value = sub()
        while self._peek() in ops:
            op = self._next()
            rhs = sub()
            if op == "|":
                value |= rhs
            elif op == "^":
                value ^= rhs
            elif op == "&":
                value &= rhs
            elif op == "<<":
                value <<= rhs
            elif op == ">>":
                value >>= rhs
            elif op == "+":
                value += rhs
            elif op == "-":
                value -= rhs
            elif op == "*":
                value *= rhs
            elif op == "/":
                if rhs == 0:
                    raise AsmError("division by zero in expression")
                value = int(value / rhs) if (value < 0) != (rhs < 0) else value // rhs
            elif op == "%":
                if rhs == 0:
                    raise AsmError("modulo by zero in expression")
                value %= rhs
        return value

    def _or(self) -> int:
        return self._binary(self._xor, ("|",))

    def _xor(self) -> int:
        return self._binary(self._and, ("^",))

    def _and(self) -> int:
        return self._binary(self._shift, ("&",))

    def _shift(self) -> int:
        return self._binary(self._sum, ("<<", ">>"))

    def _sum(self) -> int:
        return self._binary(self._term, ("+", "-"))

    def _term(self) -> int:
        return self._binary(self._unary, ("*", "/", "%"))

    def _unary(self) -> int:
        token = self._peek()
        if token == "-":
            self._next()
            return -self._unary()
        if token == "~":
            self._next()
            return ~self._unary()
        if token == "+":
            self._next()
            return self._unary()
        return self._atom()

    def _atom(self) -> int:
        token = self._next()
        if token == "(":
            value = self._or()
            self._expect(")")
            return value
        if token in ("%hi", "%lo"):
            self._expect("(")
            value = self._or()
            self._expect(")")
            value &= 0xFFFFFFFF
            return (value >> 10) & 0x3FFFFF if token == "%hi" else value & 0x3FF
        if token == ".":
            if self._location is None:
                raise AsmError("'.' not allowed in this context")
            return self._location
        if token.startswith("'"):
            body = token[1:-1]
            if body.startswith("\\"):
                code = _ESCAPES.get(body[1])
                if code is None:
                    raise AsmError(f"unknown escape {body!r}")
                return code
            return ord(body)
        if token[0].isdigit():
            return _number(token)
        if re.match(r"[A-Za-z_.$]", token[0]):
            if token not in self._symbols:
                raise UndefinedSymbolError(token)
            return self._symbols[token]
        raise AsmError(f"unexpected token {token!r} in expression")


def evaluate(text: str, symbols: dict[str, int] | None = None,
             location: int | None = None) -> int:
    """Evaluate an assembler constant expression.

    Parameters
    ----------
    text:
        The expression source, e.g. ``"%lo(buf + 16)"`` or ``"(1 << 20) - 4"``.
    symbols:
        Symbol table for label references.
    location:
        Value of the ``.`` location counter, when meaningful.
    """
    literal = _LITERAL_RE.fullmatch(text)
    if literal is not None:  # most operands: no tokens, no parser
        value = _number(literal.group("num"))
        return -value if literal.group("neg") else value
    parser = _Parser(_tokenize(text), symbols or {}, location)
    return parser.parse()


def references_symbols(text: str) -> bool:
    """True if ``text`` mentions any symbol (i.e. is not a pure literal)."""
    if _LITERAL_RE.fullmatch(text) is not None:
        return False
    for token in _tokenize(text):
        if token in ("%hi", "%lo", "."):
            continue
        if re.match(r"[A-Za-z_$]", token[0]) or (
            token[0] == "." and len(token) > 1
        ):
            return True
    return False
