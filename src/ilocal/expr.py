"""Parsing and formatting of combination expressions like ``X5 - X4 + 2*X3``.

Grammar (whitespace insignificant):

    expr := ['-'] term (('+' | '-') term)*
    term := [int '*'] 'X' int

Multiplicities expand into repeated terms; indices and multiplicities must
be positive, and the expanded combination may hold at most ``MAX_TERMS``
terms.  The empty combination formats as "0" and "0" parses back to it.
"""

from __future__ import annotations

from typing import List, Tuple

from .connected import LinearCombination
from .errors import ExpressionError

_OPS = "+-*X"
_DIGITS = "0123456789"  # str.isdigit also admits '²' and other scripts' digits

#: Largest number of terms an expression may expand to; a multiplicity such
#: as ``99999999999*X1`` would otherwise expand without a bound.
MAX_TERMS = 100_000


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}", tok[2])
        self.i += 1
        return tok

    def term(self, sign: int, out: list):
        kind, value, offset = self.peek()
        start = offset
        mult = 1
        if kind == "int":
            mult = value
            self.i += 1
            if mult < 1:
                raise ExpressionError("multiplicity must be positive", offset)
            self.take("*")
        x_tok = self.take("X")
        kind, value, offset = self.peek()
        if kind != "int":
            raise ExpressionError("expected an index after 'X'", offset)
        self.i += 1
        if value < 1:
            raise ExpressionError(f"index must be positive in 'X{value}'", x_tok[2])
        if len(out) + mult > MAX_TERMS:
            raise ExpressionError(f"expression expands to more than {MAX_TERMS} terms", start)
        out.extend((sign, value) for _ in range(mult))

    def parse(self) -> LinearCombination:
        out: list = []
        sign = 1
        if self.peek()[0] == "-":
            sign = -1
            self.i += 1
        self.term(sign, out)
        while self.i < len(self.tokens):
            kind, _, offset = self.peek()
            if kind not in ("+", "-"):
                raise ExpressionError("expected '+' or '-' between terms", offset)
            self.i += 1
            self.term(1 if kind == "+" else -1, out)
        return LinearCombination(tuple(out))


def parse_expression(text: str) -> LinearCombination:
    """Parse an expression; the result is sorted but not simplified."""
    if text.strip() == "0":
        return LinearCombination()
    return _Parser(text).parse()


def format_expression(lc: LinearCombination) -> str:
    """Canonical text form; parses back to the same combination."""
    if not len(lc):
        return "0"
    runs = []
    for sign, index in lc:
        if runs and runs[-1][0] == sign and runs[-1][1] == index:
            runs[-1][2] += 1
        else:
            runs.append([sign, index, 1])
    parts = []
    for pos, (sign, index, mult) in enumerate(runs):
        body = f"X{index}" if mult == 1 else f"{mult}*X{index}"
        if pos == 0:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if sign > 0 else '-'} {body}")
    return " ".join(parts)
