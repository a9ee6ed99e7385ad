"""Parsing and formatting of combination expressions like ``X5 - X4 + 2*X3``.

Grammar (whitespace insignificant):

    expr := ['-'] term (('+' | '-') term)*
    term := [int '*'] 'X' int

Multiplicities expand into repeated terms; indices and multiplicities must
be positive, and the expanded combination may hold at most ``MAX_TERMS``
terms.  The empty combination formats as "0" and "0" parses back to it.

The text is split into tokens first, so an unexpected character is
reported before any error of the grammar; an int is an ASCII digit run,
no longer than ``sys.get_int_max_str_digits()`` allows.  Every error is an
``ExpressionError`` carrying the offset of the token at fault.
"""

import re

from .connected import LinearCombination
from .errors import ExpressionError

# an ASCII digit run, or one other non-space character (str.isdigit also
# admits '²' and other scripts' digits)
_TOKEN = re.compile(r"[0-9]+|\S")
_OPS = "+-*X"

#: Largest number of terms an expression may expand to; a multiplicity such
#: as ``99999999999*X1`` would otherwise expand without a bound.
MAX_TERMS = 100_000


def _tokenize(text: str) -> list:
    """Each token as (value, offset), then (None, len(text)).

    The value of a digit run is its int, and of an operator its character.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, at = m[0], m.start()
        if tok not in _OPS and not "0" <= tok[0] <= "9":
            raise ExpressionError(f"unexpected character {tok!r}", at)
        try:
            tokens.append((tok if tok in _OPS else int(tok), at))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ExpressionError(f"number too long ({len(tok)} digits)", at) from None
    return tokens + [(None, len(text))]


def parse_expression(text: str) -> LinearCombination:
    """Parse an expression; the result is sorted but not simplified."""
    if text.strip() == "0":
        return LinearCombination()
    tokens = _tokenize(text)
    out = []
    i, sign = (1, -1) if tokens[0][0] == "-" else (0, 1)
    while True:
        # one term per pass, [int '*'] 'X' int, from tokens[i]; then a sign or the end
        mult, start = tokens[i]
        if type(mult) is not int:
            mult = 1
        elif mult < 1:
            raise ExpressionError("multiplicity must be positive", start)
        elif tokens[i + 1][0] != "*":
            raise ExpressionError("expected '*'", tokens[i + 1][1])
        else:
            i += 2
        if tokens[i][0] != "X":
            raise ExpressionError("expected 'X'", tokens[i][1])
        index, at = tokens[i + 1]
        if type(index) is not int:
            raise ExpressionError("expected an index after 'X'", at)
        if index < 1:
            raise ExpressionError(f"index must be positive in 'X{index}'", tokens[i][1])
        if len(out) + mult > MAX_TERMS:
            raise ExpressionError(f"expression expands to more than {MAX_TERMS} terms", start)
        out.extend([(sign, index)] * mult)
        op, at = tokens[i + 2]
        if op is None:
            return LinearCombination(tuple(out))
        if op not in ("+", "-"):
            raise ExpressionError("expected '+' or '-' between terms", at)
        i, sign = i + 3, 1 if op == "+" else -1


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
