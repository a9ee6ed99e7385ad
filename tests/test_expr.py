import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilocal import ExpressionError, LinearCombination, format_expression, parse_expression
from ilocal.expr import MAX_TERMS

LC = LinearCombination


class TestParse:
    def test_direct_transcription(self):
        assert parse_expression("X5 - X4 + X2") == LC(((1, 5), (-1, 4), (1, 2)))

    def test_multiplicity_expansion(self):
        assert parse_expression("2*X3 - X1") == LC(((1, 3), (1, 3), (-1, 1)))

    def test_leading_minus(self):
        assert parse_expression("-X5 + X4") == LC(((-1, 5), (1, 4)))

    def test_whitespace_insignificant(self):
        assert parse_expression(" X5-X4   +X2 ") == parse_expression("X5 - X4 + X2")

    def test_not_auto_simplified(self):
        assert parse_expression("X4 - X4") == LC(((1, 4), (-1, 4)))

    def test_zero(self):
        assert parse_expression("0") == LC()

    def test_index_zero_rejected_with_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("X0 + X2")
        assert err.value.offset == 0

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("X3 + 0*X2")
        assert err.value.offset == 5

    def test_garbage_rejected_with_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("X3 + Y2")
        assert err.value.offset == 5

    @pytest.mark.parametrize(
        "text, char, offset",
        [("X²", "²", 1), ("X1 + X٣", "٣", 6), ("２*X1", "２", 0)],
        ids=["superscript-two", "arabic-indic-three", "fullwidth-two"],
    )
    def test_non_ascii_digits_rejected_with_offset(self, text, char, offset):
        # str.isdigit accepts these; int() then fails on '²' and reads '٣' as 3
        with pytest.raises(ExpressionError, match=f"unexpected character '{char}'") as err:
            parse_expression(text)
        assert err.value.offset == offset

    def test_dangling_operator(self):
        with pytest.raises(ExpressionError):
            parse_expression("X3 +")

    def test_missing_index(self):
        with pytest.raises(ExpressionError):
            parse_expression("X")

    def test_term_cap(self):
        assert len(parse_expression(f"{MAX_TERMS}*X1")) == MAX_TERMS
        with pytest.raises(ExpressionError) as err:
            parse_expression(f"{MAX_TERMS}*X1 + X2")
        assert err.value.offset == len(f"{MAX_TERMS}*X1 + ")
        with pytest.raises(ExpressionError) as err:
            parse_expression("X2 - 99999999999*X1")
        assert err.value.offset == 5


# every error path of the parser, with its message and offset
ERRORS = [
    ("+X1", "expected 'X'", 0),
    ("2X1", "expected '*'", 1),
    ("2*", "expected 'X'", 2),
    ("2*3*X1", "expected 'X'", 2),
    ("X", "expected an index after 'X'", 1),
    ("X-1", "expected an index after 'X'", 1),
    ("X1 X2", "expected '+' or '-' between terms", 3),
    ("X1*X2", "expected '+' or '-' between terms", 2),
    ("X1 2", "expected '+' or '-' between terms", 3),
    ("--X1", "expected 'X'", 1),
    ("-", "expected 'X'", 1),
    ("", "expected 'X'", 0),
    ("   ", "expected 'X'", 3),
    ("X3 +", "expected 'X'", 4),
    ("-0", "multiplicity must be positive", 1),
    ("0 0", "multiplicity must be positive", 0),
    ("X0", "index must be positive in 'X0'", 0),
    ("X1 + X00", "index must be positive in 'X0'", 5),
    ("+X1 Y", "unexpected character 'Y'", 4),
    (f"X2 + {MAX_TERMS}*X1", f"expression expands to more than {MAX_TERMS} terms", 5),
]


@pytest.mark.parametrize("text, message, offset", ERRORS, ids=[repr(e[0]) for e in ERRORS])
def test_error_message_and_offset(text, message, offset):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert (str(err.value), err.value.offset) == (f"{message} (at offset {offset})", offset)


@pytest.mark.parametrize("text, terms", [("X 5", ((1, 5),)), (" 0 ", ())])
def test_spaced_inputs_accepted(text, terms):
    assert parse_expression(text) == LC(terms)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
def test_over_long_literal_is_an_expression_error():
    # int() refuses more digits than the interpreter's limit
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ExpressionError, match=f"number too long \\({len(digits)} digits\\)") as err:
        parse_expression(f"X2 - X{digits}")
    assert err.value.offset == 6


class TestFormat:
    def test_basic(self):
        assert format_expression(LC(((1, 5), (-1, 4), (1, 2)))) == "X5 - X4 + X2"

    def test_multiplicities_collapse(self):
        assert format_expression(LC(((1, 3), (1, 3), (-1, 1)))) == "2*X3 - X1"

    def test_leading_minus(self):
        assert format_expression(LC(((-1, 5), (1, 1)))) == "-X5 + X1"

    def test_empty(self):
        assert format_expression(LC()) == "0"


@st.composite
def combinations(draw):
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from((1, -1)), st.integers(1, 12)), max_size=8
        )
    )
    return LC(tuple(terms))


@settings(max_examples=100, deadline=None)
@given(combinations())
def test_parse_format_round_trip(lc):
    assert parse_expression(format_expression(lc)) == lc
