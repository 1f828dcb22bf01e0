import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualrisk import FormatError, format_exact, parse_rational, rat
from dualrisk.rationals import _QUOTE_LIMIT, _decimal, parse_float_range
from oracles import decimal_sig

F = Fraction


def test_parse_integer_and_fraction():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational(" 5/6 ") == F(5, 6)


def test_parse_decimal_is_exact():
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("2.5") == F(5, 2)


@pytest.mark.parametrize("bad", ["", "1/0", "a", "1/2/3", "1 2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("abc", "bad rational literal 'abc': Invalid literal for Fraction: 'abc'"),
        ("1/0", "bad rational literal '1/0': Fraction(1, 0)"),
        ("7" * _QUOTE_LIMIT + "x", f"bad rational literal '{'7' * _QUOTE_LIMIT}'... (81 characters): not a rational literal"),
        ("1" * 100 + "/0", f"bad rational literal '{'1' * _QUOTE_LIMIT}'... (102 characters): zero denominator"),
    ],
)
def test_bad_literal_messages(text, message):
    with pytest.raises(FormatError) as info:
        parse_rational(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["a" * 20_000, "1" * 5_000, "1" * 4_000 + "/0", " " * 100 + "x" * 300])
def test_long_literals_are_shortened(text):
    # past the limit, a message quotes a fixed prefix and the length, and
    # no part of it repeats the literal in full
    with pytest.raises(FormatError) as info:
        parse_rational(text)
    message = str(info.value)
    assert f"({len(text)} characters)" in message
    assert len(message) < 300
    assert text.strip()[: _QUOTE_LIMIT + 1] not in message


def test_too_large_for_a_float_message():
    with pytest.raises(FormatError, match=r"^1e400 is too large for a float$"):
        parse_float_range(" 1e400 ")
    text = "1" * 400
    with pytest.raises(FormatError) as info:
        parse_float_range(text)
    assert str(info.value) == f"'{'1' * _QUOTE_LIMIT}'... (400 characters) is too large for a float"


def test_format_exact_plain():
    assert format_exact(F(25, 12)) == "25/12"
    assert format_exact(F(4, 2)) == "2"
    assert format_exact(3) == "3"


def test_decimal_and_float_text():
    assert _decimal(F(25, 12)) == "2.08333333333"
    assert _decimal(5) == "5"
    assert format_exact(0.125) == "0.125"
    assert format_exact(2 / 3) == "0.666666666667"


def test_decimal_beyond_float_range():
    assert _decimal(F(10**400 + 1, 3)) == "3.33333333333e+399"
    assert _decimal(F(-1, 3 * 10**400)) == "-3.33333333333e-401"
    assert _decimal(F(2, 3 * 10**400), 3) == "6.67e-401"


@given(
    st.integers(1, 10**40),
    st.integers(1, 10**40),
    st.integers(300, 3000),
    st.booleans(),
    st.booleans(),
    st.integers(1, 20),
)
def test_decimal_rounds_the_exact_value_outside_float_range(num, den, shift, up, negative, sig):
    value = F(num, den) * F(10) ** (shift if up else -shift)
    value = -value if negative else value
    if F(sys.float_info.min) <= abs(value) <= F(sys.float_info.max):
        return
    assert _decimal(value, sig) == decimal_sig(value, sig)


@given(st.fractions(max_denominator=10**6))
def test_round_trip(q):
    assert parse_rational(format_exact(q)) == q


def test_rat_coercion():
    assert rat(3) == F(3)
    assert rat("1/3") == F(1, 3)
    assert rat(F(2, 5)) == F(2, 5)
