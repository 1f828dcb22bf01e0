import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualrisk import FormatError, format_exact, parse_rational, rat
from dualrisk.rationals import _decimal
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
