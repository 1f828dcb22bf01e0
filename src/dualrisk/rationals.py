"""Coercion, parsing, and rendering of exact rational numbers.

The package computes with stdlib fractions.Fraction throughout. These
helpers keep the boundary honest: text inputs like "5/12" or "0.25" map to
the exact rational they denote, while non-integral binary floats are
rejected rather than silently converted to surprising fractions. Decimal
renderings of exact values outside the normal float range are rounded
from the rational itself, so they never overflow or underflow.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .errors import DomainError, FormatError

Num = Fraction | float  # exact where possible, float for transcendental families


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce value to an exact Fraction.

    Accepts ints, Fractions, and strings in "p/q" or decimal form. Floats
    are rejected unless integral: Fraction(0.1) is not 1/10, and silently
    accepting it would poison every downstream exact comparison.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise FormatError(
            f"refusing to coerce non-integral float {value!r}; pass a Fraction or a string"
        )
    if isinstance(value, str):
        return parse_rational(value)
    raise FormatError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction."""
    s = text.strip()
    if not s:
        raise FormatError("empty rational literal")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational literal {text!r}: {exc}") from None


def _common_denominator(xs) -> tuple[list[int], int]:
    """Numerators of the Fractions xs over their lcm denominator, and that denominator."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


_FLOAT_MIN = Fraction(sys.float_info.min)  # the smallest normal float


def _decimal(value: Num, sig: int = 12) -> str:
    """sig significant digits, as float formatting gives them. An exact
    value past the float range, or nonzero below its smallest normal
    number, is rounded from the exact rational instead (half to even)."""
    if isinstance(value, float) or value == 0 or abs(value) >= _FLOAT_MIN:
        try:
            return f"{float(value):.{sig}g}"
        except OverflowError:
            pass
    num, den = abs(value.numerator), value.denominator
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000  # about log10 |value|
    lo, hi = 10 ** (sig - 1), 10**sig
    while True:  # settle e with lo <= n/d = |value| 10^(sig-1-e) < hi
        s = sig - 1 - e
        n, d = (num * 10**s, den) if s >= 0 else (num, den * 10**-s)
        if n < lo * d:
            e -= 1
        elif n >= hi * d:
            e += 1
        else:
            break
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    if q == hi:
        q, e = lo, e + 1
    digits = str(q)
    mantissa = f"{digits[0]}.{digits[1:]}".rstrip("0").rstrip(".")
    return f"{'-' if value < 0 else ''}{mantissa}e{e:+03d}"


def _exact_text(value: Fraction) -> str:
    """str(value); an integer part past the interpreter's int-to-text digit
    limit is a DomainError instead of a ValueError."""
    try:
        return str(value)
    except ValueError:
        raise DomainError(
            "exact value too long to print: a numerator or denominator has more digits "
            "than the interpreter converts to text"
        ) from None


def format_rational(value: Num, sig: int = 12) -> str:
    """Render a number as "p/q (= decimal)" with sig significant digits.

    Floats render as plain decimals; integers drop the parenthetical.
    """
    if isinstance(value, float):
        return f"{value:.{sig}g}"
    value = Fraction(value)
    if value.denominator == 1:
        return _exact_text(value)
    return f"{_exact_text(value)} (= {_decimal(value, sig)})"


def format_exact(value: Num, sig: int = 12) -> str:
    """Render "p/q" for rationals and a sig-digit decimal for floats."""
    if isinstance(value, float):
        return f"{value:.{sig}g}"
    return _exact_text(Fraction(value))
