"""Coercion, parsing, and rendering of exact rational numbers.

The package computes with stdlib fractions.Fraction throughout. These
helpers keep the boundary honest: text inputs like "5/12" or "0.25" map to
the exact rational they denote, while non-integral binary floats are
rejected rather than silently converted to surprising fractions. Decimal
renderings of exact values outside the normal float range are rounded
from the rational itself, so they never overflow or underflow.

Weighting specs, effort specs and problem files share one key=value
grammar, read and written here from per-kind field tables. The size
bound on exact powers (_check_power) lives here too, so every layer
that raises an exact power shares it.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from math import lcm

from .errors import DomainError, FormatError, UnsupportedFamily

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


_QUOTE_LIMIT = 80  # characters of an input that an error message repeats


def _quoted(text: str, show=repr) -> str:
    """show(text) for a message; past _QUOTE_LIMIT characters, the repr of
    the first _QUOTE_LIMIT and the total length instead, so a message about
    an over-long input stays short."""
    if len(text) <= _QUOTE_LIMIT:
        return show(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction."""
    s = text.strip()
    if not s:
        raise FormatError("empty rational literal")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc)
        if reason.startswith("Exceeds the limit"):
            # the int digit-limit message advises a call no CLI user can make
            reason = (
                f"more than {sys.get_int_max_str_digits()} digits in one integer, "
                "the most the interpreter reads from text"
            )
        elif len(text) > _QUOTE_LIMIT:
            # Fraction's own message repeats the literal or its numerator
            reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else "not a rational literal"
        raise FormatError(f"bad rational literal {_quoted(text)}: {reason}") from None


def _common_denominator(xs) -> tuple[list[int], int]:
    """Numerators of the Fractions xs over their lcm denominator, and that denominator."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


# Bound on order * bits for an exact power: the order-th power of a
# bits-bit number has about that many bits, and the gcd that reduces an
# exact result takes time quadratic in it (about 2 s at this bound).
_MAX_POWER_BITS = 1 << 20


def _check_power(order, bits: int) -> None:
    """DomainError when order * bits passes _MAX_POWER_BITS."""
    if order * bits > _MAX_POWER_BITS:
        raise DomainError(
            f"order too large for an exact value: its powers would need more than "
            f"{_MAX_POWER_BITS} bits"
        )


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


def format_exact(value: Num) -> str:
    """Render "p/q" for rationals and a 12-significant-digit decimal for floats."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return _exact_text(Fraction(value))


def format_float(value: float) -> str:
    """value as :g text when that reads back to value, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def parse_float_range(text: str) -> Fraction:
    """parse_rational for a value that float code takes: a FormatError when
    it is too large for a float."""
    value = parse_rational(text)
    try:
        float(value)
    except OverflowError:
        raise FormatError(f"{_quoted(text.strip(), str)} is too large for a float") from None
    return value


# ---------------------------------------------------------------------------
# field tables: the key=value grammar of specs and problem files
#
# A spec kind maps each family name to (class, {key: (parse, format)}); the
# keys are the class's dataclass fields, and those with a default may be
# left out. A problem file maps each key to its parse function.


def read_fields(pairs, parsers: dict, required, noun: str = "key", source: str | None = None) -> dict:
    """Parse (key, text, line) triples with the parser of each key.

    An unknown, repeated or missing key is a FormatError, and so is a
    value its parser rejects; each carries the line of its key (None in a
    one-line spec).
    """
    values = {}
    for key, text, line in pairs:
        if key not in parsers:
            raise FormatError(f"unknown {noun} {_quoted(key)}", line=line, source=source)
        if key in values:
            raise FormatError(f"duplicate {noun} {_quoted(key)}", line=line, source=source)
        try:
            values[key] = parsers[key](text)
        except ValueError as exc:  # every InputValidationError is one
            raise FormatError(str(exc), line=line, source=source) from None
    missing = sorted(set(required) - values.keys())
    if missing:
        raise FormatError(f"missing {noun}s: {', '.join(missing)}", source=source)
    return values


def parse_spec(text: str, table: dict, kind: str):
    """Read "family:key=value,key=value" into an instance of the family's class.

    A chunk without "=" continues the previous value, so list values
    (knots, coefficients) keep their commas. Any error, the class's own
    validation included, is a FormatError naming the spec.
    """
    name, _, argtext = text.strip().partition(":")
    name = name.strip().lower()
    try:
        if name not in table:
            raise FormatError(f"unknown {kind} {_quoted(name)}")
        cls, fields = table[name]
        pairs = []
        for chunk in argtext.split(",") if argtext else ():
            key, eq, value = chunk.partition("=")
            if eq:
                pairs.append([key.strip(), value.strip(), None])
            elif pairs:
                pairs[-1][1] += "," + chunk.strip()
            else:
                raise FormatError(f"expected key=value, got {_quoted(chunk)}")
        parsers = {key: parse for key, (parse, _) in fields.items()}
        required = (f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING)
        return cls(**read_fields(pairs, parsers, required, "parameter"))
    except ValueError as exc:
        raise FormatError(f"bad {kind} spec {_quoted(text)}: {exc}") from None


def format_spec(obj, table: dict) -> str:
    """The spec text of obj that parse_spec reads back to an equal object."""
    for name, (cls, fields) in table.items():
        if isinstance(obj, cls):
            args = ",".join(f"{key}={fmt(getattr(obj, key))}" for key, (_, fmt) in fields.items())
            return f"{name}:{args}" if args else name
    raise UnsupportedFamily(f"no spec family for {type(obj).__name__}")
