"""Lottery valuation: dual-theory value, expected utility, and moments.

The dual-theory value of a lottery with ranked distinct outcomes
x_1 < ... < x_n and CDF F is

    V = sum_i x_i (h(F(x_i)) - h(F(x_{i-1})))          (CDF form)
      = sum_i hbar(S(x_{i-1})) (x_i - x_{i-1})         (survival form)

with x_0 = 0, F(x_0) = 0, S = 1 - F, hbar(p) = 1 - h(1 - p). DualPower,
the dual moments and the float families compute the survival form, the
other exact kernels x_max - sum_i h(F(x_{i-1})) (x_i - x_{i-1}); the
tests check both against the CDF form.

The m-th dual moment is the expected minimum of m independent draws,
integral of S(x)^m, and coincides with the dual-theory value under the
DualPower(m) weighting.

dt_value and dual_moment are one sweep over the lottery's jump list
(lottery._jumps, read off its integer form): at each distinct outcome
the integer CDF count c below it (so F = c/d and S = (d - c)/d) and the
integer step to it, over the outcome denominator xd. Every family reads
those counts, and so do the dominance gates and the pair gaps of the
apportionment module. DualPower(m) and the dual moments sum
(d - c)^m per step; the other exact families use V = x_max -
sum_i h(F_i) (x_i - x_{i-1}): integer Power sums c^k, Identity, Quadratic
and Polynomial run Horner on the numerators of h's coefficients over
their common denominator, and Tabulated walks a segment pointer forward
as c rises, over its knots scaled to integers by the lcm of the segment
widths. Each builds one Fraction at the end. An exact order m with
m * bitlength(d) above 2^20, about the size of its powers, is a
DomainError. The float families (TverskyKahneman, Prelec, fractional
Power) read the same counts through the weighting's float form, with
the level c/d and the step as int true divisions, which are the
correctly rounded floats of the rationals;
an outcome beyond the float range is a DomainError. The raw and central
moments are single integer sums over the lottery's integer form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul, sub

from .errors import DomainError, NonMonotoneUtility, UnsupportedFamily
from .lottery import Lottery, _jumps, as_distribution, mean
from .rationals import _common_denominator, rat
from .weighting import (
    DualPower,
    Identity,
    Polynomial,
    Power,
    Prelec,
    Quadratic,
    Tabulated,
    TverskyKahneman,
    WeightingSpec,
    _check_power,
    float_form,
)


# ---------------------------------------------------------------------------
# utility functions (for the expected-utility contrast)


@dataclass(frozen=True)
class LinearUtility:
    pass


@dataclass(frozen=True)
class QuadraticUtility:
    """u(x) = x - c x^2; increasing only while x <= 1/(2c) for c > 0."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))


@dataclass(frozen=True)
class PowerIntUtility:
    """u(x) = x^k on non-negative outcomes, integer k >= 1."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"power utility exponent must be an integer >= 1, got {self.k}")


@dataclass(frozen=True)
class TabulatedUtility:
    """Piecewise-linear utility through (x, u) knots; x increasing, u non-decreasing."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        knots = tuple((rat(x), rat(u)) for x, u in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise DomainError("tabulated utility needs at least two knots")
        for (x0, u0), (x1, u1) in zip(knots, knots[1:]):
            if x1 <= x0:
                raise DomainError(f"knot abscissae must increase, got {x0} then {x1}")
            if u1 < u0:
                raise NonMonotoneUtility(f"utility decreases between x={x0} and x={x1}")


UtilityFunction = LinearUtility | QuadraticUtility | PowerIntUtility | TabulatedUtility


def eval_utility(u: UtilityFunction, x: Fraction) -> Fraction:
    match u:
        case LinearUtility():
            return x
        case QuadraticUtility(c=c):
            return x - c * x * x
        case PowerIntUtility(k=k):
            return x**k
        case TabulatedUtility(knots=knots):
            if x < knots[0][0] or x > knots[-1][0]:
                raise DomainError(f"outcome {x} outside tabulated utility span")
            for (x0, u0), (x1, u1) in zip(knots, knots[1:]):
                if x <= x1:
                    return u0 + (u1 - u0) * (x - x0) / (x1 - x0)
    raise DomainError(f"unknown utility family {type(u).__name__}")


def _check_monotone_on(u: UtilityFunction, lot: Lottery) -> None:
    if isinstance(u, QuadraticUtility) and u.c > 0:
        top = max(lot.outcomes)
        if 2 * u.c * top > 1:
            raise NonMonotoneUtility(
                f"quadratic utility with c={u.c} decreases beyond x={1 / (2 * u.c)}, "
                f"but the lottery reaches {top}"
            )


def eu_value(lot: Lottery, u: UtilityFunction) -> Fraction:
    """Expected utility sum p_i u(x_i); utility must be non-decreasing on the support."""
    lot = as_distribution(lot)
    _check_monotone_on(u, lot)
    return sum((p * eval_utility(u, x) for x, p in lot.states), Fraction(0))


# ---------------------------------------------------------------------------
# dual-theory value

def dt_value(lot: Lottery, w: WeightingSpec):
    """Dual-theory value of a lottery under weighting w (survival form).

    Exact families yield an exact Fraction, and DomainError for an order
    past the size bound; transcendental families a float, and DomainError
    for an outcome beyond the float range.
    """
    return _value(w, *_jumps(lot))


def _value(w: WeightingSpec, jumps, d: int, xd: int, top: int):
    """The survival sum of a jump list (as lottery._jumps returns it) under w.

    Every family is linear in the steps and top, so the difference of two
    jump lists over the same CDF counts values to the difference of their
    values: apportionment.moved_state_gap reads a pair's gap this way.
    """
    match w:
        case DualPower(m=m):
            return _survival_power(jumps, m, d, xd)
        case Power(k=k) if k.denominator == 1:
            return _cdf_power(jumps, k.numerator, d, xd, top)
        case Identity() | Quadratic() | Polynomial():
            return _cdf_poly(jumps, *w._ints, d, xd, top)
        case Tabulated(knots=knots):
            return _cdf_tabulated(jumps, knots, d, xd, top)
        case TverskyKahneman() | Prelec() | Power():
            return _float_sweep(jumps, w, d, xd)
    raise UnsupportedFamily(f"unknown weighting family {type(w).__name__}")


def _survival_power(jumps, m: int, d: int, xd: int) -> Fraction:
    """sum_i S_i^m step_i for hbar(s) = s^m (DualPower(m), the m-th dual moment)."""
    _check_power(m, d.bit_length())
    return Fraction(sum((d - c) ** m * step for c, step in jumps), d**m * xd)


def _cdf_power(jumps, k: int, d: int, xd: int, top: int) -> Fraction:
    """top - sum_i F_i^k step_i for h(p) = p^k: V = x_max - sum_i h(F_i) step_i."""
    _check_power(k, d.bit_length())
    dk = d**k
    return Fraction(dk * top - sum(c**k * step for c, step in jumps), dk * xd)


def _cdf_poly(jumps, hs: list[int], scale: int, d: int, xd: int, top: int) -> Fraction:
    """x_max - sum_i h(F_i) step_i for h = sum_i hs_i p^i / scale.

    scale d^deg h(c/d) = sum_i hs_i d^(deg-i) c^i, by Horner at each CDF count c.
    """
    deg = len(hs) - 1
    coeffs = [h * d ** (deg - i) for i, h in enumerate(hs)][::-1]
    acc = 0
    for c, step in jumps:
        v = 0
        for k in coeffs:
            v = v * c + k
        acc += v * step
    den = scale * d**deg
    return Fraction(den * top - acc, den * xd)


def _cdf_tabulated(jumps, knots, d: int, xd: int, top: int) -> Fraction:
    """x_max - sum_i h(F_i) step_i for piecewise-linear h, in ints.

    With knot abscissae P_j/pd, values V_j/vd and L the lcm of the segment
    widths, on segment j (width g = P_j - P_{j-1}, rise r = V_j - V_{j-1})
    vd L d h(c/d) = (L/g) (d (V_{j-1} g - r P_{j-1}) + r pd c).
    The CDF counts rise, so the segment pointer only moves forward.
    """
    ps, pd = _common_denominator([p for p, _ in knots])
    vs, vd = _common_denominator([v for _, v in knots])
    width = lcm(*map(sub, ps[1:], ps))
    acc, j, right = 0, 1, -1
    for c, step in jumps:
        cp = c * pd
        if cp > right:  # past segment j: the first knot at or right of c/d closes it
            while ps[j] * d < cp:
                j += 1
            right = ps[j] * d
            g, r = ps[j] - ps[j - 1], vs[j] - vs[j - 1]
            base = width // g * d * (vs[j - 1] * g - r * ps[j - 1])
            slope = width // g * r * pd
        acc += (base + slope * c) * step
    den = vd * width * d
    return Fraction(den * top - acc, den * xd)


def _float_sweep(jumps, w: WeightingSpec, d: int, xd: int) -> float:
    """sum_i hbar(S_i) step_i in floats; the level c/d and the step step/xd
    are int true divisions, so each is the correctly rounded float of its
    rational."""
    h, acc = float_form(w)[0], 0.0
    try:
        for c, step in jumps:
            acc += (1 - h(c / d)) * (step / xd)
    except OverflowError:  # an outcome beyond float range
        name = type(w).__name__
        raise DomainError(f"{name} values need outcomes within the float range") from None
    return acc


# ---------------------------------------------------------------------------
# moments


def primal_moment(lot: Lottery, k: int) -> Fraction:
    """Mean for k = 1, central moment E[(X - mu)^k] for k >= 2.

    With outcomes x_i / xd, probabilities p_i / pd and S1 = sum_i p_i x_i
    (so mu = S1 / (pd xd)), one integer sum:
    sum_i p_i (pd x_i - S1)^k / (pd (pd xd)^k).
    """
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if k == 1:
        return mean(lot)
    xs, xd, ps, pd = lot._ints
    s1 = sum(map(mul, xs, ps))
    return Fraction(sum(p * (pd * x - s1) ** k for x, p in zip(xs, ps)), pd * (pd * xd) ** k)


def raw_moment(lot: Lottery, k: int) -> Fraction:
    """E[X^k], as sum_i p_i x_i^k / (pd xd^k) over the integer form."""
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    xs, xd, ps, pd = lot._ints
    return Fraction(sum(p * x**k for x, p in zip(xs, ps)), pd * xd**k)


def dual_moment(lot: Lottery, m: int) -> Fraction:
    """Expected minimum of m independent draws: integral of S(x)^m.

    The integer survival sweep with hbar(s) = s^m, so it equals dt_value
    under DualPower(m); the independent check is the Fraction survival
    loop in tests/oracles.py.
    """
    if m < 1:
        raise DomainError(f"dual moment order must be >= 1, got {m}")
    jumps, d, xd, _ = _jumps(lot)
    return _survival_power(jumps, m, d, xd)
