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
those counts, and so do the pair gaps of the apportionment module; the
dominance checks read the same list but none of these sums.
DualPower(m) and the dual moments sum (d - c)^m per step; the other
exact families use V = x_max - sum_i h(F_i) (x_i - x_{i-1}): integer
Power sums c^k, Identity, Quadratic
and Polynomial run Horner on the numerators of h's coefficients over
their common denominator, and Tabulated runs the one piecewise-linear
sweep (_pl_sweep): a segment pointer that walks forward as c rises, over
the knots scaled to integers by the lcm of the segment widths. These
kernels build no Fraction: the one integer-ratio kernel (_ratio) returns
each exact family's value as (num, den) with den > 0. The Fraction is
built only at the three public boundaries, dt_value, dual_moment and
apportionment.moved_state_gap; a sign is read off num alone
(apportionment.preference_direction, the pair check). _poly_signs signs
a battery of polynomial h at once from the power sums sum_i c^j step_i
of one sweep (harness.direct_check). An exact order m
with m * bitlength(d) above 2^20, about the size of its powers, is a
DomainError (rationals._check_power). The float families
(TverskyKahneman, Prelec, fractional Power) read the same counts
through the weighting's float form, with
the level c/d and the step as int true divisions, which are the
correctly rounded floats of the rationals; an outcome beyond the float
range is a DomainError. The raw and central moments are single integer
sums over the lottery's integer form.

_moment_rows gives the eval command's dual moments 1-4 and central
moments 2-4, each set from one sweep of running powers instead of one
sweep per order; they equal dual_moment and primal_moment at each order.

Expected utility reads the same integer form: the mean for
LinearUtility, mean - c E[X^2] as integer sums for QuadraticUtility,
and for TabulatedUtility the same piecewise-linear sweep, over the
outcomes weighted by their probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul, sub

from .errors import DomainError, NonMonotoneUtility, UnsupportedFamily
from .lottery import Lottery, _jumps, mean
from .rationals import _check_power, _common_denominator, rat
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


UtilityFunction = LinearUtility | QuadraticUtility | TabulatedUtility


def eu_value(lot: Lottery, u: UtilityFunction) -> Fraction:
    """Expected utility sum_i p_i u(x_i); utility must be non-decreasing on the support.

    Over the integer form (outcomes x_i / xd, probabilities p_i / pd):
    the mean for LinearUtility, mean - c E[X^2] as integer sums for
    QuadraticUtility, and the piecewise-linear sweep for TabulatedUtility.
    """
    xs, xd, ps, pd = lot._ints
    match u:
        case LinearUtility():
            return mean(lot)
        case QuadraticUtility(c=c):
            if 2 * c * xs[-1] > xd:
                raise NonMonotoneUtility(
                    f"quadratic utility with c={c} decreases beyond x={1 / (2 * c)}, "
                    f"but the lottery reaches {Fraction(xs[-1], xd)}"
                )
            s1 = xd * sum(map(mul, xs, ps))
            s2 = sum(p * x * x for x, p in zip(xs, ps))
            return Fraction(c.denominator * s1 - c.numerator * s2, c.denominator * pd * xd * xd)
        case TabulatedUtility(knots=knots):
            lo, hi = knots[0][0] * xd, knots[-1][0] * xd
            outside = next((x for x in xs if not lo <= x <= hi), None)
            if outside is not None:
                raise DomainError(f"outcome {Fraction(outside, xd)} outside tabulated utility span")
            acc, den = _pl_sweep(zip(xs, ps), xd, knots)
            return Fraction(acc, den * pd)
    raise DomainError(f"unknown utility family {type(u).__name__}")


def _pl_sweep(points, den: int, knots) -> tuple[int, int]:
    """(acc, scale) with sum_i w_i f(x_i / den) = acc / scale, for f
    piecewise linear through knots and (x_i, w_i) in points, the x_i
    non-negative, non-decreasing and within the knots' span.

    With knot abscissae P_j/pd, values V_j/vd and L the lcm of the segment
    widths, on segment j (width g = P_j - P_{j-1}, rise r = V_j - V_{j-1})
    vd L den f(x/den) = (L/g) (den (V_{j-1} g - r P_{j-1}) + r pd x).
    The points rise, so the segment pointer only moves forward.
    """
    ps, pd = _common_denominator([p for p, _ in knots])
    vs, vd = _common_denominator([v for _, v in knots])
    width = lcm(*map(sub, ps[1:], ps))
    acc, j, right = 0, 1, -1
    for x, w in points:
        xp = x * pd
        if xp > right:  # past segment j: the first knot at or right of x/den closes it
            while ps[j] * den < xp:
                j += 1
            right = ps[j] * den
            g, r = ps[j] - ps[j - 1], vs[j] - vs[j - 1]
            base = width // g * den * (vs[j - 1] * g - r * ps[j - 1])
            slope = width // g * r * pd
        acc += (base + slope * x) * w
    return acc, vd * width * den


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
    """The survival sum of a jump list under w: _ratio's value, as a Fraction
    for the exact families."""
    r = _ratio(w, jumps, d, xd, top)
    return Fraction(*r) if type(r) is tuple else r


def _ratio(w: WeightingSpec, jumps, d: int, xd: int, top: int):
    """The survival sum of a jump list (as lottery._jumps returns it) under
    w: (num, den) with den > 0 for the exact families, a float for the
    others.

    Every family is linear in the steps and top, so the difference of two
    jump lists over the same CDF counts values to the difference of their
    values: apportionment.moved_state_gap reads a pair's gap this way, and
    preference_direction the sign of num.
    """
    match w:
        case DualPower(m=m):
            return _survival_power(jumps, m, d, xd)
        case Power(k=k) if k.denominator == 1:
            return _cdf_power(jumps, k.numerator, d, xd, top)
        case Identity() | Quadratic() | Polynomial():
            return _cdf_poly(jumps, *w._ints, d, xd, top)
        case Tabulated(knots=knots):  # x_max - sum_i h(F_i) step_i
            acc, den = _pl_sweep(jumps, d, knots)
            return den * top - acc, den * xd
        case TverskyKahneman() | Prelec() | Power():
            return _float_sweep(jumps, w, d, xd)
    raise UnsupportedFamily(f"unknown weighting family {type(w).__name__}")


def _survival_power(jumps, m: int, d: int, xd: int) -> tuple[int, int]:
    """sum_i S_i^m step_i for hbar(s) = s^m (DualPower(m), the m-th dual
    moment), as (num, den)."""
    _check_power(m, d.bit_length())
    return sum((d - c) ** m * step for c, step in jumps), d**m * xd


def _cdf_power(jumps, k: int, d: int, xd: int, top: int) -> tuple[int, int]:
    """top - sum_i F_i^k step_i for h(p) = p^k: V = x_max - sum_i h(F_i) step_i."""
    _check_power(k, d.bit_length())
    dk = d**k
    return dk * top - sum(c**k * step for c, step in jumps), dk * xd


def _cdf_poly(jumps, hs: list[int], scale: int, d: int, xd: int, top: int) -> tuple[int, int]:
    """x_max - sum_i h(F_i) step_i for h = sum_i hs_i p^i / scale.

    scale d^deg h(c/d) = sum_i hs_i d^(deg-i) c^i, by Horner at each CDF count c.
    """
    coeffs, dk = [hs[-1]], 1  # coeffs[j] = hs[deg-j] d^j, the Horner order
    for h in reversed(hs[:-1]):
        dk *= d
        coeffs.append(h * dk)
    acc = 0
    for c, step in jumps:
        v = 0
        for k in coeffs:
            v = v * c + k
        acc += v * step
    den = scale * dk
    return den * top - acc, den * xd


def _poly_signs(rows, jumps, d: int, top: int) -> list[int]:
    """The sign of _cdf_poly's numerator for each row (hs, scale), that
    is of x_max - sum_i h(F_i) step_i for h = sum_j hs_j p^j / scale, from
    one sweep of the power sums S_j = sum_i c_i^j step_i.

    scale d^deg top - sum_j hs_j d^(deg-j) S_j is that numerator over the
    positive scale d^deg xd, so the denominator is never built. For one h
    Horner per count (_cdf_poly) is faster; a battery of rows shares the
    sums. The size bound is checked once, at the largest degree.
    """
    deg = max(len(hs) for hs, _ in rows) - 1
    _check_power(deg, d.bit_length())
    sums = [0] * (deg + 1)
    for c, step in jumps:
        for j in range(deg + 1):
            sums[j] += step
            step *= c
    signs = []
    for hs, scale in rows:
        v = 0  # sum_j hs_j S_j d^(k-j) by Horner in d, k = len(hs) - 1
        for h, s in zip(hs, sums):
            v = v * d + h * s
        num = scale * d ** (len(hs) - 1) * top - v
        signs.append((num > 0) - (num < 0))
    return signs


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
    return Fraction(*_survival_power(jumps, m, d, xd))


def _moment_rows(lot: Lottery) -> tuple[list[Fraction], list[Fraction]]:
    """[dual_moment(lot, m) for m = 1..4] and [primal_moment(lot, k) for
    k = 2..4], each list from one sweep: running powers of the survival
    count d - c times the step over the jump list, and of pd x_i - S1
    times p_i over the states. The size bound is checked once, at order 4:
    m * bitlength(d) passes it for some m <= 4 exactly when it does at 4.
    """
    jumps, d, xd, _ = _jumps(lot)
    _check_power(4, d.bit_length())
    a1 = a2 = a3 = a4 = 0
    for c, t in jumps:
        s = d - c
        t *= s
        a1 += t
        t *= s
        a2 += t
        t *= s
        a3 += t
        a4 += t * s
    xs, _, ps, pd = lot._ints
    s1 = sum(map(mul, xs, ps))
    b2 = b3 = b4 = 0
    for x, t in zip(xs, ps):
        e = pd * x - s1
        t *= e * e
        b2 += t
        t *= e
        b3 += t
        b4 += t * e
    duals = [Fraction(a, d**m * xd) for m, a in enumerate((a1, a2, a3, a4), 1)]
    return duals, [Fraction(b, pd * (pd * xd) ** k) for k, b in enumerate((b2, b3, b4), 2)]
