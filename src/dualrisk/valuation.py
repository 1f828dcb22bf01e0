"""Lottery valuation: dual-theory value, expected utility, and moments.

The dual-theory value of a lottery with ranked distinct outcomes
x_1 < ... < x_n and CDF F is

    V = sum_i x_i (h(F(x_i)) - h(F(x_{i-1})))          (CDF form)
      = sum_i hbar(S(x_{i-1})) (x_i - x_{i-1})         (survival form)

with x_0 = 0, F(x_0) = 0, S = 1 - F, hbar(p) = 1 - h(1 - p). The survival
form is the one computed; the tests check it against the CDF form.

The m-th dual moment is the expected minimum of m independent draws,
integral of S(x)^m, and coincides with the dual-theory value under the
DualPower(m) weighting.

For the polynomial weighting families (Identity, Quadratic, DualPower,
integer Power, Polynomial) and for dual moments the survival sum runs in
Python ints over the lottery's integer form (outcome and probability
numerators over their common denominators, built once per lottery), with
hbar scaled to integer coefficients, and one Fraction is built at the
end. The raw and central moments are single integer sums over the same
form. Tabulated, fractional Power, TverskyKahneman and Prelec take the
survival loop over eval_hbar; for the float families among them an
outcome beyond the float range is a DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul

from .errors import DomainError, NonMonotoneUtility
from .lottery import Lottery, as_distribution, canonical_distribution, mean
from .rationals import rat
from .weighting import WeightingSpec, _h_coeffs, eval_hbar, is_exact


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

    Exact families yield an exact Fraction; transcendental families a
    float, and DomainError for an outcome beyond the float range.
    """
    h = _h_coeffs(w)
    if h is not None:
        return _survival_sweep(lot, *_hbar_ints(h))
    can = canonical_distribution(lot)
    acc = Fraction(0) if is_exact(w) else 0.0
    prev_x = Fraction(0)
    surv = Fraction(1)
    for x, p in can.states:
        if x != prev_x:
            try:
                acc += eval_hbar(w, surv) * (x - prev_x)
            except OverflowError:  # a float family meeting an outcome beyond float range
                name = type(w).__name__
                raise DomainError(f"{name} values need outcomes within the float range") from None
        surv -= p
        prev_x = x
    return acc


def _hbar_ints(h: list[Fraction]) -> tuple[list[int], int]:
    """(b, scale) with scale * hbar(s) = sum_j b_j s^j, for h = sum_i c_i p^i.

    hbar(s) = 1 - sum_i c_i (1 - s)^i, expanded binomially in ints.
    """
    scale = lcm(*(c.denominator for c in h))
    b = [0] * len(h)
    b[0] = scale
    for i, c in enumerate(h):
        c = c.numerator * (scale // c.denominator)
        for j in range(i + 1):
            b[j] += (-1) ** (j + 1) * comb(i, j) * c
    return b, scale


def _survival_sweep(lot: Lottery, hbar: list[int], scale: int) -> Fraction:
    """sum_i hbar(S(x_{i-1})) (x_i - x_{i-1}) over distinct outcomes, in ints.

    hbar holds the integer coefficients of scale * hbar(s), lowest degree
    first. In the lottery's integer form, with probabilities over d and
    outcomes over xd, the survival level is an integer count s out of d,
    and scale * d^deg * hbar(s / d) = sum_j hbar_j d^(deg - j) s^j.
    """
    xs, xd, ps, d = lot._ints
    deg = len(hbar) - 1
    coeffs = [c * d ** (deg - j) for j, c in enumerate(hbar)][::-1]
    acc = prev = 0
    surv = d
    for a, p in zip(xs, ps):
        if a != prev:
            v = 0
            for c in coeffs:
                v = v * surv + c
            acc += v * (a - prev)
            prev = a
        surv -= p
    return Fraction(acc, scale * d**deg * xd)


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
    return _survival_sweep(lot, [0] * m + [1], 1)


def dual_moment_weights(n: int, m: int) -> list[Fraction]:
    """Per-state weights of the m-draw expected minimum for n ranked
    equally likely states: weight_i = ((n-i+1)^m - (n-i)^m) / n^m,
    i = 1..n from lowest outcome upward."""
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    return [Fraction((n - i + 1) ** m - (n - i) ** m, n**m) for i in range(1, n + 1)]
