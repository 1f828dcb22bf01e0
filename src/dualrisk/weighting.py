"""Probability weighting functions h: [0,1] -> [0,1].

Every family satisfies h(0) = 0, h(1) = 1, h non-decreasing; violations
are rejected at construction. Identity, Quadratic, Power with integer
exponent, DualPower, Tabulated, and Polynomial evaluate exactly over
rationals; TverskyKahneman and Prelec are transcendental and evaluate in
floats.

A Power or DualPower order n is evaluated only while n times the bit
size of the point (its denominator's bits, 1 for a float) stays within
2^20, the bound dt_value applies to the lottery's probability
denominator; past it every evaluation, finite difference and analytic
sign is a DomainError, never an OverflowError or an unbounded power.

float_form(w) is the one float implementation of h and h', built once
per weighting: eval_h and eval_h_prime send it every float point, and
every point of the transcendental families and fractional Power
(eval_h_prime also of Tabulated), and loops over many float points read
one form. Its h' returns a float at every point, except for a degree-1
Polynomial, whose h' is the exact constant Fraction(1) there too.

The dual weighting function hbar(p) = 1 - h(1 - p) is the survival-side
twin: its m-th forward difference equals (-1)^(m+1) times the m-th
forward difference of h at the reflected start point, so sign statements
about h translate mechanically to hbar.

Difference certificates read h once on the grid i/G (difference_grid)
and scan the m-th differences of consecutive grid values
(unit_differences): every window of a longer step is a non-negative
combination of unit-step ones, so the unit-step scan decides the sign
class. The converse harness reads its certificate and its witness
windows from that one list.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from . import polyops
from .errors import DomainError, NonMonotoneUtility, UnsupportedFamily
from .rationals import (
    _common_denominator,
    format_exact,
    format_float,
    format_spec,
    parse_float_range,
    parse_rational,
    parse_spec,
    rat,
)


def _integer_coeffs(w) -> tuple[list[int], int]:
    """(hs, scale) with h(p) = sum_i hs[i] p^i / scale, the integer
    coefficients dt_value reads; Identity, Quadratic and Polynomial build
    them once per weighting object, as their _ints."""
    return _common_denominator(_h_coeffs(w))


@dataclass(frozen=True)
class Identity:
    _ints = cached_property(_integer_coeffs)


@dataclass(frozen=True)
class Quadratic:
    """h(p) = (1 + beta) p - beta p^2; beta in [0, 1]. Concave for beta > 0."""

    beta: Fraction
    _ints = cached_property(_integer_coeffs)

    def __post_init__(self):
        object.__setattr__(self, "beta", rat(self.beta))
        if not 0 <= self.beta <= 1:
            raise DomainError(f"quadratic beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class Power:
    """h(p) = p^k, k > 0; exact when k is an integer."""

    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k", rat(self.k))
        if self.k <= 0:
            raise DomainError(f"power exponent must be positive, got {self.k}")


@dataclass(frozen=True)
class DualPower:
    """h(p) = 1 - (1 - p)^m, so hbar(p) = p^m: the expected-minimum weight."""

    m: int

    def __post_init__(self):
        _check_dual_order(self.m)


def _check_dual_order(m) -> None:
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"dual power order must be an integer >= 1, got {m}")


@dataclass(frozen=True)
class TverskyKahneman:
    """h(p) = p^g / (p^g + (1-p)^g)^(1/g); monotone only for g large enough."""

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        object.__setattr__(self, "gamma", g)
        if g <= 0:
            raise DomainError(f"tk gamma must be positive, got {g}")
        _grid_monotone_check(self, f"tk gamma={g}")


@dataclass(frozen=True)
class Prelec:
    """h(p) = exp(-b (-ln p)^a), a > 0, b > 0; strictly increasing."""

    a: float
    b: float = 1.0

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a <= 0 or b <= 0:
            raise DomainError(f"prelec parameters must be positive, got a={a}, b={b}")


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear h through knots (p, h(p)); exact interpolation."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        knots = tuple((rat(p), rat(v)) for p, v in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2 or knots[0] != (0, 0) or knots[-1] != (1, 1):
            raise DomainError("tabulated knots must run from (0, 0) to (1, 1)")
        for (p0, v0), (p1, v1) in zip(knots, knots[1:]):
            if p1 <= p0:
                raise DomainError(f"knot abscissae must increase, got {p0} then {p1}")
            if v1 < v0:
                raise NonMonotoneUtility(f"knot values decrease between p={p0} and p={p1}")


@dataclass(frozen=True)
class Polynomial:
    """h(p) = sum c_i p^i with exact rational coefficients.

    Monotonicity on [0, 1] is certified at construction by exact sign
    analysis of h', read from the integer form _ints: an h' that
    polyops.bernstein_nonneg accepts is certified, and any other goes to
    Sturm (nonneg_on_interval), which decides every rejection and its
    witness. This family supplies strict flipped-sign test functions at
    odd orders (e.g. (1+c) p - c p^3 has h''' < 0) and exact mixtures of
    DualPower weights.
    """

    coeffs: tuple[Fraction, ...]
    _ints = cached_property(_integer_coeffs)

    def __post_init__(self):
        coeffs = tuple(rat(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 0:
            raise DomainError("polynomial weighting needs h(0) = 0 (zero constant term)")
        hs, scale = self._ints
        if sum(hs) != scale:
            raise DomainError("polynomial weighting needs h(1) = 1 (coefficients summing to 1)")
        slope = [i * hs[i] for i in range(1, len(hs))]  # scale * h', a positive multiple of h'
        if polyops.bernstein_nonneg(slope, 1):
            return
        ok, witness = polyops.nonneg_on_interval(slope, Fraction(0), Fraction(1))
        if not ok:
            raise NonMonotoneUtility(f"polynomial weighting decreasing near p = {witness}")


WeightingSpec = (
    Identity | Quadratic | Power | DualPower | TverskyKahneman | Prelec | Tabulated | Polynomial
)

_EXACT_FAMILIES = (Identity, Quadratic, DualPower, Tabulated, Polynomial)


def is_exact(w: WeightingSpec) -> bool:
    """True when eval_h returns exact rationals for rational arguments."""
    if isinstance(w, Power):
        return w.k.denominator == 1
    return isinstance(w, _EXACT_FAMILIES)


def _check_unit(p) -> None:
    if p < 0 or p > 1:
        raise DomainError(f"weighting argument must lie in [0, 1], got {p}")


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


def eval_h(w: WeightingSpec, p):
    """Evaluate h at p in [0, 1]. Exact families keep Fraction and int
    points exact; a float point, or a transcendental family, goes through
    float_form(w)."""
    _check_unit(p)
    if isinstance(p, float) or not is_exact(w):
        return float_form(w)[0](float(p))
    match w:
        case Identity():
            return p
        case Quadratic(beta=b):
            return (1 + b) * p - b * p * p
        case Power(k=k):
            _check_power(k.numerator, p.denominator.bit_length())
            return p**k.numerator
        case DualPower(m=m):
            _check_power(m, p.denominator.bit_length())
            return 1 - (1 - p) ** m
        case Tabulated(knots=knots):
            return _interp(knots, p)
        case Polynomial(coeffs=coeffs):
            return polyops.peval(list(coeffs), p)


def _tk(g: float, x: float) -> float:
    if x == 0.0 or x == 1.0:
        return x
    num = x**g
    return num / (num + (1 - x) ** g) ** (1 / g)


def _prelec(a: float, b: float, x: float) -> float:
    if x == 0.0 or x == 1.0:
        return x
    return math.exp(-b * (-math.log(x)) ** a)


def eval_hbar(w: WeightingSpec, p):
    """Dual weighting function hbar(p) = 1 - h(1 - p)."""
    _check_unit(p)
    return 1 - eval_h(w, 1 - p)


def _interp(knots, p):
    # First knot at or right of p closes the segment; abscissae strictly
    # increase (Tabulated validates this), so the segment has width > 0.
    i = bisect_left(knots, p, 1, len(knots) - 1, key=itemgetter(0))
    (p0, v0), (p1, v1) = knots[i - 1], knots[i]
    return v0 + (v1 - v0) * (p - p0) / (p1 - p0)


def eval_h_prime(w: WeightingSpec, p):
    """First derivative of h; analytic except Tabulated (central difference).

    Exact families keep Fraction and int points exact; a float point, a
    transcendental family or Tabulated goes through float_form(w), whose
    h' of a degree-1 Polynomial is the exact 1 on floats too.
    """
    _check_unit(p)
    if isinstance(p, float) or not is_exact(w) or isinstance(w, Tabulated):
        return float_form(w)[1](float(p))
    match w:
        case Identity():
            return Fraction(1)
        case Quadratic(beta=b):
            return 1 + b - 2 * b * p
        case Power(k=k):
            n = k.numerator
            _check_power(n, p.denominator.bit_length())
            return n * p ** (n - 1) if n > 1 else (p**0) * n
        case DualPower(m=m):
            _check_power(m, p.denominator.bit_length())
            return m * (1 - p) ** (m - 1)
        case Polynomial(coeffs=coeffs):
            return polyops.peval(polyops.pderiv(list(coeffs)), p)


def _tk_prime(g: float, x: float, h) -> float:
    if x <= 0.0 or x >= 1.0:
        return _central_difference(h, x)
    num = x**g
    d = num + (1 - x) ** g
    value = num / d ** (1 / g)
    return value * (g / x - (x ** (g - 1) - (1 - x) ** (g - 1)) / d)


def _prelec_prime(a: float, b: float, x: float, h) -> float:
    if x <= 0.0 or x >= 1.0:
        return _central_difference(h, x)
    t = -math.log(x)
    return math.exp(-b * t**a) * a * b * t ** (a - 1) / x


_DIFFERENCE_STEP = 1e-6  # half-width of the central difference for h'


def _central_difference(h, x: float) -> float:
    lo, hi = max(0.0, x - _DIFFERENCE_STEP), min(1.0, x + _DIFFERENCE_STEP)
    return (h(hi) - h(lo)) / (hi - lo)


def float_form(w: WeightingSpec):
    """(h, h') for float points, built once per weighting.

    The only float arithmetic of each family: eval_h and eval_h_prime
    call it for every point they do not keep exact. Every point gets the
    [0, 1] check, and an OverflowError or ZeroDivisionError becomes
    DomainError (_on_floats); the power-size bound, the same for every
    float, is checked here once. A Fraction that meets a float is taken
    to float first, so the exact families take their constants to float
    once, each exact sub-expression (1 + beta, 2 beta, the derivative's
    coefficients) formed exactly first; the Tabulated segment is chosen
    by exact comparison. h' of a degree-1 Polynomial returns the exact
    constant Fraction(1) at every float point. Polynomial coefficients
    past the float range keep the mixed Fraction/float formula, which
    raises at every point.
    """
    match w:
        case Identity():
            return _on_floats(w, lambda x: x), _on_floats(w, lambda x: 1.0)
        case Quadratic(beta=b):
            lin, sq, slope = float(1 + b), float(b), float(2 * b)
            return _on_floats(w, lambda x: lin * x - sq * x * x), _on_floats(w, lambda x: lin - slope * x)
        case Power(k=k) if k.denominator == 1:
            n = k.numerator
            _check_power(n, 1)
            slope = (lambda x: n * x ** (n - 1)) if n > 1 else (lambda x: 1.0)
            return _on_floats(w, lambda x: x**n), _on_floats(w, slope)
        case Power(k=k):
            _check_power(k, 1)
            kf, unbounded = float(k), k < 1

            def power_prime(x):
                if x == 0 and unbounded:
                    raise DomainError(f"power k={k} has an unbounded derivative at p = 0")
                return kf * x ** (kf - 1.0)

            return _on_floats(w, lambda x: x**kf), _on_floats(w, power_prime)
        case DualPower(m=m):
            _check_power(m, 1)
            return _on_floats(w, lambda x: 1 - (1 - x) ** m), _on_floats(w, lambda x: m * (1 - x) ** (m - 1))
        case TverskyKahneman(gamma=g):
            h = _on_floats(w, lambda x: _tk(g, x))
            return h, _on_floats(w, lambda x: _tk_prime(g, x, h))
        case Prelec(a=a, b=b):
            h = _on_floats(w, lambda x: _prelec(a, b, x))
            return h, _on_floats(w, lambda x: _prelec_prime(a, b, x, h))
        case Tabulated(knots=knots):
            last = len(knots) - 1
            # v0 + (v1 - v0) * (p - p0) / (p1 - p0) on each segment, as _interp reads it
            segments = [None] + [
                (float(v0), float(v1 - v0), float(p0), float(p1 - p0))
                for (p0, v0), (p1, v1) in zip(knots, knots[1:])
            ]

            def tabulated(x):
                v0, dv, p0, dp = segments[bisect_left(knots, x, 1, last, key=itemgetter(0))]
                return v0 + dv * (x - p0) / dp

            h = _on_floats(w, tabulated)
            return h, _on_floats(w, lambda x: _central_difference(h, x))
        case Polynomial(coeffs=coeffs):
            slope = polyops.pderiv(list(coeffs))
            try:
                values, slopes = [float(c) for c in coeffs], [float(c) for c in slope]
            except OverflowError:
                values, slopes = list(coeffs), slope
            h = _on_floats(w, lambda x: polyops.peval(values, x))
            if len(slope) == 1:  # degree 1: h' is the exact constant 1
                return h, _on_floats(w, lambda x: slope[0])
            return h, _on_floats(w, lambda x: polyops.peval(slopes, x))
    raise UnsupportedFamily(f"unknown weighting family {type(w).__name__}")


def _on_floats(w: WeightingSpec, f):
    """f behind the per-point checks: [0, 1] first, then an OverflowError or
    a ZeroDivisionError (TverskyKahneman's 0/0 at a large gamma) as DomainError."""

    def checked(x):
        if x < 0 or x > 1:
            _check_unit(x)
        try:
            return f(x)
        except OverflowError:
            raise DomainError(f"weighting {format_weighting(w)} overflows a float at p = {x}") from None
        except ZeroDivisionError:
            raise DomainError(f"weighting {format_weighting(w)} divides by zero in floats at p = {x}") from None

    return checked


class SignClass(Enum):
    NON_NEGATIVE = "non-negative"
    NON_POSITIVE = "non-positive"
    ZERO = "zero"
    MIXED = "mixed"


@dataclass(frozen=True)
class SignWitness:
    """A point where the inspected quantity takes the recorded value.

    step is the finite-difference step, or None for analytic certificates.
    """

    p: Fraction | float
    step: Fraction | float | None
    value: Fraction | float


@dataclass(frozen=True)
class SignCertificate:
    kind: SignClass
    order: int
    positive: SignWitness | None = None
    negative: SignWitness | None = None


def _classify(order, pos, neg) -> SignCertificate:
    if pos and neg:
        kind = SignClass.MIXED
    elif pos:
        kind = SignClass.NON_NEGATIVE
    elif neg:
        kind = SignClass.NON_POSITIVE
    else:
        kind = SignClass.ZERO
    return SignCertificate(kind=kind, order=order, positive=pos, negative=neg)


def difference_grid(w: WeightingSpec, m: int, grid_count: int) -> list:
    """h at i/G for i = 0..G, the values an order-m difference scan reads.

    Exact families give Fractions, transcendental ones floats. An order
    below 1 or above G is a DomainError, raised before h is evaluated.
    """
    if m < 1:
        raise DomainError(f"difference order must be >= 1, got {m}")
    if grid_count < m:
        raise DomainError(f"grid_count must be at least m, got {grid_count} < {m}")
    if is_exact(w):
        return [eval_h(w, Fraction(i, grid_count)) for i in range(grid_count + 1)]
    h = float_form(w)[0]
    return [h(i / grid_count) for i in range(grid_count + 1)]


def unit_differences(values: list, m: int):
    """(i, sum_k (-1)^(m-k) C(m, k) values[i + k]) for i = 0, 1, ...: the
    m-th differences of consecutive windows of values, in order. On h at
    the grid i/G they are the windows of step 1/G starting at i/G."""
    coeffs = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
    for i in range(len(values) - m):
        yield i, sum(c * values[i + k] for k, c in enumerate(coeffs))


def difference_sign(values: list, m: int) -> SignCertificate:
    """Sign certificate of the m-th differences of h from its values on
    the grid i/G (G = len(values) - 1, at least m), as difference_grid
    gives them; each witness is the first window of its sign."""
    grid_count = len(values) - 1
    pos = neg = None
    for i, d in unit_differences(values, m):
        if d > 0 and pos is None:
            pos = SignWitness(Fraction(i, grid_count), Fraction(1, grid_count), d)
        elif d < 0 and neg is None:
            neg = SignWitness(Fraction(i, grid_count), Fraction(1, grid_count), d)
        if pos and neg:
            break
    return _classify(m, pos, neg)


def finite_difference_sign(w: WeightingSpec, m: int, grid_count: int = 256) -> SignCertificate:
    """Sign certificate for the m-th forward differences of h on a grid.

    Evaluates sum_k (-1)^(m-k) C(m, k) h(p + k s) at step s = 1/G for
    every start p = i/G with p + m s <= 1, and stops once both signs are
    seen. Windows of a longer step b/G add nothing: Delta_b^m equals
    Delta_1^m (1 + E + ... + E^(b-1))^m, with E the shift by 1/G, so it
    is a non-negative combination of unit-step windows and carries no
    sign they lack. Exact families are classified exactly, transcendental
    ones in floats.
    """
    return difference_sign(difference_grid(w, m, grid_count), m)


def hbar_finite_difference(w: WeightingSpec, m: int, p, s):
    """One m-th forward difference of hbar at start p with step s."""
    if s < 0 or p < 0 or p + m * s > 1:
        raise DomainError(f"difference window [{p}, {p + m * s}] leaves [0, 1]")
    return sum((-1) ** (m - k) * math.comb(m, k) * eval_hbar(w, p + k * s) for k in range(m + 1))


def analytic_derivative_sign(w: WeightingSpec, m: int) -> SignCertificate:
    """Exact sign class of h^(m) on (0, 1) for polynomial-closed families.

    Identity, Quadratic, DualPower, integer Power, and Polynomial are
    supported; other families raise UnsupportedFamily.
    """
    if m < 1:
        raise DomainError(f"derivative order must be >= 1, got {m}")
    d = _h_coeffs(w)
    if d is None:
        raise UnsupportedFamily(
            f"no analytic derivative sign for {type(w).__name__}; use finite_difference_sign"
        )
    for _ in range(m):
        d = polyops.pderiv(d)
    has_pos, has_neg, pw, nw = polyops.sign_profile(d, Fraction(0), Fraction(1))
    pos = SignWitness(pw, None, polyops.peval(d, pw)) if has_pos else None
    neg = SignWitness(nw, None, polyops.peval(d, nw)) if has_neg else None
    return _classify(m, pos, neg)


def _h_coeffs(w: WeightingSpec) -> list[Fraction] | None:
    """Coefficients of h, lowest degree first, for the polynomial families
    (Identity, Quadratic, DualPower, integer Power, Polynomial); None for
    the others. A DualPower or Power order n gives n + 1 coefficients of up
    to about n bits (the binomials, or the falling factorials that
    differentiation brings), so the bound counts n bits each."""
    match w:
        case Identity():
            return [Fraction(0), Fraction(1)]
        case Quadratic(beta=b):
            return [Fraction(0), 1 + b, -b]
        case DualPower(m=m):
            _check_power(m, m)
            return [Fraction(c) for c in _dual_power_ints(m)]
        case Power(k=k) if k.denominator == 1:
            _check_power(k.numerator, k.numerator)
            return [Fraction(0)] * k.numerator + [Fraction(1)]
        case Polynomial(coeffs=c):
            return list(c)
    return None


def _dual_power_ints(m: int) -> list[int]:
    """1 - (1 - p)^m expanded, lowest degree first: 0, then (-1)^(i+1) C(m, i)."""
    return [0] + [(-1) ** (i + 1) * math.comb(m, i) for i in range(1, m + 1)]


def dual_power_mixture(weights: dict[int, Fraction]) -> Polynomial:
    """Exact convex combination of DualPower families as a Polynomial.

    Inherits every alternating derivative sign satisfied by all mixture
    components, which makes it the workhorse for random admissible
    weighting functions in the test harnesses. Built in integers: with
    the weights over one denominator d, order k with weight r_k / d adds
    (-1)^(i+1) C(k, i) r_k to the numerator of p^i, and each coefficient
    becomes one Fraction over d at the end. Trailing zero coefficients,
    which zero weights leave, are dropped.
    """
    total = sum(weights.values())
    if total != 1 or any(v < 0 for v in weights.values()):
        raise DomainError("mixture weights must be non-negative and sum to 1")
    orders, lams = [], []
    for m, lam in weights.items():
        _check_dual_order(m)
        orders.append(m)
        lams.append(rat(lam))
    rs, d = _common_denominator(lams)
    acc = [0] * (max(orders) + 1)
    for m, r in zip(orders, rs):
        for i, c in enumerate(_dual_power_ints(m)):
            acc[i] += c * r
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return Polynomial(tuple(Fraction(a, d) for a in acc))


_MONOTONE_GRID = 512  # cells of the grid a float family's monotonicity is checked on


def _grid_monotone_check(w, label: str) -> None:
    h, prev = float_form(w)[0], 0.0
    for i in range(1, _MONOTONE_GRID + 1):
        cur = h(i / _MONOTONE_GRID)
        if cur < prev - 1e-12:
            raise NonMonotoneUtility(
                f"{label} is decreasing near p = {i / _MONOTONE_GRID:.4f}; not a valid weighting"
            )
        prev = cur


# ---------------------------------------------------------------------------
# textual form used by the CLI: family:key=value,key=value


def _parse_knots(text: str) -> tuple:
    knots = []
    for part in text.split(";"):
        p, _, v = part.partition(",")
        knots.append((parse_rational(p), parse_rational(v)))
    return tuple(knots)


def _format_knots(knots) -> str:
    return ";".join(f"{format_exact(p)},{format_exact(v)}" for p, v in knots)


_EXACT = (parse_rational, format_exact)
_FLOAT = (lambda t: float(parse_float_range(t)), format_float)
_COEFFS = (lambda t: tuple(map(parse_rational, t.split(","))), lambda c: ",".join(map(format_exact, c)))

_WEIGHTING_TABLE = {
    "identity": (Identity, {}),
    "quadratic": (Quadratic, {"beta": _EXACT}),
    "power": (Power, {"k": _EXACT}),
    "dualpower": (DualPower, {"m": (int, str)}),
    "tk": (TverskyKahneman, {"gamma": _FLOAT}),
    "prelec": (Prelec, {"a": _FLOAT, "b": _FLOAT}),
    "tabulated": (Tabulated, {"knots": (_parse_knots, _format_knots)}),
    "poly": (Polynomial, {"coeffs": _COEFFS}),
}


def parse_weighting(text: str) -> WeightingSpec:
    """Parse forms like identity, quadratic:beta=1/2, dualpower:m=3,
    tk:gamma=0.61, prelec:a=0.65,b=1, tabulated:knots=0,0;1/2,2/3;1,1,
    poly:coeffs=0,3/2,0,-1/2."""
    return parse_spec(text, _WEIGHTING_TABLE, "weighting")


def format_weighting(w: WeightingSpec) -> str:
    """The spec text that parse_weighting reads back to w."""
    return format_spec(w, _WEIGHTING_TABLE)
