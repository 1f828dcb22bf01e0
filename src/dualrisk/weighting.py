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
from operator import itemgetter

from . import polyops
from .errors import DomainError, NonMonotoneUtility, UnsupportedFamily
from .rationals import format_exact, format_float, format_spec, parse_float_range, parse_rational, parse_spec, rat


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Quadratic:
    """h(p) = (1 + beta) p - beta p^2; beta in [0, 1]. Concave for beta > 0."""

    beta: Fraction

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
        if not isinstance(self.m, int) or self.m < 1:
            raise DomainError(f"dual power order must be an integer >= 1, got {self.m}")


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
    analysis of h'. This family supplies strict flipped-sign test
    functions at odd orders (e.g. (1+c) p - c p^3 has h''' < 0) and exact
    mixtures of DualPower weights.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(rat(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 0:
            raise DomainError("polynomial weighting needs h(0) = 0 (zero constant term)")
        if sum(coeffs) != 1:
            raise DomainError("polynomial weighting needs h(1) = 1 (coefficients summing to 1)")
        ok, witness = polyops.nonneg_on_interval(polyops.pderiv(list(coeffs)), Fraction(0), Fraction(1))
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


def _bits(p) -> int:
    """The size of p in [0, 1] for the bound: its denominator's bits, 1 for a float."""
    return 1 if isinstance(p, float) else p.denominator.bit_length()


def eval_h(w: WeightingSpec, p):
    """Evaluate h at p in [0, 1]. Exact families preserve Fraction inputs."""
    _check_unit(p)
    try:
        match w:
            case Identity():
                return p
            case Quadratic(beta=b):
                return (1 + b) * p - b * p * p
            case Power(k=k):
                if k.denominator == 1:
                    _check_power(k.numerator, _bits(p))
                    return p ** k.numerator
                _check_power(k, 1)
                return float(p) ** float(k)
            case DualPower(m=m):
                _check_power(m, _bits(p))
                return 1 - (1 - p) ** m
            case TverskyKahneman(gamma=g):
                x = float(p)
                if x == 0.0 or x == 1.0:
                    return x
                num = x**g
                return num / (num + (1 - x) ** g) ** (1 / g)
            case Prelec(a=a, b=b):
                x = float(p)
                if x == 0.0 or x == 1.0:
                    return x
                return math.exp(-b * (-math.log(x)) ** a)
            case Tabulated(knots=knots):
                return _interp(knots, p)
            case Polynomial(coeffs=coeffs):
                return polyops.peval(list(coeffs), p)
    except OverflowError:
        raise DomainError(f"weighting {format_weighting(w)} overflows a float at p = {p}") from None
    raise UnsupportedFamily(f"unknown weighting family {type(w).__name__}")


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
    """First derivative of h; analytic except Tabulated (central difference)."""
    _check_unit(p)
    try:
        match w:
            case Identity():
                return Fraction(1) if isinstance(p, Fraction) else 1.0
            case Quadratic(beta=b):
                return 1 + b - 2 * b * p
            case Power(k=k):
                if k.denominator == 1:
                    n = k.numerator
                    _check_power(n, _bits(p))
                    return n * p ** (n - 1) if n > 1 else (p**0) * n
                _check_power(k, 1)
                if p == 0 and k < 1:
                    raise DomainError(f"power k={k} has an unbounded derivative at p = 0")
                return float(k) * float(p) ** (float(k) - 1.0)
            case DualPower(m=m):
                _check_power(m, _bits(p))
                return m * (1 - p) ** (m - 1)
            case Polynomial(coeffs=coeffs):
                return polyops.peval(polyops.pderiv(list(coeffs)), p)
            case TverskyKahneman(gamma=g):
                x = float(p)
                if x <= 0.0 or x >= 1.0:
                    return _central_difference(w, x)
                num = x**g
                d = num + (1 - x) ** g
                h = num / d ** (1 / g)
                return h * (g / x - (x ** (g - 1) - (1 - x) ** (g - 1)) / d)
            case Prelec(a=a, b=b):
                x = float(p)
                if x <= 0.0 or x >= 1.0:
                    return _central_difference(w, x)
                t = -math.log(x)
                return math.exp(-b * t**a) * a * b * t ** (a - 1) / x
            case Tabulated():
                return _central_difference(w, float(p))
    except OverflowError:
        raise DomainError(f"weighting {format_weighting(w)} overflows a float at p = {p}") from None
    raise UnsupportedFamily(f"unknown weighting family {type(w).__name__}")


def _central_difference(w, x: float, s: float = 1e-6) -> float:
    lo, hi = max(0.0, x - s), min(1.0, x + s)
    return (eval_h(w, hi) - eval_h(w, lo)) / (hi - lo)


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

    def agrees_with(self, other: "SignCertificate") -> bool:
        """Compatible sign classes (Zero is consistent with either weak sign)."""
        weak = {
            SignClass.ZERO: {SignClass.ZERO, SignClass.NON_NEGATIVE, SignClass.NON_POSITIVE},
            SignClass.NON_NEGATIVE: {SignClass.NON_NEGATIVE, SignClass.ZERO},
            SignClass.NON_POSITIVE: {SignClass.NON_POSITIVE, SignClass.ZERO},
            SignClass.MIXED: {SignClass.MIXED},
        }
        return other.kind in weak[self.kind]


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
    exact = is_exact(w)
    grid = (Fraction(i, grid_count) for i in range(grid_count + 1))
    return [eval_h(w, q if exact else float(q)) for q in grid]


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


def finite_difference(w: WeightingSpec, m: int, p, s):
    """One m-th forward difference of h at start p with step s."""
    if s < 0 or p < 0 or p + m * s > 1:
        raise DomainError(f"difference window [{p}, {p + m * s}] leaves [0, 1]")
    return sum((-1) ** (m - k) * math.comb(m, k) * eval_h(w, p + k * s) for k in range(m + 1))


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
            return _poly_coeffs(w)
        case Power(k=k) if k.denominator == 1:
            _check_power(k.numerator, k.numerator)
            return [Fraction(0)] * k.numerator + [Fraction(1)]
        case Polynomial(coeffs=c):
            return list(c)
    return None


def _poly_coeffs(w: DualPower) -> list[Fraction]:
    # 1 - (1-p)^m expanded
    m = w.m
    coeffs = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        coeffs[i] = -Fraction((-1) ** i * math.comb(m, i))
    coeffs[0] += 1
    return coeffs


def dual_power_mixture(weights: dict[int, Fraction]) -> Polynomial:
    """Exact convex combination of DualPower families as a Polynomial.

    Inherits every alternating derivative sign satisfied by all mixture
    components, which makes it the workhorse for random admissible
    weighting functions in the test harnesses.
    """
    total = sum(weights.values())
    if total != 1 or any(v < 0 for v in weights.values()):
        raise DomainError("mixture weights must be non-negative and sum to 1")
    acc = [Fraction(0)]
    for m, lam in weights.items():
        acc = polyops.padd(acc, polyops.pscale(_poly_coeffs(DualPower(m)), rat(lam)))
    return Polynomial(tuple(acc))


def _grid_monotone_check(w, label: str, grid_count: int = 512) -> None:
    prev = 0.0
    for i in range(1, grid_count + 1):
        cur = eval_h(w, i / grid_count)
        if cur < prev - 1e-12:
            raise NonMonotoneUtility(
                f"{label} is decreasing near p = {i / grid_count:.4f}; not a valid weighting"
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
