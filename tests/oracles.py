"""Reference implementations that the tests compare the library against.

They share no code path with the functions under test: the Monte Carlo
oracle samples draws with numpy, the float dual-theory value is summed
in mpmath at 60 digits, the knot interpolation walks the segments one by
one, the exact dual-theory value is summed in CDF form, the survival
loop sums eval_hbar at Fraction survival levels (where the library
sweeps integer CDF counts), the dual moment is a Fraction loop over the
survival function or, on ranked equally likely states, a sum with
closed-form per-state weights, the CDF and quantile walk the states one
by one, ties merge by comparing and adding Fraction states (where the
library reads the merged support off the jump list), the mean, raw and
central moments and the expected utility are Fraction sums over the
states (where the library sums the lottery's integer form), the lottery
parser reads every literal with rat and checks mass, signs and order in
Fractions, or, in its per-line form, strips and splits each line, reads
each literal by its own call and always sorts, where the library reads
plain literals inline and skips the sort when the outcomes already
rise, the iterated quantile and CDF
are chains of Fraction antiderivatives of step functions built from one
quantile() or cdf() call per piece (where the library sums truncated
powers in ints), the dominance checks certify every piece of the
differences of those chains, taken on merged breakpoint grids, by Sturm
(where the library accepts pieces with non-negative Taylor or Bernstein
coefficients without it), root isolation and sign profiles run a Sturm
chain of Fraction polynomials (monic gcd, true remainders, deflation by
x - r) where the library works on primitive integer polynomials, a
Polynomial's monotonicity is decided by that Fraction chain alone where
the library first tries the Bernstein pre-accept, the direct battery
constructs every member afresh where the library memoizes the unseeded
ones, and sums its DualPower mixture as Fraction polynomials where the
library builds it in ints, a pair's preference direction is the sign of
two full dt_value sweeps where the library reads only the states where
the members differ, a block's entries merge Fraction copies gap by gap
and attaching blocks adds Fraction increments and checks signs and order
in Fractions where the library runs both on integer numerators, and the
difference certificate, the draw's window
rule and the converse witness search evaluate h window by window through
finite_difference, over every step for the certificate, where the
library reads one evaluated grid at unit step, h and h' are computed
call by call, each float formula written out at the point, where the
library builds one float form per weighting (weighting.float_form), and
the self-protection solver evaluates every point through closed forms
written out over those calls where the library folds its term tables
into a float form once per solve. A random base is drawn from the same
stream and summed in Fractions, where the library adds integer halves.

One section is not independent on purpose: spline, iterated_quantile
and iterated_cdf wrap the library's integer splines
(piecewise.spline_pieces) as PiecewisePoly over Fractions, so that the
tests can hold those splines against the antiderivative chain. Their
step lists come from merged_ints, quantile_steps and cdf_steps, which
merge ties on the integer form explicitly, where the library reads both
step lists off one jump list (lottery._jumps).
"""

import bisect
import math
import sys
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import sub

import mpmath
import numpy as np

from dualrisk import (
    BackgroundEffectReport,
    DomainError,
    DualPower,
    ExponentialEffort,
    FormatError,
    Identity,
    LinearEffort,
    LinearUtility,
    Lottery,
    NegativeOutcome,
    NonMonotoneUtility,
    NonUnitMass,
    Polynomial,
    Power,
    PowerLawEffort,
    Prelec,
    PrecedenceViolation,
    Quadratic,
    QuadraticUtility,
    RankViolation,
    SignCertificate,
    SignWitness,
    SPDiagnostics,
    SPSolution,
    Tabulated,
    TabulatedUtility,
    TverskyKahneman,
    dt_value,
    eval_h,
    eval_hbar,
    format_weighting,
    is_exact,
    make_block,
    rat,
)
from dualrisk.piecewise import spline_pieces
from dualrisk.polyops import Poly, nonneg_on_interval, pderiv, peval, pshift, ptrim
from dualrisk.rationals import _quoted


# ---------------------------------------------------------------------------
# Distribution functions of a lottery, state by state


def cdf(lot: Lottery, x) -> Fraction:
    """P(X <= x)."""
    x = rat(x)
    return sum((p for o, p in lot.states if o <= x), Fraction(0))


def survival(lot: Lottery, x) -> Fraction:
    """P(X > x)."""
    return 1 - cdf(lot, x)


def quantile(lot: Lottery, q) -> Fraction:
    """Left-continuous generalized inverse: min{x : F(x) >= q}, 0 < q <= 1."""
    q = rat(q)
    if q <= 0 or q > 1:
        raise DomainError(f"quantile level must satisfy 0 < q <= 1, got {q}")
    acc = Fraction(0)
    for x, p in lot.states:
        acc += p
        if acc >= q:
            return x
    raise AssertionError("unreachable: probabilities sum to one")


def canonical_states_reference(states) -> tuple[tuple[Fraction, Fraction], ...]:
    """Ranked states with equal outcomes merged by comparing and adding Fractions."""
    merged: list[tuple[Fraction, Fraction]] = []
    for x, p in states:
        if merged and merged[-1][0] == x:
            merged[-1] = (x, merged[-1][1] + p)
        else:
            merged.append((x, p))
    return tuple(merged)


def canonical_distribution_fraction(lot: Lottery) -> Lottery:
    """Equal outcomes merged by comparing and adding the Fraction states."""
    return Lottery(canonical_states_reference(lot.states))


# ---------------------------------------------------------------------------
# Moments and parsing in Fractions, state by state


def mean(lot: Lottery) -> Fraction:
    return sum((x * p for x, p in lot.states), Fraction(0))


def raw_moment(lot: Lottery, k: int) -> Fraction:
    """E[X^k]."""
    return sum((p * x**k for x, p in lot.states), Fraction(0))


def primal_moment(lot: Lottery, k: int) -> Fraction:
    """Mean for k = 1, central moment E[(X - mu)^k] for k >= 2."""
    if k == 1:
        return mean(lot)
    mu = mean(lot)
    return sum((p * (x - mu) ** k for x, p in lot.states), Fraction(0))


def parse_lottery_fraction(text: str, source: str | None = None) -> Lottery:
    """parse_lottery_text with every literal read by rat and the mass, sign
    and order checks done in Fractions; the same exceptions and messages."""
    states = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(
                f"expected '<outcome> <probability>', got {_quoted(raw.strip())}", line=lineno, source=source
            )
        try:
            x, p = rat(fields[0]), rat(fields[1])
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno, source=source) from None
        if x < 0:
            raise FormatError(f"outcome {x} is negative", line=lineno, source=source)
        if p <= 0:
            raise FormatError(f"probability {p} is not positive", line=lineno, source=source)
        states.append((x, p))
    if not states:
        raise FormatError("no states found", source=source)
    total = sum(p for _, p in states)
    if total != 1:
        raise NonUnitMass(f"probabilities sum to {total}, not 1")
    states.sort(key=lambda s: s[0])
    return Lottery(tuple(states))


def _per_line_literal(token: str) -> tuple[int, int]:
    """(num, den) with num/den = rat(token), den > 0: a plain ASCII p or
    p/q (q != 0) read with int, every other spelling through rat."""
    num, slash, den = token.partition("/")
    try:
        if num.isascii() and num.isdigit():
            if not slash:
                return int(num), 1
            if den.isascii() and den.isdigit() and (q := int(den)):
                return int(num), q
    except ValueError:  # past the int digit limit: rat decides
        pass
    value = rat(token)
    return value.numerator, value.denominator


def parse_lottery_per_line(text: str, source: str | None = None) -> Lottery:
    """parse_lottery_text in its per-line form: each line split off its
    comment and stripped, each literal read by its own call, and the
    states sorted by outcome whether or not they already rise."""
    states = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(
                f"expected '<outcome> <probability>', got {_quoted(raw.strip())}", line=lineno, source=source
            )
        try:
            (x, xd), (p, pd) = _per_line_literal(fields[0]), _per_line_literal(fields[1])
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno, source=source) from None
        if x < 0:
            raise FormatError(f"outcome {Fraction(x, xd)} is negative", line=lineno, source=source)
        if p <= 0:
            raise FormatError(f"probability {Fraction(p, pd)} is not positive", line=lineno, source=source)
        states.append((x, xd, p, pd))
    if not states:
        raise FormatError("no states found", source=source)
    xs, xds, ps, pds = zip(*states)
    xd, pd = math.lcm(*xds), math.lcm(*pds)
    xs = [x * (xd // q) for x, q in zip(xs, xds)]
    ps = [p * (pd // q) for p, q in zip(ps, pds)]
    gx, gp = math.gcd(xd, *xs), math.gcd(pd, *ps)
    xs, xd, ps, pd = [x // gx for x in xs], xd // gx, [p // gp for p in ps], pd // gp
    if sum(ps) != pd:
        raise NonUnitMass(f"probabilities sum to {Fraction(sum(ps), pd)}, not 1")
    order = sorted(range(len(xs)), key=xs.__getitem__)
    return Lottery._trusted(([xs[i] for i in order], xd, [ps[i] for i in order], pd))


def decimal_sig(value: Fraction, sig: int) -> str:
    """A nonzero rational in "%.{sig-1}e" style with trailing zeros stripped,
    the sig digits from a correctly rounded decimal division."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = sig, ROUND_HALF_EVEN
        ctx.Emax, ctx.Emin = 10**8, -(10**8)
        d = Decimal(value.numerator) / Decimal(value.denominator)
    sign, digits, exp = d.as_tuple()
    text = "".join(map(str, digits))
    mantissa = f"{text[0]}.{text[1:]}".rstrip("0").rstrip(".")
    return f"{'-' if sign else ''}{mantissa}e{exp + len(digits) - 1:+03d}"


# ---------------------------------------------------------------------------
# Polynomial and piecewise-polynomial arithmetic over Fractions: the
# antiderivative chain that the closed-form splines below and the
# dominance checks must reproduce


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    zero = Fraction(0)
    return ptrim([(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero) for i in range(n)])


def pscale(a: Poly, k: Fraction) -> Poly:
    return ptrim([x * k for x in a])


def psub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    zero = Fraction(0)
    return ptrim([(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero) for i in range(n)])


def pmul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ptrim(out)


def pantideriv(c: Poly, constant: Fraction = Fraction(0)) -> Poly:
    """Antiderivative with value `constant` at 0."""
    return ptrim([constant] + [c[i] / (i + 1) for i in range(len(c))])


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial with exact rational breakpoints; each piece's
    coefficients are in the global variable (not shifted per piece), and
    evaluation is left-continuous."""

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2 or len(self.pieces) != len(self.breakpoints) - 1:
            raise DomainError("need K+1 breakpoints for K pieces, K >= 1")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise DomainError("breakpoints must be strictly increasing")

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    def piece_index(self, x) -> int:
        if x < self.lo or x > self.hi:
            raise DomainError(f"{x} outside [{self.lo}, {self.hi}]")
        i = bisect.bisect_left(self.breakpoints, x, lo=1) - 1
        return min(i, len(self.pieces) - 1)

    def __call__(self, x):
        """Evaluate; at interior breakpoints takes the left piece's value."""
        return peval(list(self.pieces[self.piece_index(x)]), x)


def step_function(breakpoints, values) -> PiecewisePoly:
    """Left-continuous step function: value[i] on (b[i], b[i+1]]."""
    return PiecewisePoly(tuple(breakpoints), tuple((Fraction(v),) for v in values))


def antiderivative(f: PiecewisePoly) -> PiecewisePoly:
    """Continuous antiderivative of f vanishing at its left endpoint."""
    acc = Fraction(0)
    out = []
    for (a, b), coeffs in zip(zip(f.breakpoints, f.breakpoints[1:]), f.pieces):
        raw = pantideriv(list(coeffs))
        shift = acc - peval(raw, a)
        out.append(tuple(padd(raw, [shift])))
        acc = peval(raw, b) + shift
    return PiecewisePoly(f.breakpoints, tuple(out))


def merged_with(f: PiecewisePoly, g: PiecewisePoly) -> tuple[Fraction, ...]:
    if f.lo != g.lo or f.hi != g.hi:
        raise DomainError("piecewise functions defined on different intervals")
    return tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))


def piece_index_right(f: PiecewisePoly, x) -> int:
    """Piece of f governing the interval immediately to the right of x."""
    i = bisect.bisect_right(f.breakpoints, x) - 1
    return min(i, len(f.pieces) - 1)


def refined(f: PiecewisePoly, breakpoints: tuple[Fraction, ...]) -> PiecewisePoly:
    """f re-expressed on a finer breakpoint grid (must contain the current one)."""
    return PiecewisePoly(breakpoints, tuple(f.pieces[piece_index_right(f, a)] for a in breakpoints[:-1]))


def difference(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    """f - g on the merged breakpoint grid."""
    grid = merged_with(f, g)
    pieces = zip(refined(f, grid).pieces, refined(g, grid).pieces)
    return PiecewisePoly(grid, tuple(tuple(psub(list(p), list(q))) for p, q in pieces))


def degree(f: PiecewisePoly) -> int:
    return max(len(ptrim(list(p))) - 1 for p in f.pieces)


# ---------------------------------------------------------------------------
# The library's integer splines (piecewise.spline_pieces) as PiecewisePoly
# over Fractions, so tests can compare them with the antiderivative chain


def global_coeffs(piece: list[int], a: int, big_l: int) -> list[int]:
    """The coefficients in t = w / L of a spline piece given in w - a."""
    return [c * big_l**k for k, c in enumerate(pshift(piece, -a))]


def spline(knots, jumps, end: int, big_l: int, big_d: int, m: int) -> PiecewisePoly:
    """The spline sum_j (v_j / D) (t - u_j / L)_+^(m-1) / (m-1)! on [0, end / L],
    from the ints of spline_pieces."""
    grid, pieces = spline_pieces(knots, jumps, end, m)
    scale = big_d * big_l ** (m - 1) * math.factorial(m - 1)
    return PiecewisePoly(
        tuple(Fraction(u, big_l) for u in grid),
        tuple(
            tuple(Fraction(c, scale) for c in ptrim(global_coeffs(p, a, big_l)))
            for a, p in zip(grid, pieces)
        ),
    )


def merged_ints(lot) -> tuple[list[int], int, list[int], int]:
    """The integer form with ties merged: (xs, xd, ps, pd) with xs strictly
    increasing and ps[i]/pd the total probability of outcome xs[i]/xd."""
    xs, xd, ps, pd = lot._ints
    ux, up = [xs[0]], [ps[0]]
    for x, p in zip(xs[1:], ps[1:]):
        if x == ux[-1]:
            up[-1] += p
        else:
            ux.append(x)
            up.append(p)
    return ux, xd, up, pd


def quantile_steps(lot):
    """(knots, jumps, L, D) of the left-continuous quantile function on
    [0, 1]: at the probability knots[i]/L below each distinct outcome it
    jumps by jumps[i]/D, the step up to that outcome from the one below
    (from 0 for the lowest, a jump of 0 when that is 0)."""
    xs, xd, ps, pd = merged_ints(lot)
    return list(accumulate(ps[:-1], initial=0)), list(map(sub, xs, [0, *xs])), pd, xd


def cdf_steps(lot):
    """(knots, jumps, L, D) of the left-continuous CDF: at each distinct
    outcome knots[i]/L it jumps by that outcome's mass jumps[i]/D."""
    xs, xd, ps, pd = merged_ints(lot)
    return xs, ps, xd, pd


def iterated_quantile(lot: Lottery, m: int) -> PiecewisePoly:
    """(m-1)-fold integral from 0 of the quantile function on [0, 1], from
    the closed-form spline. m = 1 is the left-continuous quantile step
    function itself, with breakpoints at the cumulative probabilities."""
    if m < 1:
        raise DomainError(f"iteration order must be >= 1, got {m}")
    knots, jumps, big_l, big_d = quantile_steps(lot)
    return spline(knots, jumps, big_l, big_l, big_d, m)


def iterated_cdf(lot: Lottery, m: int, hi: Fraction) -> PiecewisePoly:
    """(m-1)-fold integral from 0 of the CDF on [0, hi], from the closed-form spline."""
    if m < 1:
        raise DomainError(f"iteration order must be >= 1, got {m}")
    if hi < max(lot.outcomes) or hi <= 0:
        raise DomainError("iterated CDF domain must cover the support and have positive length")
    knots, jumps, xd, big_d = cdf_steps(lot)
    big_l = math.lcm(xd, hi.denominator)
    r = big_l // xd
    end = hi.numerator * (big_l // hi.denominator)
    return spline([u * r for u in knots], jumps, end, big_l, big_d, m)


# ---------------------------------------------------------------------------
# Moments, batteries and valuations


def dual_moment_mc_oracle(
    lot: Lottery, m: int, draws: int = 200_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of the m-draw expected minimum.

    Returns (estimate, standard_error). Sampling is inverse-CDF on exact
    cumulative probabilities converted to float once.
    """
    if m < 1 or draws < 2:
        raise DomainError("need m >= 1 and draws >= 2")
    can = canonical_distribution_fraction(lot)
    outcomes = np.array([float(x) for x in can.outcomes])
    cum = np.cumsum([float(p) for p in can.probabilities])
    cum[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((draws, m))
    idx = np.searchsorted(cum, u, side="left")
    mins = outcomes[idx].min(axis=1)
    est = float(mins.mean())
    se = float(mins.std(ddof=1) / np.sqrt(draws))
    return est, se


def dual_power_mixture_reference(weights: dict) -> tuple[Fraction, ...]:
    """Coefficients of the convex mixture sum_k w_k (1 - (1 - p)^k), summed
    as Fraction polynomials one component at a time (padd of pscale),
    trailing zeros dropped."""
    acc = [Fraction(0)]
    for k, lam in weights.items():
        component = [Fraction(0)] + [Fraction((-1) ** (i + 1) * math.comb(k, i)) for i in range(1, k + 1)]
        acc = padd(acc, pscale(component, rat(lam)))
    return tuple(acc)


def polynomial_monotone_reference(coeffs) -> tuple[bool, Fraction | None]:
    """(ok, witness) of h' >= 0 on [0, 1] for h with these coefficients, by
    the Fraction Sturm chain alone: witness is the first point where h' < 0."""
    _, has_neg, _, neg_w = sign_profile_fraction(pderiv([rat(c) for c in coeffs]), Fraction(0), Fraction(1))
    return not has_neg, neg_w


def direct_battery_rebuild(m: int, rng):
    """The order-m direct battery with every member constructed afresh, in the
    order DualPower(m..6), seeded mixture (summed by
    dual_power_mixture_reference), flipped-sign pair, Identity, lower
    DualPowers, lower monomials."""
    battery = [(DualPower(j), "ge") for j in range(m, 7)]
    ks = rng.sample(range(m, max(9, m + 2)), 2)
    raw = {k: Fraction(rng.randint(1, 4)) for k in ks}
    total = sum(raw.values())
    battery.append((Polynomial(dual_power_mixture_reference({k: v / total for k, v in raw.items()})), "ge"))

    def monomial(k):
        return Polynomial((Fraction(0),) * k + (Fraction(1),))

    def odd_flip(c):
        coeffs = [Fraction(0)] * (m + 1)
        coeffs[1], coeffs[m] = 1 + c, -c
        return Polynomial(tuple(coeffs))

    if m % 2 == 0:
        battery += [(monomial(m), "le"), (monomial(m + 2), "le")]
    else:
        battery += [(odd_flip(Fraction(1, m - 1)), "le"), (odd_flip(Fraction(1, 2 * (m - 1))), "le")]
    battery.append((Identity(), "eq"))
    battery += [(DualPower(j), "eq") for j in range(1, m)]
    battery += [(monomial(k), "eq") for k in range(2, m)]
    return battery


def _merge_entries(first, second) -> tuple[tuple[int, Fraction], ...]:
    acc: dict[int, Fraction] = {}
    for o, v in list(first) + list(second):
        acc[o] = acc.get(o, Fraction(0)) + v
    return tuple((o, acc[o]) for o in sorted(acc) if acc[o] != 0)


def block_entries_reference(delta: Fraction, gaps) -> tuple[tuple[int, Fraction], ...]:
    """The good block's entries: from (0, delta), each gap g merges in the
    negated copy shifted right by g, Fraction by Fraction."""
    entries: tuple[tuple[int, Fraction], ...] = ((0, delta),)
    for g in gaps:
        shifted = tuple((o + int(g), -v) for o, v in entries)
        entries = _merge_entries(entries, shifted)
    return entries


def good_and_bad(m: int, delta, gaps=None):
    """The good and the bad order-m block of amplitude delta > 0."""
    return make_block(m, delta, gaps), make_block(m, -delta, gaps)


def equal_prob_reference(outcomes) -> Lottery:
    """The ordinary Lottery of n equally likely ranked outcomes, each state
    (x, 1/n) in Fractions through Lottery's own constructor: what the
    conversion of an equal-probability lottery gave while the two were
    separate types."""
    p = Fraction(1, len(outcomes))
    return Lottery(tuple((Fraction(x), p) for x in outcomes))


def random_base_reference(rng, m: int) -> tuple[Fraction, ...]:
    """The outcomes random_base(rng, m) draws, added up in Fractions from
    the same stream: the first in 1..4, each next one 1 to 4 above the
    last in steps of 1/2."""
    n = rng.randint(m, m + 6)
    outcomes = [Fraction(rng.randint(1, 4))]
    for _ in range(n - 1):
        outcomes.append(outcomes[-1] + Fraction(rng.randint(2, 8), 2))
    return tuple(outcomes)


def attach_reference(lot, first, second, pos_first: int, pos_second: int):
    """(outcomes, (xs, xd)) of lot with both blocks added in Fractions, xs
    the outcome numerators over their lcm denominator xd; the same errors,
    with the same messages, as apportionment.attach."""
    if pos_second < pos_first + 1:
        raise PrecedenceViolation(
            f"second block at state {pos_second} must start at least one state "
            f"after the first at {pos_first}"
        )
    for block, pos in ((first, pos_first), (second, pos_second)):
        if pos < 1 or pos + block.span > lot.n:
            raise DomainError(
                f"block spanning offsets 0..{block.span} does not fit at state {pos} of {lot.n}"
            )
    outcomes = list(lot.outcomes)
    for block, pos in ((first, pos_first), (second, pos_second)):
        for o, v in block.entries:
            outcomes[pos - 1 + o] += v
    for i, x in enumerate(outcomes):
        if x < 0:
            raise NegativeOutcome(f"outcome {x} at state {i} is negative")
        if i and x < outcomes[i - 1]:
            raise RankViolation(
                f"outcomes must be non-decreasing; state {i} has {x} after {outcomes[i - 1]}"
            )
    xd = math.lcm(*(x.denominator for x in outcomes))
    return tuple(outcomes), ([x.numerator * (xd // x.denominator) for x in outcomes], xd)


def preference_direction_reference(pair, w) -> int:
    """Sign of dt_value(D) - dt_value(C), both members valued in full; a
    float family's gap within 4 n eps times the largest outcome is 0."""
    diff = dt_value(pair.d, w) - dt_value(pair.c, w)
    if not is_exact(w):
        top = max(pair.c.outcomes[-1], pair.d.outcomes[-1])
        bound = 4 * pair.c.n * sys.float_info.epsilon * float(top)
        return (diff > bound) - (diff < -bound)
    return (diff > 0) - (diff < 0)


def interp_linear_scan(knots, p: Fraction) -> Fraction:
    """Piecewise-linear interpolation through knots by a segment-by-segment scan."""
    for (p0, v0), (p1, v1) in zip(knots, knots[1:]):
        if p <= p1:
            return v0 + (v1 - v0) * (p - p0) / (p1 - p0)
    return knots[-1][1]


def eu_value_reference(lot: Lottery, u) -> Fraction:
    """Expected utility as a Fraction sum over the states, u evaluated
    state by state (a tabulated utility by a segment scan); the same
    errors and messages as eu_value."""
    if isinstance(u, QuadraticUtility) and u.c > 0:
        top = lot.outcomes[-1]
        if 2 * u.c * top > 1:
            raise NonMonotoneUtility(
                f"quadratic utility with c={u.c} decreases beyond x={1 / (2 * u.c)}, "
                f"but the lottery reaches {top}"
            )
    total = Fraction(0)
    for x, p in lot.states:
        match u:
            case LinearUtility():
                value = x
            case QuadraticUtility(c=c):
                value = x - c * x * x
            case TabulatedUtility(knots=knots):
                if x < knots[0][0] or x > knots[-1][0]:
                    raise DomainError(f"outcome {x} outside tabulated utility span")
                value = interp_linear_scan(knots, x)
            case _:
                raise DomainError(f"unknown utility family {type(u).__name__}")
        total += p * value
    return total


def dt_value_cdf_form(lot: Lottery, w):
    """Dual-theory value as sum_i x_i (h(F(x_i)) - h(F(x_{i-1})))."""
    acc = Fraction(0) if is_exact(w) else 0.0
    cum = Fraction(0)
    prev_h = eval_h(w, Fraction(0))
    for x, p in canonical_distribution_fraction(lot).states:
        cum += p
        cur_h = eval_h(w, cum)
        acc += x * (cur_h - prev_h)
        prev_h = cur_h
    return acc


def dt_value_survival_loop(lot: Lottery, w):
    """Dual-theory value as sum_i hbar(S(x_{i-1})) (x_i - x_{i-1}), with
    eval_hbar at each Fraction survival level of the merged distribution:
    Fractions for the exact families, floats for the others, and
    DomainError for a float family meeting an outcome beyond float range."""
    acc = Fraction(0) if is_exact(w) else 0.0
    prev_x = Fraction(0)
    surv = Fraction(1)
    for x, p in canonical_distribution_fraction(lot).states:
        if x != prev_x:
            try:
                acc += eval_hbar(w, surv) * (x - prev_x)
            except OverflowError:
                name = type(w).__name__
                raise DomainError(f"{name} values need outcomes within the float range") from None
        surv -= p
        prev_x = x
    return acc


def dt_value_mpmath(lot: Lottery, w, dps: int = 60):
    """Dual-theory value under a TverskyKahneman, Prelec or Power weighting,
    in mpmath at dps digits from the exact states (survival form)."""
    with mpmath.workdps(dps):

        def mpq(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        def h(p):
            if p in (0, 1):
                return mpmath.mpf(p)
            if isinstance(w, TverskyKahneman):
                g = mpmath.mpf(w.gamma)
                return p**g / (p**g + (1 - p) ** g) ** (1 / g)
            if isinstance(w, Power):
                return p ** mpq(w.k)
            assert isinstance(w, Prelec)
            return mpmath.exp(-mpmath.mpf(w.b) * (-mpmath.log(p)) ** mpmath.mpf(w.a))

        acc, prev_x, surv = mpmath.mpf(0), Fraction(0), Fraction(1)
        for x, p in canonical_distribution_fraction(lot).states:
            acc += (1 - h(1 - mpq(surv))) * mpq(x - prev_x)
            surv -= p
            prev_x = x
        return +acc


def dual_moment_survival(lot: Lottery, m: int) -> Fraction:
    """Integral of S(x)^m summed in Fractions over the merged distribution."""
    acc = Fraction(0)
    prev_x = Fraction(0)
    surv = Fraction(1)
    for x, p in canonical_distribution_fraction(lot).states:
        acc += surv**m * (x - prev_x)
        surv -= p
        prev_x = x
    return acc


def dual_moment_weights(n: int, m: int) -> list[Fraction]:
    """Per-state weights of the m-draw expected minimum for n ranked
    equally likely states: weight_i = ((n-i+1)^m - (n-i)^m) / n^m,
    i = 1..n from lowest outcome upward."""
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    return [Fraction((n - i + 1) ** m - (n - i) ** m, n**m) for i in range(1, n + 1)]


def iterated_quantile_per_piece(lot: Lottery, m: int) -> PiecewisePoly:
    """(m-1)-fold antiderivative chain of the quantile function on [0, 1],
    its steps from one quantile() call per piece."""
    cum = [Fraction(0)]
    for p in canonical_distribution_fraction(lot).probabilities:
        cum.append(cum[-1] + p)
    f = step_function(tuple(cum), [quantile(lot, b) for b in cum[1:]])
    for _ in range(m - 1):
        f = antiderivative(f)
    return f


def iterated_cdf_per_point(lot: Lottery, m: int, hi: Fraction):
    """(m-1)-fold antiderivative chain of the CDF on [0, hi], one cdf() call per breakpoint."""
    can = canonical_distribution_fraction(lot)
    pts = sorted({Fraction(0), hi} | {x for x in can.outcomes if 0 < x < hi})
    f = step_function(tuple(pts), [cdf(can, a) for a in pts[:-1]])
    for _ in range(m - 1):
        f = antiderivative(f)
    return f


def pointwise_leq_chain(f: PiecewisePoly, g: PiecewisePoly):
    """(ok, witness) of f <= g, certified piece by piece on g - f; a step
    piece failing at its left end is reported at its right end, where the
    left-continuous difference takes that piece's value."""
    diff = difference(g, f)
    for i, (lo, up, piece) in enumerate(zip(diff.breakpoints, diff.breakpoints[1:], diff.pieces)):
        ok, witness = nonneg_on_interval(list(piece), lo, up)
        if not ok:
            return False, up if (i and witness == lo) else witness
    return True, None


def dual_gates_reference(a: Lottery, b: Lottery, m: int) -> str | None:
    """The first of the degree-m dual gates that b fails against a, by
    comparing Fractions: "mean", or "dual_moment_k" for the first k in
    2..m-1 where a's survival-loop dual moment is above b's; None when
    every gate passes."""
    if m >= 2 and mean(a) > mean(b):
        return "mean"
    for k in range(2, m):
        if dual_moment_survival(a, k) > dual_moment_survival(b, k):
            return f"dual_moment_{k}"
    return None


def dual_sd_rebuild(a: Lottery, b: Lottery, m: int):
    """(holds, failed_condition, witness) of m-th degree dual dominance of b
    over a, with the iterated quantiles from the antiderivative chain."""
    gate = dual_gates_reference(a, b, m)
    if gate is not None:
        return False, gate, None
    ok, witness = pointwise_leq_chain(iterated_quantile_per_piece(a, m), iterated_quantile_per_piece(b, m))
    return (True, None, None) if ok else (False, "iterated_quantile", witness)


def primal_sd_rebuild(a: Lottery, b: Lottery, m: int, ekern: bool = False):
    """(holds, failed_condition, witness) of m-th degree primal dominance of
    b over a, with every iterated CDF rebuilt from its step CDF."""
    if ekern:
        for k in range(1, m):
            if raw_moment(a, k) != raw_moment(b, k):
                return False, f"raw_moment_{k}", None
    hi = max(max(a.outcomes), max(b.outcomes))
    if hi == 0:
        return True, None, None
    if not ekern:
        for k in range(2, m):
            if iterated_cdf_per_point(b, k, hi)(hi) > iterated_cdf_per_point(a, k, hi)(hi):
                return False, f"endpoint_{k}", None
    ok, witness = pointwise_leq_chain(iterated_cdf_per_point(b, m, hi), iterated_cdf_per_point(a, m, hi))
    return (True, None, None) if ok else (False, "iterated_cdf", witness)


# ---------------------------------------------------------------------------
# Sturm chain over Fractions: the reference for polyops.isolate_roots and
# polyops.sign_profile, which must return the same intervals and witnesses


def pzero(c: Poly) -> bool:
    return all(a == 0 for a in c)


def pdegree(c: Poly) -> int:
    c = ptrim(c)
    return len(c) - 1 if not pzero(c) else -1


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a, b = ptrim(a), ptrim(b)
    if pzero(b):
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and not pzero(r):
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(b)
        coef = r[-1] / b[-1]
        q[k] = coef
        for i, bc in enumerate(b):
            r[i + k] -= coef * bc
        r.pop()
    return ptrim(q), ptrim(r if r else [Fraction(0)])


def pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm."""
    a, b = ptrim(a), ptrim(b)
    while not pzero(b):
        _, r = pdivmod(a, b)
        a, b = b, r
    if pzero(a):
        return [Fraction(0)]
    return pscale(a, 1 / a[-1])


def psquarefree(c: Poly) -> Poly:
    """Squarefree part c / gcd(c, c'); same distinct roots, all simple."""
    c = ptrim(c)
    if pdegree(c) <= 1:
        return c
    g = pgcd(c, pderiv(c))
    if pdegree(g) <= 0:
        return c
    q, _ = pdivmod(c, g)
    return q


def pdeflate(c: Poly, r: Fraction) -> Poly:
    """Divide by (x - r); r must be a root."""
    q, rem = pdivmod(c, [-r, Fraction(1)])
    assert pzero(rem), "deflation point is not a root"
    return q


def sturm_chain(c: Poly) -> list[Poly]:
    chain = [ptrim(c), pderiv(c)]
    while not pzero(chain[-1]):
        _, r = pdivmod(chain[-2], chain[-1])
        chain.append([-x for x in r])
    chain.pop()
    return chain


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = peval(p, x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    return _variations(chain, a) - _variations(chain, b)


def _nonroot_between(s: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    num, den = 1, 2
    while True:
        x = lo + (hi - lo) * Fraction(num, den)
        if peval(s, x) != 0:
            return x
        num = num * 2 + 1
        den *= 2


def isolate_roots_fraction(c: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """One open interval per distinct root of c in (a, b), by the Fraction chain."""
    s = psquarefree(c)
    if pdegree(s) <= 0:
        return []
    if peval(s, a) == 0:
        s = pdeflate(s, a)
    if peval(s, b) == 0:
        s = pdeflate(s, b)
    if pdegree(s) <= 0:
        return []
    chain = sturm_chain(s)
    out = []
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = count_roots(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = _nonroot_between(s, lo, hi)
        stack.append((mid, hi))
        stack.append((lo, mid))
    out.sort()
    shrunk = []
    for lo, hi in out:
        while lo <= a or hi >= b:
            mid = _nonroot_between(s, lo, hi)
            if count_roots(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        shrunk.append((lo, hi))
    return shrunk


def sign_profile_fraction(c: Poly, a: Fraction, b: Fraction):
    """(has_pos, has_neg, pos_witness, neg_witness) of c on [a, b], by the Fraction chain."""
    c = ptrim(c)
    if pzero(c):
        return (False, False, None, None)
    points = [a, b]
    prev_hi = a
    for lo, hi in isolate_roots_fraction(c, a, b):
        points.append(prev_hi + (lo - prev_hi) / 2 if prev_hi < lo else prev_hi)
        prev_hi = hi
    points.append(prev_hi + (b - prev_hi) / 2 if prev_hi < b else prev_hi)
    has_pos = has_neg = False
    pos_w = neg_w = None
    for x in points:
        v = peval(c, x)
        if v > 0 and not has_pos:
            has_pos, pos_w = True, x
        elif v < 0 and not has_neg:
            has_neg, neg_w = True, x
        if has_pos and has_neg:
            break
    return (has_pos, has_neg, pos_w, neg_w)


# ---------------------------------------------------------------------------
# Difference scans window by window: the certificate over every step, the
# draw's aligned-window rule and the witness search, each evaluating h
# afresh per window through finite_difference, where the library reads
# one evaluated grid at unit step


def finite_difference(w, m: int, p, s):
    """One m-th forward difference of h at start p with step s."""
    if s < 0 or p < 0 or p + m * s > 1:
        raise DomainError(f"difference window [{p}, {p + m * s}] leaves [0, 1]")
    return sum((-1) ** (m - k) * math.comb(m, k) * eval_h(w, p + k * s) for k in range(m + 1))


def finite_difference_sign_all_steps(w, m: int, grid_count: int) -> SignCertificate:
    """Sign certificate over every start i/G and step j/G (j >= 1) with
    i/G + m j/G <= 1, steps ascending, starts ascending within a step,
    stopping once both signs are seen."""
    pos = neg = None
    windows = ((i, j) for j in range(1, grid_count // m + 1) for i in range(grid_count - m * j + 1))
    for i, j in windows:
        d = finite_difference(w, m, Fraction(i, grid_count), Fraction(j, grid_count))
        if d > 0 and pos is None:
            pos = SignWitness(Fraction(i, grid_count), Fraction(j, grid_count), d)
        elif d < 0 and neg is None:
            neg = SignWitness(Fraction(i, grid_count), Fraction(j, grid_count), d)
        if pos and neg:
            break
    return SignCertificate(m, pos, neg)


def aligned_windows_mixed(w, m: int, k: int) -> bool:
    """True when the step-1/K windows at starts j/K show both signs."""
    diffs = [finite_difference(w, m, Fraction(j, k), Fraction(1, k)) for j in range(k - m + 1)]
    return any(d > 0 for d in diffs) and any(d < 0 for d in diffs)


def converse_witness_windows(w, m: int, grid_count: int):
    """(n, j, window) of the first wrong-sign window Delta^m_{1/n} h(j/n),
    n running over the divisors of G from max(m, 2) up."""
    for n in range(max(m, 2), grid_count + 1):
        if grid_count % n:
            continue
        for j in range(n - m + 1):
            d = finite_difference(w, m, Fraction(j, n), Fraction(1, n))
            if (d < 0) if m % 2 == 1 else (d > 0):
                return n, j, d
    return None


# ---------------------------------------------------------------------------
# h, h' and the self-protection closed forms, call by call: every family's
# and effort model's float formula written out at the point, Fractions
# taken to float where they meet a float


def _check_power_reference(order, bits: int) -> None:
    if order * bits > 1 << 20:
        raise DomainError(
            f"order too large for an exact value: its powers would need more than {1 << 20} bits"
        )


def _tk_reference(g: float, x: float) -> float:
    if x == 0.0 or x == 1.0:
        return x
    num = x**g
    return num / (num + (1 - x) ** g) ** (1 / g)


def _prelec_reference(a: float, b: float, x: float) -> float:
    if x == 0.0 or x == 1.0:
        return x
    return math.exp(-b * (-math.log(x)) ** a)


def _central_difference_reference(w, x: float) -> float:
    lo, hi = max(0.0, x - 1e-6), min(1.0, x + 1e-6)
    return (eval_h_reference(w, hi) - eval_h_reference(w, lo)) / (hi - lo)


def eval_h_reference(w, p):
    """h(p): exact on Fraction and int points of the exact families, floats otherwise."""
    if p < 0 or p > 1:
        raise DomainError(f"weighting argument must lie in [0, 1], got {p}")
    bits = 1 if isinstance(p, float) else p.denominator.bit_length()
    try:
        match w:
            case Identity():
                return p
            case Quadratic(beta=b):
                return (1 + b) * p - b * p * p
            case Power(k=k) if k.denominator == 1:
                _check_power_reference(k.numerator, bits)
                return p**k.numerator
            case Power(k=k):
                _check_power_reference(k, 1)
                return float(p) ** float(k)
            case DualPower(m=m):
                _check_power_reference(m, bits)
                return 1 - (1 - p) ** m
            case TverskyKahneman(gamma=g):
                return _tk_reference(g, float(p))
            case Prelec(a=a, b=b):
                return _prelec_reference(a, b, float(p))
            case Tabulated(knots=knots):
                return interp_linear_scan(knots, p)
            case Polynomial(coeffs=coeffs):
                return peval(list(coeffs), p)
    except OverflowError:
        raise DomainError(f"weighting {format_weighting(w)} overflows a float at p = {p}") from None


def eval_h_prime_reference(w, p):
    """h'(p), analytic except Tabulated (central difference) and the
    transcendental families at 0 and 1."""
    if p < 0 or p > 1:
        raise DomainError(f"weighting argument must lie in [0, 1], got {p}")
    bits = 1 if isinstance(p, float) else p.denominator.bit_length()
    try:
        match w:
            case Identity():
                return 1.0 if isinstance(p, float) else Fraction(1)
            case Quadratic(beta=b):
                return 1 + b - 2 * b * p
            case Power(k=k) if k.denominator == 1:
                n = k.numerator
                _check_power_reference(n, bits)
                return n * p ** (n - 1) if n > 1 else (p**0) * n
            case Power(k=k):
                _check_power_reference(k, 1)
                if p == 0 and k < 1:
                    raise DomainError(f"power k={k} has an unbounded derivative at p = 0")
                return float(k) * float(p) ** (float(k) - 1.0)
            case DualPower(m=m):
                _check_power_reference(m, bits)
                return m * (1 - p) ** (m - 1)
            case Polynomial(coeffs=coeffs):
                return peval(pderiv(list(coeffs)), p)
            case TverskyKahneman(gamma=g):
                x = float(p)
                if x <= 0.0 or x >= 1.0:
                    return _central_difference_reference(w, x)
                num = x**g
                d = num + (1 - x) ** g
                return num / d ** (1 / g) * (g / x - (x ** (g - 1) - (1 - x) ** (g - 1)) / d)
            case Prelec(a=a, b=b):
                x = float(p)
                if x <= 0.0 or x >= 1.0:
                    return _central_difference_reference(w, x)
                t = -math.log(x)
                return math.exp(-b * t**a) * a * b * t ** (a - 1) / x
            case Tabulated():
                return _central_difference_reference(w, float(p))
    except OverflowError:
        raise DomainError(f"weighting {format_weighting(w)} overflows a float at p = {p}") from None


def loss_probability_reference(model, e):
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi):
            return min(hi, max(lo, p0 - k * e))
        case ExponentialEffort(p0=p0, k=k):
            return float(p0) * math.exp(-float(k) * float(e))
        case PowerLawEffort(p0=p0, c=c, gamma=g):
            return float(p0) * (1 + float(c) * float(e)) ** (-float(g))


def loss_probability_slope_reference(model, e):
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi):
            return Fraction(0) if not lo < p0 - k * e < hi else -k
        case ExponentialEffort(k=k):
            return -float(k) * loss_probability_reference(model, e)
        case PowerLawEffort(c=c, gamma=g):
            return -float(g) * float(c) * loss_probability_reference(model, e) / (1 + float(c) * float(e))


def sp_value_reference(sp, e, w):
    """The closed-form value of each regime (no background risk, 2 eps <
    loss, 2 eps > loss), summed left to right as sp_value sums it."""
    p = loss_probability_reference(sp.effort_model, e)
    h = partial(eval_h_reference, w)
    base, eps2, loss = sp.w0 + sp.epsilon, 2 * sp.epsilon, sp.loss
    if sp.epsilon == 0:
        return base - e - h(p) * loss
    if eps2 < loss:
        return base - e - eps2 * h(p / 2) - (loss - eps2) * h(p) - eps2 * h((1 + p) / 2)
    return base - e - loss * h(p / 2) - (eps2 - loss) * h(Fraction(1, 2)) - loss * h((1 + p) / 2)


def background_shift_reference(w, p):
    hp = partial(eval_h_prime_reference, w)
    return -hp(p / 2) + 2 * hp(p) - hp((1 + p) / 2)


def sp_foc_lhs_reference(sp, e, w):
    """The closed-form first-order condition of each regime, as sp_foc_lhs sums it."""
    p = loss_probability_reference(sp.effort_model, e)
    dp = loss_probability_slope_reference(sp.effort_model, e)
    hp = partial(eval_h_prime_reference, w)
    if sp.epsilon == 0:
        return -1 * dp * hp(p) * sp.loss - 1
    if 2 * sp.epsilon < sp.loss:
        return dp * sp.epsilon * background_shift_reference(w, p) - dp * hp(p) * sp.loss - 1
    return Fraction(-1, 2) * dp * sp.loss * (hp(p / 2) + hp((1 + p) / 2)) - 1


# ---------------------------------------------------------------------------
# Self-protection solved point by point through the closed forms


def _golden_max_reference(f, lo: float, hi: float) -> float:
    golden = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = f(d)
    return (a + b) / 2


def sp_solve_reference(sp, w) -> SPSolution:
    """Grid of 256 cells, golden section, first-order-condition bisection
    and the bound check, every point through float(sp_value_reference)
    and float(sp_foc_lhs_reference)."""

    def value(e):
        return float(sp_value_reference(sp, e, w))

    def slope(e):
        return float(sp_foc_lhs_reference(sp, e, w))

    lo, hi = float(sp.effort_bounds[0]), float(sp.effort_bounds[1])
    grid = 256
    es = [lo + i * ((hi - lo) / grid) for i in range(grid + 1)]
    vs = [value(e) for e in es]
    scale = max(1.0, max(abs(v) for v in vs))
    concave = all(vs[i + 1] - vs[i] <= vs[i] - vs[i - 1] + 1e-9 * scale for i in range(1, grid))
    best = max(range(grid + 1), key=lambda i: vs[i])
    a, b = es[max(best - 1, 0)], es[min(best + 1, grid)]
    e_star = _golden_max_reference(value, a, b)
    sign_change = slope(lo) > 0 > slope(hi)
    if slope(a) > 0 > slope(b):
        while (a + b) / 2 not in (a, b):
            mid = (a + b) / 2
            a, b = (mid, b) if slope(mid) > 0 else (a, mid)
        if value((a + b) / 2) >= value(e_star) - 1e-12 * scale:
            e_star = (a + b) / 2
    for bound, held in ((lo, best <= 1), (hi, best >= grid - 1)):
        if held and value(bound) >= value(e_star):
            e_star = bound
    tol = (hi - lo) * 1e-9
    at_bound = "lower" if e_star - lo <= tol else "upper" if hi - e_star <= tol else None
    p_at_opt = float(loss_probability_reference(sp.effort_model, e_star))
    diag = SPDiagnostics(at_bound, concave, sign_change, p_at_opt)
    return SPSolution(e_star, value(e_star), diag)


def sp_background_effect_reference(sp, w) -> tuple[BackgroundEffectReport, str]:
    """The background report from the reference solver, and the direction
    its two efforts give: "more" or "less" past 1e-9 times the larger of 1
    and |e_without|, "none" within it."""
    with_bg = sp_solve_reference(sp, w)
    without = sp_solve_reference(replace(sp, epsilon=Fraction(0)), w)
    gap = with_bg.e_star - without.e_star
    tol = 1e-9 * max(1.0, abs(without.e_star))
    p_opt = without.diagnostics.p_at_opt
    report = BackgroundEffectReport(
        solution=with_bg,
        without=without,
        shift_at_half=background_shift_reference(w, Fraction(1, 2)),
        shift_at_opt=float(background_shift_reference(w, p_opt)),
    )
    return report, "more" if gap > tol else "less" if gap < -tol else "none"
