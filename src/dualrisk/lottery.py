"""Finite-outcome lotteries with exact rational states.

A Lottery is a finite list of (outcome, probability) states, sorted by
outcome, with non-negative outcomes and strictly positive probabilities
summing to one. States with equal outcomes are kept distinct: the ranked
state list is what squeeze and block operations act on, and questions
about the distribution itself go through canonical_distribution.

A Lottery stores one form of its states, whichever constructor built
it: the outcome numerators over their lcm denominator and the
probability numerators over theirs, reduced (Lottery._ints). States,
outcomes and probabilities are Fractions read off it when first asked
for; equality and hash read the form itself. make_lottery and
parse_lottery_text build it while they check the states, through one
integer tail (_ranked), so the unit-mass check and the stable sort by
outcome run in ints, and outcomes that already rise are not sorted. The
parser reads each line once, in one loop: it strips comments only from
a text that holds a '#', and reads plain ASCII literals p and p/q
straight into ints inline, with no call and no Fraction per literal.
_jumps reads the survival step function off the form, the one form
every dual quantity reads, and _support the merged support off that,
for canonical_distribution and the primal CDF.

An EqualProbLottery is a Lottery of n equally likely states, the carrier
of the block operations, which build their members from ints alone
(_equal_prob).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress
from math import gcd, lcm
from operator import le, mul, sub

from .errors import (
    DomainError,
    FormatError,
    NegativeOutcome,
    NonPositiveProbability,
    NonUnitMass,
    RankViolation,
)
from .rationals import _common_denominator, _quoted, format_exact, rat


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Lottery:
    """Ranked finite lottery; built directly, the states must come ranked.
    It stores only its reduced integer form, and equality and hash read
    it: two lotteries are equal exactly when their ranked states are,
    whatever their class."""

    _ints: tuple[list[int], int, list[int], int]  # (xs, xd, ps, pd): state i is (xs[i]/xd, ps[i]/pd)

    def __init__(self, states):
        xs, xd = _common_denominator([x for x, _ in states])
        ps, pd = _common_denominator([p for _, p in states])
        _check_ranked(xs, xd)
        if sum(ps) != pd:
            raise NonUnitMass(f"probabilities sum to {Fraction(sum(ps), pd)}, not 1")
        if min(ps) <= 0:
            raise NonPositiveProbability(f"probability {Fraction(min(ps), pd)} is not positive")
        self.__dict__["_ints"] = xs, xd, ps, pd

    @classmethod
    def _trusted(cls, ints):
        """A cls lottery with integer form ints, as the caller checked and reduced them."""
        lot = object.__new__(cls)
        lot.__dict__["_ints"] = ints
        return lot

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(states={self.states!r})"

    def __eq__(self, other):
        return self._ints == other._ints if isinstance(other, Lottery) else NotImplemented

    def __hash__(self) -> int:
        xs, xd, ps, pd = self._ints
        return hash((tuple(xs), xd, tuple(ps), pd))

    @cached_property
    def outcomes(self) -> tuple[Fraction, ...]:
        xs, xd = self._ints[:2]
        return tuple(Fraction(a, xd) for a in xs)

    @cached_property
    def probabilities(self) -> tuple[Fraction, ...]:
        ps, pd = self._ints[2:]
        return tuple(Fraction(p, pd) for p in ps)

    @cached_property
    def states(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.outcomes, self.probabilities))

    def __len__(self) -> int:
        return len(self._ints[0])


@dataclass(frozen=True, init=False, repr=False, eq=False)
class EqualProbLottery(Lottery):
    """n equally likely ranked states; the carrier for block operations. Its
    integer form is (xs, xd, [1] * n, n), xs over xd reduced."""

    def __init__(self, outcomes):
        xs, xd = _common_denominator([rat(x) for x in outcomes])
        if not xs:
            raise DomainError("an equal-probability lottery needs at least one outcome")
        _check_ranked(xs, xd)
        self.__dict__["_ints"] = xs, xd, [1] * len(xs), len(xs)

    @property
    def n(self) -> int:
        return len(self)


def _check_ranked(xs: list[int], xd: int) -> None:
    """The constructors' sign and ranking checks on the outcomes xs[i]/xd."""
    if all(map(le, [0, *xs], xs)):
        return
    for i, a in enumerate(xs):
        if a < 0:
            raise NegativeOutcome(f"outcome {Fraction(a, xd)} at state {i} is negative")
        if i and a < xs[i - 1]:
            x, prev = Fraction(a, xd), Fraction(xs[i - 1], xd)
            raise RankViolation(f"outcomes must be non-decreasing; state {i} has {x} after {prev}")


def _equal_prob(xs: list[int], xd: int) -> EqualProbLottery:
    """The EqualProbLottery of the outcomes xs[i]/xd (xd > 0), checked as the
    constructor checks them, with their reduced form as its _ints."""
    _check_ranked(xs, xd)
    xs, xd = _reduced(xs, xd)
    return EqualProbLottery._trusted((xs, xd, [1] * len(xs), len(xs)))


def _reduced(nums: Sequence[int], d: int) -> tuple[Sequence[int], int]:
    """The numerators nums over d (d > 0) divided by gcd(d, *nums)."""
    g = gcd(d, *nums)
    return ([a // g for a in nums], d // g) if g > 1 else (nums, d)


def _ranked(states: list[tuple[int, int, int, int]]) -> Lottery:
    """The Lottery of sign-checked states (x, xd, p, pd): outcome x/xd with
    probability p/pd, positive denominators, either fraction unreduced.

    Each column goes over the lcm of its denominators and is reduced once,
    by the gcd of that lcm and its numerators: the form _common_denominator
    gives for the reduced Fractions. The unit-mass check and the stable
    sort by outcome then run in ints; outcomes that already rise skip the
    sort, which would keep their order.
    """
    if not states:
        raise NonUnitMass("a lottery needs at least one state")
    xs, xds, ps, pds = zip(*states)
    xd, pd = lcm(*xds), lcm(*pds)
    xs, xd = _reduced([x * (xd // q) for x, q in zip(xs, xds)] if xd > 1 else list(xs), xd)
    ps, pd = _reduced([p * (pd // q) for p, q in zip(ps, pds)] if pd > 1 else list(ps), pd)
    total = sum(ps)
    if total != pd:
        raise NonUnitMass(f"probabilities sum to {Fraction(total, pd)}, not 1")
    if all(map(le, xs, xs[1:])):
        return Lottery._trusted((xs, xd, ps, pd))
    order = sorted(range(len(xs)), key=xs.__getitem__)
    return Lottery._trusted(([xs[i] for i in order], xd, [ps[i] for i in order], pd))


def make_lottery(pairs) -> Lottery:
    """Build a ranked Lottery from (outcome, probability) pairs.

    Outcomes and probabilities may be ints, Fractions, or rational strings.
    Pairs are sorted by outcome (stable, so equal outcomes keep input
    order); probabilities must be positive and sum to exactly one.
    """
    states = []
    for outcome, prob in pairs:
        x, p = rat(outcome), rat(prob)
        if x.numerator < 0:
            raise NegativeOutcome(f"outcome {x} is negative")
        if p.numerator <= 0:
            raise NonPositiveProbability(f"probability {p} for outcome {x} is not positive")
        states.append((x.numerator, x.denominator, p.numerator, p.denominator))
    return _ranked(states)


def equal_prob_from_lottery(lot: Lottery) -> EqualProbLottery:
    """Reinterpret a lottery with uniform state probabilities as ranked states.

    Its positive probability numerators sum to pd, their lcm denominator,
    so they are all 1 exactly when pd is the state count.
    """
    if lot._ints[3] != len(lot):
        raise DomainError("lottery does not have equal state probabilities")
    return EqualProbLottery._trusted(lot._ints)


def _jumps(lot) -> tuple[list[tuple[int, int]], int, int, int]:
    """The survival step function in the lottery's integer form.

    Returns (jumps, d, xd, top). jumps holds (c, step) for each distinct
    outcome x_i above x_{i-1} (x_0 = 0): c/d = F(x_{i-1}) is the CDF below
    it, so d - c counts the survival level, and step/xd = x_i - x_{i-1}.
    Ties and a state at 0 add no step. The steps add up to top/xd, the
    largest outcome.
    """
    xs, xd, ps, d = lot._ints
    steps = list(map(sub, xs, chain((0,), xs)))
    return list(compress(zip(accumulate(ps, initial=0), steps), steps)), d, xd, xs[-1]


def _support(jumps, d: int) -> tuple[list[int], list[int]]:
    """(xs, ps): the distinct outcomes of a jump list over its xd (0 and the
    running sums of the steps) and their masses over d (the differences of
    the CDF counts around them, d above the top); a massless 0 is dropped."""
    cs = [c for c, _ in jumps]
    xs = list(accumulate((step for _, step in jumps), initial=0))
    ps = list(map(sub, cs + [d], [0] + cs))
    return (xs, ps) if ps[0] else (xs[1:], ps[1:])


def canonical_distribution(lot: Lottery) -> Lottery:
    """Merge states with equal outcomes; the distribution itself. The result
    carries the merged support of the jump list (_support) as its integer form."""
    jumps, pd, xd, _ = _jumps(lot)
    xs, ps = _support(jumps, pd)
    if len(xs) == len(lot):
        return lot
    ps, pd = _reduced(ps, pd)
    return Lottery._trusted((xs, xd, ps, pd))


def mean(lot: Lottery) -> Fraction:
    xs, xd, ps, pd = lot._ints
    return Fraction(sum(map(mul, xs, ps)), pd * xd)


def parse_lottery_text(text: str, source: str | None = None) -> Lottery:
    """Parse the one-state-per-line lottery format.

    Each non-blank line is "<outcome> <probability>"; both entries are
    rational literals ("5/12", "0.25", "3"). Anything after '#' is a
    comment. Errors carry the 1-based line number.

    A plain ASCII literal p or p/q (q != 0) is read straight into ints;
    every other spelling (decimals, exponents, signs, underscores,
    non-ASCII digits, p/0, literals past the int digit limit) goes
    through rat.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    ascii = text.isascii()
    states = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if len(fields) != 2:
            if not fields:
                continue
            raw = text.splitlines()[lineno - 1].strip()
            raise FormatError(f"expected '<outcome> <probability>', got {_quoted(raw)}", line=lineno, source=source)
        state = []
        for token in fields:
            num, slash, den = token.partition("/")
            try:
                if num.isdigit() and (ascii or token.isascii()) and (not slash or den.isdigit() and (q := int(den))):
                    state += int(num), q if slash else 1
                    continue
            except ValueError:  # past the int digit limit: rat decides
                pass
            try:
                value = rat(token)
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno, source=source) from None
            state += value.numerator, value.denominator
        x, xd, p, pd = state
        if x < 0:
            raise FormatError(f"outcome {Fraction(x, xd)} is negative", line=lineno, source=source)
        if p <= 0:
            raise FormatError(f"probability {Fraction(p, pd)} is not positive", line=lineno, source=source)
        states.append(state)
    if not states:
        raise FormatError("no states found", source=source)
    return _ranked(states)


def format_lottery_text(lot: Lottery) -> str:
    """Inverse of parse_lottery_text (round-trips exactly)."""
    lines = [f"{format_exact(x)} {format_exact(p)}" for x, p in lot.states]
    return "\n".join(lines) + "\n"
