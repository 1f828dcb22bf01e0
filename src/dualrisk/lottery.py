"""Finite-outcome lotteries with exact rational states.

A Lottery is a finite list of (outcome, probability) states, sorted by
outcome, with non-negative outcomes and strictly positive probabilities
summing to one. States with equal outcomes are kept distinct: the ranked
state list is what squeeze and block operations act on, and questions
about the distribution itself go through canonical_distribution.

Lottery and EqualProbLottery also carry one integer form of their
states, built at most once per object: the outcome numerators over
their lcm denominator and the probability numerators over theirs.
make_lottery and parse_lottery_text build it while they check the
states, so the sign checks, the unit-mass check and the stable sort by
outcome run in ints; mean, raw_moment, primal_moment and the survival
sweep of the valuation module read it. canonical_distribution merges
ties on that form and hands the merged form on with its result, and the
dominance checks build their jump lists from the same merge.

The block operations of the apportionment module build their
EqualProbLottery members from integer outcomes through _equal_prob,
which runs the constructor's sign and ranking checks on those ints and
keeps their reduced form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import le, lt, mul

from .errors import (
    DomainError,
    FormatError,
    NegativeOutcome,
    NonPositiveProbability,
    NonUnitMass,
    RankViolation,
)
from .rationals import _common_denominator, format_exact, rat


@dataclass(frozen=True)
class Lottery:
    """Ranked finite lottery; build through make_lottery."""

    states: tuple[tuple[Fraction, Fraction], ...]

    @property
    def outcomes(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.states)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.states)

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def _ints(self) -> tuple[list[int], int, list[int], int]:
        """(xs, xd, ps, pd): state i has outcome xs[i]/xd and probability ps[i]/pd."""
        xs, xd = _common_denominator([x for x, _ in self.states])
        ps, pd = _common_denominator([p for _, p in self.states])
        return xs, xd, ps, pd


def _with_ints(states, ints) -> Lottery:
    lot = Lottery(states)
    lot.__dict__["_ints"] = ints
    return lot


@dataclass(frozen=True)
class EqualProbLottery:
    """n equally likely ranked states; the carrier for block operations."""

    n: int
    outcomes: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.outcomes) != self.n:
            raise DomainError(f"need n >= 1 outcomes, got n={self.n}, {len(self.outcomes)} outcomes")
        outcomes = tuple(rat(x) for x in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        xs, xd = _common_denominator(outcomes)
        _check_ranked(xs, outcomes)
        object.__setattr__(self, "_ints", (xs, xd, [1] * self.n, self.n))

    def to_lottery(self) -> Lottery:
        p = Fraction(1, self.n)
        return _with_ints(tuple((x, p) for x in self.outcomes), self._ints)


def _check_ranked(xs: list[int], outcomes: tuple[Fraction, ...]) -> None:
    """EqualProbLottery's sign and ranking checks, run on the numerators xs
    of its outcomes over one denominator."""
    if xs[0] >= 0 and all(map(le, xs, xs[1:])):
        return
    for i, a in enumerate(xs):
        if a < 0:
            raise NegativeOutcome(f"outcome {outcomes[i]} at state {i} is negative")
        if i and a < xs[i - 1]:
            raise RankViolation(
                f"outcomes must be non-decreasing; state {i} has {outcomes[i]} after {outcomes[i-1]}"
            )


def _equal_prob(xs: list[int], xd: int, outcomes: tuple[Fraction, ...]) -> EqualProbLottery:
    """The EqualProbLottery of the outcomes xs[i]/xd (xd > 0), which the
    caller also passes as Fractions: the constructor's checks run in ints,
    and the lottery keeps the reduced form of xs over xd as its _ints."""
    _check_ranked(xs, outcomes)
    g = gcd(xd, *xs)
    if g > 1:
        xs, xd = [a // g for a in xs], xd // g
    lot = object.__new__(EqualProbLottery)
    object.__setattr__(lot, "n", len(xs))
    object.__setattr__(lot, "outcomes", outcomes)
    object.__setattr__(lot, "_ints", (xs, xd, [1] * len(xs), len(xs)))
    return lot


def _ranked(states: list[tuple[Fraction, Fraction]]) -> Lottery:
    """The Lottery of sign-checked (outcome, probability) states, with its
    integer form: the unit-mass check and the stable sort by outcome in ints."""
    if not states:
        raise NonUnitMass("a lottery needs at least one state")
    xs, xd = _common_denominator([x for x, _ in states])
    ps, pd = _common_denominator([p for _, p in states])
    total = sum(ps)
    if total != pd:
        raise NonUnitMass(f"probabilities sum to {Fraction(total, pd)}, not 1")
    order = sorted(range(len(states)), key=xs.__getitem__)
    return _with_ints(
        tuple(states[i] for i in order), ([xs[i] for i in order], xd, [ps[i] for i in order], pd)
    )


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
        states.append((x, p))
    return _ranked(states)


def equal_prob_from_lottery(lot: Lottery) -> EqualProbLottery:
    """Reinterpret a lottery with uniform state probabilities as ranked states."""
    n = len(lot)
    p = Fraction(1, n)
    if any(q != p for q in lot.probabilities):
        raise DomainError("lottery does not have equal state probabilities")
    return EqualProbLottery(n, lot.outcomes)


def as_distribution(obj) -> Lottery:
    """Coerce Lottery | EqualProbLottery to a Lottery."""
    return obj.to_lottery() if isinstance(obj, EqualProbLottery) else obj


def _merged(lot) -> tuple[list[int], int, list[int], int]:
    """The integer form with ties merged: (xs, xd, ps, pd) with xs strictly
    increasing and ps[i]/pd the total probability of outcome xs[i]/xd.

    Without ties these are the lottery's own lists; callers do not mutate them.
    """
    xs, xd, ps, pd = lot._ints
    if all(map(lt, xs, xs[1:])):
        return xs, xd, ps, pd
    ux, up = [xs[0]], [ps[0]]
    for x, p in zip(xs[1:], ps[1:]):
        if x == ux[-1]:
            up[-1] += p
        else:
            ux.append(x)
            up.append(p)
    return ux, xd, up, pd


def canonical_distribution(lot: Lottery) -> Lottery:
    """Merge states with equal outcomes; the distribution itself.

    The ties merge on the integer form, which the result carries (its
    probability numerators over their lcm denominator)."""
    lot = as_distribution(lot)
    xs, xd, ps, pd = _merged(lot)
    if len(xs) == len(lot.states):
        return lot
    g = gcd(pd, *ps)
    ps, pd = [p // g for p in ps], pd // g
    states = tuple((Fraction(x, xd), Fraction(p, pd)) for x, p in zip(xs, ps))
    return _with_ints(states, (xs, xd, ps, pd))


def mean(lot: Lottery) -> Fraction:
    xs, xd, ps, pd = lot._ints
    return Fraction(sum(map(mul, xs, ps)), pd * xd)


def _literal(token: str) -> Fraction:
    """rat(token); plain ASCII digit literals p and p/q (q != 0) go straight to ints."""
    num, slash, den = token.partition("/")
    try:
        if num.isascii() and num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and (q := int(den)):
                return Fraction(int(num), q)
    except ValueError:  # past the int string-conversion limit: rat decides
        pass
    return rat(token)


def parse_lottery_text(text: str, source: str | None = None) -> Lottery:
    """Parse the one-state-per-line lottery format.

    Each non-blank line is "<outcome> <probability>"; both entries are
    rational literals ("5/12", "0.25", "3"). Anything after '#' is a
    comment. Errors carry the 1-based line number.
    """
    states = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(
                f"expected '<outcome> <probability>', got {raw.strip()!r}",
                line=lineno,
                source=source,
            )
        try:
            x, p = _literal(fields[0]), _literal(fields[1])
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno, source=source) from None
        if x.numerator < 0:
            raise FormatError(f"outcome {x} is negative", line=lineno, source=source)
        if p.numerator <= 0:
            raise FormatError(f"probability {p} is not positive", line=lineno, source=source)
        states.append((x, p))
    if not states:
        raise FormatError("no states found", source=source)
    return _ranked(states)


def format_lottery_text(lot: Lottery) -> str:
    """Inverse of parse_lottery_text (round-trips exactly)."""
    lines = [f"{format_exact(x)} {format_exact(p)}" for x, p in lot.states]
    return "\n".join(lines) + "\n"
