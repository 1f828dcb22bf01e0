"""Finite-outcome lotteries with exact rational states.

A Lottery is a finite list of (outcome, probability) states, sorted by
outcome, with non-negative outcomes and strictly positive probabilities
summing to one. States with equal outcomes are kept distinct: the ranked
state list is what squeeze and block operations act on, and questions
about the distribution itself go through canonical_distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainError,
    FormatError,
    NegativeOutcome,
    NonPositiveProbability,
    NonUnitMass,
    RankViolation,
)
from .rationals import format_exact, rat


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


@dataclass(frozen=True)
class EqualProbLottery:
    """n equally likely ranked states; the carrier for block operations."""

    n: int
    outcomes: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.outcomes) != self.n:
            raise DomainError(f"need n >= 1 outcomes, got n={self.n}, {len(self.outcomes)} outcomes")
        object.__setattr__(self, "outcomes", tuple(rat(x) for x in self.outcomes))
        for i, x in enumerate(self.outcomes):
            if x < 0:
                raise NegativeOutcome(f"outcome {x} at state {i} is negative")
            if i and x < self.outcomes[i - 1]:
                raise RankViolation(
                    f"outcomes must be non-decreasing; state {i} has {x} after {self.outcomes[i-1]}"
                )

    def to_lottery(self) -> Lottery:
        p = Fraction(1, self.n)
        return Lottery(tuple((x, p) for x in self.outcomes))


def make_lottery(pairs) -> Lottery:
    """Build a ranked Lottery from (outcome, probability) pairs.

    Outcomes and probabilities may be ints, Fractions, or rational strings.
    Pairs are sorted by outcome (stable, so equal outcomes keep input
    order); probabilities must be positive and sum to exactly one.
    """
    states = []
    for outcome, prob in pairs:
        x, p = rat(outcome), rat(prob)
        if x < 0:
            raise NegativeOutcome(f"outcome {x} is negative")
        if p <= 0:
            raise NonPositiveProbability(f"probability {p} for outcome {x} is not positive")
        states.append((x, p))
    if not states:
        raise NonUnitMass("a lottery needs at least one state")
    total = sum(p for _, p in states)
    if total != 1:
        raise NonUnitMass(f"probabilities sum to {total}, not 1")
    states.sort(key=lambda s: s[0])
    return Lottery(tuple(states))


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


def canonical_distribution(lot: Lottery) -> Lottery:
    """Merge states with equal outcomes; the distribution itself."""
    lot = as_distribution(lot)
    merged: list[tuple[Fraction, Fraction]] = []
    for x, p in lot.states:
        if merged and merged[-1][0] == x:
            merged[-1] = (x, merged[-1][1] + p)
        else:
            merged.append((x, p))
    return Lottery(tuple(merged))


def mean(lot: Lottery) -> Fraction:
    return sum((x * p for x, p in as_distribution(lot).states), Fraction(0))


def parse_lottery_text(text: str, source: str | None = None) -> Lottery:
    """Parse the one-state-per-line lottery format.

    Each non-blank line is "<outcome> <probability>"; both entries are
    rational literals ("5/12", "0.25", "3"). Anything after '#' is a
    comment. Errors carry the 1-based line number.
    """
    pairs = []
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
            x, p = rat(fields[0]), rat(fields[1])
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno, source=source) from None
        if x < 0:
            raise FormatError(f"outcome {x} is negative", line=lineno, source=source)
        if p <= 0:
            raise FormatError(f"probability {p} is not positive", line=lineno, source=source)
        pairs.append((x, p))
    if not pairs:
        raise FormatError("no states found", source=source)
    return make_lottery(pairs)


def format_lottery_text(lot: Lottery) -> str:
    """Inverse of parse_lottery_text (round-trips exactly)."""
    lines = [f"{format_exact(x)} {format_exact(p)}" for x, p in lot.states]
    return "\n".join(lines) + "\n"
