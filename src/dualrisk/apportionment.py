"""Squeeze transformations and good/bad increment-block constructions.

A squeeze moves two ranked equal-probability states toward each other by
the same amount, which preserves the mean. Increment blocks generalize
this: the order-2 blocks are a single +delta (good) or -delta (bad)
entry, and an order-m block concatenates an order-(m-1) block with its
exact negation starting at least one state later, increments
accumulating additively where entries land on the same state. Attaching
the good block before the bad one to a base lottery, or the other way
around, yields a pair of lotteries whose first m-1 dual moments agree
exactly; which member of the pair is preferred is decided by the sign of
the m-th derivative of the evaluator's weighting function.

The parsimonious pair keeps the base lottery itself as one member and
applies good and bad blocks with unit amplitude 1/M at adjacent
positions, so only m consecutive states move, by alternating binomial
increments.

Blocks, members and records hold integers only. make_block runs the gap
recursion on integer multiples of delta, and a Block stores its order
and its entries over delta's denominator (Block._ints). attach adds
those to the base's integer outcomes over one common denominator, checks
signs and ranking in ints, and gives the member its reduced integer
form directly (lottery._equal_prob); squeeze is attach with two order-2
blocks. A PairProvenance holds the base and the two blocks themselves,
and its order and M are read off the blocks. Every pair is assembled
from its record (_assemble, public as rebuild_pair), through attach.

C and D have the same n equally likely ranked states and differ only
where the blocks sit, so their value gap under an exact weighting is a
short integer sum over those moved states: the difference of their jump
lists, valued by dt_value's kernels (moved_state_gap). That is how
preference_direction ranks a pair under the exact families, and how
_validate_pair checks its first m-1 dual moments agree.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational

from .errors import (
    BadGapSpec,
    ConstructionInvariantError,
    DomainError,
    FormatError,
    PrecedenceViolation,
)
from .lottery import EqualProbLottery, _equal_prob
from .rationals import _common_denominator, format_exact, rat
from .valuation import _survival_power, _value, dt_value, dual_moment
from .weighting import WeightingSpec, is_exact


@dataclass(frozen=True, init=False, repr=False)
class Block:
    """Signed increment vector on consecutive-state offsets.

    entries are (state_offset, increment) with offsets strictly
    increasing from 0. The sign of the offset-0 increment is the block's
    polarity: positive for a good block, negative for a bad one. A block
    stores its order and one integer form of its entries, _ints: ((offset,
    numerator), ...), den, the increments over their lcm denominator;
    entries is read off it when first asked for, and equality and hash
    read it.
    """

    order: int
    _ints: tuple[tuple[tuple[int, int], ...], int]

    def __init__(self, order: int, entries):
        if not entries or entries[0][0] != 0 or entries[0][1] == 0:
            raise DomainError("a block needs a nonzero increment at offset 0: its sign is the polarity")
        for (o1, _), (o2, _) in zip(entries, entries[1:]):
            if o2 <= o1:
                raise DomainError("block offsets must be strictly increasing")
        nums, den = _common_denominator([rat(v) for _, v in entries])
        self.__dict__.update(order=order, _ints=(tuple(zip([o for o, _ in entries], nums)), den))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(order={self.order!r}, entries={self.entries!r})"

    @cached_property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        ints, den = self._ints
        return tuple((o, Fraction(v, den)) for o, v in ints)

    @property
    def span(self) -> int:
        return self._ints[0][-1][0]


def _gap(g) -> int:
    """A gap entry as an int >= 1: an int or an integral float or Fraction,
    never a bool."""
    if isinstance(g, float):
        whole = g.is_integer()
    else:
        whole = isinstance(g, Rational) and not isinstance(g, bool) and g.denominator == 1
    if not whole or g < 1:
        raise BadGapSpec(f"gaps must be integers >= 1, got {g!r}")
    return int(g)


def make_block(m: int, delta, gaps=None) -> Block:
    """The order-m block of amplitude delta: good for delta > 0, bad (the
    entry-wise negation) for delta < 0, and a DomainError for 0.

    The recursion starts from the single-entry order-2 block (0, delta)
    and at each order k = 3..m appends the negated copy of the current
    block shifted right by gaps[k-3] states (default 1, the minimal strict
    precedence). With all gaps 1 the order-m block is the alternating
    binomial vector binom(m-2, .) * delta on m-1 consecutive states.

    The recursion runs on integer multiples of delta: each gap g turns the
    coefficients c into c minus c shifted right by g, so they are those of
    the product of the factors (1 - z^g). The last one, at offset
    sum(gaps), is +-1, so that is the block's span. The entries are delta
    times the nonzero coefficients.
    """
    if m < 2:
        raise DomainError(f"block order must be >= 2, got {m}")
    delta = rat(delta)
    if delta.numerator == 0:
        raise DomainError("block amplitude must be nonzero, got 0")
    if gaps is None:
        gaps = (1,) * (m - 2)
    gaps = tuple(gaps)
    if len(gaps) != m - 2:
        raise BadGapSpec(f"order {m} needs {m - 2} gap entries, got {len(gaps)}")
    coeffs = [1]
    for g in map(_gap, gaps):
        coeffs = [a - b for a, b in zip(coeffs + [0] * g, [0] * g + coeffs)]
    # coeffs[0] is 1, so the entries' lcm denominator is delta's
    p, q = delta.numerator, delta.denominator
    block = object.__new__(Block)
    block.__dict__.update(order=m, _ints=(tuple((o, p * c) for o, c in enumerate(coeffs) if c), q))
    return block


def attach(
    lot: EqualProbLottery,
    first: Block,
    second: Block,
    pos_first: int,
    pos_second: int,
) -> EqualProbLottery:
    """Add two blocks state-wise to a ranked equal-probability lottery.

    Positions are 1-based states of the block's offset-0 entry. The first
    block must strictly precede the second (overlap of the remaining
    entries is fine; increments accumulate). The outcomes are added in
    ints, over the lcm of the base's and the blocks' denominators, and
    their ranking and non-negativity are checked there, with the lottery
    constructor's errors.
    """
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
    xs, xd = lot._ints[:2]
    den = lcm(xd, first._ints[1], second._ints[1])
    ints = [x * (den // xd) for x in xs]
    for block, pos in ((first, pos_first), (second, pos_second)):
        entries, bd = block._ints
        scale = den // bd
        for o, v in entries:
            ints[pos - 1 + o] += v * scale
    return _equal_prob(ints, den)


def squeeze(lot: EqualProbLottery, i: int, j: int, x) -> EqualProbLottery:
    """Move states i < j toward each other by x >= 0 (mean preserved)."""
    x = rat(x)
    if x < 0:
        raise DomainError(f"squeeze amount must be >= 0, got {x}")
    if not 1 <= i < j <= lot.n:
        raise DomainError(f"need states 1 <= i < j <= {lot.n}, got i={i}, j={j}")
    return attach(lot, make_block(2, x), make_block(2, -x), i, j) if x else lot


@dataclass(frozen=True)
class PairProvenance:
    """Reproducible construction record: the base, the good and the bad
    block, where they sit, and the seed. The blocks must share one order
    and lead with a positive (good) and a negative (bad) increment; a
    record that breaks either is a DomainError when it is made. Its JSON
    also records the order, n (the number of base outcomes) and big_m,
    all three read off the parts."""

    kind: str
    base: EqualProbLottery
    good: Block
    bad: Block
    pos_first: int
    pos_second: int
    seed: int | None = None

    def __post_init__(self):
        if self.good.order != self.bad.order:
            raise DomainError(f"block orders differ: {self.good.order} vs {self.bad.order}")
        if not self.good._ints[0][0][1] > 0 > self.bad._ints[0][0][1]:
            raise DomainError("pass the good block first and the bad block second")

    @property
    def order(self) -> int:
        return self.good.order

    @property
    def big_m(self) -> Fraction | None:
        """M = 1 / the good block's lead increment for a parsimonious
        record; None for any other."""
        if self.kind != "parsimonious":
            return None
        ((_, lead), *_), den = self.good._ints
        return Fraction(den, lead)

    def _payload(self) -> dict:
        """The record as to_json writes it: str, int, None and lists."""
        return {
            "kind": self.kind,
            "order": self.order,
            "n": self.base.n,
            "base_outcomes": [format_exact(x) for x in self.base.outcomes],
            "pos_first": self.pos_first,
            "pos_second": self.pos_second,
            "good_entries": [[o, format_exact(v)] for o, v in self.good.entries],
            "bad_entries": [[o, format_exact(v)] for o, v in self.bad.entries],
            "big_m": None if self.big_m is None else format_exact(self.big_m),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self._payload(), indent=2)

    @staticmethod
    def from_json(text: str) -> "PairProvenance":
        """The record a JSON text holds. Malformed JSON or fields, and a
        big_m other than the one the blocks give, are a FormatError; a base
        or a block its constructor refuses, or a record whose blocks differ
        in order or polarity, raises the constructor's own error."""
        try:
            raw = json.loads(text)
            kind, order, n = _kind(raw), _field(raw, "order", int), _field(raw, "n", int)
            outcomes = [rat(x) for x in _field(raw, "base_outcomes", list)]
            if n != len(outcomes):
                raise FormatError(
                    f"pair provenance field 'n' must be {len(outcomes)}, the base size, got {n}"
                )
            pos_first, pos_second = _field(raw, "pos_first", int), _field(raw, "pos_second", int)
            good, bad = _entries(raw, "good_entries"), _entries(raw, "bad_entries")
            big_m = None if raw.get("big_m") is None else rat(raw["big_m"])
            seed = None if raw.get("seed") is None else _field(raw, "seed", int)
        except KeyError as exc:
            raise FormatError(f"pair provenance is missing key {exc}") from None
        except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise FormatError(f"malformed pair provenance: {exc}") from None
        base = EqualProbLottery(outcomes)
        prov = PairProvenance(kind, base, Block(order, good), Block(order, bad), pos_first, pos_second, seed)
        if big_m is not None and big_m != prov.big_m:
            want = "null" if prov.big_m is None else format_exact(prov.big_m)
            raise FormatError(
                f"pair provenance field 'big_m' must be {want}, as the blocks give, got {raw['big_m']!r}"
            )
        return prov


def _field(raw: dict, key: str, kind: type):
    """raw[key] when it has JSON type kind; a JSON true or false is no int."""
    value = raw[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FormatError(f"pair provenance field {key!r} must be {kind.__name__}, got {value!r}")
    return value


_KINDS = ("general", "parsimonious")


def _kind(raw: dict) -> str:
    """raw["kind"] when rebuild_pair knows it: "general" or "parsimonious"."""
    kind = _field(raw, "kind", str)
    if kind not in _KINDS:
        raise FormatError(f"pair provenance field 'kind' must be general or parsimonious, got {kind!r}")
    return kind


def _entries(raw: dict, key: str) -> tuple[tuple[int, Fraction], ...]:
    entries = _field(raw, key, list)
    if not all(isinstance(e, list) and len(e) == 2 and type(e[0]) is int for e in entries):
        raise FormatError(f"pair provenance field {key!r} must hold [offset, increment] pairs")
    return tuple((o, rat(v)) for o, v in entries)


@dataclass(frozen=True)
class ApportionmentPair:
    """Lottery pair (C, D) differing only in where good and bad sit.

    D carries the good block at the earlier (lower-outcome) states, C the
    bad one. Their first order-1 .. order-(m-1) dual moments agree
    exactly, so the preference between them isolates the m-th derivative
    of the weighting function.
    """

    c: EqualProbLottery
    d: EqualProbLottery
    provenance: PairProvenance

    @property
    def order(self) -> int:
        return self.provenance.order

    @cached_property
    def moved_states(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """((i, delta_i), ...), den: the 1-based states i where D and C
        differ, with d_i - c_i = delta_i / den, den the lcm of the two
        members' outcome denominators."""
        if self.c.n != self.d.n:
            raise ConstructionInvariantError("pair members have different state counts")
        cs, cd = self.c._ints[:2]
        ds, dd = self.d._ints[:2]
        den = lcm(cd, dd)
        fc, fd = den // cd, den // dd
        moved = tuple((i, b * fd - a * fc) for i, (a, b) in enumerate(zip(cs, ds), 1) if b * fd != a * fc)
        return moved, den

    @cached_property
    def _gap_jumps(self) -> tuple[list[tuple[int, int]], int, int, int]:
        """(jumps, n, den, top): D's jump list minus C's, as lottery._jumps
        gives them. Both members have CDF count l below state l + 1, so the
        jump there is delta_(l+1) - delta_l over den, and the jumps add up
        to top = delta_n."""
        acc: dict[int, int] = {}
        moved, den = self.moved_states
        for i, v in moved:
            acc[i - 1] = acc.get(i - 1, 0) + v
            acc[i] = acc.get(i, 0) - v
        n = self.c.n
        top = -acc.pop(n, 0)
        return [(level, step) for level, step in sorted(acc.items()) if step], n, den, top


def _validate_pair(pair: ApportionmentPair) -> None:
    """Raise unless the members' dual moments 1..m-1 agree. Each gap is read
    off the pair's gap jump list (_survival_power, as moved_state_gap reads
    it); only a failure sweeps the members, to word its error."""
    jumps, n, den, _ = pair._gap_jumps
    for k in range(1, pair.order):
        if _survival_power(jumps, k, n, den):
            mc, md = dual_moment(pair.c, k), dual_moment(pair.d, k)
            raise ConstructionInvariantError(
                f"dual moment {k} differs between pair members: {mc} vs {md}"
            )


def _assemble(prov: PairProvenance) -> ApportionmentPair:
    """The pair prov records, built from its base and blocks and validated.

    D attaches good at prov.pos_first and bad at prov.pos_second. C is the
    reverse, or the base itself for a parsimonious pair. Any other kind is
    a DomainError.
    """
    if prov.kind not in _KINDS:
        raise DomainError(f"pair provenance kind must be general or parsimonious, got {prov.kind!r}")
    d = attach(prov.base, prov.good, prov.bad, prov.pos_first, prov.pos_second)
    if prov.kind == "parsimonious":
        c = prov.base
    else:
        c = attach(prov.base, prov.bad, prov.good, prov.pos_first, prov.pos_second)
    pair = ApportionmentPair(c, d, prov)
    _validate_pair(pair)
    return pair


rebuild_pair = _assemble  # reconstruct a pair from its provenance record


def make_pair(
    base: EqualProbLottery,
    good: Block,
    bad: Block,
    pos_first: int,
    pos_second: int,
    seed: int | None = None,
) -> ApportionmentPair:
    """Attach good/bad blocks to base in both orders.

    D gets the good block at pos_first and the bad at pos_second; C the
    reverse. Both attach orders must be feasible. The blocks may have
    different amplitudes and gap structures but must share the order.
    """
    return _assemble(PairProvenance("general", base, good, bad, pos_first, pos_second, seed))


def make_parsimonious_pair(
    outcomes,
    j: int,
    m: int,
    big_m,
    seed: int | None = None,
) -> ApportionmentPair:
    """Pair whose C member is the base lottery itself.

    The m states j+1 .. j+m (1-based) of the n given ranked outcomes are
    moved: D adds the good block of order m at state j+1 and the bad
    block at state j+2, both with amplitude 1/M and minimal gaps, which
    nets out to the alternating binomial increments
    (-1)^(k-1) binom(m-1, k-1) / M on states j+k, k = 1..m.
    M must be large enough that the ranking survives.
    """
    base = EqualProbLottery(outcomes)
    if m < 2:
        raise DomainError(f"pair order must be >= 2, got {m}")
    if base.n < m:
        raise DomainError(f"need at least m={m} states, got {base.n}")
    if not 0 <= j <= base.n - m:
        raise DomainError(f"moved states {j + 1}..{j + m} do not fit in 1..{base.n}")
    big_m = rat(big_m)
    if big_m <= 0:
        raise DomainError(f"need M > 0, got {big_m}")
    good, bad = make_block(m, 1 / big_m), make_block(m, -1 / big_m)
    return _assemble(PairProvenance("parsimonious", base, good, bad, j + 1, j + 2, seed))


def moved_state_gap(pair: ApportionmentPair, w: WeightingSpec) -> Fraction:
    """V(D) - V(C) under an exact weighting w, read from the moved states.

    C and D are ranked with n equally likely states each, so the CDF form
    of the dual value gives the gap as sum_i (d_i - c_i) (h(i/n) -
    h((i-1)/n)) over the states that moved. Under DualPower(j) this is the
    pair's j-th dual-moment gap. It runs dt_value's kernels on the
    difference of the two members' jump lists (ApportionmentPair._gap_jumps),
    so an order past the size bound is the DomainError dt_value raises.
    """
    return _value(w, *pair._gap_jumps)


def preference_direction(pair: ApportionmentPair, w: WeightingSpec) -> int:
    """Sign of value(D) - value(C) under weighting w: +1, 0, or -1.

    Exact for exact weighting families, which read only the moved states
    (moved_state_gap). For float families 0 is the answer whenever the
    float gap cannot be resolved: each float value sums n rounded terms
    bounded by the largest outcome, so a gap within 4 n eps times that
    outcome may carry either sign.
    """
    if is_exact(w):
        gap = moved_state_gap(pair, w)
        return (gap > 0) - (gap < 0)
    diff = dt_value(pair.d, w) - dt_value(pair.c, w)
    top = max(Fraction(m._ints[0][-1], m._ints[1]) for m in (pair.c, pair.d))
    bound = 4 * pair.c.n * sys.float_info.epsilon * float(top)
    return (diff > bound) - (diff < -bound)
