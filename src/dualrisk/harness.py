"""Randomized checking of the six preference-characterization statements.

The direct statements say: every pair built by letting a good block
precede a bad block is weakly preferred under any weighting function
whose m-th derivative carries the sign (-1)^(m-1) h^(m) >= 0, weakly
dispreferred when the sign is flipped, and valued identically when the
m-th derivative vanishes. The converse statements say: a weighting
function whose m-th equidistant-difference certificate is Mixed admits
a parsimonious pair ranked strictly against the direct direction.

run_trials reads from THEOREMS which draw and which check a statement's
trials make, and a report's kind is read from the same table.

Direct runs fuzz random bases, block amplitudes, gap specs, and
positions, then sweep a battery of right-sign, flipped-sign, and
zero-derivative weighting functions, one of them a DualPower mixture
drawn from the run's rng: two orders k with int weights r_k, read as
r_k / sum r and summed in integers (weighting._int_mixture). The whole
battery is ranked from the few states where C and D differ, in one sweep
over the pair's gap jump list: the power sums S_j = sum c^j step give
every member's sign from its integer row (valuation._poly_signs), the
sign apportionment.preference_direction gives a single weighting.
The mixture is valued in full once per pair as well: its dt_value gap
must equal its moved-state gap exactly, and a mismatch is a failure
record with relation "identity" that carries both gaps and the pair's
construction record, which ApportionmentPair.from_json reads back into
the pair. Converse runs generate piecewise linear weighting functions
with certified mixed differences, evaluate h once on the grid 1/G, and
read both the certificate and the witness from that list. The witness search walks the divisors n of G in ascending order,
then the window starts j/n, reading each 1/n window as every (G/n)-th
grid value, until a violating pair is exhibited, so the pair has the
fewest states any aligned window allows; its moved-state gap must equal
(-1)^(m+1) times the window over 2^(m+1), and its sign is the reported
direction. That this gap is the full valuation's, and the window the
reflected one of hbar, is held by tests, not re-derived per draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .apportionment import (
    ApportionmentPair,
    make_block,
    make_pair,
    make_parsimonious_pair,
    moved_state_gap,
)
from .errors import DomainError, DualRiskError, RankViolation
from .lottery import EqualProbLottery, _equal_prob
from .rationals import format_exact
from .valuation import _poly_signs, dt_value
from .weighting import (
    DualPower,
    Identity,
    Polynomial,
    SignClass,
    Tabulated,
    WeightingSpec,
    _int_mixture,
    _integer_coeffs,
    difference_grid,
    difference_sign,
    format_weighting,
    unit_differences,
)

# statement number -> (direction, orders exercised)
THEOREMS = {
    1: ("direct", (3,)),
    2: ("converse", (3,)),
    3: ("direct", (4,)),
    4: ("converse", (4,)),
    5: ("direct", (2, 5)),
    6: ("converse", (2, 5)),
}


@dataclass(frozen=True)
class HarnessReport:
    theorem: int
    order: int
    trials: int
    failures: tuple[dict, ...]

    @property
    def kind(self) -> str:
        return THEOREMS[self.theorem][0]

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_statement(theorem) -> tuple[str, tuple[int, ...]]:
    """THEOREMS[theorem], or a DomainError for an unknown statement number;
    a bool or a float is none, though True and 1.0 are keys of THEOREMS."""
    if isinstance(theorem, bool) or not isinstance(theorem, int) or theorem not in THEOREMS:
        raise DomainError(f"statements are numbered 1..6, got {theorem!r}")
    return THEOREMS[theorem]


def _check_statement_order(m) -> None:
    """DomainError unless m is an int >= 2; a bool is no order. Every draw
    and run takes it before the rng moves."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise DomainError(f"statement order must be an integer, got {m!r}")
    if m < 2:
        raise DomainError(f"statements start at order 2, got {m}")


def _monomial(k: int) -> Polynomial:
    return Polynomial((Fraction(0),) * k + (Fraction(1),))


def _odd_flip(m: int, c: Fraction) -> Polynomial:
    # h(p) = (1+c) p - c p^m; h' >= 1 - c (m-1) >= 0 for c <= 1/(m-1),
    # and h^(m) = -c m! < 0, the flipped sign at odd m.
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[1] = 1 + c
    coeffs[m] = -c
    return Polynomial(tuple(coeffs))


def direct_battery(m: int, rng: random.Random):
    """Weighting functions paired with the relation the order-m statement predicts.

    Relations: "ge" (pair direction >= 0), "le" (<= 0), "eq" (exactly 0).
    A mixture of two DualPowers of orders m..8 (m and m + 1 from order 8
    on), drawn from rng, follows the DualPower entries.
    """
    return [(w, relation) for w, relation, _ in _battery(m, rng)[0]]


def _battery(m: int, rng: random.Random):
    """(battery, probe): the battery as (w, relation, row) triples, row the
    integer coefficients (hs, scale) of w that valuation._poly_signs reads;
    the probe is the drawn mixture, whose weights are drawn as ints r_k in
    1..4 and read as r_k / sum r."""
    _check_statement_order(m)
    head, tail = _fixed_battery(m)
    ks = rng.sample(range(m, max(9, m + 2)), 2)
    rs = {k: rng.randint(1, 4) for k in ks}
    mixture = _int_mixture(rs, sum(rs.values()))
    return [*head, (mixture, "ge", mixture._ints), *tail], mixture


@lru_cache(maxsize=None)
def _fixed_battery(m: int):
    # The unseeded entries with their integer rows, certified and expanded
    # once per order; the members are frozen dataclasses and no reader
    # writes to a row, so every battery may share them.
    head = [(DualPower(j), "ge") for j in range(m, 7)]
    tail: list[tuple[WeightingSpec, str]] = []
    if m % 2 == 0:
        tail.append((_monomial(m), "le"))
        tail.append((_monomial(m + 2), "le"))
    else:
        tail.append((_odd_flip(m, Fraction(1, m - 1)), "le"))
        tail.append((_odd_flip(m, Fraction(1, 2 * (m - 1))), "le"))
    tail.append((Identity(), "eq"))
    for j in range(1, m):
        tail.append((DualPower(j), "eq"))
    for k in range(2, m):
        tail.append((_monomial(k), "eq"))
    return tuple(tuple((w, rel, _integer_coeffs(w)) for w, rel in part) for part in (head, tail))


def random_base(rng: random.Random, m: int, n: int | None = None) -> EqualProbLottery:
    """Equal-probability base lottery with gaps >= 1 (room for small blocks)."""
    if n is None:
        n = rng.randint(m, m + 6)
    if n < 1:
        raise DomainError(f"a random base needs n >= 1 states, got {n}")
    halves = [2 * rng.randint(1, 4)]
    for _ in range(n - 1):
        halves.append(halves[-1] + rng.randint(2, 8))
    return _equal_prob(halves, 2)


def _random_gaps(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, 1, 2)) for _ in range(m - 2))


def random_pair(rng: random.Random, m: int) -> ApportionmentPair:
    """Random order-m pair: independent amplitudes and gap specs per block.

    Positions are sampled so that both blocks fit at both slots (each
    member hosts each block once). Amplitudes stay <= 1/32 against base
    gaps >= 1, but block coefficients reach 20 at order 8, so from order 7
    on two blocks can reverse neighbouring states: such a draw is redrawn.
    """
    _check_statement_order(m)
    for _ in range(128):
        base = random_base(rng, m)
        good_delta, good_gaps = Fraction(rng.randint(1, 4), 128), _random_gaps(rng, m)
        bad_delta, bad_gaps = Fraction(rng.randint(1, 4), 128), _random_gaps(rng, m)
        span = max(sum(good_gaps), sum(bad_gaps))  # a block's span is the sum of its gaps
        hi_first = base.n - span - 1
        if hi_first < 1:
            continue
        pos_first = rng.randint(1, hi_first)
        pos_second = rng.randint(pos_first + 1, base.n - span)
        good, bad = make_block(m, good_delta, good_gaps), make_block(m, -bad_delta, bad_gaps)
        try:
            return make_pair(base, good, bad, pos_first, pos_second, seed=None)
        except RankViolation:
            continue
    raise DualRiskError("pair sampling failed to find a fitting configuration")


def direct_check(pair: ApportionmentPair, rng: random.Random) -> tuple[dict, ...]:
    """Sweep the order-m battery over one pair; return replay records of
    violations as a tuple, () when the pair passes (as HarnessReport.failures).

    The whole battery is ranked from one sweep of power sums over the
    pair's gap jump list (valuation._poly_signs), the signs
    preference_direction gives member by member. One member, the mixture
    drawn from rng, is also valued in full: its dt_value gap must equal
    its moved-state gap, and a mismatch is an "identity" record carrying
    both gaps.
    """
    battery, probe = _battery(pair.order, rng)
    jumps, d, _, top = pair._gap_jumps
    signs = _poly_signs([row for _, _, row in battery], jumps, d, top)
    failures = []
    for (w, relation, _), got in zip(battery, signs):
        ok = got >= 0 if relation == "ge" else got <= 0 if relation == "le" else got == 0
        if not ok:
            failures.append(
                {
                    "weighting": format_weighting(w),
                    "relation": relation,
                    "direction": got,
                    "pair": pair._payload(),
                }
            )
    gap = dt_value(pair.d, probe) - dt_value(pair.c, probe)
    moved = moved_state_gap(pair, probe)
    if gap != moved:
        failures.append(
            {
                "weighting": format_weighting(probe),
                "relation": "identity",
                "gap": format_exact(gap),
                "moved_state_gap": format_exact(moved),
                "pair": pair._payload(),
            }
        )
    return tuple(failures)


_MIXED_TRIES = 500  # draws random_mixed_tabulated makes before it gives up
_KNOT_COUNTS = (8, 16, 32)  # knot intervals K a mixed tabulated draw picks from


def random_mixed_tabulated(rng: random.Random, m: int) -> Tabulated:
    """Piecewise-linear weighting whose m-th differences take both signs.

    Knot values are jittered off the diagonal by multiples of 1/(32K)
    bounded by 1/(8K), which keeps the knots strictly increasing; draws
    are rejected until the order-m certificate on the knot grid 1/K is
    Mixed, that is until the aligned step-1/K windows show both signs;
    h at i/K is the i-th knot value, so the certificate reads those. The
    K + 1 knots give K + 1 - m windows, and both signs need two, so an
    order m >= K is never Mixed on that grid: an order at or past the
    largest K is a DomainError before the rng moves.
    """
    _check_statement_order(m)
    largest = _KNOT_COUNTS[-1]
    if m >= largest:
        raise DomainError(
            f"mixed tabulated draws reach order {largest - 1}, below the largest knot count {largest}, got {m}"
        )
    for _ in range(_MIXED_TRIES):
        k = rng.choice(_KNOT_COUNTS)
        knots = [(Fraction(0), Fraction(0))]
        for i in range(1, k):
            eta = Fraction(rng.randint(-4, 4), 32 * k)
            knots.append((Fraction(i, k), Fraction(i, k) + eta))
        knots.append((Fraction(1), Fraction(1)))
        if m < k and difference_sign([v for _, v in knots], m).kind is SignClass.MIXED:
            return Tabulated(tuple(knots))
    raise DualRiskError(f"no mixed-difference tabulated weighting found in {_MIXED_TRIES} draws")


def _candidate_counts(m: int, grid_count: int) -> list[int]:
    # Grid divisors ascending, so the first hit is the smallest witness. A
    # wrong-sign window of any step b/G refines into unit-step windows on
    # the 1/G grid, so n = G, the last candidate, always terminates the
    # search.
    return [n for n in range(max(m, 2), grid_count + 1) if grid_count % n == 0]


def converse_witness_search(values: list, m: int) -> tuple[int, int, Fraction] | None:
    """Find (n, j, window) with a wrong-sign aligned window
    window = Delta^m_{1/n} h(j/n), smallest n first.

    values holds h at i/G for i = 0..G (weighting.difference_grid); the
    1/n windows read every (G/n)-th entry. The pair value gap equals
    (-1)^(m+1)/M times the window, so "wrong sign" means a negative
    window at odd m and a positive one at even m.
    """
    grid_count = len(values) - 1
    for n in _candidate_counts(m, grid_count):
        for j, d in unit_differences(values[:: grid_count // n], m):
            if (d < 0) if m % 2 == 1 else (d > 0):
                return n, j, d
    return None


def converse_check(w: WeightingSpec, m: int, grid_count: int = 256) -> dict:
    """One converse probe: Mixed certificate must yield a violating pair.

    h is evaluated once on the grid 1/G; the certificate and the witness
    window both come from that list, and the pair's gap from its moved
    states. Returns a replay record with status "vacuous" (certificate
    not Mixed), "violation" (negative gap equal to (-1)^(m+1) window /
    2^(m+1)), or a failure status ("no-window", or "mismatch" with the
    predicted gap).
    """
    values = difference_grid(w, m, grid_count)
    cert = difference_sign(values, m)
    record: dict = {"weighting": format_weighting(w), "order": m, "certificate": cert.kind.value}
    if cert.kind is not SignClass.MIXED:
        record["status"] = "vacuous"
        return record
    found = converse_witness_search(values, m)
    if found is None:
        record["status"] = "no-window"
        return record
    n, j, window = found
    big_m = 2 ** (m + 1)
    pair = make_parsimonious_pair(tuple(range(1, n + 1)), j, m, big_m)
    gap = moved_state_gap(pair, w)
    predicted = Fraction((-1) ** (m + 1), big_m) * window
    record.update(
        {
            "n": n,
            "j": j,
            "gap": format_exact(gap),
            "direction": (gap > 0) - (gap < 0),
            "pair": pair._payload(),
        }
    )
    if gap < 0 and gap == predicted:
        record["status"] = "violation"
    else:
        record["status"] = "mismatch"
        record["predicted"] = format_exact(predicted)
    return record


def run_trials(theorem: int, m: int, trials: int, seed: int) -> HarnessReport:
    """trials draws of statement theorem at order m from one seeded rng, each
    drawn and checked as THEOREMS says; failure records carry their trial.
    The statement, the order and the trial count (an int >= 1; a bool is
    none) are checked before any draw."""
    direct = _check_statement(theorem)[0] == "direct"
    _check_statement_order(m)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise DomainError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed * 1000003 + m)
    failures: list[dict] = []
    for trial in range(trials):
        if direct:
            records = direct_check(random_pair(rng, m), rng)
        else:
            record = converse_check(random_mixed_tabulated(rng, m), m)
            records = () if record["status"] == "violation" else (record,)
        for record in records:
            record["trial"] = trial
            failures.append(record)
    return HarnessReport(theorem, m, trials, tuple(failures))


def run_theorem(theorem: int, trials: int, seed: int) -> list[HarnessReport]:
    """Run one numbered statement across its orders; one report per order."""
    return [run_trials(theorem, m, trials, seed) for m in _check_statement(theorem)[1]]
