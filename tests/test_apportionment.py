"""Block construction algebra against exhaustively expanded examples."""

import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualrisk import (
    BadGapSpec,
    Block,
    ConstructionInvariantError,
    DomainError,
    DualPower,
    DualRiskError,
    EqualProbLottery,
    FormatError,
    Identity,
    LinearUtility,
    Lottery,
    NegativeOutcome,
    PairProvenance,
    Polynomial,
    Power,
    PrecedenceViolation,
    Prelec,
    Quadratic,
    QuadraticUtility,
    RankViolation,
    Tabulated,
    TabulatedUtility,
    attach,
    canonical_distribution,
    dt_value,
    dual_moment,
    dual_power_mixture,
    dual_sd_check,
    equal_prob_from_lottery,
    eu_value,
    format_lottery_text,
    make_block,
    make_lottery,
    make_pair,
    make_parsimonious_pair,
    mean,
    preference_direction,
    primal_moment,
    primal_sd_check,
    random_base,
    random_pair,
    rebuild_pair,
    squeeze,
    TverskyKahneman,
)
from dualrisk.apportionment import ApportionmentPair, moved_state_gap

from conftest import lotteries
from oracles import (
    attach_reference,
    block_entries_reference,
    dt_value_mpmath,
    dual_moment_weights,
    equal_prob_reference,
    good_and_bad,
    preference_direction_reference,
)

F = Fraction


def ep(*outcomes):
    return EqualProbLottery(tuple(F(x) for x in outcomes))


class TestSqueeze:
    def test_second_order_example(self):
        assert squeeze(ep(1, 2), 1, 2, F(1, 4)) == ep(F(5, 4), F(7, 4))

    def test_too_far_breaks_ranking(self):
        with pytest.raises(RankViolation):
            squeeze(ep(1, 2), 1, 2, F(3, 4))

    def test_inverse_pair(self):
        base = ep(1, 3, 8)
        x = F(2, 5)
        assert squeeze(ep(1 - x, 3, 8 + x), 1, 3, x) == base

    def test_identity_at_zero(self):
        base = ep(2, 5)
        assert squeeze(base, 1, 2, 0) == base

    def test_mean_preserved_variance_moves(self):
        base = ep(1, 2, 6, 9)
        tight = squeeze(base, 2, 4, F(1, 2))
        wide = ep(1, F(3, 2), 6, F(19, 2))
        assert squeeze(wide, 2, 4, F(1, 2)) == base
        for lt in (tight, wide):
            assert mean(lt) == mean(base)
        var = lambda lt: primal_moment(lt, 2)
        assert var(tight) < var(base) < var(wide)

    def test_negative_outcome_blocked(self):
        good, bad = make_block(2, F(1, 2)), make_block(2, F(-1, 2))
        with pytest.raises((NegativeOutcome, RankViolation)):
            attach(ep(0, 1), bad, good, 1, 2)

    def test_touching_outcomes_allowed(self):
        assert squeeze(ep(1, 3), 1, 2, 1) == ep(2, 2)


class TestMakeBlocks:
    def test_order_two_base_case(self):
        assert make_block(2, F(1, 8)).entries == ((0, F(1, 8)),)
        assert make_block(2, F(-1, 8)).entries == ((0, F(-1, 8)),)

    @pytest.mark.parametrize("delta", [0, F(0), "0/5"])
    def test_zero_amplitude_is_a_domain_error(self, delta):
        with pytest.raises(DomainError, match="nonzero"):
            make_block(3, delta)

    def test_zero_leading_increment_is_a_domain_error(self):
        # the offset-0 increment's sign is the polarity, so it may not be 0
        with pytest.raises(DomainError, match="polarity"):
            Block(3, ((0, F(0)), (1, F(1, 6))))

    def test_order_three_adjacent(self):
        good = make_block(3, F(1, 6))
        assert good.entries == ((0, F(1, 6)), (1, F(-1, 6)))

    def test_order_four_middle_overlap(self):
        good = make_block(4, F(1, 4))
        assert good.entries == ((0, F(1, 4)), (1, F(-1, 2)), (2, F(1, 4)))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_minimal_gap_binomials(self, m):
        good, bad = make_block(m, F(1, 3)), make_block(m, F(-1, 3))
        expected = tuple(
            (k, F((-1) ** k * math.comb(m - 2, k), 3)) for k in range(m - 1)
        )
        assert good.entries == expected
        assert bad.entries == tuple((o, -v) for o, v in expected)

    def test_wide_gaps_spread_entries(self):
        good = make_block(4, 1, gaps=(2, 3))
        assert good.span == 5
        assert sum(v for _, v in good.entries) == 0

    @given(
        st.integers(min_value=3, max_value=8).flatmap(
            lambda m: st.lists(st.integers(min_value=1, max_value=6), min_size=m - 2, max_size=m - 2)
        ),
        st.fractions(min_value=F(1, 64), max_value=4, max_denominator=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_gaps_annihilate_low_powers(self, gaps, delta):
        # each gap g multiplies the entries' generating polynomial by
        # (1 - z^g), so it has the root 1 with multiplicity m - 2
        m = len(gaps) + 2
        good, bad = make_block(m, delta, gaps=gaps), make_block(m, -delta, gaps=gaps)
        assert good.span == sum(gaps)
        for j in range(m - 2):
            assert sum(v * o**j for o, v in good.entries) == 0
        assert bad.entries == tuple((o, -v) for o, v in good.entries)

    def test_gap_spec_errors(self):
        with pytest.raises(BadGapSpec):
            make_block(4, 1, gaps=(1,))
        with pytest.raises(BadGapSpec):
            make_block(4, -1, gaps=(0, 1))

    @pytest.mark.parametrize(
        "gap", ["x", "2", None, True, False, 0, -1, 1.5, F(3, 2), float("nan"), float("inf")]
    )
    def test_malformed_gap_is_a_bad_gap_spec(self, gap):
        with pytest.raises(BadGapSpec, match="gaps must be integers >= 1"):
            make_block(4, 1, gaps=(1, gap))

    @pytest.mark.parametrize("gap", [2.0, F(2)])
    def test_integral_gaps_are_ints(self, gap):
        assert make_block(3, F(1, 3), gaps=(gap,)) == make_block(3, F(1, 3), gaps=(2,))


ODD_DENOMINATORS = (1, 3, 5, 7, 9, 15, 21, 27)


@st.composite
def block_builds(draw):
    """An order 2..8 build on a base with non-integer outcomes: good and
    bad amplitudes over odd denominators and gaps 1..3. Half the position
    draws fit both blocks at both slots; the others need not fit or
    precede. Large amplitudes on close outcomes break the ranking."""
    m = draw(st.integers(2, 8))
    gaps = st.lists(st.integers(1, 3), min_size=m - 2, max_size=m - 2)
    delta = st.builds(F, st.integers(1, 4), st.sampled_from(ODD_DENOMINATORS))
    good_delta, good_gaps, bad_delta, bad_gaps = draw(delta), draw(gaps), draw(delta), draw(gaps)
    span = max(sum(good_gaps), sum(bad_gaps))
    n = draw(st.integers(span + 2, span + 8))
    first = draw(st.fractions(0, 2, max_denominator=10).filter(lambda x: x.denominator > 1))
    steps = draw(st.lists(st.fractions(0, 40, max_denominator=10), min_size=n - 1, max_size=n - 1))
    base = EqualProbLottery(tuple(accumulate(steps, initial=first)))
    if draw(st.booleans()):
        pos_first = draw(st.integers(1, n - span - 1))
        pos_second = draw(st.integers(pos_first + 1, n - span))
    else:
        pos_first = draw(st.integers(0, n))
        pos_second = draw(st.integers(pos_first, n + 1))
    return m, base, good_delta, good_gaps, bad_delta, bad_gaps, pos_first, pos_second


def _result(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except DualRiskError as exc:
        return type(exc), str(exc)


def _entry_ints(entries):
    den = math.lcm(*(v.denominator for _, v in entries))
    return tuple((o, v.numerator * (den // v.denominator)) for o, v in entries), den


class TestIntegerBuild:
    """make_block and attach against the Fraction recursion and attach
    in tests/oracles.py."""

    @given(block_builds(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_blocks_and_members_match_the_fraction_reference(self, build, hand_built):
        m, base, good_delta, good_gaps, bad_delta, bad_gaps, pos_first, pos_second = build
        good = make_block(m, good_delta, good_gaps)
        bad = make_block(m, -bad_delta, bad_gaps)
        assert good.entries == block_entries_reference(good_delta, good_gaps)
        assert bad.entries == tuple((o, -v) for o, v in block_entries_reference(bad_delta, bad_gaps))
        assert good.span == sum(good_gaps) and bad.span == sum(bad_gaps)
        if hand_built:  # blocks as rebuild_pair makes them, with no integer form yet
            good = Block(m, good.entries)
            bad = Block(m, bad.entries)
        for block in (good, bad):
            assert block._ints == _entry_ints(block.entries)
        members = []
        for first, second in ((good, bad), (bad, good)):
            got = _result(attach, base, first, second, pos_first, pos_second)
            want = _result(attach_reference, base, first, second, pos_first, pos_second)
            if isinstance(got, EqualProbLottery):
                outcomes, (xs, xd) = want
                assert got.outcomes == outcomes
                assert all(type(x) is F for x in got.outcomes)
                assert got._ints == (xs, xd, [1] * base.n, base.n)
                assert got == EqualProbLottery(outcomes)
                members.append(got)
            else:
                assert got == want
        if len(members) == 2:
            pair = make_pair(base, good, bad, pos_first, pos_second)
            assert (pair.d, pair.c) == tuple(members)
            assert (pair.d._ints, pair.c._ints) == tuple(member._ints for member in members)


# ---------------------------------------------------------------------------
# one lottery type: an EqualProbLottery is the Lottery of its states

STATE_OUTCOMES = st.builds(F, st.integers(0, 40), st.sampled_from((1, 2, 3, 5, 7, 12)))
READ_FAMILIES = (Identity(), Quadratic(F(1, 3)), DualPower(3), Power(2), Power(F(1, 2)), TverskyKahneman(0.61))
UTILITIES = (LinearUtility(), QuadraticUtility(F(1, 200)), TabulatedUtility(((F(0), F(0)), (F(2), F(3)), (F(60), F(5)))))


def _drawn_member(data):
    """(member, outcomes): an EqualProbLottery built directly, by attach on
    a block_builds draw or by squeeze, and the outcomes it must have,
    computed in Fractions; None when the build raises, after checking that
    the Fraction reference raises the same error with the same message."""
    route = data.draw(st.sampled_from(("direct", "attach", "squeeze")))
    if route == "attach":
        m, base, good_delta, good_gaps, bad_delta, bad_gaps, pos_first, pos_second = data.draw(block_builds())
        blocks = [make_block(m, good_delta, good_gaps), make_block(m, -bad_delta, bad_gaps)]
        if data.draw(st.booleans()):
            blocks.reverse()
        got = _result(attach, base, *blocks, pos_first, pos_second)
        want = _result(attach_reference, base, *blocks, pos_first, pos_second)
        if not isinstance(got, EqualProbLottery):
            assert got == want
            return None
        return got, want[0]
    outcomes = sorted(data.draw(st.lists(STATE_OUTCOMES, min_size=2 if route == "squeeze" else 1, max_size=9)))
    if route == "direct":
        return EqualProbLottery(outcomes), outcomes
    n = len(outcomes)
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    x = data.draw(st.fractions(0, 12, max_denominator=6))
    moved = list(outcomes)
    moved[i - 1] += x
    moved[j - 1] -= x
    got = _result(squeeze, EqualProbLottery(outcomes), i, j, x)
    if not isinstance(got, EqualProbLottery):
        assert got == _result(equal_prob_reference, moved)
        return None
    return got, moved


class TestOneLotteryType:
    """An EqualProbLottery stores only its integer form, and every function
    reads it as it reads the ordinary Lottery of the same equally likely
    states (oracles.equal_prob_reference)."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_members_read_as_the_reference_lottery(self, data):
        drawn = _drawn_member(data)
        if drawn is None:
            return
        member, outcomes = drawn
        assert isinstance(member, Lottery) and set(vars(member)) == {"_ints"}
        ref = equal_prob_reference(outcomes)
        assert member.states == ref.states and member.outcomes == ref.outcomes
        assert all(type(x) is F for x in member.outcomes)
        assert member._ints == ref._ints and len(member) == member.n == len(ref)
        assert member == ref and ref == member and hash(member) == hash(ref)
        assert format_lottery_text(member) == format_lottery_text(ref)
        can, can_ref = canonical_distribution(member), canonical_distribution(ref)
        assert (can.states, can._ints) == (can_ref.states, can_ref._ints)
        for u in UTILITIES:
            assert _result(eu_value, member, u) == _result(eu_value, ref, u)
        for w in READ_FAMILIES:
            assert _result(dt_value, member, w) == _result(dt_value, ref, w)
        other = data.draw(lotteries())
        for check, m in ((dual_sd_check, 2), (dual_sd_check, 3), (primal_sd_check, 2), (primal_sd_check, 3)):
            assert check(member, other, m) == check(ref, other, m)
            assert check(other, member, m) == check(other, ref, m)

    def test_random_bases_store_only_their_integer_form(self):
        rng = random.Random(5)
        for m in (2, 3, 4, 5):
            base = random_base(rng, m)
            assert set(vars(base)) == {"_ints"}
            assert base == equal_prob_reference(base.outcomes) and base._ints[1] in (1, 2)

    @given(
        st.lists(st.tuples(st.integers(0, 6).map(lambda k: F(k, 2)), st.integers(1, 3)), min_size=1, max_size=7),
        st.sampled_from(("make", "constructor", "canonical")),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_prob_from_lottery_refuses_exactly_unequal_probabilities(self, drawn, route):
        total = sum(w for _, w in drawn)
        lot = make_lottery([(x, F(w, total)) for x, w in drawn])
        if route == "constructor":
            lot = Lottery(lot.states)
        elif route == "canonical":
            lot = canonical_distribution(lot)
        if any(p != F(1, len(lot)) for p in lot.probabilities):
            with pytest.raises(DomainError, match="^lottery does not have equal state probabilities$"):
                equal_prob_from_lottery(lot)
        else:
            got = equal_prob_from_lottery(lot)
            assert type(got) is EqualProbLottery and got == lot
            assert got._ints == EqualProbLottery(lot.outcomes)._ints

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Lottery(((F(-1, 3), F(1, 2)), (F(1), F(1, 2)))), NegativeOutcome,
             "outcome -1/3 at state 0 is negative"),
            (lambda: Lottery(((F(2, 3), F(1, 2)), (F(1, 3), F(1, 2)))), RankViolation,
             "outcomes must be non-decreasing; state 1 has 1/3 after 2/3"),
            (lambda: EqualProbLottery((F(1, 2), F(-1, 3))), NegativeOutcome,
             "outcome -1/3 at state 1 is negative"),
            (lambda: EqualProbLottery((1, "7/3", "9/4", 3)), RankViolation,
             "outcomes must be non-decreasing; state 2 has 9/4 after 7/3"),
            (lambda: attach(ep(F(1, 3), 2, 3, 4), make_block(2, -1), make_block(2, 1), 1, 3), NegativeOutcome,
             "outcome -2/3 at state 0 is negative"),
            (lambda: attach(ep(F(1, 3), F(2, 3), 3, 10), make_block(2, F(1, 2)), make_block(2, F(-1, 2)), 1, 3),
             RankViolation, "outcomes must be non-decreasing; state 1 has 2/3 after 5/6"),
        ],
        ids=["lottery-negative", "lottery-rank", "equal-negative", "equal-rank", "attach-negative", "attach-rank"],
    )
    def test_sign_and_rank_messages(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


class TestAttach:
    def test_third_order_good_first(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        d = attach(base3, good, bad, 1, 2)
        assert d == ep(F(7, 6), F(5, 3), F(25, 6))

    def test_third_order_bad_first(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        c = attach(base3, bad, good, 1, 2)
        assert c == ep(F(5, 6), F(7, 3), F(23, 6))

    def test_fourth_order(self, base4):
        good, bad = good_and_bad(4, F(1, 4))
        d = attach(base4, good, bad, 1, 2)
        assert d == ep(F(5, 4), F(5, 4), F(19, 4), F(27, 4))

    def test_precedence_enforced(self, base3):
        good, bad = good_and_bad(3, F(1, 100))
        with pytest.raises(PrecedenceViolation):
            attach(base3, good, bad, 2, 2)

    def test_must_fit(self, base3):
        good, bad = good_and_bad(3, F(1, 100))
        with pytest.raises(Exception):
            attach(base3, good, bad, 2, 3)  # bad block spills past state 3


class TestMakePair:
    def test_second_order_members(self):
        base = ep(1, 2)
        good, bad = good_and_bad(2, F(1, 4))
        pair = make_pair(base, good, bad, 1, 2)
        assert pair.d == ep(F(5, 4), F(7, 4))
        assert pair.c == ep(F(3, 4), F(9, 4))
        assert primal_moment(pair.c, 2) == F(9, 16)
        assert primal_moment(pair.d, 2) == F(1, 16)

    def test_third_order_moment_table(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        pair = make_pair(base3, good, bad, 1, 2)
        c, d = pair.c, pair.d
        assert mean(c) == mean(d) == F(7, 3)
        assert primal_moment(d, 2) == F(31, 18)
        assert primal_moment(c, 2) == F(27, 18)

    def test_even_spacing_keeps_variances_equal(self):
        # with consecutive integers the second-order effects cancel
        good, bad = good_and_bad(3, F(1, 6))
        pair = make_pair(ep(1, 2, 3), good, bad, 1, 2)
        c, d = pair.c, pair.d
        assert primal_moment(c, 2) == primal_moment(d, 2)
        assert primal_moment(c, 3) != primal_moment(d, 3)

    def test_fourth_order_moment_table(self, base4):
        good, bad = good_and_bad(4, F(1, 4))
        pair = make_pair(base4, good, bad, 1, 2)
        c, d = pair.c, pair.d
        assert mean(c) == mean(d) == F(7, 2)
        assert primal_moment(c, 2) == primal_moment(d, 2) == F(89, 16)
        assert primal_moment(c, 3) == F(63, 8)
        assert primal_moment(d, 3) == F(27, 8)
        assert primal_moment(d, 4) < primal_moment(c, 4)
        assert dual_moment(c, 3) == dual_moment(d, 3) == F(55, 32)

    def test_dual_moments_frozen_up_to_order(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(2, 5)
            n = rng.randint(m + 2, m + 6)
            outcomes = [F(rng.randint(1, 4))]
            for _ in range(n - 1):
                outcomes.append(outcomes[-1] + F(rng.randint(2, 9), 2))
            base = EqualProbLottery(tuple(outcomes))
            good, bad = good_and_bad(m, F(rng.randint(1, 3), 64))
            span = good.span + 1
            pos = rng.randint(1, n - span - 1)
            pair = make_pair(base, good, bad, pos, pos + 1)
            c, d = pair.c, pair.d
            for k in range(1, m):
                assert dual_moment(c, k) == dual_moment(d, k)
            assert dual_sd_check(c, d, m).holds

    def test_mismatched_orders_rejected(self, base3):
        good = make_block(3, F(1, 6))
        bad2 = make_block(2, F(-1, 6))
        with pytest.raises(DomainError):
            make_pair(base3, good, bad2, 1, 2)

    def test_swapped_polarity_is_a_domain_error(self, base4):
        # the polarity is the sign of the offset-0 increment: a "good" block
        # that leads with -1/8 would build the reversed pair
        reversed_good = Block(3, ((0, F(-1, 8)), (1, F(1, 8))))
        with pytest.raises(DomainError, match="good block first"):
            make_pair(base4, reversed_good, make_block(3, F(-1, 8)), 1, 2)
        good, bad = good_and_bad(3, F(1, 8))
        with pytest.raises(DomainError, match="good block first"):
            make_pair(base4, bad, good, 1, 2)

    def test_construction_validation_trips_on_corrupt_block(self, base3):
        # a hand-built bad block whose second entry does not mirror the
        # good one shifts the second dual moment between the members
        good = make_block(3, F(1, 6))
        corrupt = Block(3, ((0, F(-1, 6)), (1, F(1, 7))))
        with pytest.raises(ConstructionInvariantError, match="dual moment 2 differs"):
            make_pair(base3, good, corrupt, 1, 2)
        prov = PairProvenance(kind="general", base=base3, good=good, bad=corrupt, pos_first=1, pos_second=2)
        with pytest.raises(ConstructionInvariantError, match="dual moment 2 differs"):
            rebuild_pair(PairProvenance.from_json(prov.to_json()))


def increments(m, big_m):
    """d_i - c_i on the m moved states of an order-m parsimonious pair
    with amplitude 1/M, on a base spread wide enough to stay ranked."""
    pair = make_parsimonious_pair(tuple(10**4 * i for i in range(1, m + 1)), 0, m, big_m)
    moved, den = pair.moved_states
    assert [i for i, _ in moved] == list(range(1, m + 1))
    return [F(v, den) for _, v in moved]


class TestParsimonious:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (3, [F(1, 8), F(-2, 8), F(1, 8)]),
            (4, [F(1, 8), F(-3, 8), F(3, 8), F(-1, 8)]),
            (5, [F(1, 8), F(-4, 8), F(6, 8), F(-4, 8), F(1, 8)]),
        ],
    )
    def test_increment_vectors(self, m, expected):
        assert increments(m, 8) == expected

    @given(st.integers(min_value=2, max_value=8), st.fractions(min_value=F(1, 50), max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_increments_for_any_amplitude(self, m, big_m):
        incs = increments(m, big_m)
        assert incs == [(-1) ** k * math.comb(m - 1, k) / big_m for k in range(m)]

    @pytest.mark.parametrize("m", range(2, 9))
    def test_increments_are_alternating_binomials(self, m):
        incs = increments(m, 16)
        assert incs == [F((-1) ** k * math.comb(m - 1, k), 16) for k in range(m)]
        assert sum(incs) == 0

    def test_c_is_base(self):
        pair = make_parsimonious_pair(tuple(range(1, 9)), 2, 3, 32)
        assert pair.c == ep(*range(1, 9))
        diffs = [d - c for c, d in zip(pair.c.outcomes, pair.d.outcomes)]
        assert diffs[2:5] == [F(1, 32), F(-2, 32), F(1, 32)]
        assert all(v == 0 for v in diffs[:2] + diffs[5:])

    def test_moves_must_fit(self):
        with pytest.raises(Exception):
            make_parsimonious_pair((1, 2, 3), 1, 3, 32)

    def test_small_m_rejected(self):
        with pytest.raises(Exception):
            make_parsimonious_pair((1, 2, 3), 0, 1, 32)


class TestPreferenceDirection:
    def test_third_order_directions(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        pair = make_pair(base3, good, bad, 1, 2)
        assert preference_direction(pair, DualPower(3)) >= 0
        assert preference_direction(pair, Quadratic(F(1, 2))) == 0
        assert preference_direction(pair, Identity()) == 0

    def test_fourth_order_direction(self, base4):
        good, bad = good_and_bad(4, F(1, 4))
        pair = make_pair(base4, good, bad, 1, 2)
        assert preference_direction(pair, DualPower(4)) >= 0

    def test_sandwich_between_base_and_mirror(self, base3):
        # D improves on the base and the base improves on C whenever the
        # weighting has the full alternating derivative signs
        good, bad = good_and_bad(3, F(1, 6))
        pair = make_pair(base3, good, bad, 1, 2)
        for j in (3, 4, 5, 6):
            w = DualPower(j)
            v_base = dt_value(base3, w)
            assert dt_value(pair.d, w) >= v_base
            assert v_base >= dt_value(pair.c, w)


    def test_float_families_sign_only_what_the_float_gap_resolves(self):
        # Outcomes near 1e12 with block amplitudes 1/(128 k): the true gap
        # (about 1e-5) is far below the rounding error of either float value,
        # so the only supportable answer is 0; a definite sign must be the
        # true one (mpmath at 60 digits).
        rng = random.Random(0)
        families = (TverskyKahneman(0.61), TverskyKahneman(0.8), Prelec(0.65))
        for _ in range(40):
            m = rng.randint(2, 5)
            n = rng.randint(m + 1, m + 6)
            base = ep(*(10**12 + 3 * i + rng.randint(0, 2) for i in range(n)))
            good, bad = good_and_bad(m, F(1, 128 * rng.randint(1, 64)))
            first = rng.randint(1, n - good.span - 1)
            pair = make_pair(base, good, bad, first, rng.randint(first + 1, n - good.span))
            for w in families:
                gap = dt_value_mpmath(pair.d, w) - dt_value_mpmath(pair.c, w)
                assert preference_direction(pair, w) in (0, (gap > 0) - (gap < 0))

    def test_float_families_resolve_ordinary_gaps(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        pair = make_pair(base3, good, bad, 1, 2)
        for w in (TverskyKahneman(0.8), Prelec(0.65)):
            gap = dt_value_mpmath(pair.d, w) - dt_value_mpmath(pair.c, w)
            assert abs(gap) > 1e-6
            assert preference_direction(pair, w) == (gap > 0) - (gap < 0)


class TestProvenance:
    def test_json_round_trip(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        pair = make_pair(base3, good, bad, 1, 2, seed=77)
        back = PairProvenance.from_json(pair.provenance.to_json())
        assert back == pair.provenance

    def test_rebuild_general(self, base4):
        good, bad = good_and_bad(4, F(1, 4))
        pair = make_pair(base4, good, bad, 1, 2)
        rebuilt = rebuild_pair(pair.provenance)
        assert rebuilt.c == pair.c
        assert rebuilt.d == pair.d

    @pytest.mark.parametrize("text", ["{}", "not json", "[1]"])
    def test_malformed_json_is_a_format_error(self, text):
        with pytest.raises(FormatError):
            PairProvenance.from_json(text)

    def test_missing_key_is_a_format_error(self, base3):
        good, bad = good_and_bad(3, F(1, 6))
        payload = json.loads(make_pair(base3, good, bad, 1, 2).provenance.to_json())
        del payload["good_entries"]
        with pytest.raises(FormatError, match="good_entries"):
            PairProvenance.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("order", "3"),
            ("n", "6"),
            ("pos_first", None),
            ("base_outcomes", "123456"),
            ("order", True),
            ("good_entries", [[True, "1/6"]]),
            ("bad_entries", [["0", "-1/6"]]),
            ("seed", "77"),
        ],
    )
    def test_wrong_field_type_is_a_format_error(self, base3, key, value):
        good, bad = good_and_bad(3, F(1, 6))
        payload = json.loads(make_pair(base3, good, bad, 1, 2, seed=77).provenance.to_json())
        payload[key] = value
        with pytest.raises(FormatError, match=key):
            PairProvenance.from_json(json.dumps(payload))

    @pytest.mark.parametrize("kind", ["bogus", "Parsimonious", ""])
    def test_unknown_kind_is_a_format_error(self, kind):
        # read as a general pair, a parsimonious record would rebuild a C
        # that is not its base
        payload = json.loads(make_parsimonious_pair((1, 2, 3, 4), 0, 3, 16).provenance.to_json())
        payload["kind"] = kind
        with pytest.raises(FormatError, match="'kind'"):
            PairProvenance.from_json(json.dumps(payload))

    def test_unknown_kind_built_in_code_is_a_domain_error(self):
        # from_json refuses the kind; a record made in code reaches the assembler
        prov = replace(make_parsimonious_pair((1, 2, 3, 4), 0, 3, 16).provenance, kind="bogus")
        with pytest.raises(DomainError, match="got 'bogus'"):
            rebuild_pair(prov)

    @pytest.mark.parametrize("parsimonious", [False, True])
    def test_swapped_entries_are_a_domain_error(self, base3, parsimonious):
        if parsimonious:
            pair = make_parsimonious_pair((1, 2, 3, 4), 0, 3, 16)
        else:
            pair = make_pair(base3, *good_and_bad(3, F(1, 6)), 1, 2)
        payload = json.loads(pair.provenance.to_json())
        payload["good_entries"], payload["bad_entries"] = payload["bad_entries"], payload["good_entries"]
        with pytest.raises(DomainError, match="good block first"):
            rebuild_pair(PairProvenance.from_json(json.dumps(payload)))

    @pytest.mark.parametrize("n", [2, 4])
    def test_n_other_than_the_base_size_is_a_format_error(self, base3, n):
        payload = json.loads(make_pair(base3, *good_and_bad(3, F(1, 6)), 1, 2).provenance.to_json())
        payload["n"] = n
        with pytest.raises(FormatError, match="'n'"):
            PairProvenance.from_json(json.dumps(payload))

    def test_rebuild_parsimonious(self):
        pair = make_parsimonious_pair(tuple(range(1, 9)), 3, 4, 64, seed=5)
        rebuilt = rebuild_pair(PairProvenance.from_json(pair.provenance.to_json()))
        assert rebuilt.c == pair.c
        assert rebuilt.d == pair.d
        assert rebuilt.provenance.seed == 5


class TestBlockStoredForm:
    """A block keeps its order and integer form only; entries is the
    Fraction recursion of tests/oracles.py, and equality and hash are
    those of (order, entries)."""

    # (m, delta, gaps) from a small space, so that two draws often agree
    BLOCK_SPECS = st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.builds(F, st.sampled_from((-2, -1, 1, 2)), st.sampled_from((1, 3, 4))),
            st.lists(st.sampled_from((1, 2)), min_size=m - 2, max_size=m - 2).map(tuple),
        )
    )

    @given(BLOCK_SPECS, BLOCK_SPECS)
    @settings(max_examples=150, deadline=None)
    def test_blocks_store_only_order_and_integer_form(self, spec, other):
        built = []
        for m, delta, gaps in (spec, other):
            ref = block_entries_reference(delta, gaps)
            for block in (make_block(m, delta, gaps), Block(m, ref)):
                assert set(vars(block)) == {"order", "_ints"}
                assert block.entries == ref and all(type(v) is F for _, v in block.entries)
                assert block.order == m and block.span == ref[-1][0] == sum(gaps)
                built.append((block, (m, ref)))
        for a, ref_a in built:
            for b, ref_b in built:
                assert (a == b) is (ref_a == ref_b)
                if a == b:
                    assert hash(a) == hash(b)

    def test_blocks_stay_immutable(self):
        block = make_block(3, F(1, 4))
        with pytest.raises(AttributeError, match="cannot assign to field 'order'"):
            block.order = 4
        assert repr(block) == "Block(order=3, entries=((0, Fraction(1, 4)), (1, Fraction(-1, 4))))"


def _recorded_pair(kind, rng, m):
    """An order-m pair of the given kind on a random base: make_pair with
    amplitude 1/64 at states 1 and 2, make_parsimonious_pair, or random_pair."""
    if kind == "random":
        return random_pair(rng, m)
    base = random_base(rng, m)
    if kind == "parsimonious":
        j = rng.randint(0, base.n - m)
        big_m = 2 ** (m + 1) * rng.randint(1, 4)
        return make_parsimonious_pair(base.outcomes, j, m, big_m, seed=rng.randint(0, 99))
    return make_pair(base, *good_and_bad(m, F(1, 64)), 1, 2)


class TestRecordHoldsItsParts:
    """A PairProvenance holds the base and the blocks; its JSON round-trips
    byte for byte and rebuilds the same pair."""

    @given(st.sampled_from(("general", "parsimonious", "random")), st.integers(0, 2**32), st.integers(2, 6))
    @settings(max_examples=120, deadline=None)
    def test_records_round_trip(self, kind, seed, m):
        pair = _recorded_pair(kind, random.Random(seed), m)
        prov = pair.provenance
        assert set(vars(prov)) == {"kind", "base", "good", "bad", "pos_first", "pos_second", "seed"}
        assert prov.base is pair.c if kind == "parsimonious" else prov.base.n == pair.c.n
        text = prov.to_json()
        back = PairProvenance.from_json(text)
        assert back == prov and back.to_json() == text
        assert back._payload() == json.loads(text)
        assert rebuild_pair(back) == pair
        assert back.order == m and (back.big_m is None) is (kind != "parsimonious")

    @pytest.mark.parametrize(
        "kind, key, value, error, match",
        [
            ("general", "base_outcomes", ["3", "1", "2", "4", "7"], RankViolation,
             "^outcomes must be non-decreasing; state 1 has 1 after 3$"),
            ("parsimonious", "base_outcomes", ["-1", "2", "4", "7", "9"], NegativeOutcome,
             "^outcome -1 at state 0 is negative$"),
            ("general", "good_entries", [[0, "0"], [1, "1/8"]], DomainError,
             "^a block needs a nonzero increment at offset 0: its sign is the polarity$"),
            ("parsimonious", "bad_entries", [[0, "-1/16"], [0, "1/16"]], DomainError,
             "^block offsets must be strictly increasing$"),
            ("parsimonious", "big_m", "17", FormatError,
             "^pair provenance field 'big_m' must be 16, as the blocks give, got '17'$"),
            ("general", "big_m", "16", FormatError,
             "^pair provenance field 'big_m' must be null, as the blocks give, got '16'$"),
        ],
    )
    def test_typed_errors_surface_at_from_json(self, kind, key, value, error, match):
        if kind == "general":
            pair = make_pair(ep(1, 2, 4, 7, 9), *good_and_bad(3, F(1, 8)), 1, 2)
        else:
            pair = make_parsimonious_pair((1, 2, 4, 7, 9), 0, 3, 16)
        payload = json.loads(pair.provenance.to_json())
        payload[key] = value
        with pytest.raises(error, match=match) as raised:
            PairProvenance.from_json(json.dumps(payload))
        assert type(raised.value) is error

    @pytest.mark.parametrize("absent", [False, True])
    def test_a_null_or_absent_big_m_is_derived(self, absent):
        pair = make_parsimonious_pair((1, 2, 4, 7), 0, 3, 16)
        payload = json.loads(pair.provenance.to_json())
        if absent:
            del payload["big_m"]
        else:
            payload["big_m"] = None
        back = PairProvenance.from_json(json.dumps(payload))
        assert back == pair.provenance and back.big_m == 16


@st.composite
def pairs(draw):
    """Order 2..5 pairs from random_pair or make_parsimonious_pair (on a
    random_base, or on small integers with ties and zeros that the moves
    leave ranked), often rebuilt from their provenance JSON."""
    m = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "parsimonious", "tied")))
    if kind == "random":
        pair = random_pair(rng, m)
    else:
        if kind == "parsimonious":
            outcomes = random_base(rng, m).outcomes
        else:
            outcomes = sorted(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m + 4)))
        j = draw(st.integers(0, len(outcomes) - m))
        try:
            pair = make_parsimonious_pair(outcomes, j, m, 2 ** (m + 1) * draw(st.integers(1, 8)))
        except (NegativeOutcome, RankViolation):
            assume(False)
    if draw(st.booleans()):
        pair = rebuild_pair(PairProvenance.from_json(pair.provenance.to_json()))
    return pair


@st.composite
def mixtures(draw):
    orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
    raw = [draw(st.integers(1, 5)) for _ in orders]
    return dual_power_mixture({k: F(r, sum(raw)) for k, r in zip(orders, raw)})


@st.composite
def monotone_polynomials(draw):
    """(1 + c) p - c p^k with 0 <= c <= 1/(k - 1), mixed with p^j: h' >= 0."""
    k, j = draw(st.integers(2, 7)), draw(st.integers(1, 7))
    c = draw(st.fractions(0, F(1, k - 1), max_denominator=16))
    lam = draw(st.fractions(0, 1, max_denominator=8))
    coeffs = [F(0)] * (max(k, j) + 1)
    coeffs[1] += lam * (1 + c)
    coeffs[k] -= lam * c
    coeffs[j] += 1 - lam
    return Polynomial(tuple(coeffs))


@st.composite
def tabulated(draw):
    xs = sorted(draw(st.sets(st.fractions(F(1, 64), F(63, 64), max_denominator=64), max_size=6)))
    ys = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=64), min_size=len(xs), max_size=len(xs))))
    return Tabulated(((F(0), F(0)), *zip(xs, ys), (F(1), F(1))))


EXACT_WEIGHTINGS = st.one_of(
    st.just(Identity()),
    st.fractions(0, 1, max_denominator=12).map(Quadratic),
    st.integers(1, 12).map(DualPower),
    st.integers(1, 9).map(Power),
    mixtures(),
    monotone_polynomials(),
    tabulated(),
)
FLOAT_WEIGHTINGS = st.one_of(
    st.floats(0.3, 2.0).map(TverskyKahneman),
    st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)).map(lambda ab: Prelec(*ab)),
    st.fractions(F(1, 8), 6, max_denominator=9).filter(lambda k: k.denominator > 1).map(Power),
)


class TestMovedStates:
    """preference_direction reads an exact family's gap from the moved
    states alone; the oracle values both members in full with dt_value."""

    @settings(max_examples=300, deadline=None)
    @given(pairs(), EXACT_WEIGHTINGS)
    def test_exact_families_match_the_full_valuation(self, pair, w):
        assert moved_state_gap(pair, w) == dt_value(pair.d, w) - dt_value(pair.c, w)
        assert preference_direction(pair, w) == preference_direction_reference(pair, w)

    @settings(max_examples=150, deadline=None)
    @given(pairs(), FLOAT_WEIGHTINGS)
    def test_float_families_keep_the_band(self, pair, w):
        assert preference_direction(pair, w) == preference_direction_reference(pair, w)

    def test_moved_states_are_the_differing_states(self):
        pair = make_pair(ep(1, 2, 4, 7), *good_and_bad(3, F(1, 6)), 1, 2)
        moved, den = pair.moved_states
        expected = [(i, d - c) for i, (c, d) in enumerate(zip(pair.c.outcomes, pair.d.outcomes), 1) if c != d]
        assert [(i, F(v, den)) for i, v in moved] == expected
        assert den == math.lcm(*(x.denominator for x in pair.c.outcomes + pair.d.outcomes))

    def test_members_with_different_state_counts(self):
        pair = make_pair(ep(1, 2, 4, 7), *good_and_bad(3, F(1, 6)), 1, 2)
        by_hand = ApportionmentPair(pair.c, ep(*pair.d.outcomes, 9), pair.provenance)
        with pytest.raises(ConstructionInvariantError, match="different state counts"):
            preference_direction(by_hand, DualPower(3))

    # 2^19 passes the bound on one bit, but not on the 3 bits of n = 4
    @pytest.mark.parametrize("w", [DualPower(10**7), Power(10**7), DualPower(2**19), Power(2**19)])
    def test_order_past_the_size_bound(self, w):
        pair = make_parsimonious_pair((1, 2, 3, 4), 0, 3, 16)
        with pytest.raises(DomainError) as full:
            dt_value(pair.d, w)
        with pytest.raises(DomainError) as moved:
            preference_direction(pair, w)
        assert type(moved.value) is type(full.value) is DomainError
        assert str(moved.value) == str(full.value) == (
            "order too large for an exact value: its powers would need more than 1048576 bits"
        )


class TestNestedClass:
    """The j-th dual-moment gap of an order-m pair, three ways: zero below
    m, non-negative from m on."""

    @settings(max_examples=100, deadline=None)
    @given(pairs())
    def test_dual_moment_gaps(self, pair):
        m, n = pair.order, pair.c.n
        steps = [d - c for c, d in zip(pair.c.outcomes, pair.d.outcomes)]
        for j in range(1, m + 4):
            by_weights = sum(s * wt for s, wt in zip(steps, dual_moment_weights(n, j)))
            by_moments = dual_moment(pair.d, j) - dual_moment(pair.c, j)
            by_moved = moved_state_gap(pair, DualPower(j))
            assert by_weights == by_moments == by_moved
            if j < m:
                assert by_moved == 0
            else:
                assert by_moved >= 0
