import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dualrisk import (
    DomainError,
    DualPower,
    EqualProbLottery,
    FormatError,
    Identity,
    Lottery,
    NegativeOutcome,
    NonPositiveProbability,
    NonUnitMass,
    canonical_distribution,
    equal_prob_from_lottery,
    format_lottery_text,
    make_block,
    make_lottery,
    mean,
    Polynomial,
    Power,
    Quadratic,
    RankViolation,
    attach,
    dt_value,
    dual_moment,
    dual_power_mixture,
    parse_lottery_text,
    primal_moment,
    random_base,
    raw_moment,
)
from dualrisk.rationals import _common_denominator

from conftest import lotteries
from oracles import cdf, quantile, survival

F = Fraction


class TestMakeLottery:
    def test_section_example(self, lottery_i):
        assert lottery_i.states == ((F(2), F(1, 2)), (F(3), F(1, 2)))

    def test_point_mass(self):
        assert make_lottery([(5, 1)]).states == ((F(5), F(1)),)

    def test_sorts_by_outcome(self):
        lot = make_lottery([(3, F(1, 2)), (1, F(1, 2))])
        assert lot.outcomes == (F(1), F(3))

    def test_keeps_duplicate_outcomes_distinct(self):
        lot = make_lottery([(2, F(1, 2)), (2, F(1, 2))])
        assert len(lot) == 2

    def test_mass_must_be_one(self):
        with pytest.raises(NonUnitMass):
            make_lottery([(1, F(1, 2)), (2, F(1, 3))])

    def test_no_negative_outcomes(self):
        with pytest.raises(NegativeOutcome):
            make_lottery([(-1, F(1, 2)), (2, F(1, 2))])

    def test_no_zero_probability(self):
        with pytest.raises(NonPositiveProbability):
            make_lottery([(1, F(0)), (2, F(1))])


class TestLotteryConstructor:
    """Lottery(states) built directly runs make_lottery's checks and never
    reorders the states."""

    @pytest.mark.parametrize(
        "states, error",
        [
            (((F(-1), F(3, 2)),), NegativeOutcome),
            (((F(1), F(1, 2)), (F(-2), F(1, 2))), NegativeOutcome),
            (((F(1), F(0)), (F(2), F(1))), NonPositiveProbability),
            (((F(1), F(3, 2)), (F(2), F(-1, 2))), NonPositiveProbability),
            (((F(1), F(1, 2)), (F(2), F(1, 3))), NonUnitMass),
            ((), NonUnitMass),
            (((F(3), F(1, 2)), (F(1), F(1, 2))), RankViolation),
        ],
    )
    def test_bad_states_raise_the_typed_error(self, states, error):
        with pytest.raises(error):
            Lottery(states)

    def test_ranked_states_equal_make_lottery(self):
        states = ((F(1), F(1, 3)), (F(1), F(1, 6)), (F(5, 2), F(1, 2)))
        lot = Lottery(states)
        assert lot == make_lottery(states) and lot.states == states
        assert lot._ints == make_lottery(states)._ints


class TestCdfQuantile:
    def test_cdf_at_low_state(self, lottery_a):
        assert cdf(lottery_a, 0) == F(1, 6)

    def test_cdf_below_support(self, lottery_a):
        assert cdf(lottery_a, F(-1, 100)) == 0

    def test_cdf_at_max(self, lottery_a):
        assert cdf(lottery_a, 3) == 1

    def test_quantile_steps(self, lottery_a):
        assert quantile(lottery_a, F(1, 6)) == 0
        assert quantile(lottery_a, F(1, 6) + F(1, 1000)) == 3

    def test_quantile_point_mass(self):
        pm = make_lottery([(7, 1)])
        for q in (F(1, 100), F(1, 2), F(1)):
            assert quantile(pm, q) == 7

    @pytest.mark.parametrize("q", [0, F(-1, 2), F(3, 2)])
    def test_quantile_domain(self, lottery_a, q):
        with pytest.raises(DomainError):
            quantile(lottery_a, q)

    @given(lotteries())
    def test_cdf_survival_identity(self, lot):
        for x in list(lot.outcomes) + [F(-1), F(0), F(100)]:
            assert cdf(lot, x) + survival(lot, x) == 1

    @given(lotteries())
    def test_quantile_inverse_bound(self, lot):
        last = None
        for x in lot.outcomes:
            assert quantile(lot, cdf(lot, x)) <= x
            if last is not None:
                assert cdf(lot, last) <= cdf(lot, x)
            last = x


class TestCanonical:
    def test_merges_point_mass(self):
        lot = make_lottery([(2, F(1, 2)), (2, F(1, 2))])
        assert canonical_distribution(lot).states == ((F(2), F(1)),)

    def test_merge_rule(self):
        lot = make_lottery(
            [(F(5, 4), F(1, 4)), (F(5, 4), F(1, 4)), (F(19, 4), F(1, 4)), (F(27, 4), F(1, 4))]
        )
        assert canonical_distribution(lot).states == (
            (F(5, 4), F(1, 2)),
            (F(19, 4), F(1, 4)),
            (F(27, 4), F(1, 4)),
        )

    def test_idempotent(self, lottery_b):
        once = canonical_distribution(lottery_b)
        assert canonical_distribution(once) == once

    @given(lotteries())
    def test_preserves_cdf_everywhere(self, lot):
        can = canonical_distribution(lot)
        eps = F(1, 997)
        for x in lot.outcomes:
            for probe in (x - eps, x, x + eps):
                assert cdf(can, probe) == cdf(lot, probe)


class TestEqualProb:
    def test_round_trip(self):
        ep = EqualProbLottery((F(1), F(2), F(4)))
        assert equal_prob_from_lottery(Lottery(ep.states)) == ep

    def test_rejects_unequal_probabilities(self, lottery_a):
        with pytest.raises(DomainError):
            equal_prob_from_lottery(lottery_a)

    def test_rejects_unsorted(self):
        with pytest.raises(Exception):
            EqualProbLottery((F(3), F(1)))

    def test_n_is_the_number_of_outcomes(self):
        assert EqualProbLottery((1, 2, 2)).n == 3
        with pytest.raises(DomainError):
            EqualProbLottery(())


class TestTextFormat:
    def test_parse_basic(self):
        lot = parse_lottery_text("# comment\n1 1/6\n2 1/2\n4 1/3\n")
        assert lot.outcomes == (F(1), F(2), F(4))

    def test_round_trip(self, lottery_b):
        assert parse_lottery_text(format_lottery_text(lottery_b)) == lottery_b

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError) as exc:
            parse_lottery_text("1 1/2\nbogus\n", source="f.txt")
        assert exc.value.line == 2
        assert "f.txt" in str(exc.value)

    def test_invariant_violations_positioned(self):
        with pytest.raises(FormatError) as exc:
            parse_lottery_text("1 1/2\n2 0\n")
        assert exc.value.line == 2

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            parse_lottery_text("# nothing\n")


def test_mean(lottery_a, lottery_b):
    assert mean(lottery_a) == F(5, 2)
    assert mean(lottery_b) == F(5, 2)


# ---------------------------------------------------------------------------
# the integer lottery core against the Fraction references

COPRIME = (1, 2, 3, 5, 7, 11, 13, 17)


@st.composite
def core_lotteries(draw):
    """Lotteries from make_lottery, parse_lottery_text or EqualProbLottery,
    with tied outcomes, states at 0 and pairwise coprime denominators."""
    n = draw(st.integers(1, 7))
    pool = draw(
        st.lists(
            st.builds(Fraction, st.integers(0, 40), st.sampled_from(COPRIME)), min_size=1, max_size=4
        )
    )
    if draw(st.booleans()):
        pool.append(Fraction(0))
    outcomes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    route = draw(st.sampled_from(("make", "parse", "equal")))
    if route == "equal":
        return EqualProbLottery(tuple(sorted(outcomes)))
    raw = [
        Fraction(w, d)
        for w, d in zip(
            draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from(COPRIME), min_size=n, max_size=n)),
        )
    ]
    probs = [r / sum(raw) for r in raw]
    if route == "make":
        return make_lottery(zip(outcomes, probs))
    return parse_lottery_text("".join(f"{x} {p}\n" for x, p in zip(outcomes, probs)))


def _poly_families():
    return (
        Identity(),
        Quadratic(Fraction(1, 3)),
        Power(3),
        DualPower(4),
        dual_power_mixture({2: Fraction(1, 3), 5: Fraction(2, 3)}),
        Polynomial((Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1, 2))),
    )


class TestIntegerCore:
    @given(core_lotteries())
    @example(make_lottery([(0, 1)]))
    @example(EqualProbLottery((Fraction(0), Fraction(0), Fraction(5, 7))))
    def test_moments_equal_the_fraction_sums(self, lot):
        got = mean(lot)
        assert type(got) is Fraction and got == oracles.mean(lot)
        for k in range(1, 7):
            raw, central = raw_moment(lot, k), primal_moment(lot, k)
            assert type(raw) is Fraction and raw == oracles.raw_moment(lot, k)
            assert type(central) is Fraction and central == oracles.primal_moment(lot, k)

    @given(core_lotteries())
    @example(make_lottery([(0, Fraction(1, 3)), (0, Fraction(2, 3))]))
    def test_survival_sweep_equals_the_fraction_loops(self, lot):
        for m in range(1, 5):
            got = dual_moment(lot, m)
            assert type(got) is Fraction and got == oracles.dual_moment_survival(lot, m)
        for w in _poly_families():
            got = dt_value(lot, w)
            assert type(got) is Fraction and got == oracles.dt_value_cdf_form(lot, w)

    @given(core_lotteries())
    @example(make_lottery([(1, Fraction(1, 6)), (1, Fraction(1, 6)), (2, Fraction(2, 3))]))
    def test_canonical_distribution_merges_on_the_integer_form(self, lot):
        can = canonical_distribution(lot)
        assert can.states == oracles.canonical_distribution_fraction(lot).states
        # the carried form is the one the states give: numerators over lcm denominators
        xs, xd, ps, pd = can._ints
        assert (xs, xd) == _common_denominator(can.outcomes)
        assert (ps, pd) == _common_denominator(can.probabilities)

    @given(core_lotteries())
    def test_equal_prob_and_its_lottery_agree(self, lot):
        if isinstance(lot, EqualProbLottery):
            as_lot = Lottery(lot.states)
            assert mean(as_lot) == mean(lot)
            assert [primal_moment(as_lot, k) for k in (2, 3)] == [primal_moment(lot, k) for k in (2, 3)]
            assert dual_moment(as_lot, 3) == dual_moment(lot, 3)


# ---------------------------------------------------------------------------
# parse_lottery_text against a parser that reads every literal with rat

_DIGITS = st.integers(0, 10**6).map(str)
_TOKENS = st.one_of(
    _DIGITS,
    st.tuples(_DIGITS, _DIGITS).map("/".join),
    st.tuples(st.sampled_from(("0", "00", "007")), _DIGITS).map("".join),
    st.builds(lambda a, b: f"{a}/0{b}", _DIGITS, _DIGITS),
    st.builds(lambda a, b: f"{a}.{b}", _DIGITS, _DIGITS),
    st.builds(lambda a, e: f"{a}e{e}", _DIGITS, st.integers(-5, 5)),
    st.builds(lambda s, t: s + t, st.sampled_from(("+", "-")), _DIGITS),
    st.builds(lambda s, a, b: f"{s}{a}/{b}", st.sampled_from(("+", "-")), _DIGITS, _DIGITS),
    st.sampled_from(
        (
            "-0", "+0", "-0/3", "1/0", "0/0", "00/5", "0.5", ".5", "5.", "1e0", "2.5E-2", "1_000",
            "1__0", "1_000/3", "\u0661\u0662", "1/\u0663", "\uff11", "\u00b2", "1/2/3", "/5", "5/",
            "abc", "1/-2", "0x10", "inf", "nan", "\u0661.5",
        )
    ),
)
_UNIT_SPLITS = (
    ("1",),
    ("1/2", "0.5"),
    ("2/4", "02/4"),
    ("1/3", "1/3", "1/3"),
    ("0.25", "1/4", "+1/4", "25e-2"),
    ("1/2", "1/3", "1/6"),
    ("1/2", "1/3"),  # mass 5/6
    ("1/2", "0", "1/2"),  # a zero probability
)


@st.composite
def lottery_texts(draw):
    probs = list(draw(st.sampled_from(_UNIT_SPLITS)))
    if draw(st.booleans()):
        probs[draw(st.integers(0, len(probs) - 1))] = draw(_TOKENS)
    outcomes = draw(st.lists(_TOKENS, min_size=len(probs), max_size=len(probs)))
    return "".join(f"{x} {p}\n" for x, p in zip(outcomes, probs))


def _outcome(parse, text):
    try:
        return "ok", parse(text, source="in.txt").states
    except Exception as exc:
        return type(exc), str(exc)


class TestParseEquivalence:
    @given(lottery_texts())
    @example("3 1/2\n-1 1/2\n")
    @example("3 1/2\n1 0\n")
    @example("1 1/2\n2 1/3\n")
    @example("1/0 1\n")
    @example("1_000 1\n")
    @example("\u0661 1\n")
    @example("-0 1\n")
    @example("4 1/2\n2 1/2\n2 0/1\n")
    @example("1" * 4301 + " 1\n")
    def test_same_states_or_the_same_error(self, text):
        assert _outcome(parse_lottery_text, text) == _outcome(oracles.parse_lottery_fraction, text)

    @given(lottery_texts())
    def test_integer_form_matches_the_states(self, text):
        try:
            lot = parse_lottery_text(text)
        except Exception:
            return
        xs, xd, ps, pd = lot._ints
        assert [Fraction(a, xd) for a in xs] == list(lot.outcomes)
        assert [Fraction(p, pd) for p in ps] == list(lot.probabilities)


# ---------------------------------------------------------------------------
# one stored form: whichever constructor built a lottery, it keeps only its
# integer form, and its views, equality and hash are those of its states

OUTCOME_POOL = st.builds(F, st.integers(0, 30), st.sampled_from((1, 2, 3, 5, 7, 12)))


@st.composite
def raw_states(draw):
    """Unsorted (outcome, probability) pairs: outcomes from a pool of at
    most four, often holding 0, so states tie; mixed denominators; equal
    probabilities half of the time."""
    pool = draw(st.lists(OUTCOME_POOL, min_size=1, max_size=3)) + [F(0)] * draw(st.booleans())
    n = draw(st.integers(1, 6))
    outcomes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    weights = [1] * n if draw(st.booleans()) else draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    return [(x, F(w, sum(weights))) for x, w in zip(outcomes, weights)]


def _built(raw):
    """(lottery, reference states) for each constructor that takes the
    states raw; the references are Fraction tuples, stably sorted by
    outcome (and merged for canonical_distribution)."""
    ref = tuple(sorted(raw, key=lambda s: s[0]))
    built = [
        (Lottery(ref), ref),
        (make_lottery(raw), ref),
        (parse_lottery_text("".join(f"{x} {p}\n" for x, p in raw)), ref),
        (canonical_distribution(make_lottery(raw)), oracles.canonical_states_reference(ref)),
    ]
    if all(p == raw[0][1] for _, p in raw):
        outcomes = tuple(x for x, _ in ref)
        built += [(EqualProbLottery(outcomes), ref), (equal_prob_from_lottery(make_lottery(raw)), ref)]
        if len(ref) > 1:  # the lowest state down and the top one up by 1/60, in Fractions
            low, top = make_block(2, F(-1, 60)), make_block(2, F(1, 60))
            try:
                moved = oracles.attach_reference(EqualProbLottery(outcomes), low, top, 1, len(ref))[0]
            except NegativeOutcome:
                pass
            else:
                member = attach(EqualProbLottery(outcomes), low, top, 1, len(ref))
                built.append((member, tuple((x, raw[0][1]) for x in moved)))
    return built


def _check_stored_form(lot, ref):
    """lot holds only _ints until a view is read; the views are the
    reference's Fractions, and the text format reads back to an equal
    lottery with the same hash."""
    assert set(vars(lot)) == {"_ints"}
    assert lot.states == ref and len(lot) == len(ref)
    assert lot.outcomes == tuple(x for x, _ in ref) and lot.probabilities == tuple(p for _, p in ref)
    assert all(type(v) is F for state in lot.states for v in state)
    back = parse_lottery_text(format_lottery_text(lot))
    assert set(vars(back)) == {"_ints"}
    assert back == lot and hash(back) == hash(lot) and back.states == ref


class TestOneStoredForm:
    @given(raw_states(), raw_states())
    @settings(max_examples=150, deadline=None)
    def test_every_constructor_stores_the_integer_form_of_its_states(self, raw, other):
        built = _built(raw) + _built(other)
        for lot, ref in built:
            _check_stored_form(lot, ref)
        for a, ref_a in built:
            for b, ref_b in built:
                assert (a == b) is (ref_a == ref_b)
                if a == b:
                    assert hash(a) == hash(b)

    @given(st.integers(0, 2**32), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_random_bases_read_as_their_fraction_draw(self, seed, m):
        base = random_base(random.Random(seed), m)
        outcomes = oracles.random_base_reference(random.Random(seed), m)
        _check_stored_form(base, tuple((x, F(1, len(outcomes))) for x in outcomes))
        assert base == EqualProbLottery(outcomes) and hash(base) == hash(EqualProbLottery(outcomes))

    def test_lotteries_stay_immutable(self):
        lot = make_lottery([(1, F(1, 2)), (3, F(1, 2))])
        for target in (lot, EqualProbLottery((1, 3))):
            with pytest.raises(AttributeError, match="cannot assign to field 'states'"):
                target.states = ()
            with pytest.raises(AttributeError, match="cannot delete field '_ints'"):
                del target._ints
        assert repr(lot) == "Lottery(states=((Fraction(1, 1), Fraction(1, 2)), (Fraction(3, 1), Fraction(1, 2))))"
