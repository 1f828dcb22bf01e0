from fractions import Fraction

import pytest
from hypothesis import given

from dualrisk import (
    DomainError,
    EqualProbLottery,
    FormatError,
    NegativeOutcome,
    NonPositiveProbability,
    NonUnitMass,
    canonical_distribution,
    equal_prob_from_lottery,
    format_lottery_text,
    make_lottery,
    mean,
    parse_lottery_text,
)

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
        ep = EqualProbLottery(3, (F(1), F(2), F(4)))
        assert equal_prob_from_lottery(ep.to_lottery()) == ep

    def test_rejects_unequal_probabilities(self, lottery_a):
        with pytest.raises(DomainError):
            equal_prob_from_lottery(lottery_a)

    def test_rejects_unsorted(self):
        with pytest.raises(Exception):
            EqualProbLottery(2, (F(3), F(1)))


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
