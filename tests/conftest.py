"""Shared fixtures: the worked-example lotteries and random generators."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dualrisk import EqualProbLottery, make_lottery

F = Fraction


@pytest.fixture(scope="session")
def lottery_i():
    return make_lottery([(2, F(1, 2)), (3, F(1, 2))])


@pytest.fixture(scope="session")
def lottery_a():
    return make_lottery([(0, F(1, 6)), (3, F(5, 6))])


@pytest.fixture(scope="session")
def lottery_b():
    return make_lottery([(1, F(1, 6)), (2, F(1, 2)), (4, F(1, 3))])


@pytest.fixture(scope="session")
def base3():
    return EqualProbLottery((F(1), F(2), F(4)))


@pytest.fixture(scope="session")
def base4():
    return EqualProbLottery((F(1), F(2), F(4), F(7)))


def rational(min_value=0, max_value=16, max_den=12):
    return st.fractions(min_value=min_value, max_value=max_value, max_denominator=max_den)


@st.composite
def lotteries(draw, max_states=6, max_outcome=16):
    """Random valid lotteries with dyadic-ish probabilities summing to 1."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    outcomes = draw(
        st.lists(rational(0, max_outcome), min_size=n, max_size=n)
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=n, max_size=n))
    total = sum(weights)
    return make_lottery([(x, F(w, total)) for x, w in zip(outcomes, weights)])


@st.composite
def equal_prob_lotteries(draw, min_states=2, max_states=8, max_outcome=24):
    n = draw(st.integers(min_value=min_states, max_value=max_states))
    outcomes = sorted(draw(st.lists(rational(0, max_outcome), min_size=n, max_size=n)))
    return EqualProbLottery(tuple(outcomes))


@st.composite
def tied_lotteries(draw, max_states=7, max_outcome=16):
    """Random lotteries whose states share a few outcomes, often including 0."""
    pool = draw(st.lists(rational(0, max_outcome), min_size=1, max_size=3))
    if draw(st.booleans()):
        pool.append(F(0))
    n = draw(st.integers(min_value=1, max_value=max_states))
    outcomes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=n, max_size=n))
    total = sum(weights)
    return make_lottery([(x, F(w, total)) for x, w in zip(outcomes, weights)])
