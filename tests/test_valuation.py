"""Valuation against independent oracles.

The reference evaluator below recomputes the rank-dependent sum from
scratch (its own CDF accumulation, no shared code with the library), so
the closed-form values frozen in these tests were produced by something
the implementation cannot echo.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualrisk import (
    DomainError,
    DualPower,
    DualRiskError,
    EqualProbLottery,
    Identity,
    LinearUtility,
    NonMonotoneUtility,
    Polynomial,
    Power,
    Prelec,
    Quadratic,
    QuadraticUtility,
    Tabulated,
    TabulatedUtility,
    TverskyKahneman,
    canonical_distribution,
    dt_value,
    dual_moment,
    eu_value,
    eval_h,
    make_lottery,
    mean,
    primal_moment,
    raw_moment,
)
from dualrisk.valuation import _moment_rows

from conftest import equal_prob_lotteries, lotteries, rational, tied_lotteries
from oracles import (
    dt_value_cdf_form,
    dt_value_survival_loop,
    dual_moment_mc_oracle,
    dual_moment_survival,
    dual_moment_weights,
    eu_value_reference,
    primal_moment as primal_moment_reference,
)

F = Fraction


def reference_value(lot, h):
    """Plain transcription of the weighted-CDF sum, h a callable."""
    can = canonical_distribution(lot)
    total = F(0)
    running = F(0)
    prev_weight = F(0)
    for x, p in can.states:
        running += p
        w = h(running)
        total += x * (w - prev_weight)
        prev_weight = w
    return total


class TestDtValue:
    def test_divergence_pair_closed_forms(self, lottery_a, lottery_b):
        for beta in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            w = Quadratic(beta)
            va = dt_value(lottery_a, w)
            vb = dt_value(lottery_b, w)
            assert va == F(5, 2) - beta * F(5, 12)
            assert vb == F(5, 2) - beta * F(7, 12)
            assert va - vb == beta / 6
            h = lambda p: (1 + beta) * p - beta * p * p
            assert va == reference_value(lottery_a, h)
            assert vb == reference_value(lottery_b, h)

    def test_point_mass(self):
        pm = make_lottery([(F(13, 7), 1)])
        for w in (Identity(), Quadratic(F(1)), DualPower(4)):
            assert dt_value(pm, w) == F(13, 7)

    def test_second_dual_moment_identity(self, lottery_a):
        assert dt_value(lottery_a, DualPower(2)) == F(25, 12)

    @given(lotteries())
    @settings(max_examples=50)
    def test_matches_reference_on_random(self, lot):
        beta = F(2, 3)
        h = lambda p: (1 + beta) * p - beta * p * p
        assert dt_value(lot, Quadratic(beta)) == reference_value(lot, h)

    @given(lotteries())
    @settings(max_examples=50)
    def test_identity_is_mean(self, lot):
        assert dt_value(lot, Identity()) == mean(lot)
        assert eu_value(lot, LinearUtility()) == mean(lot)
        assert dual_moment(lot, 1) == mean(lot)
        assert primal_moment(lot, 1) == mean(lot)

    @given(lotteries())
    @settings(max_examples=40)
    def test_duplicate_states_valued_identically(self, lot):
        # split the last state in two; the distribution is unchanged
        *rest, (x, p) = lot.states
        split = make_lottery(list(rest) + [(x, p / 2), (x, p - p / 2)])
        assert dt_value(split, DualPower(3)) == dt_value(lot, DualPower(3))

    def test_translation_and_scale(self, lottery_b):
        w = DualPower(3)
        a, b = F(5, 4), F(3, 2)
        moved = make_lottery([(a + b * x, p) for x, p in lottery_b.states])
        assert dt_value(moved, w) == a + b * dt_value(lottery_b, w)

    def test_survival_form_agrees(self, lottery_b):
        # hbar applied to survival probabilities, written out directly
        w = Quadratic(F(1, 3))
        can = canonical_distribution(lottery_b)
        surv = F(1)
        prev = F(0)
        acc = F(0)
        for x, p in can.states:
            hbar = 1 - eval_h(w, 1 - surv)
            acc += hbar * (x - prev)
            prev = x
            surv -= p
        assert dt_value(lottery_b, w) == acc


unit = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def polynomial_weightings(draw):
    """lam p^k + (1 - lam)(1 - (1 - p)^m): increasing, from 0 to 1."""
    lam = draw(unit)
    k = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    coeffs = [F(0)] * (max(k, m) + 1)
    coeffs[k] += lam
    for j in range(1, m + 1):
        coeffs[j] -= (1 - lam) * math.comb(m, j) * (-1) ** j
    return Polynomial(tuple(coeffs))


@st.composite
def tabulated_weightings(draw):
    ps = sorted(set(draw(st.lists(unit.filter(lambda p: 0 < p < 1), max_size=4))))
    vs = sorted(draw(st.lists(unit, min_size=len(ps), max_size=len(ps))))
    return Tabulated(((F(0), F(0)), *zip(ps, vs), (F(1), F(1))))


exact_weightings = st.one_of(
    st.just(Identity()),
    st.sampled_from([Power(1), DualPower(1), Quadratic(F(0)), Quadratic(F(1))]),
    st.builds(Quadratic, unit),
    st.builds(DualPower, st.integers(min_value=1, max_value=6)),
    st.builds(Power, st.integers(min_value=1, max_value=5)),
    polynomial_weightings(),
    tabulated_weightings(),
)


class TestSurvivalFormIsCdfForm:
    @given(st.one_of(tied_lotteries(), lotteries()), exact_weightings)
    @settings(max_examples=300, deadline=None)
    def test_exact_families(self, lot, w):
        value = dt_value(lot, w)
        assert isinstance(value, Fraction)
        assert value == dt_value_cdf_form(lot, w)


@st.composite
def coprime_lotteries(draw):
    """Probabilities 1/q for distinct odd primes q plus the remainder, so the
    lcm of the probability denominators is the product of the primes."""
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    primes = draw(st.lists(st.sampled_from(odd_primes), max_size=6, unique=True))
    probs = [F(1, q) for q in primes]
    probs.append(1 - sum(probs))
    pool = draw(st.lists(rational(0, 16), min_size=1, max_size=4))
    n = len(probs)
    outcomes = draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=n, max_size=n))
    return make_lottery(list(zip(outcomes, probs)))


any_lottery = st.one_of(
    tied_lotteries(), lotteries(), equal_prob_lotteries(min_states=1), coprime_lotteries()
)
zero_point_masses = (
    make_lottery([(0, 1)]),
    EqualProbLottery((F(0),)),
    EqualProbLottery((F(0),) * 3),
)


class TestIntegerSweep:
    """dt_value on polynomial families and dual_moment share the integer
    survival sweep; these check it against the Fraction oracles."""

    @given(st.one_of(tied_lotteries(), lotteries(), equal_prob_lotteries(min_states=1)))
    @settings(max_examples=200, deadline=None)
    def test_dual_moment_matches_survival_oracle(self, lot):
        for m in range(1, 9):
            assert dual_moment(lot, m) == dual_moment_survival(lot, m)

    @given(coprime_lotteries())
    @settings(max_examples=100, deadline=None)
    def test_coprime_denominators(self, lot):
        for m in range(1, 9):
            assert dual_moment(lot, m) == dual_moment_survival(lot, m)

    @given(st.one_of(any_lottery, st.sampled_from(zero_point_masses)), exact_weightings)
    @settings(max_examples=200, deadline=None)
    def test_exact_results_are_fractions(self, lot, w):
        assert type(dt_value(lot, w)) is Fraction
        assert type(dual_moment(lot, 3)) is Fraction

    def test_zero_point_mass(self):
        for lot in zero_point_masses:
            for w in (Identity(), Power(1), Power(3), DualPower(2), Quadratic(F(1, 2))):
                value = dt_value(lot, w)
                assert type(value) is Fraction and value == 0
            for m in range(1, 9):
                value = dual_moment(lot, m)
                assert type(value) is Fraction and value == 0


@st.composite
def knot_grid_cases(draw):
    """A Tabulated weighting and a lottery on one grid of step 1/q, so CDF
    levels often land on knots; segment widths differ (their lcm is > 1),
    knot values tie (flat segments), and outcomes tie and sit at 0."""
    q = draw(st.sampled_from([2, 3, 4, 6, 12, 30]))
    ps = [F(i, q) for i in sorted(set(draw(st.lists(st.integers(1, q - 1), max_size=5))))]
    if draw(st.booleans()):  # one knot off the grid
        off = F(draw(st.integers(1, 6)), 7 * q)
        ps = sorted(set(ps) | {off})
    levels = st.sampled_from([F(0), F(1, 5), F(1, 3), F(1, 2), F(1)])
    vs = sorted(draw(st.lists(levels, min_size=len(ps), max_size=len(ps))))
    w = Tabulated(((F(0), F(0)), *zip(ps, vs), (F(1), F(1))))
    cuts = sorted(set(draw(st.lists(st.integers(1, q - 1), max_size=6))))
    probs = [F(b - a, q) for a, b in zip([0, *cuts], [*cuts, q])]
    pool = draw(st.lists(rational(0, 16), min_size=1, max_size=3)) + [F(0)]
    outcomes = draw(st.lists(st.sampled_from(pool), min_size=len(probs), max_size=len(probs)))
    return make_lottery(list(zip(outcomes, probs))), w


@st.composite
def wide_lotteries(draw):
    """Outcomes and probabilities with numerators and denominators past
    2^53, so the float levels and steps round."""
    n = draw(st.integers(1, 6))
    outcomes = [F(draw(st.integers(0, 10**30)), draw(st.integers(1, 10**12))) for _ in range(n)]
    weights = draw(st.lists(st.integers(1, 10**20), min_size=n, max_size=n))
    return make_lottery([(x, F(w, sum(weights))) for x, w in zip(outcomes, weights)])


FLOAT_FAMILIES = (
    TverskyKahneman(0.61),
    TverskyKahneman(0.9),
    Prelec(0.65, 1.0),
    Prelec(0.5, 0.8),
    Power(F(3, 2)),
    Power(F(1, 3)),
)


class TestOneSweep:
    """Every family goes through the one integer sweep over the lottery's
    integer form; the references are the Fraction CDF form and the
    eval_hbar survival loop."""

    @given(knot_grid_cases())
    @example((make_lottery([(0, 1)]), Tabulated(((0, 0), (F(1, 3), F(1, 2)), (1, 1)))))
    @example(
        (
            make_lottery([(F(5, 2), 1)]),
            Tabulated(((0, 0), (F(1, 4), F(1, 2)), (F(1, 3), F(1, 2)), (1, 1))),
        )
    )
    @example(
        (
            make_lottery([(0, F(1, 4)), (2, F(1, 12)), (2, F(1, 6)), (7, F(1, 2))]),
            Tabulated(((0, 0), (F(1, 4), F(1, 5)), (F(1, 2), F(1, 3)), (1, 1))),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_tabulated_equals_the_cdf_form(self, case):
        lot, w = case
        value = dt_value(lot, w)
        assert type(value) is Fraction
        assert value == dt_value_cdf_form(lot, w) == dt_value_survival_loop(lot, w)

    @given(st.one_of(any_lottery, wide_lotteries(), st.sampled_from(zero_point_masses)))
    @settings(max_examples=200, deadline=None)
    def test_float_families_equal_the_survival_loop(self, lot):
        for w in FLOAT_FAMILIES:
            value = dt_value(lot, w)
            assert type(value) is float
            assert value == dt_value_survival_loop(lot, w)

    def test_zero_point_mass_types(self):
        knots = Tabulated(((0, 0), (F(1, 2), F(1, 4)), (1, 1)))
        for lot in zero_point_masses:
            value = dt_value(lot, knots)
            assert type(value) is Fraction and value == 0
            for w in FLOAT_FAMILIES:
                value = dt_value(lot, w)
                assert type(value) is float and value == 0.0

    @pytest.mark.parametrize("w", FLOAT_FAMILIES)
    def test_float_family_beyond_float_range(self, w):
        for lot in (make_lottery([(10**400, 1)]), make_lottery([(1, F(1, 2)), (10**309, F(1, 2))])):
            with pytest.raises(DomainError, match="within the float range"):
                dt_value(lot, w)

    def test_weighting_overflow_is_not_an_outcome_error(self):
        tiny = F(1, 10**300)
        lot = make_lottery([(1, tiny), (2, 1 - tiny)])
        with pytest.raises(DomainError, match="prelec:a=200") as exc:
            dt_value(lot, Prelec(200.0))
        assert "outcomes" not in str(exc.value)

    @pytest.mark.parametrize("n", [2, 64])
    def test_large_integer_orders(self, n):
        rng = random.Random(n)
        weights = [rng.randint(1, 9) for _ in range(n)]
        lot = make_lottery(
            [(F(rng.randint(0, 50), rng.randint(1, 9)), F(w, sum(weights))) for w in weights]
        )
        for w in (Power(2000), DualPower(2000)):
            value = dt_value(lot, w)
            assert type(value) is Fraction and value == dt_value_cdf_form(lot, w)
        assert dual_moment(lot, 2000) == dual_moment_survival(lot, 2000)

    def test_orders_past_the_exact_size_bound(self):
        lot = make_lottery([(1, F(1, 2)), (3, F(1, 2))])
        for call in (
            lambda: dt_value(lot, Power(10**400)),
            lambda: dt_value(lot, DualPower(10**400)),
            lambda: dual_moment(lot, 10**400),
        ):
            with pytest.raises(DomainError, match="order too large"):
                call()


class TestEuValue:
    def test_quadratic_indifference(self, lottery_a, lottery_b):
        for c in (F(1, 8), F(1, 10), F(1, 20)):
            assert eu_value(lottery_a, QuadraticUtility(c)) == eu_value(
                lottery_b, QuadraticUtility(c)
            )

    def test_point_mass(self):
        pm = make_lottery([(3, 1)])
        assert eu_value(pm, QuadraticUtility(F(1, 8))) == 3 - F(9, 8)

    def test_rejects_decreasing_utility(self, lottery_b):
        # u(x) = x - x^2/2 turns down inside the support of B
        with pytest.raises(NonMonotoneUtility) as exc:
            eu_value(lottery_b, QuadraticUtility(F(1, 2)))
        assert type(exc.value) is NonMonotoneUtility
        assert str(exc.value) == "quadratic utility with c=1/2 decreases beyond x=1, but the lottery reaches 4"
        with pytest.raises(NonMonotoneUtility) as exc:
            TabulatedUtility(((F(0), F(1)), (F(2), F(1, 2))))
        assert type(exc.value) is NonMonotoneUtility
        assert str(exc.value) == "utility decreases between x=0 and x=2"

    @pytest.mark.parametrize("x1", [F(2), F(1)], ids=["repeated", "falling"])
    def test_tabulated_abscissae_must_increase(self, x1):
        with pytest.raises(DomainError) as exc:
            TabulatedUtility(((F(0), F(0)), (F(2), F(1)), (x1, F(2))))
        assert type(exc.value) is DomainError
        assert str(exc.value) == f"knot abscissae must increase, got 2 then {x1}"

    def test_tabulated_interpolates(self):
        u = TabulatedUtility(((F(0), F(0)), (F(2), F(2)), (F(8), F(5))))
        lot = make_lottery([(1, F(1, 2)), (5, F(1, 2))])
        assert eu_value(lot, u) == (F(1) + F(2) + F(3, 2)) / 2

    @pytest.mark.parametrize(
        "states, outside",
        [
            ([(0, F(1, 2)), (5, F(1, 2))], "0"),
            ([(2, F(1, 4)), (17, F(1, 4)), (9, F(1, 4)), (F(19, 2), F(1, 4))], "9"),
        ],
    )
    def test_outcome_outside_the_tabulated_span(self, states, outside):
        u = TabulatedUtility(((F(1), F(0)), (F(8), F(5))))
        with pytest.raises(DomainError) as exc:
            eu_value(make_lottery(states), u)
        assert type(exc.value) is DomainError
        assert str(exc.value) == f"outcome {outside} outside tabulated utility span"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_state_by_state_sum(self, data):
        lot = data.draw(
            st.one_of(lotteries(max_outcome=24), tied_lotteries(), equal_prob_lotteries()), label="lottery"
        )
        u = data.draw(utilities(lot.outcomes[-1]), label="utility")
        assert _eu_result(eu_value, lot, u) == _eu_result(eu_value_reference, lot, u)


@st.composite
def utilities(draw, top):
    """Linear, quadratic non-decreasing up to top (or, now and then, past
    it), and tabulated utilities whose span mostly covers [0, top]."""
    kind = draw(st.sampled_from(["linear", "quadratic", "tabulated"]))
    if kind == "linear":
        return LinearUtility()
    if kind == "quadratic":
        t = draw(st.one_of(rational(-1, 1), rational(1, F(5, 4))))
        return QuadraticUtility(t / (2 * top) if top else t)
    lo = draw(st.one_of(st.just(F(0)), rational(-4, 2)))
    hi = top + draw(st.one_of(st.just(F(0)), rational(-2, 4)))
    if hi <= lo:
        hi = lo + 1
    inner = draw(st.lists(rational(0, 1), max_size=5))
    xs = sorted({lo, hi, *(lo + (hi - lo) * t for t in inner)})
    u0 = draw(rational(-4, 4))
    rises = draw(st.lists(rational(0, 5), min_size=len(xs) - 1, max_size=len(xs) - 1))
    return TabulatedUtility(tuple(zip(xs, itertools.accumulate(rises, initial=u0))))


def _eu_result(f, lot, u):
    """f(lot, u), or the class and message of the error it raises."""
    try:
        return f(lot, u)
    except DualRiskError as exc:
        return type(exc), str(exc)


class TestPrimalMoments:
    def test_point_mass_central_zero(self):
        pm = make_lottery([(4, 1)])
        for k in (2, 3, 4):
            assert primal_moment(pm, k) == 0

    def test_brute_force_agreement(self, lottery_b):
        mu = mean(lottery_b)
        for k in (2, 3, 4):
            direct = sum(p * (x - mu) ** k for x, p in lottery_b.states)
            assert primal_moment(lottery_b, k) == direct

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize(
        "states",
        [
            [(F(1, 3), F(1, 3)), (F(5, 2), F(2, 3))],
            [(F(1, 2), F(1, 8)), (F(7, 3), F(3, 8)), (F(9, 4), F(1, 2))],
            [(F(2, 5), F(1, 6)), (F(3, 4), F(1, 2)), (F(9, 2), F(1, 3))],
        ],
    )
    def test_both_denominators_above_one(self, states, k):
        lot = make_lottery(states)
        _, xd, _, pd = lot._ints
        assert xd > 1 and pd > 1 and xd != pd
        assert primal_moment(lot, k) == primal_moment_reference(lot, k)

    def test_raw_moments(self, lottery_a):
        assert raw_moment(lottery_a, 1) == F(5, 2)
        assert raw_moment(lottery_a, 2) == F(5, 6) * 9  # (1/6)*0 + (5/6)*9


class TestDualMoments:
    def test_divergence_values(self, lottery_a, lottery_b):
        assert dual_moment(lottery_a, 2) == F(25, 12)
        assert dual_moment(lottery_b, 2) == F(23, 12)

    def test_exhaustive_min_oracle(self, lottery_b):
        # enumerate all m-tuples of states and average the minimum
        for m in (2, 3):
            total = F(0)
            for combo in itertools.product(lottery_b.states, repeat=m):
                prob = math.prod(p for _, p in combo)
                total += prob * min(x for x, _ in combo)
            assert dual_moment(lottery_b, m) == total

    @given(any_lottery)
    @settings(max_examples=100, deadline=None)
    def test_equals_dual_power_value(self, lot):
        for m in range(1, 9):
            assert dual_moment(lot, m) == dt_value(lot, DualPower(m))

    @given(lotteries())
    @settings(max_examples=40)
    def test_monotone_in_m_and_floor(self, lot):
        lowest = min(lot.outcomes)
        prev = None
        for m in range(1, 6):
            dm = dual_moment(lot, m)
            assert dm >= lowest
            if prev is not None:
                assert dm <= prev
            prev = dm

    def test_point_mass_all_orders(self):
        pm = make_lottery([(F(9, 2), 1)])
        for m in (1, 2, 5):
            assert dual_moment(pm, m) == F(9, 2)

    def test_weight_formula_two_and_three_shot(self):
        # ranked equal-probability weights: (2n-1)/n^2 ... 3/n^2, 1/n^2
        # and n^3 analogues ... 37, 19, 7, 1 over n^3
        assert dual_moment_weights(4, 2) == [F(7, 16), F(5, 16), F(3, 16), F(1, 16)]
        assert dual_moment_weights(4, 3) == [F(37, 64), F(19, 64), F(7, 64), F(1, 64)]
        n = 6
        w2 = dual_moment_weights(n, 2)
        assert w2[0] == F(2 * n - 1, n * n)
        assert w2[-1] == F(1, n * n)

    def test_weights_reproduce_dual_moment(self, base4):
        lot = base4
        for m in (2, 3, 4):
            weights = dual_moment_weights(4, m)
            assert dual_moment(lot, m) == sum(
                w * x for w, x in zip(weights, base4.outcomes)
            )


class TestMomentRows:
    """eval's moment rows, each set from one sweep of running powers,
    against the per-order functions."""

    @given(st.one_of(tied_lotteries(), lotteries(), equal_prob_lotteries(min_states=1)))
    @example(make_lottery([(0, 1)]))
    @example(make_lottery([(F(7, 3), 1)]))
    @example(make_lottery([(0, F(1, 3)), (F(5, 4), F(1, 6)), (F(5, 4), F(1, 4)), (F(2, 7), F(1, 4))]))
    @settings(max_examples=200)
    def test_rows_equal_the_per_order_moments(self, lot):
        duals, centrals = _moment_rows(lot)
        assert duals == [dual_moment(lot, m) for m in range(1, 5)]
        assert centrals == [primal_moment(lot, k) for k in range(2, 5)]

    def test_size_bound_is_the_order_four_bound(self):
        # d of 300,000 bits: orders 1-3 stay under the bound, order 4 passes it
        tiny = F(1, 2**300_000)
        lot = make_lottery([(1, tiny), (2, 1 - tiny)])
        dual_moment(lot, 3)
        with pytest.raises(DomainError) as per_order:
            dual_moment(lot, 4)
        with pytest.raises(DomainError) as rows:
            _moment_rows(lot)
        assert str(rows.value) == str(per_order.value)


class TestMcOracle:
    def test_point_mass_exact(self):
        pm = make_lottery([(3, 1)])
        est, se = dual_moment_mc_oracle(pm, 4, draws=1000, seed=1)
        assert est == 3.0
        assert se == 0.0

    def test_one_draw_is_mean(self, lottery_a):
        est, se = dual_moment_mc_oracle(lottery_a, 1, draws=200_000, seed=2)
        assert abs(est - float(mean(lottery_a))) <= 4 * se

    def test_divergence_value(self, lottery_a):
        est, se = dual_moment_mc_oracle(lottery_a, 2, draws=400_000, seed=3)
        assert abs(est - float(F(25, 12))) <= 3 * se

    def test_twenty_random_lotteries(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(1, 5)
            weights = [rng.randint(1, 6) for _ in range(n)]
            total = sum(weights)
            lot = make_lottery(
                [(F(rng.randint(0, 20), rng.randint(1, 4)), F(w, total)) for w in weights]
            )
            m = rng.randint(1, 4)
            est, se = dual_moment_mc_oracle(lot, m, draws=60_000, seed=trial)
            assert abs(est - float(dual_moment(lot, m))) <= 4 * se + 1e-12
