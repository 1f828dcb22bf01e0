import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualrisk.dominance as dominance
from dualrisk import (
    DomainError,
    DualPower,
    EqualProbLottery,
    as_distribution,
    canonical_distribution,
    dt_value,
    dual_moment,
    dual_sd_check,
    make_lottery,
    make_pair,
    mean,
    parse_lottery_text,
    primal_sd_check,
    squeeze,
)
from dualrisk.dominance import MAX_DEGREE
from dualrisk.lottery import _jumps
from dualrisk.piecewise import global_coeffs, spline_pieces
from dualrisk.polyops import bernstein_nonneg, nonneg_on_interval

from conftest import lotteries, tied_lotteries
from oracles import (
    cdf_steps,
    degree,
    difference,
    dual_sd_rebuild,
    good_and_bad,
    iterated_cdf,
    iterated_cdf_per_point,
    iterated_quantile,
    iterated_quantile_per_piece,
    merged_ints,
    primal_sd_rebuild,
    quantile,
    quantile_steps,
)

F = Fraction

any_lottery = st.one_of(tied_lotteries(), lotteries())


@st.composite
def mean_ordered_pairs(draw):
    """(a, b) with mean(a) <= mean(b), so the first gates rarely decide."""
    a, b = draw(any_lottery), draw(any_lottery)
    return (a, b) if mean(a) <= mean(b) else (b, a)


def sec3_pair(order, outcomes, big_m):
    base = EqualProbLottery(tuple(F(x) for x in outcomes))
    good, bad = good_and_bad(order, F(1, big_m))
    return make_pair(base, good, bad, 1, 2)


def random_equal_prob(rng, n_max=6, hi=20):
    n = rng.randint(2, n_max)
    outcomes = sorted(F(rng.randint(0, hi * 2), 2) for _ in range(n))
    return EqualProbLottery(tuple(outcomes))


class TestIteratedQuantile:
    def test_base_case_is_quantile(self, lottery_b):
        f = iterated_quantile(lottery_b, 1)
        for i in range(1, 40):
            q = F(i, 40)
            assert f(q) == quantile(lottery_b, q)

    def test_total_integral_is_mean(self, lottery_a, lottery_b):
        for lot in (lottery_a, lottery_b):
            assert iterated_quantile(lot, 2)(F(1)) == mean(lot)

    def test_half_integral_example(self, lottery_a):
        # quantile of A is 0 on (0, 1/6], then 3; integral to 1/2 is 3 * (1/2 - 1/6)
        assert iterated_quantile(lottery_a, 2)(F(1, 2)) == 1

    def test_degree_rises_with_m(self, lottery_b):
        for m in (1, 2, 3):
            assert degree(iterated_quantile(lottery_b, m)) == m - 1


class TestDualCheck:
    def test_self_dominance_all_degrees(self, lottery_b):
        for m in (2, 3, 4, 5):
            assert dual_sd_check(lottery_b, lottery_b, m).holds

    def test_divergence_pair_fails_at_three(self, lottery_a, lottery_b):
        report = dual_sd_check(lottery_a, lottery_b, 3)
        assert not report.holds
        assert report.failed_condition == "dual_moment_2"

    def test_constructed_pair_holds(self, base3):
        pair = sec3_pair(3, (1, 2, 4), 6)
        assert dual_sd_check(pair.c.to_lottery(), pair.d.to_lottery(), 3).holds

    def test_mean_condition_first(self):
        low = make_lottery([(1, 1)])
        high = make_lottery([(2, 1)])
        report = dual_sd_check(high, low, 2)
        assert not report.holds
        assert report.failed_condition == "mean"

    def test_pointwise_failure_has_witness(self):
        # equal means, equal d2 is not required at m=2; crossing quantiles
        a = make_lottery([(0, F(1, 2)), (4, F(1, 2))])
        b = make_lottery([(1, F(1, 2)), (3, F(1, 2))])
        report = dual_sd_check(b, a, 2)
        assert not report.holds
        assert report.failed_condition == "iterated_quantile"
        assert report.witness is not None
        fa = iterated_quantile(a, 2)
        fb = iterated_quantile(b, 2)
        assert fa(report.witness) < fb(report.witness)


class TestPrimalCheck:
    def test_divergence_pair_third_degree(self, lottery_a, lottery_b):
        assert primal_sd_check(lottery_a, lottery_b, 3).holds
        assert not primal_sd_check(lottery_b, lottery_a, 3).holds

    def test_shift_dominates_first_degree(self, lottery_b):
        shifted = make_lottery([(x + 1, p) for x, p in lottery_b.states])
        assert primal_sd_check(lottery_b, shifted, 1).holds
        assert not primal_sd_check(shifted, lottery_b, 1).holds

    def test_third_order_pair_fails_primal_both_ways(self):
        pair = sec3_pair(3, (1, 2, 4), 6)
        c, d = pair.c.to_lottery(), pair.d.to_lottery()
        assert not primal_sd_check(c, d, 3).holds
        assert not primal_sd_check(d, c, 3).holds

    def test_ekern_requires_equal_moments(self, lottery_a, lottery_b):
        # A and B share mean and variance but not the third raw moment
        report = primal_sd_check(lottery_a, lottery_b, 3, ekern=True)
        assert report.holds
        shifted = make_lottery([(x + 1, p) for x, p in lottery_b.states])
        report = primal_sd_check(lottery_b, shifted, 2, ekern=True)
        assert not report.holds
        assert report.failed_condition == "raw_moment_1"


class TestProperties:
    def test_degree_two_dual_equals_primal_on_mean_equal_pairs(self):
        rng = random.Random(20)
        agreements = 0
        for _ in range(200):
            base = random_equal_prob(rng)
            i = rng.randint(1, base.n - 1)
            j = rng.randint(i + 1, base.n)
            room = (base.outcomes[j - 1] - base.outcomes[i - 1]) / 2
            x = room * F(rng.randint(0, 4), 4)
            try:
                other = squeeze(base, i, j, x)
            except Exception:
                continue
            a, b = base.to_lottery(), other.to_lottery()
            if rng.random() < 0.5:
                a, b = b, a
            assert dual_sd_check(a, b, 2).holds == primal_sd_check(a, b, 2).holds
            agreements += 1
        assert agreements >= 150

    def test_nested_degrees_on_contractions(self):
        rng = random.Random(21)
        for _ in range(40):
            base = random_equal_prob(rng)
            i = rng.randint(1, base.n - 1)
            j = rng.randint(i + 1, base.n)
            room = (base.outcomes[j - 1] - base.outcomes[i - 1]) / 2
            try:
                tightened = squeeze(base, i, j, room * F(rng.randint(1, 3), 4))
            except Exception:
                continue
            a, b = base.to_lottery(), tightened.to_lottery()
            assert dual_sd_check(a, b, 2).holds
            for m in (3, 4):
                if all(dual_moment(a, k) <= dual_moment(b, k) for k in range(2, m)):
                    assert dual_sd_check(a, b, m).holds

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_value_ordering_under_right_sign_families(self, m):
        # equal lower dual moments + m-th degree dominance force the
        # value ordering for every weighting with the compatible m-th sign
        rng = random.Random(30 + m)
        for _ in range(50):
            base = random_equal_prob(rng, n_max=m + 3, hi=30)
            good, bad = good_and_bad(m, F(1, 64))
            span = max(e[0] for e in good.entries) + 1
            if base.n < span + 2:
                continue
            try:
                pair = make_pair(base, good, bad, 1, 2)
            except Exception:
                continue
            c, d = pair.c.to_lottery(), pair.d.to_lottery()
            assert all(dual_moment(c, k) == dual_moment(d, k) for k in range(1, m))
            assert dual_sd_check(c, d, m).holds
            for j in range(m, 7):
                assert dt_value(d, DualPower(j)) >= dt_value(c, DualPower(j))

    def test_exact_agrees_with_dense_float_scan(self, lottery_a, lottery_b):
        pair = sec3_pair(3, (1, 2, 4), 6)
        cases = [
            (lottery_a, lottery_b, 3),
            (pair.c.to_lottery(), pair.d.to_lottery(), 3),
            (lottery_b, lottery_a, 2),
        ]
        for a, b, m in cases:
            fa = iterated_quantile(a, m)
            fb = iterated_quantile(b, m)
            scan_ok = all(
                float(fb(F(i, 10_000)) - fa(F(i, 10_000))) >= -1e-12 for i in range(10_001)
            )
            exact = dual_sd_check(a, b, m)
            if exact.holds:
                assert scan_ok
            elif exact.failed_condition == "iterated_quantile":
                assert not scan_ok


class TestIteratedCdfOracle:
    @given(any_lottery, st.sampled_from([F(0), F(1, 3), F(2)]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_construction(self, lot, extra):
        hi = max(lot.outcomes) + extra
        if hi == 0:
            return
        for k in range(1, 5):
            assert iterated_cdf(lot, k, hi) == iterated_cdf_per_point(lot, k, hi)

    @given(mean_ordered_pairs(), st.integers(min_value=1, max_value=4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_primal_check_matches_per_order_rebuild(self, pair, m, ekern):
        a, b = pair
        report = primal_sd_check(a, b, m, ekern=ekern)
        assert (report.holds, report.failed_condition, report.witness) == primal_sd_rebuild(a, b, m, ekern)

    @given(mean_ordered_pairs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_pointwise_witness_has_negative_difference(self, pair, m):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            dual = dual_sd_check(x, y, m)
            if dual.failed_condition == "iterated_quantile":
                diff = difference(iterated_quantile_per_piece(y, m), iterated_quantile_per_piece(x, m))
                assert diff(dual.witness) < 0
            primal = primal_sd_check(x, y, m)
            if primal.failed_condition == "iterated_cdf":
                hi = max(max(x.outcomes), max(y.outcomes))
                diff = difference(iterated_cdf_per_point(x, m, hi), iterated_cdf_per_point(y, m, hi))
                assert diff(primal.witness) < 0


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b moves some states of a and keeps the rest, so many
    knots carry the same jump in both lotteries and cancel in a - b."""
    a = draw(any_lottery)
    moves = draw(
        st.lists(
            st.sampled_from([F(0), F(0), F(0), F(1, 2), F(-1, 3), F(2)]),
            min_size=len(a),
            max_size=len(a),
        )
    )
    b = make_lottery([(max(F(0), x + d), p) for (x, p), d in zip(a.states, moves)])
    return a, b


COPRIME = (1, 2, 3, 5, 7, 11, 13)


@st.composite
def _from_pool(draw, pool):
    """A lottery over outcomes drawn from pool, by make_lottery,
    parse_lottery_text or EqualProbLottery, its probabilities over
    pairwise coprime denominators."""
    n = draw(st.integers(1, 6))
    outcomes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    route = draw(st.sampled_from(("make", "parse", "equal")))
    if route == "equal":
        return EqualProbLottery(tuple(sorted(outcomes)))
    raw = [
        F(w, d)
        for w, d in zip(
            draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from(COPRIME), min_size=n, max_size=n)),
        )
    ]
    probs = [r / sum(raw) for r in raw]
    if route == "make":
        return make_lottery(zip(outcomes, probs))
    return parse_lottery_text("".join(f"{x} {p}\n" for x, p in zip(outcomes, probs)))


@st.composite
def integer_form_pairs(draw):
    """(a, b) over one outcome pool with coprime denominators, often with 0,
    so outcomes tie within and across the two; sometimes b is a."""
    pool = draw(
        st.lists(st.builds(F, st.integers(0, 30), st.sampled_from(COPRIME)), min_size=1, max_size=4)
    )
    if draw(st.booleans()):
        pool.append(F(0))
    a = draw(_from_pool(pool))
    return a, a if draw(st.integers(0, 5)) == 0 else draw(_from_pool(pool))


POINT_MASS = make_lottery([(3, 1)])
AT_ZERO = make_lottery([(0, F(1, 2)), (5, F(1, 2))])
TIED_AT_ZERO = make_lottery([(0, F(1, 3)), (0, F(1, 6)), (2, F(1, 6)), (2, F(1, 3))])
# the quantile jump 1/4 at knot 2/3 and the CDF jump 1/3 at outcome 1/4
# appear in both and cancel in the difference; the checks fail on the
# pieces next to those knots, so their witnesses depend on the knots
SHARED_A = make_lottery([(0, F(1, 3)), (0, F(1, 3)), (F(1, 4), F(1, 3))])
SHARED_B = make_lottery([(0, F(1, 3)), (F(1, 4), F(1, 3)), (F(1, 2), F(1, 3))])
# the dual check of B over A at m = 3 certifies one non-negative piece
# whose Taylor and Bernstein coefficients are not all >= 0
DECLINED_A = make_lottery([(0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2))])
DECLINED_B = make_lottery([(1, F(1, 2)), (6, F(1, 2))])


class TestClosedFormSplines:
    """The truncated-power splines against the Fraction antiderivative chain."""

    @given(
        st.one_of(any_lottery, integer_form_pairs().map(lambda pair: pair[0])),
        st.sampled_from([F(0), F(1, 3), F(2)]),
    )
    @example(POINT_MASS, F(0))
    @example(make_lottery([(0, 1)]), F(1, 3))
    @example(AT_ZERO, F(0))
    @example(TIED_AT_ZERO, F(2))
    @example(EqualProbLottery((F(0), F(0), F(5, 7))), F(1, 3))
    @settings(max_examples=250, deadline=None)
    def test_iterated_functions_match_the_chain(self, lot, extra):
        hi = max(lot.outcomes) + extra
        for m in range(1, 7):
            assert iterated_quantile(lot, m) == iterated_quantile_per_piece(lot, m)
            if hi > 0:
                assert iterated_cdf(lot, m, hi) == iterated_cdf_per_point(lot, m, hi)

    @given(
        st.one_of(cancelling_pairs(), st.tuples(any_lottery, any_lottery), integer_form_pairs()),
        st.integers(1, 6),
    )
    @example((SHARED_A, SHARED_B), 1)
    @example((SHARED_A, SHARED_B), 2)
    @example((POINT_MASS, AT_ZERO), 2)
    @example((TIED_AT_ZERO, AT_ZERO), 3)
    @example((POINT_MASS, make_lottery([(0, 1)])), 1)
    @example((TIED_AT_ZERO, TIED_AT_ZERO), 4)
    @example((EqualProbLottery((F(0), F(0), F(5, 7))), make_lottery([(0, 1)])), 2)
    @example((DECLINED_A, DECLINED_B), 3)
    @settings(max_examples=450, deadline=None)
    def test_checks_match_the_chain(self, pair, m):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            dual = dual_sd_check(x, y, m)
            assert (dual.holds, dual.failed_condition, dual.witness) == dual_sd_rebuild(x, y, m)
            for ekern in (False, True):
                primal = primal_sd_check(x, y, m, ekern=ekern)
                expected = primal_sd_rebuild(x, y, m, ekern)
                assert (primal.holds, primal.failed_condition, primal.witness) == expected


def _steps(reference):
    """A reference (knots, jumps, L, D) list as the (steps, L, D) that dominance._gap reads."""
    knots, jumps, big_l, big_d = reference
    return list(zip(knots, jumps)), big_l, big_d


def _dual_from_reference(a, b, m):
    """dual_sd_check's report with its gates read through mean and
    dual_moment and its spline from the reference quantile steps."""
    if m >= 2 and mean(a) > mean(b):
        return dominance.DominanceReport("dual", m, "mean")
    for k in range(2, m):
        if dual_moment(a, k) > dual_moment(b, k):
            return dominance.DominanceReport("dual", m, f"dual_moment_{k}")
    knots, jumps, big_l, _ = dominance._gap(_steps(quantile_steps(a)), _steps(quantile_steps(b)))
    ok, witness = dominance._pointwise_leq(knots, jumps, big_l, big_l, m)
    return dominance.DominanceReport("dual", m, None if ok else "iterated_quantile", witness)


class TestOneJumpList:
    """Everything read off the jump list (lottery._jumps) against the
    reference merge of ties on the integer form."""

    @given(integer_form_pairs(), st.integers(1, 6))
    @example((POINT_MASS, make_lottery([(0, 1)])), 2)
    @example((make_lottery([(0, 1)]), make_lottery([(0, 1)])), 3)
    @example((TIED_AT_ZERO, AT_ZERO), 3)
    @example((EqualProbLottery((F(0), F(0), F(5, 7))), SHARED_A), 2)
    @example((SHARED_A, SHARED_B), 4)
    @settings(max_examples=200, deadline=None)
    def test_reads_match_the_reference_merge(self, pair, m):
        for lot in pair:
            jumps, d, xd, _ = _jumps(lot)
            knots, steps, big_l, big_d = quantile_steps(lot)
            assert (jumps, d, xd) == ([(u, v) for u, v in zip(knots, steps) if v], big_l, big_d)
            assert dominance._cdf_steps(lot) == _steps(cdf_steps(lot))
            xs, xd, ps, pd = merged_ints(lot)
            can = canonical_distribution(lot)
            assert can.states == tuple((F(x, xd), F(p, pd)) for x, p in zip(xs, ps))
            if len(xs) == len(lot._ints[0]):
                assert can._ints == as_distribution(lot)._ints
            else:
                g = math.gcd(pd, *ps)
                assert can._ints == (xs, xd, [p // g for p in ps], pd // g)
        a, b = pair
        for x, y in ((a, b), (b, a)):
            assert dual_sd_check(x, y, m) == _dual_from_reference(x, y, m)
            for ekern in (False, True):
                report = primal_sd_check(x, y, m, ekern=ekern)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(dominance, "_cdf_steps", lambda lot: _steps(cdf_steps(lot)))
                    assert report == primal_sd_check(x, y, m, ekern=ekern)


def _gap_pieces(a, b, m, kind):
    """(grid, pieces, L) of the difference spline a check certifies, from
    the reference step lists."""
    if kind == "dual":
        knots, jumps, big_l, _ = dominance._gap(_steps(quantile_steps(a)), _steps(quantile_steps(b)))
        end = big_l
    else:
        knots, jumps, big_l, _ = dominance._gap(_steps(cdf_steps(b)), _steps(cdf_steps(a)))
        end = max(knots)
    return (*spline_pieces(knots, jumps, end, m), big_l) if end else ([], [], big_l)


class TestPreAccept:
    @given(integer_form_pairs(), st.integers(1, 6), st.sampled_from(["dual", "primal"]))
    @settings(max_examples=200, deadline=None)
    def test_accepted_pieces_are_nonnegative(self, pair, m, kind):
        grid, pieces, big_l = _gap_pieces(*pair, m, kind)
        for a, b, piece in zip(grid, grid[1:], pieces):
            if bernstein_nonneg(piece, b - a):
                ok, _ = nonneg_on_interval(global_coeffs(piece, a, big_l), F(a, big_l), F(b, big_l))
                assert ok

    @given(integer_form_pairs(), st.integers(1, 6), st.sampled_from(["dual", "primal"]))
    @example((DECLINED_A, DECLINED_B), 3, "dual")
    @settings(max_examples=200, deadline=None)
    def test_every_declined_piece_reaches_sturm(self, pair, m, kind):
        a, b = pair
        grid, pieces, big_l = _gap_pieces(a, b, m, kind)
        declined = [
            (F(lo, big_l), F(hi, big_l))
            for lo, hi, piece in zip(grid, grid[1:], pieces)
            if not bernstein_nonneg(piece, hi - lo)
        ]
        seen = []

        def sturm(c, lo, hi):
            seen.append((lo, hi))
            return nonneg_on_interval(c, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dominance, "nonneg_on_interval", sturm)
            report = dual_sd_check(a, b, m) if kind == "dual" else primal_sd_check(a, b, m)
        if report.failed_condition in ("iterated_quantile", "iterated_cdf"):
            assert seen and seen == declined[: len(seen)]
        elif report.holds:
            assert seen == declined

    def test_a_declined_nonnegative_piece_is_certified_by_sturm(self, monkeypatch):
        seen = []

        def sturm(c, lo, hi):
            seen.append(nonneg_on_interval(c, lo, hi))
            return seen[-1]

        monkeypatch.setattr(dominance, "nonneg_on_interval", sturm)
        assert dual_sd_check(DECLINED_A, DECLINED_B, 3).holds
        assert seen == [(True, None)]


class TestDegreeBound:
    def test_every_degree_up_to_the_bound_is_accepted(self, lottery_a, lottery_b):
        assert MAX_DEGREE >= 16
        for m in (16, MAX_DEGREE):
            assert dual_sd_check(lottery_b, lottery_b, m).holds
            assert primal_sd_check(lottery_b, lottery_b, m).holds
            assert primal_sd_check(lottery_a, lottery_b, m, ekern=True).degree == m

    @pytest.mark.parametrize("m", [MAX_DEGREE + 1, 10_000, 10**400], ids=["next", "10^4", "10^400"])
    def test_past_the_bound_is_refused(self, lottery_a, lottery_b, m):
        with pytest.raises(DomainError, match=f"must be <= {MAX_DEGREE}"):
            dual_sd_check(lottery_a, lottery_b, m)
        for ekern in (False, True):
            with pytest.raises(DomainError, match=f"must be <= {MAX_DEGREE}"):
                primal_sd_check(lottery_a, lottery_b, m, ekern=ekern)
