"""Portfolio menus and self-protection against closed forms and finite differences."""

import inspect
import math
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrisk import (
    CaseBoundary,
    DerivativeMenu,
    DigitalZeroAt,
    DomainError,
    DominanceCheckFailed,
    DualPower,
    EqualProbLottery,
    ExponentialEffort,
    FormatError,
    Identity,
    LinearEffort,
    LongPut,
    NegativeOutcome,
    Polynomial,
    PortfolioProblem,
    Power,
    PowerLawEffort,
    Prelec,
    Quadratic,
    QuadraticUtility,
    SelfProtectionProblem,
    ShortCall,
    ShortStraddle,
    Straddle,
    Tabulated,
    TabulatedUtility,
    TverskyKahneman,
    background_shift_expression,
    build_menu,
    calibrate_exponential,
    calibrate_power_law,
    dt_value,
    dual_power_mixture,
    dual_sd_check,
    eu_value,
    eval_h,
    eval_h_prime,
    format_weighting,
    loss_probability,
    loss_probability_slope,
    make_lottery,
    parse_problem_config,
    portfolio_value,
    optimal_alpha,
    sp_background_effect,
    sp_foc_lhs,
    sp_lottery,
    sp_solve,
    sp_value,
    supplemented_prices,
)
import dualrisk.applications as applications
from dualrisk.applications import _float_forms, format_effort
from dualrisk.cli import main

from oracles import (
    sp_background_effect_reference,
    sp_foc_lhs_reference,
    sp_solve_reference,
    sp_value_reference,
)

F = Fraction

STOCK2 = EqualProbLottery((F(1), F(3)))
STOCK3 = EqualProbLottery((F(1), F(3), F(5), F(7)))
STOCK4 = EqualProbLottery(tuple(F(k) for k in range(1, 16, 2)))

REVERSE_CUBIC = Polynomial((0, F(3, 2), 0, F(-1, 2)))


class TestInstruments:
    def test_put_and_call(self):
        menu = DerivativeMenu((LongPut(2), ShortCall(2)))
        assert menu.payoff(1) == 1
        assert menu.payoff(2) == 0
        assert menu.payoff(3) == -1

    def test_put_call_parity_collapses_position(self):
        # long put + short call at any strike K pays K - s, so the
        # supplemented position is the riskless mean regardless of K
        for k in (F(1), F(5, 2), F(4)):
            menu = DerivativeMenu((LongPut(k), ShortCall(k)))
            assert supplemented_prices(STOCK3, menu) == EqualProbLottery((F(4),) * 4)

    def test_straddles(self):
        assert DerivativeMenu((Straddle(4),)).payoff(1) == 3
        assert DerivativeMenu((ShortStraddle(4),)).payoff(7) == -3

    def test_knockout_masks_by_side(self):
        menu = DerivativeMenu((Straddle(4), ShortStraddle(12), DigitalZeroAt(8)))
        assert menu.payoff(1) == 3
        assert menu.payoff(7) == 3
        assert menu.payoff(8) == 0
        assert menu.payoff(9) == -3
        assert menu.payoff(15) == -3

    def test_premium_is_expected_payoff(self):
        menu = DerivativeMenu((Straddle(4),))
        assert menu.premium(STOCK3) == 2
        net_mean = sum(
            menu.payoff(s) - menu.premium(STOCK3) for s in STOCK3.outcomes
        )
        assert net_mean == 0


class TestBuildMenu:
    def test_order_two(self):
        menu = build_menu(2, STOCK2)
        assert menu.premium(STOCK2) == 0
        assert supplemented_prices(STOCK2, menu) == EqualProbLottery((F(2), F(2)))

    def test_order_three(self):
        menu = build_menu(3, STOCK3)
        assert [menu.payoff(s) for s in STOCK3.outcomes] == [3, 1, 1, 3]
        assert menu.premium(STOCK3) == 2
        assert supplemented_prices(STOCK3, menu) == EqualProbLottery((F(2), F(2), F(4), F(8)))

    def test_order_four(self):
        menu = build_menu(4, STOCK4)
        assert [menu.payoff(s) for s in STOCK4.outcomes] == [3, 1, 1, 3, -3, -1, -1, -3]
        assert menu.premium(STOCK4) == 0
        assert supplemented_prices(STOCK4, menu) == EqualProbLottery(
            tuple(F(k) for k in (4, 4, 6, 6, 10, 10, 12, 12))
        )

    @pytest.mark.parametrize("order", [1, 5])
    def test_unsupported_orders(self, order):
        with pytest.raises(DomainError):
            build_menu(order, STOCK3)

    def test_tiny_support_rejected(self):
        with pytest.raises(DomainError):
            build_menu(2, EqualProbLottery((F(2),)))

    @pytest.mark.parametrize(
        "order, strikes, message",
        [
            (2, (F(4), F(5)), "order-2 menu takes 1 strike, got 2"),
            (3, (), "order-3 menu takes 1 strike, got 0"),
            (4, (F(2), F(6)), "order-4 menu takes 3 strikes, got 2"),
        ],
        ids=["order-2", "order-3", "order-4"],
    )
    def test_wrong_strike_count(self, order, strikes, message):
        with pytest.raises(DomainError, match=message):
            build_menu(order, STOCK4, strikes)

    def test_bad_custom_strikes_fail_the_gate(self):
        # a straddle centered below the mean fattens the left tail and
        # loses the second-dual-moment comparison against the plain stock
        with pytest.raises(DominanceCheckFailed, match="dual_moment_2"):
            build_menu(3, STOCK3, strikes=(F(5, 2),))

    def test_mean_centered_degenerate_straddle_still_passes(self):
        # centering at the top outcome collapses the position toward the
        # mean, the maximal squeeze, which dominates at every dual order
        menu = build_menu(3, STOCK3, strikes=(F(7),))
        assert supplemented_prices(STOCK3, menu) == EqualProbLottery((F(4),) * 4)

    def test_custom_strikes_accepted_when_sound(self):
        menu = build_menu(2, STOCK3, strikes=(F(3),))
        assert dual_sd_check(STOCK3, supplemented_prices(STOCK3, menu), 2).holds


class TestPortfolioValue:
    def test_plain_collar_pair_order_two(self):
        pp = PortfolioProblem(10, F(-1, 8), 2, STOCK2)
        assert portfolio_value(pp, None, DualPower(2)) == F(-1, 4)
        assert portfolio_value(pp, build_menu(2, STOCK2), DualPower(2)) == 0

    def test_order_three_values(self):
        pp = PortfolioProblem(10, 0, 4, STOCK3)
        menu = build_menu(3, STOCK3)
        assert portfolio_value(pp, None, DualPower(3)) == F(-15, 32)
        assert portfolio_value(pp, menu, DualPower(3)) == F(-27, 64)

    def test_order_four_values(self):
        pp = PortfolioProblem(10, 0, 8, STOCK4)
        menu = build_menu(4, STOCK4)
        assert portfolio_value(pp, None, DualPower(4)) == F(-2415, 4096)
        assert portfolio_value(pp, menu, DualPower(4)) == F(-199, 512)

    def test_value_is_scale_free(self):
        doubled = EqualProbLottery((F(2), F(6)))
        a = portfolio_value(PortfolioProblem(1, 0, 2, STOCK2), None, DualPower(2))
        b = portfolio_value(PortfolioProblem(1, 0, 4, doubled), None, DualPower(2))
        assert a == b

    def test_menu_unanimity_for_right_sign_weightings(self):
        rng = random.Random(11)
        for m, stock in ((2, STOCK2), (3, STOCK3), (4, STOCK4)):
            menu = build_menu(m, stock)
            pp = PortfolioProblem(1, 0, stock.outcomes[0] + 1, stock)
            for _ in range(50):
                raw = [rng.randint(0, 5) for _ in range(4)]
                if sum(raw) == 0:
                    raw[0] = 1
                total = sum(raw)
                w = dual_power_mixture(
                    {m + i: F(raw[i], total) for i in range(4) if raw[i]}
                )
                assert portfolio_value(pp, menu, w) >= portfolio_value(pp, None, w)

    def test_expected_utility_splits_on_the_order_three_menu(self):
        menu = build_menu(3, STOCK3)
        plain = STOCK3
        supp = supplemented_prices(STOCK3, menu)
        concave_kinked = TabulatedUtility(((F(0), F(0)), (F(2), F(2)), (F(8), F(5))))
        assert eu_value(supp, concave_kinked) == 3
        assert eu_value(plain, concave_kinked) == F(23, 8)
        quadratic = QuadraticUtility(F(1, 20))
        assert eu_value(plain, quadratic) == F(59, 20)
        assert eu_value(supp, quadratic) == F(29, 10)


class TestOptimalAlpha:
    def test_menu_flips_the_corner(self):
        pp = PortfolioProblem(10, F(-1, 8), 2, STOCK2)
        assert optimal_alpha(pp, None, DualPower(2)) == (0, False)
        assert optimal_alpha(pp, build_menu(2, STOCK2), DualPower(2)) == (10, False)

    def test_high_bond_rate_wins(self):
        pp = PortfolioProblem(10, 1, 2, STOCK2)
        assert optimal_alpha(pp, build_menu(2, STOCK2), DualPower(2)) == (0, False)

    def test_exact_tie_flags_indifference(self):
        pp = PortfolioProblem(10, 0, 2, STOCK2)
        amount, indifferent = optimal_alpha(pp, build_menu(2, STOCK2), DualPower(2))
        assert amount == 0 and indifferent


class TestSpLottery:
    def test_no_background_two_states(self):
        sp = SelfProtectionProblem(4, 1, 0, LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))
        lot = sp_lottery(sp, F(1, 4))
        assert lot.outcomes == (F(11, 4), F(15, 4))
        assert lot.probabilities == (F(3, 8), F(5, 8))

    def test_small_background_state_order(self):
        sp = SelfProtectionProblem(4, 1, F(1, 8), LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))
        lot = sp_lottery(sp, 0)
        assert lot.outcomes == (F(23, 8), F(25, 8), F(31, 8), F(33, 8))
        assert lot.probabilities == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_large_background_swaps_middle_states(self):
        sp = SelfProtectionProblem(4, 1, F(2, 3), LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))
        lot = sp_lottery(sp, 0)
        assert lot.outcomes == (F(7, 3), F(10, 3), F(11, 3), F(14, 3))
        # the no-loss-minus-gain state now sits second
        assert lot.probabilities == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_effort_outside_bounds(self):
        sp = SelfProtectionProblem(4, 1, 0, LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))
        with pytest.raises(DomainError):
            sp_lottery(sp, 1)

    def test_negative_wealth_rejected_at_construction(self):
        with pytest.raises(NegativeOutcome):
            SelfProtectionProblem(1, 1, F(1, 8), LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))

    def test_case_boundary_only_with_background(self):
        with pytest.raises(CaseBoundary):
            SelfProtectionProblem(4, 1, F(1, 2), LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 4)))
        SelfProtectionProblem(4, 0, 0, LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 4)))

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            SelfProtectionProblem(4, 1, 0, LinearEffort(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)))
        with pytest.raises(DomainError):
            SelfProtectionProblem(4, 1, 0, LinearEffort(F(1, 2), F(1, 2)), (-1, F(1, 4)))


def sp_instance(epsilon):
    return SelfProtectionProblem(4, 1, epsilon, LinearEffort(F(1, 2), F(1, 2)), (0, F(7, 10)))


class TestSpValue:
    @pytest.mark.parametrize("epsilon", [F(0), F(1, 8), F(2, 3)])
    @pytest.mark.parametrize("w", [DualPower(3), Quadratic(F(1, 2)), Identity()])
    def test_closed_form_matches_lottery_value(self, epsilon, w):
        sp = sp_instance(epsilon)
        for e in (F(0), F(1, 5), F(1, 2), F(7, 10)):
            assert sp_value(sp, e, w) == dt_value(sp_lottery(sp, e), w)

    def test_float_effort_accepted(self):
        sp = sp_instance(F(1, 8))
        v = sp_value(sp, 0.3, DualPower(3))
        assert abs(v - float(sp_value(sp, F(3, 10), DualPower(3)))) < 1e-12

    def test_transcendental_model_agrees_with_lottery(self):
        sp = SelfProtectionProblem(4, 1, F(1, 8), ExponentialEffort(F(3, 5), 2), (0, 1))
        for e in (F(0), F(1, 4), F(3, 4)):
            exact = dt_value(sp_lottery(sp, e), DualPower(3))
            assert abs(float(sp_value(sp, e, DualPower(3))) - float(exact)) < 1e-12


class TestSpFoc:
    @pytest.mark.parametrize("epsilon", [F(0), F(1, 8), F(2, 3)])
    @pytest.mark.parametrize("w", [DualPower(3), Quadratic(F(1, 2)), REVERSE_CUBIC])
    def test_matches_central_difference(self, epsilon, w):
        sp = sp_instance(epsilon)
        rng = random.Random(int(epsilon * 24) + 1)
        step = 1e-6
        for _ in range(50):
            e = rng.uniform(0.05, 0.65)
            numeric = (float(sp_value(sp, e + step, w)) - float(sp_value(sp, e - step, w))) / (2 * step)
            analytic = float(sp_foc_lhs(sp, e, w))
            assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(analytic))

    def test_background_term_is_the_shift_expression(self):
        sp = sp_instance(F(1, 8))
        bare = sp_instance(F(0))
        w = DualPower(3)
        for e in (F(1, 10), F(2, 5)):
            p = loss_probability(sp.effort_model, e)
            dp = loss_probability_slope(sp.effort_model, e)
            expected = dp * sp.epsilon * background_shift_expression(w, p)
            assert sp_foc_lhs(sp, e, w) - sp_foc_lhs(bare, e, w) == expected

    def test_identity_weighting_kills_the_shift(self):
        assert background_shift_expression(Identity(), F(1, 3)) == 0
        sp, bare = sp_instance(F(1, 8)), sp_instance(F(0))
        assert sp_foc_lhs(sp, F(1, 5), Identity()) == sp_foc_lhs(bare, F(1, 5), Identity())

    def test_reads_no_constant_of_the_value(self):
        # h(1/2) of this order is past the exact size bound; the 2 eps > loss
        # first-order condition at a float effort never reads it
        w = DualPower(2**20)
        sp = SelfProtectionProblem(4, 1, F(3, 4), LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))
        with pytest.raises(DomainError, match="order too large"):
            sp_value(sp, 0.25, w)
        assert sp_foc_lhs(sp, 0.25, w) == sp_foc_lhs_reference(sp, 0.25, w)

    def test_case_boundary_rejected(self):
        sp = sp_instance(F(1, 8))
        with pytest.raises(CaseBoundary):
            sp_foc_lhs(replace(sp, epsilon=F(1, 2)), F(1, 5), DualPower(3))


TABULATED = Tabulated(((F(0), F(0)), (F(1, 4), F(2, 5)), (F(3, 5), F(3, 4)), (F(1), F(1))))


class TestTabulatedSlope:
    @pytest.mark.parametrize("p", [1e-7, 1 - 1e-7])
    def test_shift_expression_near_the_edges(self, p):
        assert math.isfinite(background_shift_expression(TABULATED, p))

    def test_interior_slope_is_the_symmetric_difference(self):
        s = 1e-6
        rng = random.Random(5)
        points = [rng.uniform(0.001, 0.999) for _ in range(200)] + [0.25, 0.6, 0.25 + s / 2]
        for p in points:
            symmetric = (eval_h(TABULATED, p + s) - eval_h(TABULATED, p - s)) / (2 * s)
            assert eval_h_prime(TABULATED, p) == pytest.approx(symmetric, rel=1e-9)


class TestSpSolve:
    def test_zero_loss_pins_the_lower_bound(self):
        sp = SelfProtectionProblem(4, 0, 0, ExponentialEffort(F(3, 5), 2), (0, 1))
        sol = sp_solve(sp, Identity())
        assert sol.diagnostics.at_bound == "lower" and not sol.diagnostics.interior
        assert not sol.diagnostics.foc_sign_change
        assert abs(sol.e_star) < 1e-9
        assert abs(sol.value - 4.0) < 1e-9

    def test_exponential_closed_form(self):
        sp = SelfProtectionProblem(4, 1, 0, ExponentialEffort(F(3, 5), 2), (0, 1))
        sol = sp_solve(sp, Identity())
        closed = math.log(F(3, 5) * 2 * 1) / 2
        assert abs(sol.e_star - closed) <= 1e-8
        assert sol.diagnostics.interior
        assert sol.diagnostics.foc_sign_change
        assert abs(sol.diagnostics.p_at_opt - 0.5) < 1e-9

    def test_clamp_kink_found_exactly(self):
        # p(e) hits its floor at e = 7/20; marginal value is +1 before the
        # kink and -1 after, so the maximizer is the kink itself
        sp = SelfProtectionProblem(
            4, 1, 0, LinearEffort(F(4, 5), 2, F(1, 10), F(99, 100)), (0, F(1, 2))
        )
        sol = sp_solve(sp, Identity())
        assert sol.e_star == 0.35
        assert sol.diagnostics.p_at_opt == pytest.approx(0.1, abs=1e-12)
        assert sp_foc_lhs(sp, F(3, 10), Identity()) == 1
        assert sp_foc_lhs(sp, F(2, 5), Identity()) == -1

    def test_clamp_reads_only_the_points_of_its_regime(self):
        # at the clamp p = 1/10 this order is within the exact size bound
        # for h(p) and past it for h(p/2), which the bare regime never reads
        w = DualPower(250000)
        sp = SelfProtectionProblem(4, 1, 0, LinearEffort(F(4, 5), 2, F(1, 10)), (0, F(1, 2)))
        value, slope = _float_forms(sp, w)
        assert value(0.5) == float(sp_value(sp, F(1, 2), w))
        assert slope(0.5) == float(sp_foc_lhs(sp, F(1, 2), w)) == -1

    def test_takes_no_search_knobs(self):
        assert list(inspect.signature(sp_solve).parameters) == ["sp", "w"]

    def test_nonconcave_grid_is_reported_and_still_maximizes(self):
        pl = calibrate_power_law(F(4, 5), F(1, 2), DualPower(3), 1)
        sp = SelfProtectionProblem(4, 1, 0, pl, (0, F(1, 5)))
        sol = sp_solve(sp, DualPower(3))
        assert sol.diagnostics.concave_on_grid is False
        grid = [sp_value(sp, 0.2 * i / 400, DualPower(3)) for i in range(401)]
        assert sol.value >= max(grid) - 1e-9


# the members of each weighting family the float forms are checked on
FAMILIES = {
    "identity": [Identity()],
    "quadratic": [Quadratic(F(1, 2)), Quadratic(0)],
    "power": [Power(3), Power(1), Power(F(1, 2)), Power(F(5, 2))],
    "dualpower": [DualPower(1), DualPower(3)],
    "tk": [TverskyKahneman(0.8)],
    "prelec": [Prelec(0.65, 1.0)],
    "tabulated": [Tabulated(((0, 0), (F(1, 3), F(1, 2)), (F(2, 3), F(3, 4)), (1, 1)))],
    "polynomial": [REVERSE_CUBIC, Polynomial((0, 1)), dual_power_mixture({2: F(1, 3), 5: F(2, 3)})],
}
KINKED = LinearEffort(F(4, 5), 2, F(1, 10), F(99, 100))  # clamps at e = -19/200 and 7/20
EFFORTS = {
    "linear": KINKED,
    "exponential": ExponentialEffort(F(3, 5), 2),
    "powerlaw": PowerLawEffort(F(4, 5), F(1024, 75), F(1, 2)),
}
REGIMES = {"bare": F(0), "small": F(1, 8), "large": F(3, 4)}


class TestFloatForms:
    """The solver's float V and V', and float(sp_value) and
    float(sp_foc_lhs), equal the closed forms over h and h' computed
    call by call (oracles), bit for bit."""

    BOUNDS = [0.0, 0.5]
    # both clamp points of KINKED and their float neighbours
    CLAMPS = [
        math.nextafter(float(c), toward) for c in (F(-19, 200), F(7, 20)) for toward in (-1, c, 1)
    ]

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("effort", EFFORTS)
    @pytest.mark.parametrize("family", FAMILIES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_bit_for_bit(self, family, effort, regime, data):
        w = data.draw(st.sampled_from(FAMILIES[family]))
        sp = SelfProtectionProblem(4, 1, REGIMES[regime], EFFORTS[effort], (0, F(1, 2)))
        efforts = data.draw(st.lists(st.floats(0, 0.5), min_size=1, max_size=8))
        value, slope = _float_forms(sp, w)
        for e in efforts + self.BOUNDS + (self.CLAMPS if effort == "linear" else []):
            expected = float(sp_value_reference(sp, e, w)).hex()
            assert value(e).hex() == float(sp_value(sp, e, w)).hex() == expected
            expected = float(sp_foc_lhs_reference(sp, e, w)).hex()
            assert slope(e).hex() == float(sp_foc_lhs(sp, e, w)).hex() == expected


# the bound optimum a float search only approaches: the value is convex
# in effort, so the optimum is e = 0 exactly
CONVEX = SelfProtectionProblem(4, 1, 0, LinearEffort(F(1, 2), F(1, 2)), (0, F(1, 2)))
CONVEX_CONFIG = """\
wealth = 4
loss = 1
epsilon = {epsilon}
effort = linear: p0=1/2, k=1/2
bounds = 0:1/2
weighting = dualpower:m=2
"""


class TestBoundOptimum:
    def test_lower_bound_is_returned_exactly(self):
        sol = sp_solve(CONVEX, DualPower(2))
        assert sol.diagnostics.concave_on_grid is False
        assert sol.e_star == 0.0
        assert sol.diagnostics.at_bound == "lower"
        assert sol.value == sp_value(CONVEX, F(0), DualPower(2)) == F(13, 4)
        assert sol.diagnostics.p_at_opt == 0.5

    def test_two_bound_optima_have_no_direction(self):
        rep = sp_background_effect(replace(CONVEX, epsilon=F(1, 8)), DualPower(2))
        assert rep.e_with == rep.e_without == 0.0
        assert rep.direction == "none"
        assert rep.shift_at_opt == 0.0

    @pytest.mark.parametrize("epsilon", ["0", "1/8"])
    def test_cli_prints_the_bound(self, tmp_path, capsys, epsilon):
        cfg = tmp_path / "convex.cfg"
        cfg.write_text(CONVEX_CONFIG.format(epsilon=epsilon))
        assert main(["selfprotect", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^e_star +0$", out, re.M)
        assert re.search(r"^at_bound +lower$", out, re.M)
        if epsilon != "0":
            assert re.search(r"^e_without_background +0$", out, re.M)
            assert re.search(r"^background_direction +none$", out, re.M)


class TestAgainstReferenceSolver:
    """The paper-repro self-protection problems solve to the same
    solutions and reports as a solver that evaluates every point through
    the closed forms over h and h' computed call by call."""

    def _check(self, sp, w, background):
        if background:
            report = sp_background_effect(sp, w)
            assert (report, report.direction) == sp_background_effect_reference(sp, w)
        else:
            assert sp_solve(sp, w) == sp_solve_reference(sp, w)

    def test_calibrated_power_law(self):
        pl = calibrate_power_law(F(4, 5), F(1, 2), DualPower(3), 1)
        self._check(SelfProtectionProblem(4, 1, F(1, 8), pl, (0, F(1, 5))), DualPower(3), True)

    def test_reverse_cubic(self):
        ex = calibrate_exponential(F(3, 5), REVERSE_CUBIC, 1)
        self._check(SelfProtectionProblem(4, 1, F(1, 8), ex, (0, 1)), REVERSE_CUBIC, True)

    def test_identity_exponential(self):
        sp = SelfProtectionProblem(4, 1, 0, ExponentialEffort(F(3, 5), 2), (0, 1))
        self._check(sp, Identity(), False)

    def test_linear_kink(self):
        self._check(SelfProtectionProblem(4, 1, 0, KINKED, (0, F(1, 2))), Identity(), False)

    @pytest.mark.parametrize("epsilon", [F(0), F(1, 8)])
    def test_bound_optimum(self, epsilon):
        self._check(replace(CONVEX, epsilon=epsilon), DualPower(2), epsilon > 0)


class TestSolveStaysOnFloats:
    """sp_solve evaluates no point through sp_value or sp_foc_lhs: a
    clamped linear stretch and a constant h' are read by the closed forms
    it builds once per solve."""

    @pytest.mark.parametrize("epsilon", REGIMES.values(), ids=REGIMES)
    @pytest.mark.parametrize("w", [Identity(), Polynomial((F(0), F(1), F(0)))], ids=["identity", "degree-1"])
    def test_no_exact_fallback(self, monkeypatch, w, epsilon):
        calls = []
        for name in ("sp_value", "sp_foc_lhs"):
            real = getattr(applications, name)
            monkeypatch.setattr(
                applications, name, lambda *args, real=real: calls.append(args) or real(*args)
            )
        sp = SelfProtectionProblem(4, 1, epsilon, KINKED, (0, F(1, 2)))  # linear_kink at epsilon 0
        solution = sp_solve(sp, w)
        assert calls == []
        assert solution == sp_solve_reference(sp, w)


class TestBackgroundEffect:
    def test_dual_prudent_works_more(self):
        pl = calibrate_power_law(F(4, 5), F(1, 2), DualPower(3), 1)
        sp = SelfProtectionProblem(4, 1, F(1, 8), pl, (0, F(1, 5)))
        rep = sp_background_effect(sp, DualPower(3))
        assert rep.direction == "more"
        assert abs(rep.e_without - 117 / 1024) < 1e-9
        assert abs(rep.p_at_opt - 0.5) < 1e-6
        assert rep.shift_at_half == F(-3, 8)
        assert eval_h_prime(DualPower(3), F(1, 4)) == F(27, 16)
        assert eval_h_prime(DualPower(3), F(1, 2)) == F(3, 4)
        assert eval_h_prime(DualPower(3), F(3, 4)) == F(3, 16)

    def test_dual_imprudent_works_less(self):
        ex = calibrate_exponential(F(3, 5), REVERSE_CUBIC, 1)
        assert ex.k == F(16, 9)
        sp = SelfProtectionProblem(4, 1, F(1, 8), ex, (0, 1))
        rep = sp_background_effect(sp, REVERSE_CUBIC)
        assert rep.direction == "less"
        assert rep.shift_at_half == F(3, 16)

    def test_linear_slope_weighting_is_neutral(self):
        ex = calibrate_exponential(F(3, 5), Quadratic(F(1, 2)), 1)
        assert ex.k == 2
        sp = SelfProtectionProblem(4, 1, F(1, 8), ex, (0, 1))
        rep = sp_background_effect(sp, Quadratic(F(1, 2)))
        assert rep.direction == "none"
        assert rep.shift_at_half == 0


class TestCalibration:
    def test_power_law_constant(self):
        pl = calibrate_power_law(F(4, 5), F(1, 2), DualPower(3), 1)
        assert pl.c == F(1024, 75)
        assert pl.p0 == F(4, 5) and pl.gamma == F(1, 2)
        e_half = (2 - 1) / float(pl.c) * ((2 * float(pl.p0)) ** 2 - 1)
        # p(e) = 1/2 exactly where the bare first-order condition is tight
        sp = SelfProtectionProblem(4, 1, 0, pl, (0, F(1, 5)))
        assert abs(float(sp_foc_lhs(sp, e_half, DualPower(3)))) < 1e-9

    def test_exponential_constant(self):
        assert calibrate_exponential(F(3, 5), REVERSE_CUBIC, 1).k == F(16, 9)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            calibrate_power_law(F(1, 2), F(1, 2), DualPower(3), 1)
        with pytest.raises(DomainError):
            calibrate_exponential(F(3, 5), DualPower(3), 0)

    @pytest.mark.parametrize("gamma", [F(0), F(-1, 2)])
    def test_power_law_needs_positive_gamma(self, gamma):
        with pytest.raises(DomainError, match=re.escape(f"calibration needs gamma > 0, got {gamma}")):
            calibrate_power_law(F(4, 5), gamma, DualPower(3), 1)

    def test_power_law_constant_is_bounded(self):
        # (8/5)^(10^6) would need 4 * 10^6 bits, past the 2^20 power bound
        with pytest.raises(DomainError, match="order too large for an exact value"):
            calibrate_power_law(F(4, 5), F(1, 10**6), DualPower(3), 1)
        # 1/gamma = 1000000.5 takes (8/5)^(1/gamma) past the float range
        with pytest.raises(DomainError, match="overflows a float"):
            calibrate_power_law(F(4, 5), F(2, 2 * 10**6 + 1), DualPower(3), 1)
        assert calibrate_power_law(F(4, 5), F(1, 3), DualPower(3), 1).c == F(4096, 125)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int-to-text digit limit in this interpreter",
    )
    def test_power_law_constant_past_the_digit_limit(self):
        # (8/5)^100000 is inside the power bound, but c's 300,009-bit
        # numerator has more digits than the interpreter writes as text
        with pytest.raises(DomainError, match="^exact value too long to print: "):
            calibrate_power_law(F(4, 5), F(1, 100000), DualPower(3), 1)

    @pytest.mark.parametrize(
        "w",
        [
            Polynomial((F(0), F(3), F(-6), F(4))),  # h' = 3 (1 - 2p)^2
            Tabulated(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)), (F(1), F(1)))),
        ],
        ids=["polynomial", "tabulated"],
    )
    def test_flat_slope_at_one_half(self, w):
        message = re.escape("h'(1/2) > 0, got 0") + ".*" + re.escape(format_weighting(w))
        with pytest.raises(DomainError, match=message):
            calibrate_exponential(F(3, 5), w, 1)
        with pytest.raises(DomainError, match=message):
            calibrate_power_law(F(4, 5), F(1, 2), w, 1)


GOOD_CONFIG = """\
# self-protection instance
wealth = 4
loss = 1
epsilon = 1/8
effort = linear: p0=1/2, k=1/2
bounds = 0:1/2
weighting = dualpower:m=3
"""


class TestProblemConfig:
    def test_round_trip(self):
        sp, w = parse_problem_config(GOOD_CONFIG, source="good.cfg")
        assert sp.w0 == 4 and sp.loss == 1 and sp.epsilon == F(1, 8)
        assert sp.effort_model == LinearEffort(F(1, 2), F(1, 2))
        assert sp.effort_bounds == (0, F(1, 2))
        assert w == DualPower(3)

    def test_linear_clamp_overrides(self):
        text = GOOD_CONFIG.replace("k=1/2", "k=1/2, p_min=1/10, p_max=9/10")
        sp, _ = parse_problem_config(text)
        assert sp.effort_model.p_min == F(1, 10)

    @pytest.mark.parametrize(
        "mangle,line,fragment",
        [
            (lambda t: t + "wealth = 5\n", 8, "duplicate key"),
            (lambda t: t + "colour = red\n", 8, "unknown key"),
            (lambda t: t.replace("loss = 1", "loss = one"), 3, "bad rational"),
            (lambda t: t.replace("dualpower:m=3", "sigmoid:m=3"), 7, "sigmoid"),
            (lambda t: t.replace("0:1/2", "0 to 1/2"), 6, "lo:hi"),
            (lambda t: t.replace("effort = linear: p0=1/2, k=1/2", "effort = linear: p0=1/2"), 5, "missing parameter"),
            (lambda t: t.replace("effort = linear", "effort = cubic"), 5, "unknown effort model"),
            (lambda t: t.replace("epsilon = 1/8\n", "epsilon 1/8\n"), 4, "key = value"),
            (lambda t: t.replace("k=1/2", "k=1/2, pmin=1/10"), 5, "unknown parameter 'pmin'"),
            (lambda t: t.replace("linear", "exponential").replace("k=1/2", "k=1/2, c=2"), 5, "unknown parameter 'c'"),
            (lambda t: t.replace("k=1/2", "k=1/2, k=1"), 5, "duplicate parameter 'k'"),
            (lambda t: t.replace("dualpower:m=3", "dualpower:m=3,m=4"), 7, "duplicate parameter 'm'"),
        ],
    )
    def test_errors_carry_line_numbers(self, mangle, line, fragment):
        with pytest.raises(FormatError) as exc:
            parse_problem_config(mangle(GOOD_CONFIG), source="bad.cfg")
        assert exc.value.line == line
        assert fragment in str(exc.value)
        assert "bad.cfg" in str(exc.value)

    @pytest.mark.parametrize(
        "mangle,line,error",
        [
            (lambda t: t.replace("loss = 1", "loss = -1"), 3, "loss must be >= 0"),
            (lambda t: t.replace("epsilon = 1/8", "epsilon = -1/8"), 4, "background amplitude must be >= 0"),
            (lambda t: t.replace("epsilon = 1/8", "epsilon = 1/2"), 4, "2 eps = loss"),
            (lambda t: t.replace("0:1/2", "1/2:0"), 6, "0 <= lo < hi"),
            (lambda t: t.replace("wealth = 4", "wealth = 1"), 2, "wealth can go negative"),
            (lambda t: t.replace("wealth = 4", "wealth = 10").replace("0:1/2", "1:2"), 5, "fall over the bounds"),
        ],
        ids=["negative-loss", "negative-epsilon", "case-boundary", "reversed-bounds", "negative-wealth", "flat-probability"],
    )
    def test_problem_errors_carry_the_line_of_their_key(self, mangle, line, error):
        with pytest.raises(FormatError) as exc:
            parse_problem_config(mangle(GOOD_CONFIG), source="bad.cfg")
        assert exc.value.line == line
        assert str(exc.value).startswith(f"bad.cfg:{line}: ")
        assert error in str(exc.value)

    @pytest.mark.parametrize(
        "model",
        [
            LinearEffort(F(1, 2), F(1, 2)),
            LinearEffort(F(4, 5), F(2), p_min=F(1, 10), p_max=F(99, 100)),
            ExponentialEffort(F(3, 5), F(2)),
            PowerLawEffort(F(4, 5), F(1024, 75), F(1, 2)),
            calibrate_power_law(F(4, 5), F(1, 2), DualPower(3), 1),
        ],
    )
    def test_effort_spec_round_trip(self, model):
        text = GOOD_CONFIG.replace("linear: p0=1/2, k=1/2", format_effort(model))
        sp, _ = parse_problem_config(text)
        assert sp.effort_model == model

    def test_effort_specs_the_grammar_accepted_before(self):
        for spec, model in [
            ("linear: p0=1/2, k=1/2", LinearEffort(F(1, 2), F(1, 2))),
            ("LINEAR:p0 = 0.5,k=1/2,p_max=9/10", LinearEffort(F(1, 2), F(1, 2), p_max=F(9, 10))),
            ("exponential: p0=3/5, k=2", ExponentialEffort(F(3, 5), F(2))),
            ("powerlaw: p0=4/5, c=1024/75, gamma=1/2", PowerLawEffort(F(4, 5), F(1024, 75), F(1, 2))),
        ]:
            sp, _ = parse_problem_config(GOOD_CONFIG.replace("linear: p0=1/2, k=1/2", spec))
            assert sp.effort_model == model

    def test_missing_keys_reported_without_line(self):
        with pytest.raises(FormatError) as exc:
            parse_problem_config("wealth = 4\n", source="thin.cfg")
        assert "missing keys" in str(exc.value)
        assert "bounds" in str(exc.value)
