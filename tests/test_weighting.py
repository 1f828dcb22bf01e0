import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrisk import (
    InputValidationError,
    DomainError,
    NonMonotoneUtility,
    DualPower,
    EqualProbLottery,
    FormatError,
    Identity,
    Polynomial,
    Power,
    Prelec,
    Quadratic,
    SignCertificate,
    SignClass,
    SignWitness,
    Tabulated,
    TverskyKahneman,
    UnsupportedFamily,
    analytic_derivative_sign,
    dt_value,
    dual_power_mixture,
    eval_h,
    eval_h_prime,
    eval_hbar,
    finite_difference_sign,
    format_weighting,
    hbar_finite_difference,
    is_exact,
    parse_weighting,
)

from dualrisk.weighting import _dual_power_ints, difference_grid, float_form

from oracles import (
    dual_power_mixture_reference,
    eval_h_prime_reference,
    eval_h_reference,
    finite_difference,
    finite_difference_sign_all_steps,
    interp_linear_scan,
    padd,
    polynomial_monotone_reference,
    pscale,
)

F = Fraction

EXACT_SPECS = [
    Identity(),
    Quadratic(F(1)),
    Quadratic(F(1, 2)),
    DualPower(2),
    DualPower(3),
    DualPower(5),
    Power(F(2)),
    Tabulated(((F(0), F(0)), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2)), (F(1), F(1)))),
    Polynomial((F(0), F(3, 2), F(0), F(-1, 2))),
]

# the certificate kinds a finite-difference scan may give when h^(m) has
# the analytic kind: ZERO is consistent with either weak sign
COMPATIBLE_KINDS = {
    SignClass.ZERO: {SignClass.ZERO, SignClass.NON_NEGATIVE, SignClass.NON_POSITIVE},
    SignClass.NON_NEGATIVE: {SignClass.NON_NEGATIVE, SignClass.ZERO},
    SignClass.NON_POSITIVE: {SignClass.NON_POSITIVE, SignClass.ZERO},
    SignClass.MIXED: {SignClass.MIXED},
}


class TestEvalH:
    def test_quadratic_example(self):
        assert eval_h(Quadratic(F(1)), F(1, 6)) == F(11, 36)

    def test_dual_power_example(self):
        assert eval_h(DualPower(3), F(1, 2)) == F(7, 8)

    @pytest.mark.parametrize("w", EXACT_SPECS + [TverskyKahneman(0.61), Prelec(0.65, 1.0)])
    def test_boundaries(self, w):
        assert float(eval_h(w, 0)) == 0.0
        assert float(eval_h(w, 1)) == 1.0

    @pytest.mark.parametrize("w", EXACT_SPECS)
    def test_domain(self, w):
        with pytest.raises(DomainError):
            eval_h(w, F(-1, 10))
        with pytest.raises(DomainError):
            eval_h(w, F(11, 10))

    def test_exactness_flags(self):
        assert is_exact(Quadratic(F(1, 3)))
        assert is_exact(DualPower(4))
        assert not is_exact(Prelec(0.65, 1.0))

    def test_quadratic_beta_range(self):
        with pytest.raises(DomainError):
            Quadratic(F(3, 2))
        with pytest.raises(DomainError):
            Quadratic(F(-1, 10))


class TestHbar:
    def test_dual_power_is_power(self):
        w = DualPower(3)
        for i in range(9):
            p = F(i, 8)
            assert eval_hbar(w, p) == p**3

    def test_identity(self):
        for i in range(5):
            assert eval_hbar(Identity(), F(i, 4)) == F(i, 4)

    @pytest.mark.parametrize("w", EXACT_SPECS)
    def test_involution(self, w):
        # reflecting twice restores h at tabulation points
        knots = tuple((F(i, 8), eval_hbar(w, F(i, 8))) for i in range(9))
        reflected = Tabulated(knots)
        for i in range(9):
            assert eval_hbar(reflected, F(i, 8)) == eval_h(w, F(i, 8))


class TestDerivative:
    def test_dual_power_prime(self):
        w = DualPower(3)  # h'(p) = 3(1-p)^2
        assert eval_h_prime(w, F(1, 4)) == F(27, 16)
        assert eval_h_prime(w, F(1, 2)) == F(3, 4)
        assert eval_h_prime(w, F(3, 4)) == F(3, 16)

    def test_quadratic_prime(self):
        assert eval_h_prime(Quadratic(F(1, 2)), F(1, 4)) == F(3, 2) - F(1, 4)

    # Tabulated is exact, but its h' is a float central difference
    ANALYTIC = [w for w in EXACT_SPECS if not isinstance(w, Tabulated)] + [Power(F(1)), DualPower(1)]

    @pytest.mark.parametrize("w", ANALYTIC, ids=format_weighting)
    @pytest.mark.parametrize("p", [0, 1, F(1, 2)], ids=str)
    def test_exact_points_give_exact_slopes(self, w, p):
        slope = eval_h_prime(w, p)
        assert not isinstance(slope, float)
        assert slope == eval_h_prime_reference(w, p)

    @pytest.mark.parametrize("w", [TverskyKahneman(0.61), Prelec(0.65, 1.0)])
    def test_transcendental_prime_matches_difference(self, w):
        p = 0.37
        s = 1e-7
        numeric = (eval_h(w, p + s) - eval_h(w, p - s)) / (2 * s)
        assert eval_h_prime(w, p) == pytest.approx(numeric, rel=1e-5)


class TestFiniteDifferenceSign:
    @pytest.mark.parametrize(
        "pos, neg, kind",
        [
            (False, False, SignClass.ZERO),
            (True, False, SignClass.NON_NEGATIVE),
            (False, True, SignClass.NON_POSITIVE),
            (True, True, SignClass.MIXED),
        ],
    )
    def test_kind_is_read_off_the_witnesses(self, pos, neg, kind):
        up, down = SignWitness(F(0), F(1, 4), F(1)), SignWitness(F(1, 4), F(1, 4), F(-1))
        cert = SignCertificate(3, up if pos else None, down if neg else None)
        assert cert.kind is kind

    def test_quadratic_third_zero(self):
        cert = finite_difference_sign(Quadratic(F(2, 3)), 3, 64)
        assert cert.kind is SignClass.ZERO

    def test_identity_second_zero(self):
        assert finite_difference_sign(Identity(), 2, 64).kind is SignClass.ZERO

    def test_dual_power_window_value(self):
        # start 0, step 1/4: 63/64 - 3*(7/8) + 3*(37/64) - 0
        w = DualPower(3)
        assert finite_difference(w, 3, F(0), F(1, 4)) == F(3, 32)
        cert = finite_difference_sign(w, 3, 64)
        assert cert.kind is SignClass.NON_NEGATIVE

    def test_mixed_with_witness(self):
        knots = ((F(0), F(0)), (F(1, 4), F(1, 2)), (F(3, 4), F(5, 8)), (F(1), F(1)))
        cert = finite_difference_sign(Tabulated(knots), 3, 16)
        assert cert.kind is SignClass.MIXED
        pos, neg = cert.positive, cert.negative
        assert finite_difference(Tabulated(knots), 3, pos.p, pos.step) == pos.value > 0
        assert finite_difference(Tabulated(knots), 3, neg.p, neg.step) == neg.value < 0

    @pytest.mark.parametrize("w", EXACT_SPECS)
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_agrees_with_analytic(self, w, m):
        try:
            analytic = analytic_derivative_sign(w, m)
        except UnsupportedFamily:
            return
        for grid in (m + 1, 16, 64):
            assert finite_difference_sign(w, m, grid).kind in COMPATIBLE_KINDS[analytic.kind]

    @pytest.mark.parametrize("w", EXACT_SPECS + [TverskyKahneman(0.61), Prelec(0.65, 1.0)])
    def test_monotone_first_differences(self, w):
        cert = finite_difference_sign(w, 1, 32)
        assert cert.kind in (SignClass.NON_NEGATIVE, SignClass.ZERO)

    @pytest.mark.parametrize("w", EXACT_SPECS)
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_reflection_identity(self, w, m):
        # hbar(p) = 1 - h(1-p) flips every window: the m-th difference of
        # hbar at p is (-1)^(m+1) times the m-th difference of h at the
        # reflected start 1 - p - m s, so odd orders keep their sign and
        # even orders flip
        s = F(1, 16)
        for i in range(16 - m + 1):
            p = F(i, 16)
            if p + m * s > 1:
                continue
            lhs = hbar_finite_difference(w, m, p, s)
            rhs = (-1) ** (m + 1) * finite_difference(w, m, 1 - p - m * s, s)
            assert lhs == rhs

    @pytest.mark.parametrize("m", [0, -2])
    def test_hbar_difference_order_below_one_is_refused(self, m):
        # difference_grid's refusal, though the window [p, p + m s] stays in [0, 1]
        with pytest.raises(DomainError, match=rf"^difference order must be >= 1, got {m}$"):
            hbar_finite_difference(Identity(), m, F(0), F(1, 4))

    @pytest.mark.parametrize("m", [0, -2, 2.0, True, F(2)], ids=["0", "-2", "float", "bool", "Fraction"])
    @pytest.mark.parametrize(
        "what, call",
        [
            ("difference", lambda m: difference_grid(Identity(), m, 8)),
            ("difference", lambda m: finite_difference_sign(Identity(), m, 8)),
            ("difference", lambda m: hbar_finite_difference(Identity(), m, F(0), F(1, 4))),
            ("derivative", lambda m: analytic_derivative_sign(Identity(), m)),
        ],
        ids=["grid", "sign", "hbar", "analytic"],
    )
    def test_every_order_taker_refuses_an_order_that_is_no_int_from_one(self, what, call, m):
        if isinstance(m, int) and not isinstance(m, bool):
            message = rf"^{what} order must be >= 1, got {m}$"
        else:
            message = rf"^{what} order must be an integer, got {re.escape(repr(m))}$"
        with pytest.raises(DomainError, match=message):
            call(m)


@st.composite
def tabulated_weightings(draw):
    xs = sorted(draw(st.sets(st.fractions(F(1, 64), F(63, 64), max_denominator=64), max_size=8)))
    ys = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=64), min_size=len(xs), max_size=len(xs))))
    return Tabulated(((F(0), F(0)), *zip(xs, ys), (F(1), F(1))))


@st.composite
def polynomial_weightings(draw):
    """Convex mixtures of p^k, 1 - (1 - p)^k and (1 + c) p - c p^k with
    c = 1/(k - 1): monotone, and often of mixed difference signs."""
    kinds = st.sampled_from(("power", "dualpower", "flip"))
    parts = draw(st.lists(st.tuples(kinds, st.integers(2, 6), st.integers(1, 4)), min_size=1, max_size=3))
    total = sum(weight for *_, weight in parts)
    acc = [F(0)]
    for kind, k, weight in parts:
        if kind == "power":
            coeffs = [F(0)] * k + [F(1)]
        elif kind == "dualpower":
            coeffs = list(dual_power_mixture({k: F(1)}).coeffs)
        else:
            coeffs = [F(0)] * (k + 1)
            coeffs[1], coeffs[k] = 1 + F(1, k - 1), -F(1, k - 1)
        acc = padd(acc, pscale(coeffs, F(weight, total)))
    return Polynomial(tuple(acc))


class TestUnitStepScan:
    """The certificate scans unit steps only; the scan over every step that
    it replaced gives the same certificate, witnesses included."""

    @given(
        st.one_of(
            tabulated_weightings(),
            polynomial_weightings(),
            st.integers(1, 8).map(DualPower),
            st.fractions(0, 1, max_denominator=16).map(Quadratic),
        ),
        st.integers(1, 5),
        st.integers(8, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_all_steps_scan(self, w, m, grid_count):
        assert finite_difference_sign(w, m, grid_count) == finite_difference_sign_all_steps(w, m, grid_count)

    @pytest.mark.parametrize(
        "w",
        [
            TverskyKahneman(0.61),
            TverskyKahneman(0.9),
            Prelec(0.65, 1.0),
            Prelec(1.3, 0.8),
            Power(F(1, 2)),
            Power(F(3, 2)),
        ],
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_float_families_match_the_all_steps_scan(self, w, m):
        for grid_count in (8, 16, 32, 64):
            assert finite_difference_sign(w, m, grid_count) == finite_difference_sign_all_steps(w, m, grid_count)

    def test_witnesses_sit_at_unit_step(self):
        knots = ((F(0), F(0)), (F(1, 4), F(1, 2)), (F(3, 4), F(5, 8)), (F(1), F(1)))
        cert = finite_difference_sign(Tabulated(knots), 3, 16)
        assert cert.positive.step == cert.negative.step == F(1, 16)

    def test_grid_is_checked_before_h_is_evaluated(self, monkeypatch):
        import dualrisk.weighting as weighting

        calls = []
        monkeypatch.setattr(weighting, "eval_h", lambda w, p: calls.append(p))
        for m, grid_count in ((0, 8), (9, 8), (1, 0)):
            with pytest.raises(DomainError):
                finite_difference_sign(Identity(), m, grid_count)
        assert calls == []


class TestAnalyticSign:
    def test_quadratic_second(self):
        cert = analytic_derivative_sign(Quadratic(F(1, 2)), 2)
        assert cert.kind is SignClass.NON_POSITIVE

    @pytest.mark.parametrize("m0", [3, 4, 5, 6])
    def test_dual_power_alternates(self, m0):
        for m in range(1, m0 + 1):
            cert = analytic_derivative_sign(DualPower(m0), m)
            expected = SignClass.NON_NEGATIVE if m % 2 == 1 else SignClass.NON_POSITIVE
            assert cert.kind is expected
        assert analytic_derivative_sign(DualPower(m0), m0 + 1).kind is SignClass.ZERO

    def test_identity_higher_zero(self):
        assert analytic_derivative_sign(Identity(), 2).kind is SignClass.ZERO

    def test_unsupported_families(self):
        for w in (TverskyKahneman(0.61), Prelec(0.65, 1.0), Tabulated(((F(0), F(0)), (F(1), F(1))))):
            with pytest.raises(UnsupportedFamily):
                analytic_derivative_sign(w, 2)


class TestOrderBound:
    """Power and DualPower orders past the exact size bound are a DomainError
    wherever they are evaluated, never an OverflowError or a hang."""

    HUGE = (Power(10**400), DualPower(10**400), Power(10**7), DualPower(10**7))

    @pytest.mark.parametrize("w", HUGE, ids=["power-1e400", "dualpower-1e400", "power-1e7", "dualpower-1e7"])
    @pytest.mark.parametrize("p", [0.5, F(1, 2), F(1, 3), 0.0, F(1)])
    def test_evaluation_is_refused(self, w, p):
        for call in (eval_h, eval_h_prime, eval_hbar):
            with pytest.raises(DomainError, match="order too large"):
                call(w, p)
        with pytest.raises(DomainError, match="order too large"):
            finite_difference(w, 1, F(0), F(1, 2))
        with pytest.raises(DomainError, match="order too large"):
            hbar_finite_difference(w, 2, F(0), F(1, 4))

    @pytest.mark.parametrize("w", HUGE, ids=["power-1e400", "dualpower-1e400", "power-1e7", "dualpower-1e7"])
    def test_certificates_are_refused(self, w):
        with pytest.raises(DomainError, match="order too large"):
            analytic_derivative_sign(w, 1)
        with pytest.raises(DomainError, match="order too large"):
            finite_difference_sign(w, 2, 16)

    def test_fractional_power_past_float_range(self):
        w = Power(F(2 * 10**400 + 1, 2))
        for call in (eval_h, eval_h_prime):
            with pytest.raises(DomainError, match="order too large"):
                call(w, 0.5)

    def test_orders_inside_the_bound_still_evaluate(self):
        assert eval_h(Power(2**20), 0.5) == 0.0
        assert eval_h(Power(1000), F(1, 3)) == F(1, 3**1000)
        assert eval_h_prime(DualPower(1000), F(1, 2)) == F(1000, 2**999)
        assert eval_h(Power(F(2**20 - 1, 2)), 0.25) == 0.0
        assert analytic_derivative_sign(DualPower(1000), 2).kind is SignClass.NON_POSITIVE
        assert analytic_derivative_sign(Power(1000), 3).kind is SignClass.NON_NEGATIVE


class TestFloatOverflow:
    """A float family whose formula overflows is a DomainError naming the
    weighting, never an OverflowError or a ZeroDivisionError."""

    def test_prelec_value(self):
        with pytest.raises(DomainError, match="prelec:a=200"):
            eval_h(Prelec(200.0), 1e-300)

    def test_tk_construction(self):
        with pytest.raises(DomainError, match="tk:gamma=1e-05"):
            TverskyKahneman(gamma=1e-5)

    @pytest.mark.parametrize("gamma", [2000.0, 1e5])
    def test_tk_construction_where_both_powers_underflow(self, gamma):
        with pytest.raises(DomainError, match="divides by zero"):
            TverskyKahneman(gamma=gamma)
        assert TverskyKahneman(gamma=1000.0).gamma == 1000.0

    def test_tk_construction_boundary(self):
        # 0.5 ** 1075 underflows to 0, so the sum under the root at p = 0.5
        # is 0; one step below, the weighting constructs and values lotteries
        value = dt_value(EqualProbLottery(range(1, 9)), TverskyKahneman(gamma=1074))
        assert 1 <= value <= 8
        with pytest.raises(DomainError, match=r"^weighting tk:gamma=1075 divides by zero in floats at p = 0\.5$"):
            TverskyKahneman(gamma=1075)

    def test_prelec_slope(self):
        with pytest.raises(DomainError, match="prelec:a=200"):
            eval_h_prime(Prelec(200.0), 1e-300)

    @pytest.mark.parametrize("p", [0, F(0), 0.0])
    def test_fractional_power_slope_at_zero(self, p):
        with pytest.raises(DomainError, match="unbounded derivative"):
            eval_h_prime(Power(F(1, 2)), p)
        assert eval_h_prime(Power(F(3, 2)), p) == 0.0


# at least one member of each of the eight families, with the edge cases
# of the float form: order-1 powers, a degree-1 polynomial (its slope is
# exact on floats), a fractional power below 1 (unbounded slope at 0)
FLOAT_FORM_SPECS = EXACT_SPECS + [
    Quadratic(F(0)),
    Power(F(1)),
    Power(F(1, 2)),
    Power(F(7, 3)),
    DualPower(1),
    TverskyKahneman(0.61),
    TverskyKahneman(1.3),
    Prelec(0.65, 1.0),
    Prelec(200.0),
    Tabulated(((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1, 3) + F(1, 10**30), F(2, 3)), (F(1), F(1)))),
    Polynomial((F(0), F(1))),
    dual_power_mixture({2: F(1, 3), 7: F(2, 3)}),
]


def _outcome(f, x):
    """The float a call returns, by its hex, or the error it raises."""
    try:
        value = f(x)
    except DomainError as exc:
        return "error", str(exc)
    return ("exact", value) if isinstance(value, Fraction) else ("float", value.hex())


class TestFloatForm:
    """float_form(w), and eval_h and eval_h_prime on floats through it,
    equal h and h' computed call by call (oracles), bit for bit."""

    POINTS = [0.0, 1.0, 5e-324, 1e-300, 1 - 2**-53, 0.5, 1 / 3, 0.25 + 1e-6, -0.5, 1.5, float(F(1, 3))]

    @given(st.sampled_from(FLOAT_FORM_SPECS), st.lists(st.floats(0, 1), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_matches_eval_h(self, w, xs):
        h, hp = float_form(w)
        for x in xs + self.POINTS:
            value = _outcome(lambda q: eval_h_reference(w, q), x)
            assert _outcome(h, x) == _outcome(lambda q: eval_h(w, q), x) == value
            slope = _outcome(lambda q: eval_h_prime_reference(w, q), x)
            assert _outcome(lambda q: eval_h_prime(w, q), x) == slope
            if hp is None:
                assert slope[0] in ("exact", "error")
            else:
                assert _outcome(hp, x) == slope

    def test_degree_one_slope_is_exact_one(self):
        hp = float_form(Polynomial((F(0), F(1), F(0))))[1]
        for x in (0.0, 5e-324, 1 / 3, 0.5, 1 - 2**-53, 1.0):
            assert type(hp(x)) is Fraction and hp(x) == 1
        assert eval_h_prime(Polynomial((F(0), F(1), F(0))), 0.5) == 1

    def test_order_bound_is_checked_once(self):
        for w in (Power(10**7), DualPower(10**7), Power(F(2 * 10**400 + 1, 2))):
            with pytest.raises(DomainError, match="order too large"):
                float_form(w)
        h, hp = float_form(DualPower(2**20))
        assert h(0.5) == eval_h_reference(DualPower(2**20), 0.5)

    def test_coefficients_past_the_float_range_keep_eval_h(self):
        w = dual_power_mixture({1050: F(1)})  # binomials past 10^308
        h, hp = float_form(w)
        for f, reference in ((h, eval_h_reference), (hp, eval_h_prime_reference)):
            assert _outcome(f, 0.5) == _outcome(lambda q: reference(w, q), 0.5)
            assert _outcome(f, 0.5)[0] == "error"


class TestConstruction:
    def test_tabulated_needs_unit_endpoints(self):
        with pytest.raises(DomainError):
            Tabulated(((F(0), F(1, 10)), (F(1), F(1))))

    @pytest.mark.parametrize("p1", [F(1, 2), F(1, 4)], ids=["repeated", "falling"])
    def test_tabulated_abscissae_must_increase(self, p1):
        with pytest.raises(DomainError) as exc:
            Tabulated(((F(0), F(0)), (F(1, 2), F(1, 4)), (p1, F(1, 2)), (F(1), F(1))))
        assert type(exc.value) is DomainError
        assert str(exc.value) == f"knot abscissae must increase, got 1/2 then {p1}"

    def test_tabulated_needs_monotone_values(self):
        with pytest.raises(DomainError):
            Tabulated(((F(0), F(0)), (F(1, 2), F(3, 4)), (F(1), F(1, 2))))

    def test_polynomial_unit_sum(self):
        with pytest.raises(DomainError):
            Polynomial((F(0), F(1, 2)))

    def test_polynomial_monotone(self):
        # 4p - 9p^2 + 6p^3 has h' < 0 on (1/3, 2/3)
        with pytest.raises(InputValidationError):
            Polynomial((F(0), F(4), F(-9), F(6)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make, message",
        [
            (TverskyKahneman, "tk gamma must be finite"),
            (Prelec, "prelec parameters must be finite"),
            (lambda x: Prelec(1.0, x), "prelec parameters must be finite"),
        ],
        ids=["tk-gamma", "prelec-a", "prelec-b"],
    )
    def test_float_family_parameters_must_be_finite(self, make, message, bad):
        with pytest.raises(DomainError, match=message):
            make(bad)

    @pytest.mark.parametrize("m", [True, False, 2.0, F(2)], ids=["True", "False", "float", "Fraction"])
    def test_dual_power_order_is_a_plain_int(self, m):
        with pytest.raises(DomainError, match=rf"^dual power order must be an integer >= 1, got {m}$"):
            DualPower(m)

    def test_dual_power_order_one_reads_back(self):
        assert format_weighting(DualPower(1)) == "dualpower:m=1"
        assert parse_weighting(format_weighting(DualPower(1))) == DualPower(1)

    def test_dual_power_mixture(self):
        w = dual_power_mixture({2: F(1, 2), 4: F(1, 2)})
        assert isinstance(w, Polynomial)
        for i in range(9):
            p = F(i, 8)
            expected = (eval_h(DualPower(2), p) + eval_h(DualPower(4), p)) / 2
            assert eval_h(w, p) == expected


mixture_weights = st.dictionaries(st.integers(1, 12), st.integers(0, 5), min_size=1, max_size=4).filter(
    lambda raw: sum(raw.values()) > 0
)


class TestDualPowerMixture:
    """The mixture built in ints equals the Fraction polynomial sum
    (oracles.dual_power_mixture_reference), and keeps its input errors."""

    @given(mixture_weights)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_sum(self, raw):
        total = sum(raw.values())
        weights = {k: F(v, total) for k, v in raw.items()}
        coeffs = dual_power_mixture(weights).coeffs
        assert coeffs == dual_power_mixture_reference(weights)
        assert all(type(c) is Fraction for c in coeffs)

    def test_binomial_row_by_recurrence_equals_comb(self):
        for m in (*range(1, 65), 1050):
            assert _dual_power_ints(m) == [0] + [(-1) ** (i + 1) * math.comb(m, i) for i in range(1, m + 1)], m

    def test_zero_weight_drops_trailing_zeros(self):
        assert dual_power_mixture({3: 1, 5: 0}).coeffs == (0, 3, -3, 1)
        assert dual_power_mixture({5: 0, 3: F(1)}).coeffs == (0, 3, -3, 1)

    @pytest.mark.parametrize(
        "weights,error,message",
        [
            ({0: F(1)}, DomainError, "dual power order must be an integer >= 1, got 0"),
            ({3: F(1, 2), F(5, 2): F(1, 2)}, DomainError, "dual power order must be an integer >= 1, got 5/2"),
            ({2.0: F(1)}, DomainError, "dual power order must be an integer >= 1, got 2.0"),
            ({2: F(3, 2), 3: F(-1, 2)}, DomainError, "mixture weights must be non-negative and sum to 1"),
            ({2: F(1, 2), 3: F(1, 3)}, DomainError, "mixture weights must be non-negative and sum to 1"),
            ({2: 0.5, 3: 0.5}, FormatError, "refusing to coerce non-integral float 0.5; pass a Fraction or a string"),
        ],
        ids=["order-0", "fractional-order", "float-order", "negative-weight", "sum-below-1", "float-weight"],
    )
    def test_errors(self, weights, error, message):
        with pytest.raises(error) as exc:
            dual_power_mixture(weights)
        assert type(exc.value) is error
        assert str(exc.value) == message


integer_form_polynomials = st.tuples(st.lists(st.integers(-8, 8), max_size=6), st.integers(1, 6)).map(
    lambda drawn: (0, *(F(a, drawn[1]) for a in drawn[0]), F(drawn[1] - sum(drawn[0]), drawn[1]))
)


class TestPolynomialCertification:
    """Monotonicity takes the Bernstein pre-accept before Sturm; what it
    accepts, rejects and names as the witness equals the Fraction Sturm
    chain alone (oracles.polynomial_monotone_reference)."""

    @given(integer_form_polynomials)
    @settings(max_examples=400, deadline=None)
    def test_matches_sturm_alone(self, coeffs):
        ok, witness = polynomial_monotone_reference(coeffs)
        if ok:
            assert Polynomial(coeffs).coeffs == coeffs
        else:
            with pytest.raises(NonMonotoneUtility) as exc:
                Polynomial(coeffs)
            assert str(exc.value) == f"polynomial weighting decreasing near p = {witness}"

    @staticmethod
    def _counting_sturm():
        """polyops.nonneg_on_interval wrapped in a mock that counts its calls."""
        import dualrisk.polyops as polyops

        return mock.patch.object(polyops, "nonneg_on_interval", wraps=polyops.nonneg_on_interval)

    @pytest.mark.parametrize(
        "coeffs,sturm,ok",
        [
            ((0, 2, -1), 0, True),  # DualPower(2): non-negative Bernstein coefficients of h'
            ((0, 3, -6, 4), 1, True),  # h' = 3 (1 - 2p)^2: Bernstein b_1 < 0, Sturm accepts
            ((0, 4, -9, 6), 1, False),  # h' < 0 on (1/3, 2/3)
        ],
    )
    def test_routes(self, coeffs, sturm, ok):
        expected_ok, witness = polynomial_monotone_reference(coeffs)
        assert expected_ok is ok
        with self._counting_sturm() as calls:
            if ok:
                Polynomial(coeffs)
            else:
                with pytest.raises(NonMonotoneUtility, match=re.escape(f"near p = {witness}")):
                    Polynomial(coeffs)
        assert calls.call_count == sturm

    @given(mixture_weights)
    @settings(max_examples=100, deadline=None)
    def test_mixtures_take_no_sturm_call(self, raw):
        total = sum(raw.values())
        with self._counting_sturm() as calls:
            dual_power_mixture({k: F(v, total) for k, v in raw.items()})
        assert calls.call_count == 0

    def test_fixed_batteries_take_no_sturm_call(self):
        from dualrisk.harness import _fixed_battery

        with self._counting_sturm() as calls:
            for m in range(2, 10):
                head, tail = _fixed_battery.__wrapped__(m)
                assert any(isinstance(w, Polynomial) for w, _ in tail)
        assert calls.call_count == 0


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("identity", Identity()),
            ("quadratic:beta=1/2", Quadratic(F(1, 2))),
            ("dualpower:m=3", DualPower(3)),
            ("power:k=2", Power(F(2))),
            ("tk:gamma=0.61", TverskyKahneman(0.61)),
            ("prelec:a=0.65,b=1", Prelec(0.65, 1.0)),
            ("prelec:a=0.65", Prelec(0.65, 1.0)),
            ("  Quadratic:beta = 1/2 ", Quadratic(F(1, 2))),
            ("power:k=3/2", Power(F(3, 2))),
            ("dualpower:m=+3", DualPower(3)),
            ("tk:gamma=61/100", TverskyKahneman(0.61)),
            ("identity:", Identity()),
            ("tabulated:knots=0,0;1/2,2/3;1,1", Tabulated(((0, 0), (F(1, 2), F(2, 3)), (1, 1)))),
            ("tabulated:knots=0, 0; 1/2,2/3 ;1,1", Tabulated(((0, 0), (F(1, 2), F(2, 3)), (1, 1)))),
            ("poly:coeffs=0,3/2,0,-1/2", Polynomial((0, F(3, 2), 0, F(-1, 2)))),
            ("poly:coeffs=0, 3/2, 0, -1/2", Polynomial((0, F(3, 2), 0, F(-1, 2)))),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_weighting(text) == expected

    @pytest.mark.parametrize("w", EXACT_SPECS + [TverskyKahneman(0.61), Prelec(0.65, 1.0)])
    def test_round_trip(self, w):
        assert parse_weighting(format_weighting(w)) == w

    @pytest.mark.parametrize("bad", ["", "unknown:x=1", "quadratic", "quadratic:beta=2", "dualpower:m=0"])
    def test_rejects(self, bad):
        with pytest.raises((FormatError, DomainError)):
            parse_weighting(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "quadratic:beta=1/2,beta=1",
            "prelec:a=1,b=1,a=2",
            "tabulated:knots=0,0;1,1,knots=0,0;1,1",
            "identity:beta=1",
            "power:K=2",
            "tk:gamma=1/0",
        ],
    )
    def test_rejects_unknown_and_repeated_keys(self, bad):
        with pytest.raises(FormatError, match="bad weighting spec"):
            parse_weighting(bad)

    @given(st.floats(min_value=0.3, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_tk_float_round_trip(self, gamma):
        w = TverskyKahneman(gamma)
        assert parse_weighting(format_weighting(w)) == w

    @given(st.floats(min_value=1e-6, max_value=50.0), st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_prelec_float_round_trip(self, a, b):
        w = Prelec(a, b)
        assert parse_weighting(format_weighting(w)) == w

    def test_short_floats_keep_their_text(self):
        assert format_weighting(TverskyKahneman(0.61)) == "tk:gamma=0.61"
        assert format_weighting(TverskyKahneman(0.612345678)) == "tk:gamma=0.612345678"
        assert format_weighting(Prelec(2.0, 1 / 3)) == "prelec:a=2,b=0.3333333333333333"


@given(st.integers(min_value=0, max_value=64))
@settings(max_examples=30)
def test_quadratic_closed_form(i):
    p = F(i, 64)
    beta = F(1, 3)
    assert eval_h(Quadratic(beta), p) == (1 + beta) * p - beta * p * p


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def tabulated_knots(draw):
    inner = draw(st.lists(unit_fractions.filter(lambda p: 0 < p < 1), max_size=8, unique=True))
    heights = draw(st.lists(unit_fractions, min_size=len(inner), max_size=len(inner)))
    return ((F(0), F(0)), *zip(sorted(inner), sorted(heights)), (F(1), F(1)))


@given(tabulated_knots(), st.data())
@settings(max_examples=200)
def test_tabulated_matches_linear_scan(knots, data):
    w = Tabulated(knots)
    between = [p0 + t * (p1 - p0) for (p0, _), (p1, _) in zip(knots, knots[1:]) for t in (F(1, 3), F(1, 2))]
    points = [p for p, _ in knots] + between + [data.draw(unit_fractions)]  # knots include 0 and 1
    for p in points:
        got = eval_h(w, p)
        assert isinstance(got, Fraction)
        assert got == interp_linear_scan(knots, p)
