"""Two worked decision problems driven by the dual valuation.

Portfolio choice: a risky stock supplemented with a zero-cost derivative
menu (collar, straddle, or straddle spread) whose payoff turns the plain
price lottery into one that dominates it in the dual sense at a chosen
order. The investor's objective is linear in the invested amount, so
optimal demand is a corner solution; the supplement can only raise the
valuation of the risky return, never lower it, for every weighting
function carrying the right derivative sign.

Self-protection: effort e lowers the probability p(e) of losing l while
wealth also carries an independent fair background risk +/- eps. The
four-state wealth lottery has closed-form value and first-order
condition in each parameter regime (no background risk, 2 eps < l,
2 eps > l), and the background risk shifts optimal effort in the
direction dictated by the third derivative of the weighting function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial

from .dominance import dual_sd_check
from .errors import (
    CaseBoundary,
    DomainError,
    DominanceCheckFailed,
    FormatError,
    InputValidationError,
    NegativeOutcome,
)
from .lottery import EqualProbLottery, Lottery, make_lottery, mean
from .rationals import _check_power, _exact_text, _quoted, format_exact, format_spec, parse_float_range, parse_spec, rat, read_fields
from .valuation import dt_value
from .weighting import (
    WeightingSpec,
    eval_h,
    eval_h_prime,
    float_form,
    format_weighting,
    parse_weighting,
)


# ---------------------------------------------------------------------------
# portfolio choice


@dataclass(frozen=True)
class LongPut:
    strike: Fraction

    def __post_init__(self):
        object.__setattr__(self, "strike", rat(self.strike))


@dataclass(frozen=True)
class ShortCall:
    strike: Fraction

    def __post_init__(self):
        object.__setattr__(self, "strike", rat(self.strike))


@dataclass(frozen=True)
class Straddle:
    center: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", rat(self.center))


@dataclass(frozen=True)
class ShortStraddle:
    center: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", rat(self.center))


@dataclass(frozen=True)
class DigitalZeroAt:
    """Knockout point: each straddle pays only on its own side of the point.

    With a knockout at z, a straddle centered below z pays |s - c| for
    s < z and nothing for s >= z; one centered above z pays only for
    s > z. Puts and calls are unaffected. This digital masking is what
    lets a long/short straddle spread hand the gains of the low half of
    the support to the losses of the high half without interference.
    """

    point: Fraction

    def __post_init__(self):
        object.__setattr__(self, "point", rat(self.point))


Instrument = LongPut | ShortCall | Straddle | ShortStraddle | DigitalZeroAt


def _straddle_live(center: Fraction, s: Fraction, zero_points) -> bool:
    for z in zero_points:
        if s == z or (s < z) != (center < z):
            return False
    return True


def _instrument_payoff(inst: Instrument, s: Fraction, zero_points) -> Fraction:
    match inst:
        case LongPut(strike=k):
            return max(k - s, Fraction(0))
        case ShortCall(strike=k):
            return -max(s - k, Fraction(0))
        case Straddle(center=c):
            return abs(s - c) if _straddle_live(c, s, zero_points) else Fraction(0)
        case ShortStraddle(center=c):
            return -abs(s - c) if _straddle_live(c, s, zero_points) else Fraction(0)
        case DigitalZeroAt():
            return Fraction(0)
    raise DomainError(f"unknown instrument {inst!r}")


@dataclass(frozen=True)
class DerivativeMenu:
    instruments: tuple[Instrument, ...]

    def payoff(self, s) -> Fraction:
        """Total menu payoff at stock price s, before the premium."""
        s = rat(s)
        zero_points = tuple(i.point for i in self.instruments if isinstance(i, DigitalZeroAt))
        total = Fraction(0)
        for inst in self.instruments:
            total += _instrument_payoff(inst, s, zero_points)
        return total

    def premium(self, stock_prices: EqualProbLottery) -> Fraction:
        """Upfront price of the menu: its expected payoff.

        Charging exactly the expected payoff keeps the supplemented
        position at zero expected cost, so net payoffs sum to zero in
        expectation by construction.
        """
        return sum(self.payoff(s) for s in stock_prices.outcomes) / stock_prices.n


@dataclass(frozen=True)
class PortfolioProblem:
    w0: Fraction
    r: Fraction
    s0: Fraction
    stock_prices: EqualProbLottery

    def __post_init__(self):
        object.__setattr__(self, "w0", rat(self.w0))
        object.__setattr__(self, "r", rat(self.r))
        object.__setattr__(self, "s0", rat(self.s0))
        if self.w0 < 0:
            raise DomainError(f"initial wealth must be >= 0, got {self.w0}")
        if self.s0 <= 0:
            raise DomainError(f"initial stock price must be > 0, got {self.s0}")


def supplemented_prices(stock_prices: EqualProbLottery, menu: DerivativeMenu | None) -> EqualProbLottery:
    """Per-state position value: stock price plus net menu payoff."""
    if menu is None or not menu.instruments:
        return stock_prices
    prem = menu.premium(stock_prices)
    values = sorted(s + menu.payoff(s) - prem for s in stock_prices.outcomes)
    return EqualProbLottery(tuple(values))


_MENU_STRIKES = {2: 1, 3: 1, 4: 3}  # order -> the strikes its menu takes


def build_menu(order: int, stock_prices: EqualProbLottery, strikes: tuple | None = None) -> DerivativeMenu:
    """Zero-cost menu improving the stock at the given dual order.

    Defaults place the strikes at conditional means of the support: the
    collar (order 2) and the straddle (order 3) sit at the mean, the
    straddle spread (order 4) pairs a long straddle at the lower-half
    mean with a short straddle at the upper-half mean, knocked out at
    the mean. The supplemented position must pass dual_sd_check against
    the plain stock at the stated order; anything else (including
    ill-chosen custom strikes) raises DominanceCheckFailed.
    """
    if isinstance(order, bool) or not isinstance(order, int):
        raise DomainError(f"menu order must be an integer, got {order!r}")
    if stock_prices.n < 2:
        raise DomainError("the stock support needs at least two states")
    if order not in _MENU_STRIKES:
        raise DomainError(f"menus exist for orders 2, 3, 4 only, got {order}")
    count = _MENU_STRIKES[order]
    if strikes is not None and len(strikes) != count:
        raise DomainError(
            f"an order-{order} menu takes {count} strike{'s' if count > 1 else ''}, got {len(strikes)}"
        )
    mu = mean(stock_prices)
    if order == 2:
        (k,) = strikes if strikes is not None else (mu,)
        menu = DerivativeMenu((LongPut(k), ShortCall(k)))
    elif order == 3:
        (c,) = strikes if strikes is not None else (mu,)
        menu = DerivativeMenu((Straddle(c),))
    else:  # order 4
        if strikes is not None:
            c_low, c_high, z = strikes
        else:
            half = stock_prices.n // 2
            lower = stock_prices.outcomes[:half]
            upper = stock_prices.outcomes[half:]
            c_low = sum(lower, Fraction(0)) / len(lower)
            c_high = sum(upper, Fraction(0)) / len(upper)
            z = mu
        menu = DerivativeMenu((Straddle(c_low), ShortStraddle(c_high), DigitalZeroAt(z)))
    report = dual_sd_check(stock_prices, supplemented_prices(stock_prices, menu), order)
    if not report:
        raise DominanceCheckFailed(
            f"order-{order} menu fails to improve the stock: {report.failed_condition}"
        )
    return menu


def portfolio_value(pp: PortfolioProblem, menu: DerivativeMenu | None, w: WeightingSpec):
    """Value of the (supplemented) return: positive homogeneity and
    translation invariance let it be read off the position-value lottery."""
    prices = supplemented_prices(pp.stock_prices, menu)
    return (dt_value(prices, w) - pp.s0) / pp.s0


def optimal_alpha(pp: PortfolioProblem, menu: DerivativeMenu | None, w: WeightingSpec):
    """Corner demand for the risky position: (amount, indifferent).

    The objective is linear in the invested amount, so demand is all or
    nothing; at an exact tie the bond keeps the money and the flag is
    set.
    """
    v = portfolio_value(pp, menu, w)
    if v > pp.r:
        return pp.w0, False
    if v < pp.r:
        return Fraction(0), False
    return Fraction(0), True


# ---------------------------------------------------------------------------
# self-protection


@dataclass(frozen=True)
class LinearEffort:
    """p(e) = p0 - k e, clamped to [p_min, p_max]."""

    p0: Fraction
    k: Fraction
    p_min: Fraction = Fraction(1, 100)
    p_max: Fraction = Fraction(99, 100)

    def __post_init__(self):
        for name in ("p0", "k", "p_min", "p_max"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if not 0 < self.p_min < self.p_max < 1:
            raise DomainError("clamp bounds must satisfy 0 < p_min < p_max < 1")
        if not self.p_min <= self.p0 <= self.p_max:
            raise DomainError(f"p0 = {self.p0} outside the clamp range")
        if self.k <= 0:
            raise DomainError("loss probability must decrease: k > 0")


@dataclass(frozen=True)
class ExponentialEffort:
    """p(e) = p0 exp(-k e)."""

    p0: Fraction
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p0", rat(self.p0))
        object.__setattr__(self, "k", rat(self.k))
        if not 0 < self.p0 < 1:
            raise DomainError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.k <= 0:
            raise DomainError("loss probability must decrease: k > 0")


@dataclass(frozen=True)
class PowerLawEffort:
    """p(e) = p0 (1 + c e)^(-gamma).

    Unlike the exponential family, the curvature ratio p''/p'^2 here
    grows like (gamma + 1)/(gamma p), which is what an interior optimum
    with a locally concave objective needs under strongly convex
    weighting slopes.
    """

    p0: Fraction
    c: Fraction
    gamma: Fraction

    def __post_init__(self):
        for name in ("p0", "c", "gamma"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if not 0 < self.p0 < 1:
            raise DomainError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.c <= 0 or self.gamma <= 0:
            raise DomainError("loss probability must decrease: c > 0 and gamma > 0")


EffortModel = LinearEffort | ExponentialEffort | PowerLawEffort


def loss_probability(model: EffortModel, e):
    """p(e); exact for the linear family at exact effort and at a clamp,
    float otherwise."""
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi) if not isinstance(e, float):
            return min(hi, max(lo, p0 - k * e))
    return _float_effort(model)(float(e))[0]


def loss_probability_slope(model: EffortModel, e):
    """p'(e) (zero on the clamped stretches of the linear family)."""
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi) if not isinstance(e, float):
            return Fraction(0) if not lo < p0 - k * e < hi else -k
    return _float_effort(model)(float(e))[1]


@dataclass(frozen=True)
class SelfProtectionProblem:
    w0: Fraction
    loss: Fraction
    epsilon: Fraction
    effort_model: EffortModel
    effort_bounds: tuple[Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "w0", rat(self.w0))
        object.__setattr__(self, "loss", rat(self.loss))
        object.__setattr__(self, "epsilon", rat(self.epsilon))
        lo, hi = self.effort_bounds
        object.__setattr__(self, "effort_bounds", (rat(lo), rat(hi)))
        lo, hi = self.effort_bounds
        if self.loss < 0:
            _reject("loss", DomainError, f"loss must be >= 0, got {self.loss}")
        if self.epsilon < 0:
            _reject("epsilon", DomainError, f"background amplitude must be >= 0, got {self.epsilon}")
        if self.epsilon > 0 and 2 * self.epsilon == self.loss:
            _reject(
                "epsilon",
                CaseBoundary,
                "2 eps = loss ties the middle wealth states; the case split is undefined there",
            )
        if not 0 <= lo < hi:
            _reject("effort_bounds", DomainError, f"effort bounds must satisfy 0 <= lo < hi, got {lo}, {hi}")
        floor = self.w0 - self.loss - self.epsilon - hi
        if floor < 0:
            _reject("w0", NegativeOutcome, f"wealth can go negative at maximal effort: {floor}")
        p_lo = loss_probability(self.effort_model, lo)
        p_hi = loss_probability(self.effort_model, hi)
        if not (0 < p_hi and p_lo < 1 and p_hi < p_lo):
            _reject(
                "effort_model",
                DomainError,
                f"loss probability must stay in (0, 1) and fall over the bounds, got {p_lo} -> {p_hi}",
            )


def _reject(field: str, error: type, message: str):
    """Raise error(message) marked with the SelfProtectionProblem field it
    rejects, so a problem file can name the line of that field's key."""
    exc = error(message)
    exc.field = field
    raise exc


def _loss_probability_exact(sp: SelfProtectionProblem, e) -> Fraction:
    p = loss_probability(sp.effort_model, e)
    # binary floats are dyadic rationals; taking them exactly keeps the
    # lottery's probabilities summing to one with no rounding policy
    return p if isinstance(p, Fraction) else Fraction(p)


def sp_lottery(sp: SelfProtectionProblem, e) -> Lottery:
    """Wealth lottery at effort e: loss branch split +/- eps, fair coin.

    Two states when eps = 0, four otherwise; at 2 eps > l the loss-plus
    -gain state overtakes the no-loss-minus-gain state.
    """
    e = rat(e)
    lo, hi = sp.effort_bounds
    if not lo <= e <= hi:
        raise DomainError(f"effort {e} outside bounds [{lo}, {hi}]")
    if sp.w0 - sp.loss - sp.epsilon - e < 0:
        raise NegativeOutcome(
            f"wealth {sp.w0 - sp.loss - sp.epsilon - e} at the loss state is negative"
        )
    p = _loss_probability_exact(sp, e)
    if sp.epsilon == 0:
        return make_lottery([(sp.w0 - sp.loss - e, p), (sp.w0 - e, 1 - p)])
    return make_lottery(
        [
            (sp.w0 - sp.loss - sp.epsilon - e, p / 2),
            (sp.w0 - sp.loss + sp.epsilon - e, p / 2),
            (sp.w0 - sp.epsilon - e, (1 - p) / 2),
            (sp.w0 + sp.epsilon - e, (1 - p) / 2),
        ]
    )


def _value_form(sp: SelfProtectionProblem, w: WeightingSpec, num):
    """V(e, p, h) of the regime (no background risk, 2 eps < loss, 2 eps >
    loss), summed left to right; each exact constant, an exact
    sub-product formed first, is passed through num."""
    base, eps2, loss = num(sp.w0 + sp.epsilon), num(2 * sp.epsilon), num(sp.loss)
    if sp.epsilon == 0:
        return lambda e, p, h: base - e - h(p) * loss
    if 2 * sp.epsilon < sp.loss:
        rest = num(sp.loss - 2 * sp.epsilon)
        return lambda e, p, h: base - e - eps2 * h(p / 2) - rest * h(p) - eps2 * h((1 + p) / 2)
    middle = num((2 * sp.epsilon - sp.loss) * eval_h(w, Fraction(1, 2)))
    return lambda e, p, h: base - e - loss * h(p / 2) - middle - loss * h((1 + p) / 2)


def _slope_form(sp: SelfProtectionProblem, num):
    """V'(p, p', h') of the regime: d/de of _value_form, summed and its
    constants passed through num the same way."""
    eps, loss = num(sp.epsilon), num(sp.loss)
    if sp.epsilon == 0:
        return lambda p, dp, hp: -dp * hp(p) * loss - 1
    if 2 * sp.epsilon < sp.loss:
        return lambda p, dp, hp: dp * eps * _shift(hp, p) - dp * hp(p) * loss - 1
    half = num(Fraction(-1, 2))
    return lambda p, dp, hp: half * dp * loss * (hp(p / 2) + hp((1 + p) / 2)) - 1


def _exact(c):
    return c


def _shift(hp, p):
    return -hp(p / 2) + 2 * hp(p) - hp((1 + p) / 2)


def sp_value(sp: SelfProtectionProblem, e, w: WeightingSpec):
    """Dual value of the wealth lottery at effort e, in closed form.

    Equals dt_value(sp_lottery(sp, e), w); the closed form also accepts
    float effort. sp_solve reads the same closed form with float
    constants where Python would take them to float anyway, equal to
    float(sp_value(sp, e, w)) bit for bit.
    """
    p = loss_probability(sp.effort_model, e)
    return _value_form(sp, w, _exact)(e, p, partial(eval_h, w))


def background_shift_expression(w: WeightingSpec, p):
    """-h'(p/2) + 2 h'(p) - h'((1+p)/2): the marginal-benefit shift the
    background risk adds to the first-order condition; negative exactly
    when the slope of h is convex across the three evaluation points."""
    return _shift(partial(eval_h_prime, w), p)


def sp_foc_lhs(sp: SelfProtectionProblem, e, w: WeightingSpec):
    """d/de of the closed-form value: the first-order condition's left side."""
    p = loss_probability(sp.effort_model, e)
    dp = loss_probability_slope(sp.effort_model, e)
    return _slope_form(sp, _exact)(p, dp, partial(eval_h_prime, w))


def _float_effort(model: EffortModel):
    """point(e) = (p(e), p'(e)) on float effort, the one float
    implementation of the effort models. A clamped linear point gives the
    exact bound and slope 0, the open linear stretch the exact slope -k."""
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi):
            start, rate, floor, cap = float(p0), float(k), float(lo), float(hi)
            slope, flat = -k, Fraction(0)

            def linear(e):
                # float() rounds to nearest, so only floor and cap themselves
                # can lie on either side of the bound they round
                x = start - rate * e
                if floor < x < cap or (x == floor or x == cap) and lo < x < hi:
                    return x, slope
                return (lo, flat) if x < floor or x == floor and x <= lo else (hi, flat)

            return linear
        case ExponentialEffort(p0=p0, k=k):
            start, rate = float(p0), -float(k)

            def exponential(e):
                p = start * math.exp(rate * e)
                return p, rate * p

            return exponential
        case PowerLawEffort(p0=p0, c=c, gamma=g):
            start, scale, power = float(p0), float(c), -float(g)
            rate = power * scale

            def power_law(e):
                grown = 1 + scale * e
                p = start * grown**power
                return p, rate * p / grown

            return power_law
    raise DomainError(f"unknown effort model {model!r}")


def _float_forms(sp: SelfProtectionProblem, w: WeightingSpec):
    """V(e) and V'(e) on float effort, built once per solve: bit for bit
    float(sp_value(sp, e, w)) and float(sp_foc_lhs(sp, e, w)).

    V reads the closed form with float constants wherever p is a float,
    V' wherever p and p' both are, with h and h' from float_form(w): each
    constant meets a float first, where Python takes it to float anyway.
    With an exact p' (the open linear stretch, -k) or an exact p (a clamp)
    they read it with exact constants, Python's mixed arithmetic as
    sp_value's and sp_foc_lhs's own; at a clamp h and h' are evaluated
    exactly, once per point for the solve.
    """
    h, hp = float_form(w)
    exact_h, exact_hp = cache(partial(eval_h, w)), cache(partial(eval_h_prime, w))
    point = _float_effort(sp.effort_model)
    float_value, float_slope = _value_form(sp, w, float), _slope_form(sp, float)
    exact_value, exact_slope = _value_form(sp, w, _exact), _slope_form(sp, _exact)

    def value(e: float) -> float:
        p = point(e)[0]
        if p.__class__ is float:
            return float_value(e, p, h)
        return float(exact_value(e, p, exact_h))

    def slope(e: float) -> float:
        p, dp = point(e)
        if p.__class__ is not float:
            return float(exact_slope(p, dp, exact_hp))
        if dp.__class__ is not float:
            return float(exact_slope(p, dp, hp))
        return float_slope(p, dp, hp)

    return value, slope


@dataclass(frozen=True)
class SPDiagnostics:
    at_bound: str | None
    concave_on_grid: bool
    foc_sign_change: bool
    p_at_opt: float

    @property
    def interior(self) -> bool:
        return self.at_bound is None


@dataclass(frozen=True)
class SPSolution:
    e_star: float
    value: float
    diagnostics: SPDiagnostics


_GOLDEN = (math.sqrt(5) - 1) / 2
_GOLDEN_TOL = 1e-10  # golden-section search stops at this bracket width
_GRID_COUNT = 256  # cells of the bracketing effort grid


def _golden_max(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2


def sp_solve(sp: SelfProtectionProblem, w: WeightingSpec) -> SPSolution:
    """Maximize effort value: bracketing grid scan, then golden-section.

    The value is assumed concave in effort; that assumption is checked
    on the scan grid and reported as diagnostics.concave_on_grid, and a
    violation still returns the refined global grid maximum. A bound
    whose value is at least the refined point's is returned as the bound
    itself. Every evaluation reads the closed forms of sp_value and
    sp_foc_lhs as _float_forms builds them once for this solve, equal to
    their floats bit for bit.
    """
    value, slope = _float_forms(sp, w)
    lo, hi = float(sp.effort_bounds[0]), float(sp.effort_bounds[1])
    step = (hi - lo) / _GRID_COUNT
    es = [lo + i * step for i in range(_GRID_COUNT + 1)]
    vs = [value(e) for e in es]
    scale = max(1.0, max(abs(v) for v in vs))
    concave = all(
        vs[i + 1] - vs[i] <= vs[i] - vs[i - 1] + 1e-9 * scale for i in range(1, _GRID_COUNT)
    )
    best = max(range(_GRID_COUNT + 1), key=lambda i: vs[i])
    a = es[best - 1] if best > 0 else es[0]
    b = es[best + 1] if best < _GRID_COUNT else es[_GRID_COUNT]
    e_star = _golden_max(value, a, b)
    foc_lo = slope(lo)
    foc_hi = slope(hi)
    sign_change = foc_lo > 0 > foc_hi
    if slope(a) > 0 > slope(b):
        # the value's float plateau caps golden-section accuracy near a flat
        # top; the first-order condition has no such plateau, so bisecting its
        # sign across the bracketing grid cell pins the maximizer much
        # tighter (kinks included)
        while True:
            mid = (a + b) / 2
            if mid in (a, b):
                break
            if slope(mid) > 0:
                a = mid
            else:
                b = mid
        polished = (a + b) / 2
        if value(polished) >= value(e_star) - 1e-12 * scale:
            e_star = polished
    # the search only approaches a bound its bracket holds; take the bound
    # when it is at least as good
    bound = lo if best <= 1 else hi if best >= _GRID_COUNT - 1 else None
    if bound is not None and value(bound) >= value(e_star):
        e_star = bound
    bound_tol = (hi - lo) * 1e-9
    at_bound = "lower" if e_star - lo <= bound_tol else "upper" if hi - e_star <= bound_tol else None
    diag = SPDiagnostics(
        at_bound=at_bound,
        concave_on_grid=concave,
        foc_sign_change=sign_change,
        p_at_opt=float(loss_probability(sp.effort_model, e_star)),
    )
    return SPSolution(e_star, value(e_star), diag)


@dataclass(frozen=True)
class BackgroundEffectReport:
    solution: SPSolution  # the problem as given, background risk included
    without: SPSolution  # the same problem with epsilon = 0
    shift_at_half: object
    shift_at_opt: float

    @property
    def e_with(self) -> float:
        return self.solution.e_star

    @property
    def e_without(self) -> float:
        return self.without.e_star

    @property
    def p_at_opt(self) -> float:
        return self.without.diagnostics.p_at_opt

    @property
    def direction(self) -> str:
        """How the background risk moves the optimal effort."""
        gap = self.e_with - self.e_without
        tol = 1e-9 * max(1.0, abs(self.e_without))
        return "more" if gap > tol else "less" if gap < -tol else "none"


def sp_background_effect(sp: SelfProtectionProblem, w: WeightingSpec) -> BackgroundEffectReport:
    """Compare optimal effort with and without the background risk.

    The reported shift expressions are the extra marginal benefit the
    background risk injects into the first-order condition, evaluated
    at p = 1/2 (the calibration point) and at the no-background optimum.
    """
    with_bg = sp_solve(sp, w)
    without = sp_solve(replace(sp, epsilon=Fraction(0)), w)
    return BackgroundEffectReport(
        solution=with_bg,
        without=without,
        shift_at_half=background_shift_expression(w, Fraction(1, 2)),
        shift_at_opt=float(background_shift_expression(w, without.diagnostics.p_at_opt)),
    )


def _calibration_slope(p0: Fraction, w: WeightingSpec, loss: Fraction):
    """h'(1/2), once p0, loss and h'(1/2) admit a calibration."""
    if p0 <= Fraction(1, 2):
        raise DomainError(f"calibration needs p0 > 1/2, got {p0}")
    if loss <= 0:
        raise DomainError(f"calibration needs loss > 0, got {loss}")
    hp = eval_h_prime(w, Fraction(1, 2))
    if not hp > 0:
        raise DomainError(f"calibration needs h'(1/2) > 0, got {hp} for weighting {format_weighting(w)}")
    return hp


def calibrate_power_law(p0, gamma, w: WeightingSpec, loss) -> PowerLawEffort:
    """Pick c so the bare first-order condition holds exactly at p = 1/2.

    -p'(e) h'(1/2) loss = 1 at the effort where p(e) = 1/2 forces
    c = 2 (2 p0)^(1/gamma) / (gamma h'(1/2) loss); p0 > 1/2 is needed so
    the probability actually falls through 1/2 at positive effort. gamma
    must be positive, and (2 p0)^(1/gamma) is bounded as eval_h bounds
    powers: an integer 1/gamma may not take it past 2^20 bits, and a
    fractional one past the float range; either is a DomainError, and so
    is a c with more digits than the interpreter converts to text.
    """
    p0, gamma, loss = rat(p0), rat(gamma), rat(loss)
    if gamma <= 0:
        raise DomainError(f"calibration needs gamma > 0, got {gamma}")
    hp = _calibration_slope(p0, w, loss)
    inv_gamma = 1 / gamma
    base = 2 * p0
    if inv_gamma.denominator == 1:
        _check_power(inv_gamma.numerator, base.numerator.bit_length())
        grown = base**inv_gamma
    else:
        try:
            grown = float(base) ** float(inv_gamma)
        except OverflowError:
            raise DomainError(f"(2 p0)^(1/gamma) overflows a float at gamma = {gamma}") from None
    c = 2 * grown / (gamma * hp * loss)
    c = c if isinstance(c, Fraction) else Fraction(c)
    _exact_text(c)  # a c too long to write as text is the DomainError of format_exact
    return PowerLawEffort(p0, c, gamma)


def calibrate_exponential(p0, w: WeightingSpec, loss) -> ExponentialEffort:
    """Pick k so the bare first-order condition holds exactly at p = 1/2."""
    p0, loss = rat(p0), rat(loss)
    k = 2 / (_calibration_slope(p0, w, loss) * loss)
    return ExponentialEffort(p0, k if isinstance(k, Fraction) else Fraction(k))


# ---------------------------------------------------------------------------
# problem files

_FRACTION = (parse_float_range, format_exact)  # the solver works in floats

_EFFORT_TABLE = {
    "linear": (LinearEffort, {"p0": _FRACTION, "k": _FRACTION, "p_min": _FRACTION, "p_max": _FRACTION}),
    "exponential": (ExponentialEffort, {"p0": _FRACTION, "k": _FRACTION}),
    "powerlaw": (PowerLawEffort, {"p0": _FRACTION, "c": _FRACTION, "gamma": _FRACTION}),
}


def format_effort(model: EffortModel) -> str:
    """The effort spec text that a problem file's effort key reads back to model."""
    return format_spec(model, _EFFORT_TABLE)


def _parse_bounds(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise FormatError(f"bounds must be lo:hi, got {text!r}")
    return parse_float_range(lo), parse_float_range(hi)


# SelfProtectionProblem field -> the problem-file key that sets it
_FIELD_KEYS = {
    "w0": "wealth",
    "loss": "loss",
    "epsilon": "epsilon",
    "effort_model": "effort",
    "effort_bounds": "bounds",
}

_PROBLEM_KEYS = {
    "wealth": parse_float_range,
    "loss": parse_float_range,
    "epsilon": parse_float_range,
    "effort": lambda text: parse_spec(text, _EFFORT_TABLE, "effort model"),
    "bounds": _parse_bounds,
    "weighting": parse_weighting,
}


def parse_problem_config(text: str, source: str = "<config>"):
    """Read a key = value self-protection problem description.

    Required keys: wealth, loss, epsilon, effort, bounds, weighting.
    Returns (SelfProtectionProblem, WeightingSpec).
    """
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise FormatError(f"expected key = value, got {_quoted(raw.strip())}", line=line_no, source=source)
        pairs.append((key.strip().lower(), value.strip(), line_no))
    fields = read_fields(pairs, _PROBLEM_KEYS, _PROBLEM_KEYS, source=source)
    try:
        sp = SelfProtectionProblem(**{field: fields[key] for field, key in _FIELD_KEYS.items()})
    except InputValidationError as exc:
        # a rejected field points at the line of its key
        lines = {key: line_no for key, _, line_no in pairs}
        line = lines.get(_FIELD_KEYS.get(getattr(exc, "field", None)))
        raise FormatError(str(exc), line=line, source=source) from None
    return sp, fields["weighting"]
