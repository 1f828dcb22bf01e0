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
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .dominance import dual_sd_check
from .errors import (
    CaseBoundary,
    DomainError,
    DominanceCheckFailed,
    FormatError,
    NegativeOutcome,
)
from .lottery import EqualProbLottery, Lottery, make_lottery, mean
from .rationals import format_exact, format_spec, parse_float_range, parse_spec, rat, read_fields
from .valuation import dt_value
from .weighting import WeightingSpec, eval_h, eval_h_prime, parse_weighting


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


EMPTY_MENU = DerivativeMenu(())


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
    return EqualProbLottery(stock_prices.n, tuple(values))


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
    if stock_prices.n < 2:
        raise DomainError("the stock support needs at least two states")
    mu = mean(stock_prices)
    if order == 2:
        (k,) = strikes if strikes is not None else (mu,)
        menu = DerivativeMenu((LongPut(k), ShortCall(k)))
    elif order == 3:
        (c,) = strikes if strikes is not None else (mu,)
        menu = DerivativeMenu((Straddle(c),))
    elif order == 4:
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
    else:
        raise DomainError(f"menus exist for orders 2, 3, 4 only, got {order}")
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
    """p(e); exact for the linear family, float for the transcendental ones."""
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi):
            return min(hi, max(lo, p0 - k * e))
        case ExponentialEffort(p0=p0, k=k):
            return float(p0) * math.exp(-float(k) * float(e))
        case PowerLawEffort(p0=p0, c=c, gamma=g):
            return float(p0) * (1 + float(c) * float(e)) ** (-float(g))
    raise DomainError(f"unknown effort model {model!r}")


def loss_probability_slope(model: EffortModel, e):
    """p'(e) (zero on the clamped stretches of the linear family)."""
    match model:
        case LinearEffort(p0=p0, k=k, p_min=lo, p_max=hi):
            return Fraction(0) if not lo < p0 - k * e < hi else -k
        case ExponentialEffort(k=k):
            return -float(k) * loss_probability(model, e)
        case PowerLawEffort(c=c, gamma=g):
            return -float(g) * float(c) * loss_probability(model, e) / (1 + float(c) * float(e))
    raise DomainError(f"unknown effort model {model!r}")


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
            raise DomainError(f"loss must be >= 0, got {self.loss}")
        if self.epsilon < 0:
            raise DomainError(f"background amplitude must be >= 0, got {self.epsilon}")
        if self.epsilon > 0 and 2 * self.epsilon == self.loss:
            raise CaseBoundary(
                "2 eps = loss ties the middle wealth states; the case split is undefined there"
            )
        if not 0 <= lo < hi:
            raise DomainError(f"effort bounds must satisfy 0 <= lo < hi, got {lo}, {hi}")
        if self.w0 - self.loss - self.epsilon - hi < 0:
            raise NegativeOutcome(
                f"wealth can go negative at maximal effort: {self.w0 - self.loss - self.epsilon - hi}"
            )
        p_lo = loss_probability(self.effort_model, lo)
        p_hi = loss_probability(self.effort_model, hi)
        if not (0 < p_hi and p_lo < 1 and p_hi < p_lo):
            raise DomainError(
                f"loss probability must stay in (0, 1) and fall over the bounds, got {p_lo} -> {p_hi}"
            )


def _regime(sp: SelfProtectionProblem) -> str:
    if sp.epsilon == 0:
        return "bare"
    if 2 * sp.epsilon < sp.loss:
        return "small"
    return "large"


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


def sp_value(sp: SelfProtectionProblem, e, w: WeightingSpec):
    """Dual value of the wealth lottery at effort e, in closed form.

    Equals dt_value(sp_lottery(sp, e), w); the closed form also accepts
    float effort, which the optimizer relies on.
    """
    p = loss_probability(sp.effort_model, e)
    match _regime(sp):
        case "bare":
            return sp.w0 - e - eval_h(w, p) * sp.loss
        case "small":
            return (
                sp.w0
                + sp.epsilon
                - e
                - 2 * sp.epsilon * eval_h(w, p / 2)
                - (sp.loss - 2 * sp.epsilon) * eval_h(w, p)
                - 2 * sp.epsilon * eval_h(w, (1 + p) / 2)
            )
        case "large":
            return (
                sp.w0
                + sp.epsilon
                - e
                - sp.loss * eval_h(w, p / 2)
                - (2 * sp.epsilon - sp.loss) * eval_h(w, Fraction(1, 2))
                - sp.loss * eval_h(w, (1 + p) / 2)
            )
    raise DomainError("unreachable regime")


def background_shift_expression(w: WeightingSpec, p):
    """-h'(p/2) + 2 h'(p) - h'((1+p)/2): the marginal-benefit shift the
    background risk adds to the first-order condition; negative exactly
    when the slope of h is convex across the three evaluation points."""
    return -eval_h_prime(w, p / 2) + 2 * eval_h_prime(w, p) - eval_h_prime(w, (1 + p) / 2)


def sp_foc_lhs(sp: SelfProtectionProblem, e, w: WeightingSpec):
    """d/de of the closed-form value: the first-order condition's left side."""
    if sp.epsilon > 0 and 2 * sp.epsilon == sp.loss:
        raise CaseBoundary("2 eps = loss has no well-defined case")
    p = loss_probability(sp.effort_model, e)
    dp = loss_probability_slope(sp.effort_model, e)
    match _regime(sp):
        case "bare":
            return -dp * eval_h_prime(w, p) * sp.loss - 1
        case "small":
            return (
                dp * sp.epsilon * background_shift_expression(w, p)
                - dp * eval_h_prime(w, p) * sp.loss
                - 1
            )
        case "large":
            slopes = eval_h_prime(w, p / 2) + eval_h_prime(w, (1 + p) / 2)
            return -Fraction(1, 2) * dp * sp.loss * slopes - 1
    raise DomainError("unreachable regime")


@dataclass(frozen=True)
class SPDiagnostics:
    interior: bool
    at_bound: str | None
    concave_on_grid: bool
    foc_sign_change: bool
    p_at_opt: float


@dataclass(frozen=True)
class SPSolution:
    e_star: float
    value: float
    diagnostics: SPDiagnostics


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2


def sp_solve(sp: SelfProtectionProblem, w: WeightingSpec, grid_count: int = 256) -> SPSolution:
    """Maximize effort value: bracketing grid scan, then golden-section.

    The value is assumed concave in effort; that assumption is checked
    on the scan grid and a violation triggers a warning while the
    returned point is still the refined global grid maximum.
    """
    lo, hi = float(sp.effort_bounds[0]), float(sp.effort_bounds[1])
    step = (hi - lo) / grid_count
    es = [lo + i * step for i in range(grid_count + 1)]
    vs = [float(sp_value(sp, e, w)) for e in es]
    scale = max(1.0, max(abs(v) for v in vs))
    concave = all(
        vs[i + 1] - vs[i] <= vs[i] - vs[i - 1] + 1e-9 * scale for i in range(1, grid_count)
    )
    if not concave:
        warnings.warn("value not concave on the effort grid; returning the global grid maximum")
    best = max(range(grid_count + 1), key=lambda i: vs[i])
    a = es[best - 1] if best > 0 else es[0]
    b = es[best + 1] if best < grid_count else es[grid_count]
    e_star = _golden_max(lambda e: float(sp_value(sp, e, w)), a, b)
    foc_lo = float(sp_foc_lhs(sp, lo, w))
    foc_hi = float(sp_foc_lhs(sp, hi, w))
    sign_change = foc_lo > 0 > foc_hi
    if float(sp_foc_lhs(sp, a, w)) > 0 > float(sp_foc_lhs(sp, b, w)):
        # the value's float plateau caps golden-section accuracy near a flat
        # top; the first-order condition has no such plateau, so bisecting its
        # sign across the bracketing grid cell pins the maximizer much
        # tighter (kinks included)
        while True:
            mid = (a + b) / 2
            if mid in (a, b):
                break
            if float(sp_foc_lhs(sp, mid, w)) > 0:
                a = mid
            else:
                b = mid
        polished = (a + b) / 2
        if float(sp_value(sp, polished, w)) >= float(sp_value(sp, e_star, w)) - 1e-12 * scale:
            e_star = polished
    bound_tol = (hi - lo) * 1e-9
    at_bound = "lower" if e_star - lo <= bound_tol else "upper" if hi - e_star <= bound_tol else None
    diag = SPDiagnostics(
        interior=at_bound is None,
        at_bound=at_bound,
        concave_on_grid=concave,
        foc_sign_change=sign_change,
        p_at_opt=float(loss_probability(sp.effort_model, e_star)),
    )
    return SPSolution(e_star, float(sp_value(sp, e_star, w)), diag)


@dataclass(frozen=True)
class BackgroundEffectReport:
    e_with: float
    e_without: float
    direction: str
    p_at_opt: float
    shift_at_half: object
    shift_at_opt: float


def sp_background_effect(sp: SelfProtectionProblem, w: WeightingSpec) -> BackgroundEffectReport:
    """Compare optimal effort with and without the background risk.

    The reported shift expressions are the extra marginal benefit the
    background risk injects into the first-order condition, evaluated
    at p = 1/2 (the calibration point) and at the no-background optimum.
    """
    with_bg = sp_solve(sp, w)
    without = sp_solve(replace(sp, epsilon=Fraction(0)), w)
    gap = with_bg.e_star - without.e_star
    tol = 1e-9 * max(1.0, abs(without.e_star))
    direction = "more" if gap > tol else "less" if gap < -tol else "none"
    p_opt = without.diagnostics.p_at_opt
    return BackgroundEffectReport(
        e_with=with_bg.e_star,
        e_without=without.e_star,
        direction=direction,
        p_at_opt=p_opt,
        shift_at_half=background_shift_expression(w, Fraction(1, 2)),
        shift_at_opt=float(background_shift_expression(w, p_opt)),
    )


def calibrate_power_law(p0, gamma, w: WeightingSpec, loss) -> PowerLawEffort:
    """Pick c so the bare first-order condition holds exactly at p = 1/2.

    -p'(e) h'(1/2) loss = 1 at the effort where p(e) = 1/2 forces
    c = 2 (2 p0)^(1/gamma) / (gamma h'(1/2) loss); p0 > 1/2 is needed so
    the probability actually falls through 1/2 at positive effort.
    """
    p0, gamma, loss = rat(p0), rat(gamma), rat(loss)
    if p0 <= Fraction(1, 2):
        raise DomainError(f"calibration needs p0 > 1/2, got {p0}")
    if loss <= 0:
        raise DomainError(f"calibration needs loss > 0, got {loss}")
    hp = eval_h_prime(w, Fraction(1, 2))
    inv_gamma = 1 / gamma
    base = 2 * p0
    grown = base**inv_gamma if inv_gamma.denominator == 1 else float(base) ** float(inv_gamma)
    c = 2 * grown / (gamma * hp * loss)
    return PowerLawEffort(p0, c if isinstance(c, Fraction) else Fraction(c), gamma)


def calibrate_exponential(p0, w: WeightingSpec, loss) -> ExponentialEffort:
    """Pick k so the bare first-order condition holds exactly at p = 1/2."""
    p0, loss = rat(p0), rat(loss)
    if p0 <= Fraction(1, 2):
        raise DomainError(f"calibration needs p0 > 1/2, got {p0}")
    if loss <= 0:
        raise DomainError(f"calibration needs loss > 0, got {loss}")
    hp = eval_h_prime(w, Fraction(1, 2))
    k = 2 / (hp * loss)
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
            raise FormatError(f"expected key = value, got {raw.strip()!r}", line=line_no, source=source)
        pairs.append((key.strip().lower(), value.strip(), line_no))
    fields = read_fields(pairs, _PROBLEM_KEYS, _PROBLEM_KEYS, source=source)
    sp = SelfProtectionProblem(
        w0=fields["wealth"],
        loss=fields["loss"],
        epsilon=fields["epsilon"],
        effort_model=fields["effort"],
        effort_bounds=fields["bounds"],
    )
    return sp, fields["weighting"]
