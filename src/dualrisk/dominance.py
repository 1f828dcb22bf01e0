"""Stochastic dominance of arbitrary degree, primal and dual.

Dual m-th degree dominance of B over A requires the mean and the dual
moments of order 2..m-1 to be weakly larger for B, plus a pointwise
comparison of the (m-1)-fold integrals of the quantile functions on
[0, 1]. Primal m-th degree dominance compares (m-1)-fold integrals of the
CDFs plus the endpoint conditions of orders 2..m-1; the Ekern variant
replaces those with exact equality of the first m-1 raw moments.

All comparisons are exact: piecewise-polynomial differences are certified
non-negative by root isolation, and failures come with a rational witness
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .lottery import Lottery, canonical_distribution, mean
from .piecewise import PiecewisePoly, step_function
from .polyops import nonneg_on_interval
from .valuation import dual_moment, raw_moment


@dataclass(frozen=True)
class DominanceReport:
    kind: str
    degree: int
    holds: bool
    failed_condition: str | None = None
    witness: Fraction | None = None

    def __bool__(self) -> bool:
        return self.holds


def iterated_quantile(lot: Lottery, m: int) -> PiecewisePoly:
    """(m-1)-fold antiderivative of the quantile function on [0, 1].

    m = 1 is the left-continuous quantile step function itself, with
    breakpoints at the cumulative probabilities.
    """
    if m < 1:
        raise DomainError(f"iteration order must be >= 1, got {m}")
    can = canonical_distribution(lot)
    cum = [Fraction(0)]
    for p in can.probabilities:
        cum.append(cum[-1] + p)
    cum[-1] = Fraction(1)
    f = step_function(tuple(cum), can.outcomes)
    for _ in range(m - 1):
        f = f.antiderivative()
    return f


def iterated_cdf(lot: Lottery, m: int, hi: Fraction) -> PiecewisePoly:
    """(m-1)-fold antiderivative of the CDF on [0, hi]."""
    if m < 1:
        raise DomainError(f"iteration order must be >= 1, got {m}")
    can = canonical_distribution(lot)
    if hi < max(can.outcomes) or hi <= 0:
        raise DomainError("iterated CDF domain must cover the support and have positive length")
    pts, values = [Fraction(0)], []
    cum = Fraction(0)
    for x, p in can.states:
        if x > 0:  # F(pts[-1]) holds on (pts[-1], x]
            pts.append(x)
            values.append(cum)
        cum += p
    if pts[-1] < hi:
        pts.append(hi)
        values.append(cum)
    f = step_function(pts, values)
    for _ in range(m - 1):
        f = f.antiderivative()
    return f


def _pointwise_leq(f: PiecewisePoly, g: PiecewisePoly):
    """Exact check f <= g on their common domain; (ok, witness)."""
    diff = g - f
    pieces = zip(diff.breakpoints, diff.breakpoints[1:], diff.pieces)
    for i, (a, b, coeffs) in enumerate(pieces):
        ok, witness = nonneg_on_interval(list(coeffs), a, b)
        if not ok:
            # diff takes its left piece's (certified) value at an interior
            # breakpoint; only a step piece can be negative there, and then
            # it is negative on all of (a, b]
            return False, b if (i and witness == a) else witness
    return True, None


def dual_sd_check(a: Lottery, b: Lottery, m: int) -> DominanceReport:
    """Does b dominate a in m-th degree dual stochastic dominance?

    Checks, in order and without assuming any redundancy: mean(a) <=
    mean(b); dual moments 2..m-1 of a below b's; and the pointwise
    comparison of m-fold iterated quantiles. The first failed condition is
    reported, with a rational witness for pointwise failures.
    """
    if m < 1:
        raise DomainError(f"dominance degree must be >= 1, got {m}")
    if m >= 2 and mean(a) > mean(b):
        return DominanceReport("dual", m, False, "mean")
    for k in range(2, m):
        if dual_moment(a, k) > dual_moment(b, k):
            return DominanceReport("dual", m, False, f"dual_moment_{k}")
    ok, witness = _pointwise_leq(iterated_quantile(a, m), iterated_quantile(b, m))
    if not ok:
        return DominanceReport("dual", m, False, "iterated_quantile", witness)
    return DominanceReport("dual", m, True)


def primal_sd_check(a: Lottery, b: Lottery, m: int, ekern: bool = False) -> DominanceReport:
    """Does b dominate a in m-th degree primal stochastic dominance?

    Pointwise, the m-fold iterated CDF of b must sit below a's. The plain
    variant adds the endpoint conditions of orders 2..m-1 (equivalent to
    the partial moment conditions); the Ekern variant instead requires the
    first m-1 raw moments to agree exactly.
    """
    if m < 1:
        raise DomainError(f"dominance degree must be >= 1, got {m}")
    kind = "primal-ekern" if ekern else "primal"
    if ekern:
        for k in range(1, m):
            if raw_moment(a, k) != raw_moment(b, k):
                return DominanceReport(kind, m, False, f"raw_moment_{k}")
    hi = max(max(a.outcomes), max(b.outcomes))
    if hi == 0:
        return DominanceReport(kind, m, True)
    fa, fb = iterated_cdf(a, 1, hi), iterated_cdf(b, 1, hi)
    for k in range(2, m + 1):
        fa, fb = fa.antiderivative(), fb.antiderivative()
        if not ekern and k < m and fb(hi) > fa(hi):
            return DominanceReport(kind, m, False, f"endpoint_{k}")
    ok, witness = _pointwise_leq(fb, fa)
    if not ok:
        return DominanceReport(kind, m, False, "iterated_cdf", witness)
    return DominanceReport(kind, m, True)
