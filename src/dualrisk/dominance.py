"""Stochastic dominance of arbitrary degree, primal and dual.

Dual m-th degree dominance of B over A requires the mean and the dual
moments of order 2..m-1 to be weakly larger for B, plus a pointwise
comparison of the (m-1)-fold integrals of the quantile functions on
[0, 1]. Primal m-th degree dominance compares (m-1)-fold integrals of the
CDFs plus the endpoint conditions of orders 2..m-1; the Ekern variant
replaces those with exact equality of the first m-1 raw moments.

Each of these integrals is a truncated-power spline: the quantile
function jumps by x_i - x_(i-1) at the cumulative probability below
state i, the CDF by p_i at outcome x_i, and each jump J at knot c adds
J (t - c)_+^(m-1) / (m-1)! to the (m-1)-fold integral. So the pointwise
difference of two of them is built directly from the merged jump lists,
one integer polynomial per piece of the union of both breakpoint grids,
and each piece is certified non-negative by root isolation; failures come
with a rational witness point. The endpoint conditions are the same sums
taken at the right end. All comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .lottery import Lottery, canonical_distribution, mean
from .piecewise import PiecewisePoly, spline, spline_at, spline_pieces
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


def _quantile_jumps(lot: Lottery):
    """Breakpoints and (knot, jump) pairs of the left-continuous quantile
    step function on [0, 1]; its first jump, at 0, is the lowest outcome."""
    can = canonical_distribution(lot)
    cum, jumps, prev = [Fraction(0)], [], Fraction(0)
    for x, p in can.states:
        jumps.append((cum[-1], x - prev))
        cum.append(cum[-1] + p)
        prev = x
    cum[-1] = Fraction(1)
    return cum, jumps


def _cdf_jumps(lot: Lottery, hi: Fraction):
    """Breakpoints and (knot, jump) pairs of the left-continuous CDF step
    function on [0, hi]: the mass at each outcome, a mass at 0 from the start."""
    if hi < max(lot.outcomes) or hi <= 0:
        raise DomainError("iterated CDF domain must cover the support and have positive length")
    can = canonical_distribution(lot)
    pts = [Fraction(0)] + [x for x in can.outcomes if x > 0]
    if pts[-1] < hi:
        pts.append(hi)
    return pts, list(can.states)


def iterated_quantile(lot: Lottery, m: int) -> PiecewisePoly:
    """(m-1)-fold integral from 0 of the quantile function on [0, 1].

    m = 1 is the left-continuous quantile step function itself, with
    breakpoints at the cumulative probabilities.
    """
    if m < 1:
        raise DomainError(f"iteration order must be >= 1, got {m}")
    return spline(*_quantile_jumps(lot), m)


def iterated_cdf(lot: Lottery, m: int, hi: Fraction) -> PiecewisePoly:
    """(m-1)-fold integral from 0 of the CDF on [0, hi]."""
    if m < 1:
        raise DomainError(f"iteration order must be >= 1, got {m}")
    return spline(*_cdf_jumps(lot, hi), m)


def _minus(jumps):
    return [(c, -j) for c, j in jumps]


def _pointwise_leq(f, g, m: int):
    """Exact check that the order-m spline of step function f (breakpoints,
    jumps) stays <= that of g on their common domain; (ok, witness)."""
    grid, pieces, _ = spline_pieces(f[0] + g[0], g[1] + _minus(f[1]), m)
    for i, (a, b, coeffs) in enumerate(zip(grid, grid[1:], pieces)):
        ok, witness = nonneg_on_interval(coeffs, a, b)
        if not ok:
            # the difference takes its left piece's (certified) value at an
            # interior breakpoint; only a step piece can be negative there,
            # and then it is negative on all of (a, b]
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
    ok, witness = _pointwise_leq(_quantile_jumps(a), _quantile_jumps(b), m)
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
    fa, fb = _cdf_jumps(a, hi), _cdf_jumps(b, hi)
    if not ekern:
        gap = fa[1] + _minus(fb[1])
        for k in range(2, m):
            if spline_at(gap, hi, k) < 0:
                return DominanceReport(kind, m, False, f"endpoint_{k}")
    ok, witness = _pointwise_leq(fb, fa, m)
    if not ok:
        return DominanceReport(kind, m, False, "iterated_cdf", witness)
    return DominanceReport(kind, m, True)
