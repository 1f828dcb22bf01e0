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
J (t - c)_+^(m-1) / (m-1)! to the (m-1)-fold integral. Both read the
lottery's jump list (lottery._jumps), as dt_value does: the quantile
spline as it is (CDF counts as knots, outcome steps as jumps), the CDF
spline its support (lottery._support: outcomes as knots, probability
counts as jumps). Two lotteries meet over one knot denominator L and one
jump denominator D by integer multiplication, and the difference spline
is built from the joined list, one integer polynomial per piece of the
union of both grids (piecewise.spline_pieces). A piece is accepted when
its Taylor or Bernstein coefficients are all >= 0
(polyops.bernstein_nonneg); every other piece is certified by Sturm root
isolation, and failures come with a rational witness point. The
pre-check only accepts pieces that are non-negative, so results and
witnesses are the ones Sturm alone gives.

Every gate is one integer sum over that joined list at its end,
sum_i v_i (end - u_i)^j (_end_sum), read before any spline is built: the
order-(j+1) spline there, times D L^j j!. The dual mean and dual moment
k take j = k at end = L (the k-th dual moment is k! times the order-(k+1)
iterated quantile at 1) and fail below 0; the primal endpoint condition
of order k takes j = k - 1 at the top outcome and fails below 0; the
Ekern raw moment k takes j = k at the top outcome and fails when
nonzero, since (top - x)^k expands into the raw moments 0..k and the
first nonzero sum is at the first raw moment that differs. A dual gate
of order k is refused, as dual_moment is, when k times the bit length
of the larger probability denominator passes 2^20. All comparisons are
exact, and degrees past MAX_DEGREE are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError
from .lottery import Lottery, _jumps, _support
from .piecewise import spline_pieces
from .polyops import bernstein_nonneg, nonneg_on_interval
from .rationals import _check_power

# Past this degree a check is refused. A piece's coefficients grow with
# the degree's power of the knot numerators: on two 128-state lotteries
# one Sturm certificate takes about 4 ms at degree 16 and 130 ms at 32,
# and a check may need one per piece.
MAX_DEGREE = 16


@dataclass(frozen=True)
class DominanceReport:
    kind: str
    degree: int
    failed_condition: str | None = None
    witness: Fraction | None = None

    @property
    def holds(self) -> bool:
        return self.failed_condition is None

    def __bool__(self) -> bool:
        return self.holds


def _cdf_steps(lot):
    """(steps, L, D) of the left-continuous CDF: at each distinct outcome
    u/L it jumps by that outcome's mass v/D, steps listing the (u, v)."""
    jumps, d, xd, _ = _jumps(lot)
    return list(zip(*_support(jumps, d))), xd, d


def _gap(f, g):
    """g - f as one (knots, jumps, L, D) list over common denominators,
    from two (steps, L, D) lists of (knot, jump) pairs."""
    fs, fl, fd = f
    gs, gl, gd = g
    big_l, big_d = lcm(fl, gl), lcm(fd, gd)
    rf, rg, sf, sg = big_l // fl, big_l // gl, big_d // fd, big_d // gd
    knots = [u * rf for u, _ in fs] + [u * rg for u, _ in gs]
    jumps = [-v * sf for _, v in fs] + [v * sg for _, v in gs]
    return knots, jumps, big_l, big_d


def _end_sum(knots, jumps, end: int, j: int) -> int:
    """sum_i v_i (end - u_i)^j over a gap list: its order-(j+1) spline at
    end / L, times D L^j j!; the one form of every gate."""
    return sum(v * (end - u) ** j for u, v in zip(knots, jumps))


def _check_degree(m: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int):
        raise DomainError(f"dominance degree must be an integer, got {m!r}")
    if m < 1:
        raise DomainError(f"dominance degree must be >= 1, got {m}")
    if m > MAX_DEGREE:
        raise DomainError(f"dominance degree must be <= {MAX_DEGREE}, got {m}")


def _pointwise_leq(knots, jumps, end: int, big_l: int, m: int):
    """Exact check that the order-m spline of the jump list (knots, jumps)
    over L, a difference g - f, stays >= 0 on [0, end / L]; (ok, witness).

    A piece that bernstein_nonneg accepts is non-negative; every other one
    goes to the Sturm certificate in its local variable x on [0, b - a].
    t = (a + x) / L is increasing and affine in x, so the witness maps
    back to the one a certificate in t gives.
    """
    grid, pieces = spline_pieces(knots, jumps, end, m)
    for i, (a, b, piece) in enumerate(zip(grid, grid[1:], pieces)):
        if bernstein_nonneg(piece, b - a):
            continue
        ok, x = nonneg_on_interval(piece, Fraction(0), Fraction(b - a))
        if not ok:
            # the difference takes its left piece's (certified) value at an
            # interior breakpoint; only a step piece can be negative there,
            # and then it is negative on all of (a, b]
            return False, Fraction(b, big_l) if (i and x == 0) else (a + x) / big_l
    return True, None


def dual_sd_check(a: Lottery, b: Lottery, m: int) -> DominanceReport:
    """Does b dominate a in m-th degree dual stochastic dominance?

    Checks, in order and without assuming any redundancy: mean(a) <=
    mean(b); dual moments 2..m-1 of a below b's; and the pointwise
    comparison of m-fold iterated quantiles, all read from the two
    lotteries' jump lists. The first failed condition is reported, with a
    rational witness for pointwise failures. Degrees past MAX_DEGREE are
    a DomainError.
    """
    _check_degree(m)
    (ja, da, xa, _), (jb, db, xb, _) = _jumps(a), _jumps(b)
    knots, jumps, big_l, _ = _gap((ja, da, xa), (jb, db, xb))
    for k in range(1, m):  # D L^k times b's k-th dual moment minus a's
        _check_power(k, max(da, db).bit_length())
        if _end_sum(knots, jumps, big_l, k) < 0:
            return DominanceReport("dual", m, "mean" if k == 1 else f"dual_moment_{k}")
    ok, witness = _pointwise_leq(knots, jumps, big_l, big_l, m)
    if not ok:
        return DominanceReport("dual", m, "iterated_quantile", witness)
    return DominanceReport("dual", m)


def primal_sd_check(a: Lottery, b: Lottery, m: int, ekern: bool = False) -> DominanceReport:
    """Does b dominate a in m-th degree primal stochastic dominance?

    Pointwise, the m-fold iterated CDF of b must sit below a's. The plain
    variant adds the endpoint conditions of orders 2..m-1 (equivalent to
    the partial moment conditions); the Ekern variant instead requires the
    first m-1 raw moments to agree exactly. Degrees past MAX_DEGREE are a
    DomainError.
    """
    _check_degree(m)
    kind = "primal-ekern" if ekern else "primal"
    knots, jumps, big_l, _ = _gap(_cdf_steps(b), _cdf_steps(a))
    top = max(knots)
    if ekern:  # (top - x)^k expands into a's raw moments 1..k minus b's
        for k in range(1, m):
            if _end_sum(knots, jumps, top, k):
                return DominanceReport(kind, m, f"raw_moment_{k}")
    else:  # the order-k integral of F_a - F_b at the top outcome
        for k in range(2, m):
            if _end_sum(knots, jumps, top, k - 1) < 0:
                return DominanceReport(kind, m, f"endpoint_{k}")
    ok, witness = _pointwise_leq(knots, jumps, top, big_l, m)
    if not ok:
        return DominanceReport(kind, m, "iterated_cdf", witness)
    return DominanceReport(kind, m)
