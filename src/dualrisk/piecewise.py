"""Piecewise polynomials with exact rational breakpoints, and the
truncated-power splines that the dominance checks compare.

A PiecewisePoly stores each piece's coefficients in the global variable
(not shifted per piece) and evaluates left-continuously.

The (m-1)-fold integral, from the left end, of a left-continuous step
function has a closed form: each jump J at knot c adds
J (t - c)_+^(m-1) / (m-1)!, the truncated-power basis of spline theory.
With the breakpoints over one denominator L (c = u/L) and the jumps over
one denominator D (J = v/D), D L^(m-1) (m-1)! times the spline on a piece
(a, b] is the integer polynomial sum_{c <= a} v (L t - u)^(m-1).
spline_pieces walks the breakpoints once and adds each jump's binomial
expansion to a running list of Python ints.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError
from .polyops import peval, ptrim
from .rationals import _common_denominator


@dataclass(frozen=True)
class PiecewisePoly:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2 or len(self.pieces) != len(self.breakpoints) - 1:
            raise DomainError("need K+1 breakpoints for K pieces, K >= 1")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise DomainError("breakpoints must be strictly increasing")

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    def piece_index(self, x) -> int:
        if x < self.lo or x > self.hi:
            raise DomainError(f"{x} outside [{self.lo}, {self.hi}]")
        i = bisect.bisect_left(self.breakpoints, x, lo=1) - 1
        return min(i, len(self.pieces) - 1)

    def __call__(self, x):
        """Evaluate; at interior breakpoints takes the left piece's value."""
        return peval(list(self.pieces[self.piece_index(x)]), x)


def spline_pieces(breakpoints, jumps, m: int) -> tuple[list[Fraction], list[list[int]], int]:
    """The spline sum_j J_j (t - c_j)_+^(m-1) / (m-1)! piece by piece, in ints.

    breakpoints (a list of Fractions) bound the pieces; they may come in
    any order and repeat, and every knot c_j must be among them. jumps
    are (c, J) Fractions; jumps at one knot add up, and a knot whose jumps
    cancel still bounds its pieces. Returns (grid, pieces, scale): grid is
    the sorted distinct breakpoints, and pieces[i] lists the int
    coefficients, lowest power first, of scale times the spline on
    (grid[i], grid[i+1]], scale > 0.
    """
    us, big_l = _common_denominator(breakpoints)
    point = dict(zip(us, breakpoints))
    grid_u = sorted(point)
    vs, big_d = _common_denominator([j for _, j in jumps])
    net: defaultdict[int, int] = defaultdict(int)
    for (c, _), v in zip(jumps, vs):
        net[c.numerator * (big_l // c.denominator)] += v
    n = m - 1
    weights = [comb(n, k) * big_l**k for k in range(n + 1)]
    acc = [0] * (n + 1)
    pieces = []
    for u in grid_u[:-1]:
        v = net.get(u)
        if v:  # add v (L t - u)^n, binomially
            for k in range(n, -1, -1):
                acc[k] += weights[k] * v
                v *= -u
        pieces.append(list(acc))
    return [point[u] for u in grid_u], pieces, big_d * big_l**n * factorial(n)


def spline(breakpoints, jumps, m: int) -> PiecewisePoly:
    """The spline of spline_pieces as a PiecewisePoly over Fractions."""
    grid, pieces, scale = spline_pieces(breakpoints, jumps, m)
    return PiecewisePoly(
        tuple(grid), tuple(tuple(Fraction(c, scale) for c in ptrim(p)) for p in pieces)
    )


def spline_at(jumps, x: Fraction, m: int) -> Fraction:
    """sum_j J_j (x - c_j)_+^(m-1) / (m-1)!, the left-continuous value at x."""
    live = [(c, j) for c, j in jumps if c < x]
    vs, big_d = _common_denominator([j for _, j in live])
    us, big_l = _common_denominator([x] + [c for c, _ in live])
    top, n = us[0], m - 1
    total = sum(v * (top - u) ** n for v, u in zip(vs, us[1:]))
    return Fraction(total, big_d * big_l**n * factorial(n))
