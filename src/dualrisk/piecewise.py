"""Piecewise polynomials with exact rational breakpoints, and the
truncated-power splines that the dominance checks compare.

A PiecewisePoly stores each piece's coefficients in the global variable
(not shifted per piece) and evaluates left-continuously.

The (m-1)-fold integral, from 0, of a left-continuous step function has
a closed form: each jump J at knot c adds J (t - c)_+^(m-1) / (m-1)!,
the truncated-power basis of spline theory. The builder reads the knots
and jumps as integers over one denominator each: knot u stands for
c = u/L and jump v for J = v/D, so with w = L t the spline on a piece
(a, b] is sum_{u <= a} v (w - u)^(m-1) over D L^(m-1) (m-1)!, an integer
polynomial in w. spline_pieces walks the sorted knots once and keeps that
polynomial in the local variable w - a (its Taylor coefficients at the
piece's left end): moving to the next knot is a Taylor shift by the
integer gap, and a jump there adds to the top coefficient only.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError
from .polyops import peval, pshift, ptrim


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


def spline_pieces(knots, jumps, end: int, m: int) -> tuple[list[int], list[list[int]]]:
    """The spline sum_j v_j (w - u_j)_+^(m-1) on [0, end], piece by piece, in ints.

    knots (ints u_j in [0, end]) and jumps (ints v_j) are parallel lists in
    any order; jumps at one knot add up, and a knot whose jumps cancel
    still bounds its pieces. Returns (grid, pieces): grid is 0, the
    distinct knots and end, sorted, and pieces[i] lists the coefficients
    of the spline on (grid[i], grid[i+1]] in w - grid[i], lowest power
    first.
    """
    net: defaultdict[int, int] = defaultdict(int)
    for u, v in zip(knots, jumps):
        net[u] += v
    grid = sorted(net.keys() | {0, end})
    n = m - 1
    acc, prev, pieces = [0] * (n + 1), 0, []
    for u in grid[:-1]:
        acc = pshift(acc, u - prev)
        acc[n] += net.get(u, 0)  # v (w - u)^n is v y^n in y = w - u
        pieces.append(acc)
        prev = u
    return grid, pieces


def global_coeffs(piece: list[int], a: int, big_l: int) -> list[int]:
    """The coefficients in t = w / L of a piece given in w - a."""
    return [c * big_l**k for k, c in enumerate(pshift(piece, -a))]


def spline(knots, jumps, end: int, big_l: int, big_d: int, m: int) -> PiecewisePoly:
    """The spline sum_j (v_j / D) (t - u_j / L)_+^(m-1) / (m-1)! on [0, end / L],
    from the ints of spline_pieces, as a PiecewisePoly over Fractions."""
    grid, pieces = spline_pieces(knots, jumps, end, m)
    scale = big_d * big_l ** (m - 1) * factorial(m - 1)
    return PiecewisePoly(
        tuple(Fraction(u, big_l) for u in grid),
        tuple(
            tuple(Fraction(c, scale) for c in ptrim(global_coeffs(p, a, big_l)))
            for a, p in zip(grid, pieces)
        ),
    )
