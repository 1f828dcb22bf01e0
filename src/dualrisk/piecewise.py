"""The truncated-power splines that the dominance checks compare, piece
by piece in integers.

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

from collections import defaultdict

from .polyops import pshift


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
