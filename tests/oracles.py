"""Reference implementations that the tests compare the library against.

They share no code path with the functions under test: the Monte Carlo
oracle samples draws with numpy, the knot interpolation walks the
segments one by one, the dual-theory value is summed in CDF form, the
dual moment is a Fraction loop over the survival function, and the
iterated CDF is built from one cdf() call per breakpoint and rebuilt
from scratch for every order.
"""

from fractions import Fraction

import numpy as np

from dualrisk import (
    DomainError,
    Lottery,
    canonical_distribution,
    cdf,
    eval_h,
    is_exact,
    raw_moment,
)
from dualrisk.piecewise import step_function
from dualrisk.polyops import nonneg_on_interval


def dual_moment_mc_oracle(
    lot: Lottery, m: int, draws: int = 200_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of the m-draw expected minimum.

    Returns (estimate, standard_error). Sampling is inverse-CDF on exact
    cumulative probabilities converted to float once.
    """
    if m < 1 or draws < 2:
        raise DomainError("need m >= 1 and draws >= 2")
    can = canonical_distribution(lot)
    outcomes = np.array([float(x) for x in can.outcomes])
    cum = np.cumsum([float(p) for p in can.probabilities])
    cum[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((draws, m))
    idx = np.searchsorted(cum, u, side="left")
    mins = outcomes[idx].min(axis=1)
    est = float(mins.mean())
    se = float(mins.std(ddof=1) / np.sqrt(draws))
    return est, se


def interp_linear_scan(knots, p: Fraction) -> Fraction:
    """Piecewise-linear interpolation through knots by a segment-by-segment scan."""
    for (p0, v0), (p1, v1) in zip(knots, knots[1:]):
        if p <= p1:
            return v0 + (v1 - v0) * (p - p0) / (p1 - p0)
    return knots[-1][1]


def dt_value_cdf_form(lot: Lottery, w):
    """Dual-theory value as sum_i x_i (h(F(x_i)) - h(F(x_{i-1})))."""
    acc = Fraction(0) if is_exact(w) else 0.0
    cum = Fraction(0)
    prev_h = eval_h(w, Fraction(0))
    for x, p in canonical_distribution(lot).states:
        cum += p
        cur_h = eval_h(w, cum)
        acc += x * (cur_h - prev_h)
        prev_h = cur_h
    return acc


def dual_moment_survival(lot: Lottery, m: int) -> Fraction:
    """Integral of S(x)^m summed in Fractions over the merged distribution."""
    acc = Fraction(0)
    prev_x = Fraction(0)
    surv = Fraction(1)
    for x, p in canonical_distribution(lot).states:
        acc += surv**m * (x - prev_x)
        surv -= p
        prev_x = x
    return acc


def iterated_cdf_per_point(lot: Lottery, m: int, hi: Fraction):
    """(m-1)-fold antiderivative of the CDF on [0, hi], one cdf() call per breakpoint."""
    can = canonical_distribution(lot)
    pts = sorted({Fraction(0), hi} | {x for x in can.outcomes if 0 < x < hi})
    f = step_function(tuple(pts), [cdf(can, a) for a in pts[:-1]])
    for _ in range(m - 1):
        f = f.antiderivative()
    return f


def primal_sd_rebuild(a: Lottery, b: Lottery, m: int, ekern: bool = False):
    """(holds, failed_condition) of m-th degree primal dominance of b over a,
    with every iterated CDF rebuilt from its step CDF."""
    if ekern:
        for k in range(1, m):
            if raw_moment(a, k) != raw_moment(b, k):
                return False, f"raw_moment_{k}"
    hi = max(max(a.outcomes), max(b.outcomes))
    if hi == 0:
        return True, None
    if not ekern:
        for k in range(2, m):
            if iterated_cdf_per_point(b, k, hi)(hi) > iterated_cdf_per_point(a, k, hi)(hi):
                return False, f"endpoint_{k}"
    diff = iterated_cdf_per_point(a, m, hi) - iterated_cdf_per_point(b, m, hi)
    for lo, up, piece in zip(diff.breakpoints, diff.breakpoints[1:], diff.pieces):
        if not nonneg_on_interval(list(piece), lo, up)[0]:
            return False, "iterated_cdf"
    return True, None
