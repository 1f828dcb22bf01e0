"""Reference implementations that the tests compare the library against.

They share no code path with the functions under test: the Monte Carlo
oracle samples draws with numpy, and the knot interpolation walks the
segments one by one.
"""

from fractions import Fraction

import numpy as np

from dualrisk import DomainError, Lottery, canonical_distribution


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
