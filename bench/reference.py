"""Reference computations the benchmark checks program outputs against.

Everything here is written from the definitions and imports nothing from
dualrisk: the weighting families, the CDF form of the dual-theory value,
expected minima, central moments, and the iterated quantile and CDF
integrals at a single point. Lotteries are lists of (outcome, probability)
pairs sorted by outcome.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Relative tolerance for float weighting families (tk, prelec, fractional
# power): the program prints 12 significant digits and sums at most 256
# float terms, both far inside 1e-9 of the largest outcome.
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Weighting:
    spec: str  # the CLI text form
    h: Callable  # exact families map Fractions to Fractions, the others to floats


def identity() -> Weighting:
    return Weighting("identity", lambda p: p)


def quadratic(beta: Fraction) -> Weighting:
    return Weighting(f"quadratic:beta={beta}", lambda p: (1 + beta) * p - beta * p * p)


def power(k: Fraction) -> Weighting:
    if k.denominator == 1:
        return Weighting(f"power:k={k}", lambda p: p ** k.numerator)
    return Weighting(f"power:k={k}", lambda p: float(p) ** float(k))


def dualpower(m: int) -> Weighting:
    return Weighting(f"dualpower:m={m}", lambda p: 1 - (1 - p) ** m)


def tk(gamma: str) -> Weighting:
    g = float(Fraction(gamma))

    def h(p):
        x = float(p)
        if x in (0.0, 1.0):
            return x
        return x**g / (x**g + (1 - x) ** g) ** (1 / g)

    return Weighting(f"tk:gamma={gamma}", h)


def prelec(a: str, b: str) -> Weighting:
    fa, fb = float(Fraction(a)), float(Fraction(b))

    def h(p):
        x = float(p)
        if x in (0.0, 1.0):
            return x
        return math.exp(-fb * (-math.log(x)) ** fa)

    return Weighting(f"prelec:a={a},b={b}", h)


def tabulated(knots) -> Weighting:
    xs = [p for p, _ in knots]
    body = ";".join(f"{p},{v}" for p, v in knots)

    def h(p):
        i = max(1, bisect.bisect_left(xs, p))
        (p0, v0), (p1, v1) = knots[i - 1], knots[i]
        return v0 + (v1 - v0) * (p - p0) / (p1 - p0)

    return Weighting(f"tabulated:knots={body}", h)


def poly(coeffs) -> Weighting:
    def h(p):
        return sum(c * p**i for i, c in enumerate(coeffs))

    return Weighting("poly:coeffs=" + ",".join(str(c) for c in coeffs), h)


# ---------------------------------------------------------------------------
# lottery functionals


def dt_value(lot, h):
    """CDF form: sum_i x_i (h(F(x_i)) - h(F(x_{i-1})))."""
    acc, cum, prev = 0, Fraction(0), h(Fraction(0))
    for x, p in lot:
        cum += p
        cur = h(cum)
        acc += x * (cur - prev)
        prev = cur
    return acc


def mean(lot) -> Fraction:
    return sum((x * p for x, p in lot), Fraction(0))


def expected_min(lot, k: int) -> Fraction:
    """E[min of k iid draws] = sum_i x_i (S_{i-1}^k - S_i^k), S = P(X > x)."""
    acc, surv = Fraction(0), Fraction(1)
    for x, p in lot:
        nxt = surv - p
        acc += x * (surv**k - nxt**k)
        surv = nxt
    return acc


def central_moment(lot, k: int) -> Fraction:
    mu = mean(lot)
    return sum((p * (x - mu) ** k for x, p in lot), Fraction(0))


def iterated_cdf_at(lot, m: int, x: Fraction) -> Fraction:
    """(m-1)-fold integral of the CDF from 0, m >= 2: E[(x - X)_+^(m-1)] / (m-1)!."""
    return sum((p * (x - o) ** (m - 1) for o, p in lot if o < x), Fraction(0)) / math.factorial(m - 1)


def iterated_quantile_at(lot, m: int, q: Fraction) -> Fraction:
    """(m-1)-fold integral of the quantile function from 0, m >= 2."""
    acc, lo = Fraction(0), Fraction(0)
    for x, p in lot:
        if lo >= q:
            break
        hi = min(lo + p, q)
        acc += x * ((q - lo) ** (m - 1) - (q - hi) ** (m - 1))
        lo += p
    return acc / math.factorial(m - 1)


def equal_prob_gap(c_out, d_out, h) -> Fraction:
    """V(D) - V(C) for two ranked n-state equal-probability lotteries.

    In CDF form each state i carries weight h(i/n) - h((i-1)/n), so only
    the states where the outcomes differ contribute.
    """
    n = len(c_out)
    if list(c_out) != sorted(c_out) or list(d_out) != sorted(d_out) or len(d_out) != n:
        raise ValueError("members must be ranked n-state lotteries")
    return sum(
        (d - c) * (h(Fraction(i + 1, n)) - h(Fraction(i, n)))
        for i, (c, d) in enumerate(zip(c_out, d_out))
        if d != c
    )


# ---------------------------------------------------------------------------
# dominance


def _dual_gates(a, b, m):
    gates = []
    if m >= 2:
        gates.append(("mean", mean(a) > mean(b)))
    gates += [(f"dual_moment_{k}", expected_min(a, k) > expected_min(b, k)) for k in range(2, m)]
    return gates


def _primal_gates(a, b, m):
    hi = max(a[-1][0], b[-1][0])
    return [
        (f"endpoint_{k}", iterated_cdf_at(b, k, hi) > iterated_cdf_at(a, k, hi)) for k in range(2, m)
    ]


def check_dominance(kind: str, m: int, a, b, holds: bool, failed: str | None, witness) -> str | None:
    """Confirm a dominance report for "does b dominate a"; None when it checks out.

    A gate failure must be the first gate that really fails. A pointwise
    failure must come with a witness where the iterated functions really
    cross. A "holds" verdict must pass every gate and the pointwise
    comparison at every breakpoint (a necessary condition).
    """
    gates = _dual_gates(a, b, m) if kind == "dual" else _primal_gates(a, b, m)
    first = next((name for name, fails in gates if fails), None)
    if first is not None:
        return None if (not holds and failed == first) else f"expected gate {first}, got {failed}"
    if kind == "dual":
        def gap(q):  # g - f >= 0 is required
            return iterated_quantile_at(b, m, q) - iterated_quantile_at(a, m, q)
        points = set()
        for lot in (a, b):
            cum = Fraction(0)
            for _, p in lot:
                cum += p
                points.add(cum)
        route = "iterated_quantile"
    else:
        def gap(x):
            return iterated_cdf_at(a, m, x) - iterated_cdf_at(b, m, x)
        points = {x for x, _ in a} | {x for x, _ in b}
        route = "iterated_cdf"
    if holds:
        bad = next((q for q in sorted(points) if gap(q) < 0), None)
        return None if bad is None else f"holds reported, but {route} crosses at {bad}"
    if failed != route or witness is None:
        return f"expected {route} failure with witness, got {failed} / {witness}"
    return None if gap(witness) < 0 else f"witness {witness} shows no {route} crossing"
