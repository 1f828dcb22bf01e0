"""Dense univariate polynomials over exact rationals.

Coefficient lists are ascending in power, of Fractions or ints.
Everything here is exact: the root isolation is Sturm-chain bisection
and the non-negativity decision samples every root-free segment, so
callers get either a proof or a rational witness point, never a
tolerance.

The certification (isolate_roots, sign_profile, nonneg_on_interval)
runs on the primitive integer polynomial that is a positive multiple of
its input: squarefree part, Sturm chain and signs at rational points are
all computed in Python ints. Its bisection points are the same Fractions
a Sturm chain over the rationals would visit, so it returns the same
intervals and the same rational witnesses.

bernstein_nonneg is an accept-only pre-check in ints: an integer
polynomial whose coefficients, or whose Bernstein coefficients on the
interval, are all >= 0 is non-negative there, and a False from it
decides nothing, so callers hand every other polynomial to
nonneg_on_interval.

Degrees reach the thousands: the tests certify a degree-1,050
Polynomial, and analytic_derivative_sign takes Power and DualPower up to
order 1,024. Every step stays in Python ints, so a large degree costs
time, not exactness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import factorial, gcd, lcm

Poly = list[Fraction]

_ZERO = Fraction(0)


def ptrim(c: Poly) -> Poly:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c if c else [_ZERO]


def peval(c: Poly, x):
    """Horner evaluation; exact for Fraction x, float for float x."""
    acc = c[-1]
    for a in reversed(c[:-1]):
        acc = acc * x + a
    return acc


def pderiv(c: Poly) -> Poly:
    if len(c) <= 1:
        return [_ZERO]
    return ptrim([c[i] * i for i in range(1, len(c))])


def pshift(c: Poly, h) -> Poly:
    """The coefficients of c(x + h), a new list: Horner's rule repeated
    (the Taylor shift); ints stay ints."""
    c = list(c)
    if h:
        n = len(c) - 1
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                c[k] += h * c[k + 1]
    return c


def bernstein_nonneg(c: list[int], h: int) -> bool:
    """An accept-only certificate that the integer polynomial c is >= 0 on [0, h], h > 0.

    True when every coefficient of c is >= 0, or every Bernstein
    coefficient of c on [0, h] is (Farouki & Rajan 1988): c(h s) =
    sum_i b_i C(n, i) s^i (1 - s)^(n-i) on s in [0, 1], so b_i >= 0 for
    all i bounds c below by 0 there. In ints, n! b_i = sum_{k <= i}
    C(i, k) c_k h^k k! (n-k)!. False decides nothing.
    """
    if min(c) >= 0:
        return True
    if c[0] < 0:  # b_0 = c(0)
        return False
    n = len(c) - 1
    d = [x * h**k * factorial(k) * factorial(n - k) for k, x in enumerate(c)]
    for j in range(1, n + 1):  # Pascal passes: d_i becomes sum_k C(i, k) d_k
        for i in range(n, j - 1, -1):
            d[i] += d[i - 1]
    return min(d) >= 0


# ---------------------------------------------------------------------------
# Sturm certification on primitive integer polynomials
#
# An IPoly is a list of Python ints, lowest degree first, that stands for
# a positive multiple of a rational polynomial: same roots, same sign at
# every point. Every step below keeps that invariant (content is divided
# out by a positive gcd, pseudo-remainders are scaled by |lc|^k), so each
# Sturm sign-variation count, and with it every bisection step, equals
# the one over the rational polynomials. Points stay Fractions.

IPoly = list[int]


def _content_free(c: IPoly) -> IPoly:
    """Trailing zeros dropped ([0] for none left) and the content divided out."""
    while c and c[-1] == 0:
        c.pop()
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c or [0]


def _primitive(c: Poly) -> IPoly:
    """The primitive integer polynomial that is a positive multiple of c."""
    d = lcm(*(x.denominator for x in c))
    return _content_free([x.numerator * (d // x.denominator) for x in c])


def _sign_at(c: IPoly, x: Fraction) -> int:
    """Sign of c at x = u/v, v > 0, by homogeneous Horner: v^deg * c(u/v)."""
    u, v = x.numerator, x.denominator
    acc, vp = c[-1], 1
    for i in range(len(c) - 2, -1, -1):
        vp *= v
        acc = acc * u + c[i] * vp
    return (acc > 0) - (acc < 0)


def _ideriv(c: IPoly) -> IPoly:
    return _content_free([i * c[i] for i in range(1, len(c))])


def _prem(a: IPoly, b: IPoly) -> IPoly:
    """A positive multiple of the remainder of a by b, primitive."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    scale, sgn = abs(lb), 1 if lb > 0 else -1
    while len(r) - 1 >= db and any(r):
        top = r.pop()
        if top == 0:
            continue
        k = len(r) - db  # r now excludes its top term
        t = sgn * top
        r = [x * scale for x in r]
        for i in range(db):
            r[k + i] -= t * b[i]
    return _content_free(r)


def _exact_quotient(a: IPoly, b: IPoly) -> IPoly:
    """a / b for a primitive b dividing a over Q; the quotient is integral by Gauss's lemma."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        coef = r[k + db] // lb
        q[k] = coef
        if coef:
            for i in range(db + 1):
                r[k + i] -= coef * b[i]
    return q


def _squarefree(c: IPoly) -> IPoly:
    """A positive multiple of c / gcd(c, c'): the same distinct roots, all simple."""
    if len(c) <= 2:
        return c
    g, h = c, _ideriv(c)
    while any(h):
        g, h = h, _prem(g, h)
    if len(g) == 1:
        return c
    return _exact_quotient(c, g if g[-1] > 0 else [-x for x in g])


def _deflate(s: IPoly, root: Fraction) -> IPoly:
    """Divide by (v x - u) for a root u/v of s."""
    return _exact_quotient(s, [-root.numerator, root.denominator])


def _sturm_chain(s: IPoly) -> list[IPoly]:
    chain = [s, _ideriv(s)]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not any(r):
            return chain
        chain.append([-x for x in r])


def _variations(chain: list[IPoly], x: Fraction) -> int:
    signs = [sgn for sgn in map(_sign_at, chain, repeat(x)) if sgn]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count_roots(chain: list[IPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    return _variations(chain, a) - _variations(chain, b)


def _nonroot_between(s: IPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of s."""
    num, den = 1, 2
    while True:
        x = lo + (hi - lo) * Fraction(num, den)
        if _sign_at(s, x) != 0:
            return x
        num = num * 2 + 1  # walk dyadic points 1/2, 3/4, 7/8, ...
        den *= 2


def isolate_roots(c: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals, one per distinct root of c in (a, b).

    Interval endpoints are rational non-roots with a < lo < root < hi < b;
    consecutive intervals do not overlap but may share an endpoint.
    """
    return _isolate(_primitive(c), a, b)


def _isolate(c: IPoly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    s = _squarefree(c)
    if len(s) <= 1:
        return []
    # roots exactly at the ends are excluded from the open interval
    if _sign_at(s, a) == 0:
        s = _deflate(s, a)
    if _sign_at(s, b) == 0:
        s = _deflate(s, b)
    if len(s) <= 1:
        return []
    chain = _sturm_chain(s)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = _count_roots(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = _nonroot_between(s, lo, hi)
        stack.append((mid, hi))
        stack.append((lo, mid))
    out.sort()
    # tighten the outermost intervals so gap samples next to a and b exist
    out = [_shrink_from(s, chain, iv, a, b) for iv in out]
    return out


def _shrink_from(s, chain, interval, a, b):
    lo, hi = interval
    while lo <= a or hi >= b:
        mid = _nonroot_between(s, lo, hi)
        if _count_roots(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def sign_profile(c: Poly, a: Fraction, b: Fraction):
    """Exact sign behaviour of c on [a, b].

    Returns (has_pos, has_neg, pos_witness, neg_witness) where the
    witnesses are rational points with strictly positive/negative values.
    The root-free segments between consecutive distinct roots each get a
    sample point, so a sign is reported iff the polynomial attains it.
    """
    ic = _primitive(c)
    if ic == [0]:
        return (False, False, None, None)
    points = [a, b]
    intervals = _isolate(ic, a, b)
    prev_hi = a
    for lo, hi in intervals:
        points.append(prev_hi + (lo - prev_hi) / 2 if prev_hi < lo else prev_hi)
        prev_hi = hi
    points.append(prev_hi + (b - prev_hi) / 2 if prev_hi < b else prev_hi)
    has_pos = has_neg = False
    pos_w = neg_w = None
    for x in points:
        v = _sign_at(ic, x)
        if v > 0 and not has_pos:
            has_pos, pos_w = True, x
        elif v < 0 and not has_neg:
            has_neg, neg_w = True, x
        if has_pos and has_neg:
            break
    return (has_pos, has_neg, pos_w, neg_w)


def nonneg_on_interval(c: Poly, a: Fraction, b: Fraction):
    """Decide c(x) >= 0 for all x in [a, b]; returns (ok, witness).

    witness is a rational point with c(witness) < 0 when ok is False.
    """
    _, has_neg, _, neg_w = sign_profile(c, a, b)
    return (not has_neg, neg_w)
