"""Dense univariate polynomials over exact rationals.

Coefficient lists are ascending in power. Everything here is exact: the
root isolation is Sturm-chain bisection and the non-negativity decision
samples every root-free segment, so callers get either a proof or a
rational witness point, never a tolerance.

Degrees in this package stay small (at most the dominance order plus a
couple), which keeps coefficient growth harmless.
"""

from __future__ import annotations

from fractions import Fraction

Poly = list[Fraction]

_ZERO = Fraction(0)


def ptrim(c: Poly) -> Poly:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c if c else [_ZERO]


def pzero(c: Poly) -> bool:
    return all(a == 0 for a in c)


def pdegree(c: Poly) -> int:
    c = ptrim(c)
    return len(c) - 1 if not pzero(c) else -1


def peval(c: Poly, x):
    """Horner evaluation; exact for Fraction x, float for float x."""
    acc = c[-1]
    for a in reversed(c[:-1]):
        acc = acc * x + a
    return acc


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO) for i in range(n)])


def psub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else _ZERO) - (b[i] if i < len(b) else _ZERO) for i in range(n)])


def pneg(a: Poly) -> Poly:
    return [-x for x in a]


def pscale(a: Poly, k: Fraction) -> Poly:
    return ptrim([x * k for x in a])


def pmul(a: Poly, b: Poly) -> Poly:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ptrim(out)


def pderiv(c: Poly) -> Poly:
    if len(c) <= 1:
        return [_ZERO]
    return ptrim([c[i] * i for i in range(1, len(c))])


def pantideriv(c: Poly, constant: Fraction = _ZERO) -> Poly:
    """Antiderivative with value `constant` at 0."""
    return ptrim([constant] + [c[i] / (i + 1) for i in range(len(c))])


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a, b = ptrim(a), ptrim(b)
    if pzero(b):
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and not pzero(r):
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(b)
        coef = r[-1] / b[-1]
        q[k] = coef
        for i, bc in enumerate(b):
            r[i + k] -= coef * bc
        r.pop()
    return ptrim(q), ptrim(r if r else [_ZERO])


def pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm."""
    a, b = ptrim(a), ptrim(b)
    while not pzero(b):
        _, r = pdivmod(a, b)
        a, b = b, r
    if pzero(a):
        return [_ZERO]
    return pscale(a, 1 / a[-1])


def psquarefree(c: Poly) -> Poly:
    """Squarefree part c / gcd(c, c'); same distinct roots, all simple."""
    c = ptrim(c)
    if pdegree(c) <= 1:
        return c
    g = pgcd(c, pderiv(c))
    if pdegree(g) <= 0:
        return c
    q, _ = pdivmod(c, g)
    return q


def pdeflate(c: Poly, r: Fraction) -> Poly:
    """Divide by (x - r); r must be a root."""
    q, rem = pdivmod(c, [-r, Fraction(1)])
    assert pzero(rem), "deflation point is not a root"
    return q


def sturm_chain(c: Poly) -> list[Poly]:
    chain = [ptrim(c), pderiv(c)]
    while not pzero(chain[-1]):
        _, r = pdivmod(chain[-2], chain[-1])
        chain.append(pneg(r))
    chain.pop()
    return chain


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = peval(p, x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    return _variations(chain, a) - _variations(chain, b)


def _nonroot_between(s: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of s."""
    num, den = 1, 2
    while True:
        x = lo + (hi - lo) * Fraction(num, den)
        if peval(s, x) != 0:
            return x
        num = num * 2 + 1  # walk dyadic points 1/2, 3/4, 7/8, ...
        den *= 2


def isolate_roots(c: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals, one per distinct root of c in (a, b).

    Interval endpoints are rational non-roots with a < lo < root < hi < b;
    consecutive intervals do not overlap but may share an endpoint.
    """
    s = psquarefree(c)
    if pdegree(s) <= 0:
        return []
    # roots exactly at the ends are excluded from the open interval
    if peval(s, a) == 0:
        s = pdeflate(s, a)
    if peval(s, b) == 0:
        s = pdeflate(s, b)
    if pdegree(s) <= 0:
        return []
    chain = sturm_chain(s)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = count_roots(chain, lo, hi)
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
        if count_roots(chain, lo, mid) == 1:
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
    c = ptrim(c)
    if pzero(c):
        return (False, False, None, None)
    points = [a, b]
    intervals = isolate_roots(c, a, b)
    prev_hi = a
    for lo, hi in intervals:
        points.append(prev_hi + (lo - prev_hi) / 2 if prev_hi < lo else prev_hi)
        prev_hi = hi
    points.append(prev_hi + (b - prev_hi) / 2 if prev_hi < b else prev_hi)
    has_pos = has_neg = False
    pos_w = neg_w = None
    for x in points:
        v = peval(c, x)
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
