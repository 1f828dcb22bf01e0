"""Polynomial kernel checked against sympy, dense grids and the Fraction
Sturm chain of tests/oracles.py.

Coefficient lists are ascending-power rationals. Root isolation and the
sign machinery carry the exact dominance checks, so they get the
independent-oracle treatment; the integer kernel must return exactly the
intervals and witnesses of the Fraction chain.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrisk.polyops import (
    bernstein_nonneg,
    isolate_roots,
    nonneg_on_interval,
    pderiv,
    peval,
    pshift,
    sign_profile,
)

from oracles import (
    count_roots,
    isolate_roots_fraction,
    padd,
    pantideriv,
    pdivmod,
    pgcd,
    pmul,
    psub,
    sign_profile_fraction,
    sturm_chain,
)

F = Fraction
X = sympy.Symbol("x")

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(coeff, min_size=1, max_size=6)


def to_sympy(c):
    return sum(sympy.Rational(q.numerator, q.denominator) * X**i for i, q in enumerate(c))


@given(polys, polys)
@settings(max_examples=60)
def test_ring_ops_match_sympy(a, b):
    pa, pb = to_sympy(a), to_sympy(b)
    assert sympy.expand(to_sympy(padd(a, b)) - (pa + pb)) == 0
    assert sympy.expand(to_sympy(psub(a, b)) - (pa - pb)) == 0
    assert sympy.expand(to_sympy(pmul(a, b)) - pa * pb) == 0


@given(polys)
@settings(max_examples=40)
def test_calculus_matches_sympy(c):
    p = to_sympy(c)
    assert sympy.expand(to_sympy(pderiv(c)) - sympy.diff(p, X)) == 0
    assert sympy.expand(sympy.diff(to_sympy(pantideriv(c)), X) - p) == 0


@given(polys, polys)
@settings(max_examples=40)
def test_divmod_identity(a, b):
    if all(q == 0 for q in b):
        return
    quo, rem = pdivmod(a, b)
    recomposed = padd(pmul(quo, b), rem)
    for x in (F(-2), F(0), F(1, 3), F(3)):
        assert peval(recomposed, x) == peval(a, x)


def test_gcd_of_shared_factor():
    # (x-1)(x-2) and (x-1)(x+3) share x-1
    a = pmul([F(-1), F(1)], [F(-2), F(1)])
    b = pmul([F(-1), F(1)], [F(3), F(1)])
    g = pgcd(a, b)
    assert peval(g, F(1)) == 0
    assert peval(g, F(2)) != 0


class TestRootIsolation:
    def test_known_roots(self):
        # roots 1/2 and 3 inside [0, 4]
        c = pmul([F(-1, 2), F(1)], [F(-3), F(1)])
        intervals = isolate_roots(c, F(0), F(4))
        assert len(intervals) == 2
        (a1, b1), (a2, b2) = intervals
        assert a1 <= F(1, 2) <= b1
        assert a2 <= F(3) <= b2

    def test_counts_match_sympy_on_random(self):
        import random

        rng = random.Random(5)
        checked = 0
        while checked < 25:
            c = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(2, 6))]
            if all(q == 0 for q in c) or peval(c, F(0)) == 0 or peval(c, F(1)) == 0:
                continue
            distinct = {
                r for r in sympy.real_roots(to_sympy(c)) if sympy.Rational(0) < r <= 1
            }
            assert count_roots(sturm_chain(c), F(0), F(1)) == len(distinct)
            checked += 1


class TestSignAnalysis:
    def test_nonneg_true(self):
        ok, witness = nonneg_on_interval([F(0), F(0), F(1)], F(-1), F(1))
        assert ok and witness is None

    def test_nonneg_finds_witness(self):
        c = [F(-1, 4), F(0), F(1)]  # negative near zero
        ok, witness = nonneg_on_interval(c, F(-1), F(1))
        assert not ok
        assert peval(c, witness) < 0

    def test_touching_zero_is_nonneg(self):
        c = [F(1, 4), F(-1), F(1)]  # (x - 1/2)^2
        ok, _ = nonneg_on_interval(c, F(0), F(1))
        assert ok

    @given(polys)
    @settings(max_examples=60)
    def test_agrees_with_dense_scan(self, c):
        ok, witness = nonneg_on_interval(c, F(0), F(1))
        scan_min = min(peval(c, F(i, 400)) for i in range(401))
        if ok:
            assert scan_min >= 0
        else:
            assert peval(c, witness) < 0

    def test_sign_profile_reports_both_signs(self):
        c = pmul([F(-1, 3), F(1)], [F(-2, 3), F(1)])  # + - + on [0,1]
        has_pos, has_neg, pos_w, neg_w = sign_profile(c, F(0), F(1))
        assert has_pos and has_neg
        assert peval(c, pos_w) > 0
        assert peval(c, neg_w) < 0
        assert F(1, 3) < neg_w < F(2, 3)


def test_sturm_chain_endpoints_nonzero():
    chain = sturm_chain([F(0), F(-1), F(1)])  # x(x-1), roots at both endpoints
    assert count_roots(chain, F(0), F(1)) >= 1


# Large pairwise coprime denominators (distinct primes), so the lcm the
# integer kernel scales by is their full product.
big_denominator = st.sampled_from((10007, 10009, 10037, 10039, 10061, 65521, 2**31 - 1))


@st.composite
def kernel_cases(draw):
    """(c, a, b): a product of repeated rational roots, some exactly at a or
    b, times a cofactor whose coefficients have coprime denominators."""
    a = draw(st.fractions(min_value=-3, max_value=2, max_denominator=7))
    b = a + draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8))
    inner = st.fractions(min_value=0, max_value=1, max_denominator=9).map(lambda t: a + (b - a) * t)
    roots = draw(
        st.lists(
            st.tuples(st.one_of(st.just(a), st.just(b), inner, coeff), st.integers(1, 3)),
            max_size=3,
        )
    )
    dens = draw(st.lists(big_denominator, min_size=1, max_size=3, unique=True))
    c = [F(draw(st.integers(-10**6, 10**6).filter(bool)), d) for d in dens]
    for r, k in roots:
        for _ in range(k):
            c = pmul(c, [-r, F(1)])
    return c, a, b


class TestIntegerKernel:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_intervals_and_witnesses_as_the_fraction_chain(self, case):
        c, a, b = case
        assert isolate_roots(c, a, b) == isolate_roots_fraction(c, a, b)
        assert sign_profile(c, a, b) == sign_profile_fraction(c, a, b)

    @given(polys)
    @settings(max_examples=60)
    def test_same_as_the_fraction_chain_on_unit_interval(self, c):
        assert isolate_roots(c, F(0), F(1)) == isolate_roots_fraction(c, F(0), F(1))
        assert sign_profile(c, F(0), F(1)) == sign_profile_fraction(c, F(0), F(1))

    def test_roots_at_both_ends_and_inside(self):
        # x^2 (x - 1/3)^3 (x - 1): roots at a, inside, and at b
        c = [F(1)]
        for r, k in ((F(0), 2), (F(1, 3), 3), (F(1), 1)):
            for _ in range(k):
                c = pmul(c, [-r, F(1)])
        (lo, hi), = isolate_roots(c, F(0), F(1))
        assert 0 < lo < F(1, 3) < hi < 1
        assert isolate_roots(c, F(0), F(1)) == isolate_roots_fraction(c, F(0), F(1))


int_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=7)


class TestPreAccept:
    """bernstein_nonneg accepts only polynomials that are >= 0 on [0, h]."""

    @given(int_polys, st.integers(1, 12))
    @settings(max_examples=400)
    def test_accepts_only_nonnegative(self, c, h):
        if bernstein_nonneg(c, h):
            assert nonneg_on_interval(c, F(0), F(h)) == (True, None)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=7), st.integers(1, 12))
    def test_nonnegative_coefficients_accepted(self, c, h):
        assert bernstein_nonneg(c, h)

    def test_declines_a_nonnegative_square(self):
        # (x - 1)^2 on [0, 2]: Bernstein coefficients 1, -1, 1
        assert not bernstein_nonneg([1, -2, 1], 2)
        assert nonneg_on_interval([1, -2, 1], F(0), F(2)) == (True, None)

    def test_accepts_on_bernstein_coefficients_alone(self):
        # 1 - x + x^2 on [0, 1]: a negative coefficient, Bernstein 1, 1/2, 1
        assert bernstein_nonneg([1, -1, 1], 1)

    def test_negative_at_the_left_end_is_declined(self):
        assert not bernstein_nonneg([-1, 5], 3)
        assert not bernstein_nonneg([0, -1], 1)


class TestShift:
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8), st.integers(-20, 20), st.integers(-9, 9))
    def test_shift_evaluates_at_the_moved_point(self, c, h, x):
        shifted = pshift(c, h)
        assert len(shifted) == len(c) and all(type(v) is int for v in shifted)
        assert peval(shifted, x) == peval(c, x + h)

    def test_shift_copies(self):
        c = [1, 2, 3]
        assert pshift(c, 0) == c and pshift(c, 0) is not c
