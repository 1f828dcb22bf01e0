from fractions import Fraction

import pytest

from dualrisk.errors import DomainError
from dualrisk.piecewise import PiecewisePoly

from oracles import antiderivative, degree, difference, step_function

F = Fraction


def test_step_function_evaluation():
    f = step_function((F(0), F(1, 2), F(1)), (F(3), F(5)))
    assert f(F(0)) == 3
    assert f(F(1, 4)) == 3
    assert f(F(1, 2)) == 3  # interior breakpoints evaluate left-continuously
    assert f(F(3, 4)) == 5
    assert f(F(1)) == 5


def test_antiderivative_is_continuous_and_integrates():
    f = step_function((F(0), F(1, 2), F(1)), (F(2), F(4)))
    g = antiderivative(f)
    assert g(F(0)) == 0
    assert g(F(1, 2)) == 1
    assert g(F(1)) == 3
    # continuity across the interior breakpoint
    eps = F(1, 10**6)
    assert abs(g(F(1, 2) + eps) - g(F(1, 2) - eps)) < F(1, 10**5)


def test_subtraction_merges_breakpoints():
    f = step_function((F(0), F(1)), (F(1),))
    g = step_function((F(0), F(1, 3), F(1)), (F(0), F(2)))
    d = difference(f, g)
    assert set(g.breakpoints) <= set(d.breakpoints)
    assert d(F(1, 6)) == 1
    assert d(F(2, 3)) == -1


def test_needs_two_breakpoints():
    with pytest.raises(DomainError):
        PiecewisePoly((F(0),), ())


def test_breakpoints_strictly_increasing():
    with pytest.raises(DomainError):
        PiecewisePoly((F(0), F(0)), ((F(1),),))


def test_degree():
    f = step_function((F(0), F(1)), (F(7),))
    assert degree(f) == 0
    assert degree(antiderivative(f)) == 1
    assert degree(antiderivative(antiderivative(f))) == 2
