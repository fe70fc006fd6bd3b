"""The shared sparse polynomial core: the two subclasses differ only in
the exponent-sign rule and in their variable names."""

from fractions import Fraction

import pytest

from torloc.poly import ArityMismatch, GradedPoly, LaurentPoly


def test_univariate_graded_poly_prints_x1():
    assert str(GradedPoly.monomial(1, (2,))) == "x1^2"
    assert str(LaurentPoly.monomial(1, (2,))) == "t^2"


def test_multivariate_laurent_prints_negative_exponents():
    p = LaurentPoly.monomial(2, (1, -1))
    assert str(p) == "t1*t2^-1"
    assert str(p.scale(Fraction(-3, 2)) + LaurentPoly.one(2)) == "-3/2*t1*t2^-1 + 1"


def test_graded_poly_rejects_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        GradedPoly(1, {(-1,): 1})
    assert LaurentPoly(1, {(-1,): 1}).terms == {(-1,): Fraction(1)}


def test_graded_and_laurent_never_compare_equal():
    g = GradedPoly(2, {(1, 0): 1, (0, 0): 2})
    lp = LaurentPoly(2, {(1, 0): 1, (0, 0): 2})
    assert g.terms == lp.terms
    assert g != lp and lp != g
    assert g == GradedPoly(2, {(0, 0): 2, (1, 0): 1})


def test_results_keep_the_operand_type():
    x, y = GradedPoly.variable(2, 0), GradedPoly.variable(2, 1)
    for got in (x + y, x - y, x * y, -x, x**2, x.scale(3), GradedPoly.one(2)):
        assert type(got) is GradedPoly
    t = LaurentPoly.monomial(1, (-1,))
    assert type(t * t + t) is LaurentPoly


def test_arity_mismatch_is_a_value_error():
    assert issubclass(ArityMismatch, ValueError)
    with pytest.raises(ArityMismatch):
        LaurentPoly.one(1) + LaurentPoly.one(2)
    with pytest.raises(ArityMismatch):
        GradedPoly(2, {(1,): 1})
