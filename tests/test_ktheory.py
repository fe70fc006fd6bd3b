"""Koszul denominators, localized sums, and collapse detection.

The lambda_-1 product has an independent oracle: the alternating sum of
exterior powers, expanded by brute force over index subsets.  The two
must agree on every multiset of weights, repeats included.

Euler characteristics of twisted projective spaces give the end-to-end
check: binomial values in the ample range, zeros in the acyclic window,
and the sign-flipped binomials below it.

The univariate sum over a factored LCM has a slow oracle kept here: the
running sum that adds one fraction at a time and reduces after each
addition by a dense gcd.  The two must give the same numerator,
denominator and printed form.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torloc import ktheory
from torloc.ktheory import (
    KFixedPoint,
    LaurentPoly,
    LaurentRational,
    MultivariateUnsupported,
    PoleAtOne,
    TrivialCharacter,
    evaluate_at_one,
    fixed_point_sum,
    is_character,
    lambda_minus_one,
    projective_space_dataset,
)


def mono(k, c=1):
    return LaurentPoly(1, {(k,): c})


def poly(terms):
    return LaurentPoly(1, {(k,): c for k, c in terms.items()})


def alternating_exterior_sum(weights):
    """Sum over index subsets of (-1)^|S| t^(sum of the selected weights)."""
    out = {}
    for k in range(len(weights) + 1):
        for combo in itertools.combinations(range(len(weights)), k):
            e = sum(weights[i] for i in combo)
            out[(e,)] = out.get((e,), 0) + (-1) ** k
    return LaurentPoly(1, out)


# -- lambda_-1 ---------------------------------------------------------------


def test_lambda_of_nothing_is_one():
    p = KFixedPoint(LaurentPoly.one(1), [])
    assert lambda_minus_one(p) == LaurentPoly.one(1)


def test_lambda_single_character():
    p = KFixedPoint(LaurentPoly.one(1), [(3,)])
    assert lambda_minus_one(p) == poly({0: 1, 3: -1})


def test_lambda_two_characters():
    p = KFixedPoint(LaurentPoly.one(1), [(1,), (-2,)])
    assert lambda_minus_one(p) == poly({0: 1, 1: -1, -2: -1, -1: 1})


def test_lambda_matches_exterior_expansion_everywhere():
    pool = (-2, -1, 1, 2)
    for size in range(5):
        for weights in itertools.combinations_with_replacement(pool, size):
            p = KFixedPoint(LaurentPoly.one(1), [(w,) for w in weights])
            assert lambda_minus_one(p) == alternating_exterior_sum(weights)


def test_trivial_conormal_is_refused():
    with pytest.raises(TrivialCharacter):
        KFixedPoint(LaurentPoly.one(1), [(1,), (0,)])
    with pytest.raises(TrivialCharacter):
        KFixedPoint(LaurentPoly.one(2), [(0, 0)])


# -- fraction reduction ------------------------------------------------------


def test_geometric_collapse():
    f = LaurentRational(poly({0: 1, 2: -1}), poly({0: 1, 1: -1}))
    assert is_character(f) == poly({0: 1, 1: 1})
    assert str(f) == "t + 1"


def test_monomial_shift_moves_to_numerator():
    f = LaurentRational(poly({-3: 1, -2: 1}), mono(2))
    assert is_character(f) == poly({-5: 1, -4: 1})


def test_open_pole_survives_reduction():
    f = LaurentRational(LaurentPoly.one(1), poly({0: 1, 1: -1}))
    assert is_character(f) is None
    with pytest.raises(PoleAtOne):
        evaluate_at_one(f)


def test_character_dimension_count():
    f = LaurentRational(poly({0: 1, 1: 1, 2: 1}))
    assert evaluate_at_one(f) == 3


def test_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        LaurentRational(LaurentPoly.one(1), LaurentPoly.zero(1))


def test_multivariate_stays_unreduced_but_compares():
    one = LaurentPoly.one(2)
    t1 = LaurentPoly.monomial(2, (1, 0))
    f = LaurentRational(one - t1 * t1, one - t1)
    assert f.den != one  # untouched
    assert f == LaurentRational(one + t1)
    with pytest.raises(MultivariateUnsupported):
        is_character(f)


laurent_terms = st.dictionaries(
    st.tuples(st.integers(min_value=-5, max_value=5)),
    st.integers(min_value=-4, max_value=4),
    max_size=4,
)


@st.composite
def laurents(draw, nonzero=False):
    p = LaurentPoly(1, draw(laurent_terms))
    if nonzero and p.is_zero():
        return LaurentPoly.one(1)
    return p


@given(a=laurents(), b=laurents(nonzero=True), c=laurents(nonzero=True))
@settings(max_examples=60)
def test_common_factors_cancel_to_the_same_canonical_form(a, b, c):
    lhs = LaurentRational(a * c, b * c)
    rhs = LaurentRational(a, b)
    assert lhs == rhs
    assert lhs.num == rhs.num and lhs.den == rhs.den


@given(a=laurents(), b=laurents(nonzero=True))
@settings(max_examples=60)
def test_reduced_denominator_is_monic_from_below(a, b):
    f = LaurentRational(a, b)
    assert f.den.terms.get((0,)) == 1
    assert all(e[0] >= 0 for e in f.den.terms)


# -- fixed-point sums --------------------------------------------------------


def test_single_free_orbit_of_the_line():
    # one point, conormal t^-1: the sum is t/(t - 1), not a character
    p = KFixedPoint(LaurentPoly.one(1), [(-1,)])
    f = fixed_point_sum([p])
    assert f == LaurentRational(mono(1, -1), poly({0: 1, 1: -1}))
    assert is_character(f) is None


def test_opposite_fibers_cancel():
    a = KFixedPoint(LaurentPoly.one(1), [(-1,), (2,)])
    b = KFixedPoint(mono(0, -1), [(-1,), (2,)])
    f = fixed_point_sum([a, b])
    assert f.is_zero()
    assert evaluate_at_one(f) == 0


def test_sum_is_order_independent():
    pts = projective_space_dataset(3, 2)
    assert fixed_point_sum(pts) == fixed_point_sum(list(reversed(pts)))


def test_sum_rejects_empty_and_mixed_arity():
    with pytest.raises(ValueError):
        fixed_point_sum([])
    with pytest.raises(ValueError):
        fixed_point_sum(
            [
                KFixedPoint(LaurentPoly.one(1), [(1,)]),
                KFixedPoint(LaurentPoly.one(2), [(1, 0)]),
            ]
        )


# -- projective spaces -------------------------------------------------------


def test_dataset_shape_for_the_line():
    pts = projective_space_dataset(1, 0)
    assert [p.fiber for p in pts] == [LaurentPoly.one(1), LaurentPoly.one(1)]
    assert [p.conormals for p in pts] == [((-1,),), ((1,),)]
    twisted = projective_space_dataset(1, 2)
    assert twisted[0].fiber == LaurentPoly.one(1)
    assert twisted[1].fiber == mono(-2)


def test_dataset_needs_positive_dimension():
    with pytest.raises(ValueError):
        projective_space_dataset(0, 1)


def test_line_sections_form_a_geometric_series():
    for d in range(4):
        f = fixed_point_sum(projective_space_dataset(1, d))
        assert is_character(f) == poly({-k: 1 for k in range(d + 1)})


def test_character_string_for_conic_sections():
    f = fixed_point_sum(projective_space_dataset(1, 2))
    assert str(f) == "1 + t^-1 + t^-2"


def test_euler_characteristic_table():
    for n in (1, 2, 3):
        for d in range(6):
            got = evaluate_at_one(fixed_point_sum(projective_space_dataset(n, d)))
            assert got == math.comb(n + d, n)


def test_acyclic_window():
    for n in (1, 2, 3):
        for d in range(-n, 0):
            got = evaluate_at_one(fixed_point_sum(projective_space_dataset(n, d)))
            assert got == 0


def test_duality_below_the_window():
    for n in (1, 2, 3):
        for d in range(-n - 3, -n):
            got = evaluate_at_one(fixed_point_sum(projective_space_dataset(n, d)))
            assert got == (-1) ** n * math.comb(-d - 1, n)


def test_duality_pairs_exactly():
    # chi(d) and chi(-d - n - 1) differ by the sign (-1)^n
    for n in (1, 2, 3):
        for d in range(4):
            plus = evaluate_at_one(fixed_point_sum(projective_space_dataset(n, d)))
            minus = evaluate_at_one(
                fixed_point_sum(projective_space_dataset(n, -d - n - 1))
            )
            assert minus == (-1) ** n * plus


# -- the factored sum against the running-sum oracle -------------------------


def running_sum_oracle(points):
    """Add fiber / lambda_-1 one point at a time, reducing after each step."""
    total = LaurentRational.zero(points[0].num_vars)
    for p in points:
        total = total + LaurentRational(p.fiber, lambda_minus_one(p))
    return total


def assert_matches_oracle(points):
    got = fixed_point_sum(points)
    want = running_sum_oracle(points)
    assert got.num == want.num
    assert got.den == want.den
    assert str(got) == str(want)
    return got


def pm_pair(w, d):
    """P^1 along weights 0 and w: the sum is 1 + t^-w + ... + t^-dw."""
    return [KFixedPoint(LaurentPoly.one(1), [(-w,)]), KFixedPoint(mono(-d * w), [(w,)])]


WEIGHTS = [s * a for a in (1, 2, 3, 4, 6, 12) for s in (1, -1)]

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def univariate_points(draw):
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        fiber = LaurentPoly(1, draw(st.dictionaries(
            st.tuples(st.integers(min_value=-8, max_value=8)), rationals, max_size=3)))
        conormals = draw(st.lists(st.sampled_from(WEIGHTS), max_size=4))
        points.append(KFixedPoint(fiber, [(w,) for w in conormals]))
    if draw(st.booleans()):
        # the same point with the opposite fiber: a sum that can cancel to 0
        p = draw(st.sampled_from(points))
        points.append(KFixedPoint(-p.fiber, p.conormals))
    return points


@given(points=univariate_points())
@settings(max_examples=300, deadline=None)
def test_factored_sum_matches_the_running_sum(points):
    assert_matches_oracle(points)


def test_factored_sum_matches_on_open_poles_and_zero_sums():
    half = Fraction(1, 2)
    pole = [KFixedPoint(mono(0, half), [(1,), (2,)]), KFixedPoint(mono(3), [(-4,), (6,), (6,)])]
    f = assert_matches_oracle(pole)
    assert is_character(f) is None
    zero = pole + [KFixedPoint(-p.fiber, p.conormals) for p in pole]
    assert assert_matches_oracle(zero).is_zero()
    assert str(fixed_point_sum(zero)) == "0"
    # no conormals at all: the sum is the sum of the fibers
    bare = [KFixedPoint(poly({-2: 3, 5: Fraction(-1, 3)}), [])]
    assert str(assert_matches_oracle(bare)) == "-1/3*t^5 + 3*t^-2"


def test_factored_sum_matches_on_projective_spaces():
    for n in range(1, 7):
        for d in range(-n - 3, 5):
            assert_matches_oracle(projective_space_dataset(n, d))


@pytest.mark.parametrize("w", [1000, 30030])
@pytest.mark.parametrize("d", [0, 1])
def test_factored_sum_matches_on_wide_weight_pairs(w, d):
    f = assert_matches_oracle(pm_pair(w, d))
    assert is_character(f) == poly({-k * w: 1 for k in range(d + 1)})


def test_psi_factors_multiply_to_the_binomial():
    # prod over k | n of Psi_k = 1 - t^n, and every Psi_k has constant term 1
    for n in range(1, 61):
        product = LaurentPoly.one(1)
        for k in ktheory._divisors(n):
            psi = ktheory._times({0: 1}, ktheory._psi(k))
            assert psi[0] == 1
            product = product * poly(psi)
        assert product == poly({0: 1, n: -1})


def test_binomial_division_reports_a_remainder():
    assert ktheory._binomial_divide({0: 1, 6: -1}, 3) == {0: 1, 3: 1}
    assert ktheory._binomial_divide({0: 1, 5: -1}, 3) is None
    assert ktheory._binomial_divide({-4: 2, 1: -2}, 5) == {-4: 2}


def test_a_dropped_factor_fails_the_check_at_two(monkeypatch):
    points = [KFixedPoint(LaurentPoly.one(1), [(1,), (2,)])]
    assert str(fixed_point_sum(points)) == "(1) / (t^3 - t^2 - t + 1)"
    cancel = ktheory._cancel

    def drop_psi_2(*args):
        num, den = cancel(*args)
        return num, ktheory._times(den, {1: 1, 2: -1})

    monkeypatch.setattr(ktheory, "_cancel", drop_psi_2)
    with pytest.raises(RuntimeError, match="t = 2"):
        fixed_point_sum(points)


def test_wide_pair_builds_nothing_span_sized():
    points = pm_pair(10**5, 0)
    tracemalloc.start()
    try:
        f = fixed_point_sum(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(f) == "1"
    assert peak < 10**6
