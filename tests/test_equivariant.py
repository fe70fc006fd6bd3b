"""Polynomial layer, component algebras, localized inversion, and the
fixed-point integration identities on the stock projective datasets.

Inversion is the load-bearing piece: every integration result funnels
through the truncated geometric series, so the randomized round trips
here cover algebras with several interacting nilpotents, not just the
point case the datasets use.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torloc import equivariant
from torloc.equivariant import (
    ArityMismatch,
    ComponentAlgebra,
    EquivariantElement,
    FixedComponent,
    GradedPoly,
    LinearForm,
    NotInvertible,
    NotProper,
    PolyFraction,
    ZeroWeight,
    abbv_integrate,
    component_integral,
    concentration_check,
    euler_class,
    euler_restrictions,
    hyperplane_restrictions,
    invert_localized,
    orbit_annihilation_witness,
    projective_space_components,
    self_intersection_roundtrip,
    try_exact_division,
    unit_restrictions,
)
from torloc.equivariant import _factor_linear_forms


def x(i, nv=2):
    return GradedPoly.variable(nv, i)


def const(c, nv=2):
    return GradedPoly.constant(nv, c)


def exterior_square():
    """Q[a,b]/(a^2,b^2) with a, b in degree 2 and a*b spanning the top."""
    return ComponentAlgebra(
        (0, 2, 2, 4),
        {
            (1, 1): [0, 0, 0, 0],
            (1, 2): [0, 0, 0, 1],
            (2, 2): [0, 0, 0, 0],
            (1, 3): [0, 0, 0, 0],
            (2, 3): [0, 0, 0, 0],
            (3, 3): [0, 0, 0, 0],
        },
    )


# -- polynomials -------------------------------------------------------------


def test_poly_commutativity():
    assert x(0) * x(1) + x(1) * x(0) == x(0) * x(1) * const(2) == (
        GradedPoly(2, {(1, 1): 2})
    )


def test_poly_evaluate():
    assert (x(0) - x(1)).evaluate((3, 1)) == 2


def test_poly_square_expansion():
    got = (x(0) + x(1)) ** 2
    assert got == GradedPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_poly_str_graded_lex():
    p = (x(0) + x(1)) ** 2 + x(0)
    assert str(p) == "x1^2 + 2*x1*x2 + x2^2 + x1"
    assert str(GradedPoly.zero(2)) == "0"


def test_poly_rejects_arity_mismatch():
    with pytest.raises(ArityMismatch):
        (x(0) + x(1)).evaluate((1,))


def test_exact_division():
    num = (x(0) + x(1)) * (x(0) - x(1))
    assert try_exact_division(num, x(0) + x(1)) == x(0) - x(1)
    assert try_exact_division(x(0), x(1)) is None


def test_linear_form():
    f = LinearForm([-1, 1])
    assert f.evaluate((5, 7)) == 2
    assert f.poly() == x(1) - x(0)
    with pytest.raises(ArityMismatch):
        f.evaluate((5,))


# -- component algebras --------------------------------------------------------


def test_point_algebra():
    pt = ComponentAlgebra.point()
    assert pt.dim == 1
    assert pt.nilpotency_order == 1
    assert pt.top_degree() == 0


def test_truncated_algebra():
    alg = ComponentAlgebra.truncated(3)
    assert alg.basis_degrees == (0, 2, 4)
    assert alg.basis_product(1, 1) == (0, 0, 1)
    assert alg.basis_product(1, 2) == (0, 0, 0)
    assert alg.nilpotency_order == 3


def test_exterior_square_nilpotency():
    alg = exterior_square()
    assert alg.nilpotency_order == 3  # a*b survives one round


def test_algebra_validation():
    with pytest.raises(ValueError):
        ComponentAlgebra((2,), {})  # no unit slot
    with pytest.raises(ValueError):
        ComponentAlgebra((0, 3), {(1, 1): [0, 0]})  # odd degree
    with pytest.raises(ValueError):
        ComponentAlgebra((0, 2), {})  # missing product
    with pytest.raises(ValueError):
        # grading: degree-2 square landing in degree 2
        ComponentAlgebra((0, 2), {(1, 1): [0, 1]})


# -- euler classes ---------------------------------------------------------------


def test_euler_single_weight():
    fc = FixedComponent(ComponentAlgebra.point(), [LinearForm([1, 0])])
    assert euler_class(fc).coeffs == {0: x(0)}


def test_euler_tangent_weight_of_projective_line():
    fc = FixedComponent(ComponentAlgebra.point(), [LinearForm([-1, 1])])
    assert euler_class(fc).coeffs == {0: x(1) - x(0)}


def test_euler_two_weights():
    fc = FixedComponent(
        ComponentAlgebra.point(), [LinearForm([1, 0]), LinearForm([0, 1])]
    )
    assert euler_class(fc).coeffs == {0: x(0) * x(1)}


def test_euler_with_multiplicity():
    fc = FixedComponent(ComponentAlgebra.point(), [(LinearForm([1, 0]), 2)])
    assert euler_class(fc).coeffs == {0: x(0) ** 2}


def test_euler_homogeneity_matches_weighted_rank():
    rng = random.Random(404)
    for _ in range(15):
        nv = rng.randint(1, 3)
        count = rng.randint(1, 3)
        weights = []
        total = 0
        for _ in range(count):
            v = [rng.randint(-2, 2) for _ in range(nv)]
            if not any(v):
                v[rng.randrange(nv)] = 1
            m = rng.randint(1, 2)
            total += m
            weights.append((LinearForm(v), m))
        fc = FixedComponent(ComponentAlgebra.point(), weights, num_vars=nv)
        e = euler_class(fc)
        assert e.is_homogeneous()
        assert e.cohomological_degrees() == [2 * total]


def test_euler_with_nilpotent_correction():
    alg = ComponentAlgebra.truncated(2)
    corr = EquivariantElement(alg, 1, {1: const(1, 1)})
    fc = FixedComponent(alg, [LinearForm([1])], corrections=[corr], integration={1: 1})
    e = euler_class(fc)
    assert e.coeffs == {0: x(0, 1), 1: const(1, 1)}
    assert e.is_homogeneous()


def test_component_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        FixedComponent(ComponentAlgebra.point(), [LinearForm([0, 0])])


def test_component_rejects_unit_correction():
    alg = ComponentAlgebra.truncated(2)
    bad = EquivariantElement.unit(alg, 1)
    with pytest.raises(ValueError):
        FixedComponent(alg, [LinearForm([1])], corrections=[bad], integration={1: 1})


# -- localized inversion ----------------------------------------------------------


def unit_el(alg, nv=2):
    return EquivariantElement.unit(alg, nv)


def test_invert_plain_linear_form():
    pt = ComponentAlgebra.point()
    e = EquivariantElement.from_poly(pt, x(0))
    inv = invert_localized(e)
    assert (inv * e).equals(unit_el(pt))
    assert inv.den_factors == ((LinearForm([1, 0]), 1),)
    assert inv.coeffs == {0: const(1)}


def test_invert_unit_plus_nilpotent():
    # e = x1 (unit + b) with b^2 = 0 inverts to (unit - b) / x1
    alg = ComponentAlgebra.truncated(2)
    e = EquivariantElement(alg, 2, {0: x(0), 1: x(0)})
    inv = invert_localized(e)
    expected = EquivariantElement(
        alg, 2, {0: const(1), 1: const(-1)}, ((LinearForm([1, 0]), 1),)
    )
    assert inv.equals(expected)
    assert (inv * e).equals(unit_el(alg))


def test_invert_rejects_zero_unit_part():
    alg = ComponentAlgebra.truncated(2)
    with pytest.raises(NotInvertible):
        invert_localized(EquivariantElement(alg, 2, {1: x(0)}))


def test_invert_rejects_inhomogeneous_unit():
    pt = ComponentAlgebra.point()
    with pytest.raises(NotInvertible):
        invert_localized(EquivariantElement.from_poly(pt, x(0) + const(1)))


def test_invert_rejects_irreducible_quadratic():
    pt = ComponentAlgebra.point()
    with pytest.raises(NotInvertible):
        invert_localized(EquivariantElement.from_poly(pt, x(0) ** 2 + x(1) ** 2))


def random_poly(rng, nv, max_deg=2):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nv))
        if sum(e) <= max_deg:
            terms[e] = Fraction(rng.randint(-3, 3))
    return GradedPoly(nv, terms)


def random_invertible(rng, alg, nv):
    u = const(rng.choice([1, 2, -1, 3]), nv)
    for _ in range(rng.randint(1, 2)):
        v = [rng.randint(-2, 2) for _ in range(nv)]
        if not any(v):
            v[rng.randrange(nv)] = 1
        u = u * LinearForm(v).poly()
    coeffs = {0: u}
    for i in range(1, alg.dim):
        p = random_poly(rng, nv)
        if not p.is_zero() and rng.random() < 0.7:
            coeffs[i] = p
    return EquivariantElement(alg, nv, coeffs)


def test_invert_randomized_roundtrips():
    rng = random.Random(8080)
    algebras = [
        ComponentAlgebra.point(),
        ComponentAlgebra.truncated(3),
        ComponentAlgebra.truncated(6),
        exterior_square(),
    ]
    for _ in range(40):
        alg = rng.choice(algebras)
        nv = rng.randint(1, 3)
        e = random_invertible(rng, alg, nv)
        inv = invert_localized(e)
        assert (inv * e).equals(unit_el(alg, nv))
        assert (e * inv).equals(unit_el(alg, nv))


def test_roundtrip_report():
    pt = ComponentAlgebra.point()
    e = EquivariantElement.from_poly(pt, x(0))
    assert self_intersection_roundtrip(unit_el(pt), e).ok
    alg = ComponentAlgebra.truncated(2)
    beta = EquivariantElement(alg, 2, {1: const(1)})
    e2 = EquivariantElement(alg, 2, {0: x(0), 1: x(0)})
    assert self_intersection_roundtrip(beta, e2).ok
    with pytest.raises(NotInvertible):
        self_intersection_roundtrip(beta, EquivariantElement(alg, 2, {}))


# -- integration ------------------------------------------------------------------


def test_point_integral_reads_the_unit_coefficient():
    pt = ComponentAlgebra.point()
    fc = FixedComponent(pt, [LinearForm([1, 0])])
    p = x(0) * x(1) + const(2)
    got = component_integral(fc, EquivariantElement.from_poly(pt, p))
    assert got == PolyFraction(p)


def test_integral_ignores_non_top_terms():
    alg = ComponentAlgebra.truncated(3)
    fc = FixedComponent(alg, [LinearForm([1, 0])], integration={2: 1})
    el = EquivariantElement(alg, 2, {0: x(0), 1: x(1)})  # nothing in top degree
    assert component_integral(fc, el).is_zero()


def test_integral_carries_the_denominator():
    alg = ComponentAlgebra.truncated(2)
    fc = FixedComponent(alg, [LinearForm([1, 0])], integration={1: 1})
    el = EquivariantElement(alg, 2, {1: x(0)}, ((LinearForm([0, 1]), 1),))
    assert component_integral(fc, el) == PolyFraction(x(0), x(1))


def test_abbv_unit_restrictions_vanish():
    for n in (1, 2):
        comps = projective_space_components(n)
        got = abbv_integrate(comps, unit_restrictions(n))
        assert got == PolyFraction.zero(n + 1)


def test_abbv_euler_restrictions_count_components():
    for n in (1, 2):
        comps = projective_space_components(n)
        got = abbv_integrate(comps, euler_restrictions(comps))
        assert got == PolyFraction(GradedPoly.constant(n + 1, n + 1))


def test_abbv_hyperplane_on_the_line():
    comps = projective_space_components(1)
    got = abbv_integrate(comps, hyperplane_restrictions(1))
    assert got == PolyFraction(GradedPoly.constant(2, 1))


def test_abbv_is_order_independent():
    comps = projective_space_components(2)
    res = euler_restrictions(comps)
    forward = abbv_integrate(comps, res)
    backward = abbv_integrate(list(reversed(comps)), list(reversed(res)))
    assert forward == backward


def test_abbv_rejects_mismatched_lengths():
    comps = projective_space_components(1)
    with pytest.raises(ValueError):
        abbv_integrate(comps, unit_restrictions(2)[:1])


# -- fractions of parameters --------------------------------------------------------


def test_fraction_collapses_exact_division():
    f = PolyFraction(x(0) ** 2, x(0))
    assert f.is_polynomial()
    assert f.num == x(0)


def test_fraction_normalizes_denominator_content():
    f = PolyFraction(x(1), x(0).scale(2))
    assert f.den == x(0)
    assert f.num == x(1).scale(Fraction(1, 2))


def test_fraction_zero():
    f = PolyFraction(GradedPoly.zero(2), x(0))
    assert f.is_zero()
    assert f.den == const(1)


def test_fraction_cross_multiplication_equality():
    assert PolyFraction(x(0), x(0) ** 2) == PolyFraction(const(1), x(0))
    assert PolyFraction(x(0), x(1)) != PolyFraction(x(1), x(0))


def test_fraction_is_unhashable():
    with pytest.raises(TypeError):
        hash(PolyFraction(x(0), x(1)))


def test_fraction_evaluate():
    f = PolyFraction(x(0) + x(1), x(0) - x(1))
    assert f.evaluate((3, 1)) == 2
    with pytest.raises(ZeroDivisionError):
        f.evaluate((1, 1))


# -- isotropy witnesses ----------------------------------------------------------


def test_witness_for_coordinate_subtorus():
    assert orbit_annihilation_witness([(1, 0)]).coeffs == (0, 1)


def test_witness_for_diagonal():
    assert orbit_annihilation_witness([(1, 1)]).coeffs == (1, -1)


def test_witness_for_trivial_subtorus():
    assert orbit_annihilation_witness([], num_vars=1).coeffs == (1,)


def test_witness_full_torus_is_refused():
    with pytest.raises(NotProper):
        orbit_annihilation_witness([(1, 0), (0, 1)])


def test_witness_randomized_vanishing():
    rng = random.Random(2718)
    done = 0
    while done < 20:
        r = rng.randint(1, 4)
        k = rng.randint(0, r - 1)
        basis = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
        try:
            w = orbit_annihilation_witness(basis, num_vars=r)
        except NotProper:
            continue  # random vectors happened to span everything
        done += 1
        assert any(w.coeffs)
        assert all(isinstance(c, int) for c in w.coeffs)
        for v in basis:
            assert w.evaluate(v) == 0


# -- concentration hypotheses -------------------------------------------------------


def test_concentration_passes_for_stock_components():
    comps = projective_space_components(2)
    reports = concentration_check(comps)
    assert all(r.ok for r in reports)


def forced_component(weights, corrections=None):
    """Bypass the constructor to smuggle in illegal data."""
    fc = object.__new__(FixedComponent)
    fc.algebra = ComponentAlgebra.truncated(2)
    fc.weights = tuple(weights)
    fc.corrections = tuple(
        corrections if corrections is not None else [None] * len(weights)
    )
    fc.integration = {1: Fraction(1)}
    fc.num_vars = 2
    return fc


def test_concentration_flags_zero_weight():
    fc = forced_component([(LinearForm.__new__(LinearForm), 1)])
    object.__setattr__(fc.weights[0][0], "coeffs", (0, 0))
    reports = concentration_check([fc])
    assert not reports[0].ok
    assert any("trivial weight" in p for p in reports[0].problems)


def test_concentration_flags_unit_correction():
    alg = ComponentAlgebra.truncated(2)
    bad = EquivariantElement(alg, 2, {0: const(1), 1: const(1)})
    fc = forced_component([(LinearForm([1, 0]), 1)], corrections=[bad])
    reports = concentration_check([fc])
    assert not reports[0].ok
    assert any("non-nilpotent remainder" in p for p in reports[0].problems)


def test_concentration_flags_unit_correction_on_the_sympy_path():
    # a unit-part correction linear in the parameters leaves the unit part
    # a product of linear forms: no split is recorded, sympy still inverts
    alg = ComponentAlgebra.truncated(2)
    bad = EquivariantElement(alg, 2, {0: x(1), 1: const(1)})
    fc = forced_component([(LinearForm([1, 0]), 1)], corrections=[bad])
    reports = concentration_check([fc])
    assert reports[0].problems == ("non-nilpotent remainder (correction has a unit part)",)
    assert euler_class(fc).unit_split is None
    res = [EquivariantElement(alg, 2, {1: const(1)})]
    assert str(abbv_integrate([fc], res)) == "(x1 + x2) / (x1^2 + 2*x1*x2 + x2^2)"


def test_smuggled_unit_correction_still_fails_to_invert():
    alg = ComponentAlgebra.truncated(2)
    bad = EquivariantElement(alg, 2, {0: const(1), 1: const(1)})
    fc = forced_component([(LinearForm([1, 0]), 1)], corrections=[bad])
    with pytest.raises(NotInvertible, match=r"^component 0: unit coefficient is not "
                       r"a scalar times a product of linear forms: x1 \+ 1$"):
        abbv_integrate([fc], [unit_el(alg)])


# -- recorded Euler splits and the factored sum, against their oracles ------------


@st.composite
def weight_lists(draw):
    nv = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=nv, max_size=nv).filter(any)
    weights = draw(st.lists(st.tuples(vector, st.integers(1, 3)), max_size=4))
    return nv, weights, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@example((2, [([1, -1], 1), ([-1, 1], 1)], False))
@example((2, [([2, 0], 1), ([1, 0], 2)], False))
@example((2, [([1, 1], 2), ([1, 1], 1), ([-2, -2], 3)], True))
@example((1, [], False))
@given(weight_lists())
def test_recorded_euler_split_matches_sympy(case):
    nv, weights, corrected = case
    forms = [(LinearForm(v), m) for v, m in weights]
    if corrected:
        alg = ComponentAlgebra.truncated(2)
        corr = EquivariantElement(alg, nv, {1: const(1, nv)})
        fc = FixedComponent(alg, forms, [corr] * len(forms), {1: 1}, num_vars=nv)
    else:
        fc = FixedComponent(ComponentAlgebra.point(), forms, num_vars=nv)
    e = euler_class(fc)
    assert e.unit_split is not None
    assert e.unit_split == _factor_linear_forms(e.coeffs[0])


def test_only_euler_classes_record_a_split():
    fc = FixedComponent(ComponentAlgebra.point(), [LinearForm([1, 0])])
    e = euler_class(fc)
    assert e.unit_split == (Fraction(1), ((LinearForm([1, 0]), 1),))
    assert (e * e).unit_split is None
    assert EquivariantElement.from_poly(ComponentAlgebra.point(), x(0)).unit_split is None


def leading_term_division(num, den):
    """Division by re-subtracting whole polynomials: the oracle for
    try_exact_division."""
    lead_e, lead_c = den.leading_term()
    q = {}
    rem = num
    while not rem.is_zero():
        e, c = rem.leading_term()
        diff = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in diff):
            return None
        q[diff] = c / lead_c
        rem = rem - GradedPoly.monomial(num.num_vars, diff, c / lead_c) * den
    return GradedPoly(num.num_vars, q)


@st.composite
def divisions(draw):
    nv = draw(st.integers(1, 3))
    poly = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nv), st.integers(-4, 4), max_size=5
    ).map(lambda t: GradedPoly(nv, t))
    num, den = draw(poly), draw(poly.filter(lambda p: not p.is_zero()))
    if draw(st.booleans()):
        num = num * den
    return num, den


@settings(max_examples=150, deadline=None)
@example((x(0) ** 2 - x(1) ** 2, x(1) - x(0)))
@example((x(0) * x(1) + const(1), x(0)))
@given(divisions())
def test_exact_division_matches_its_oracle(case):
    num, den = case
    assert try_exact_division(num, den) == leading_term_division(num, den)


def running_sum(components, restrictions):
    """The running PolyFraction sum that abbv_integrate factors: the
    oracle for both its value and its printed form."""
    total = PolyFraction.zero(components[0].num_vars)
    for fc, res in zip(components, restrictions):
        total = total + component_integral(fc, res * invert_localized(euler_class(fc)))
    return total


@st.composite
def abbv_jobs(draw):
    nv = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=nv, max_size=nv).filter(any)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    exps = st.tuples(*[st.integers(0, 2)] * nv)
    poly = st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda t: GradedPoly(nv, t))
    components, restrictions = [], []
    for _ in range(draw(st.integers(1, 4))):
        weights = []
        for _ in range(draw(st.integers(1, 2))):
            v = draw(st.sampled_from(pool))
            v = [c * draw(st.sampled_from((1, -1, 2))) for c in v]
            weights.append((LinearForm(v), draw(st.integers(1, 2))))
        if draw(st.booleans()):
            alg = ComponentAlgebra.point()
            fc = FixedComponent(alg, weights, num_vars=nv)
        else:
            alg = ComponentAlgebra.truncated(2)
            nilpotents = [EquivariantElement(alg, nv, {1: const(c, nv)}) for c in (1, -2)]
            corrections = [draw(st.sampled_from([None, *nilpotents])) for _ in weights]
            fc = FixedComponent(alg, weights, corrections, {1: 1}, num_vars=nv)
        kind = draw(st.sampled_from(("unit", "euler", "poly")))
        if kind == "unit":
            res = EquivariantElement.unit(alg, nv)
        elif kind == "euler":
            res = euler_class(fc)
        else:
            den = []
            if draw(st.booleans()):
                scale = draw(st.sampled_from((1, -3)))
                v = [c * scale for c in draw(st.sampled_from(pool))]
                den = [(LinearForm(v), draw(st.integers(1, 2)))]
            coeffs = {i: draw(poly) for i in range(alg.dim)}
            res = EquivariantElement(alg, nv, coeffs, den)
        components.append(fc)
        restrictions.append(res)
    return components, restrictions


@settings(max_examples=80, deadline=None)
@given(abbv_jobs())
def test_factored_sum_prints_as_the_running_sum(job):
    components, restrictions = job
    got = abbv_integrate(components, restrictions)
    want = running_sum(components, restrictions)
    assert (str(got.num), str(got.den)) == (str(want.num), str(want.den))


def point_components(*vectors):
    return [FixedComponent(ComponentAlgebra.point(), [LinearForm(v)]) for v in vectors]


def test_factored_sum_keeps_the_uncancelled_product():
    comps = point_components([1, 1], [1, 1], [-1, -1])
    got = abbv_integrate(comps, [unit_el(ComponentAlgebra.point())] * 3)
    assert str(got) == (
        "(x1^2 + 2*x1*x2 + x2^2) / (x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3)"
    )
    assert str(running_sum(comps, [unit_el(ComponentAlgebra.point())] * 3)) == str(got)


def test_factored_sum_drops_a_collapsed_term_denominator():
    # x1*x2 / x1 collapses on its own, so its x1 never joins the product
    pt = ComponentAlgebra.point()
    comps = point_components([1, 0], [1, 0])
    res = [unit_el(pt), EquivariantElement.from_poly(pt, x(0) * x(1))]
    assert str(abbv_integrate(comps, res)) == "(x1*x2 + 1) / (x1)"
    assert str(running_sum(comps, res)) == "(x1*x2 + 1) / (x1)"


def test_factored_sum_restarts_after_a_polynomial_partial_sum():
    # 1/x1 - 1/x1 is 0, so the last term's denominator stands alone
    pt = ComponentAlgebra.point()
    comps = point_components([1, 0], [-1, 0], [0, 1])
    res = [unit_el(pt)] * 3
    assert str(abbv_integrate(comps, res)) == "(1) / (x2)"
    assert str(running_sum(comps, res)) == "(1) / (x2)"


# -- one Euler class and one inversion per component ------------------------------


def test_each_component_is_inverted_once(monkeypatch):
    calls = []
    real = equivariant.invert_localized
    monkeypatch.setattr(equivariant, "invert_localized", lambda e: calls.append(e) or real(e))
    comps = projective_space_components(3)
    res = euler_restrictions(comps)
    assert all(r.ok for r in concentration_check(comps))
    assert abbv_integrate(comps, res) == PolyFraction(const(4, 4))
    assert len(calls) == 4
    assert all(r is fc.euler() for r, fc in zip(res, comps))
    assert all(fc.euler_inverse() is fc.euler_inverse() for fc in comps)
