"""Cohomology bases, the connecting sequence, and the refinement torsor.

The circle pair (square circle, two opposite closed vertices) exercises
every map with nonzero rank in degree 1: a 1-dimensional ambient target,
a 2-dimensional supported space, and a single connecting direction, so
the refinements form an affine line with no distinguished point.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from torloc.linalg import Matrix, vec, zero_vec
from torloc.record import Record
from torloc.simplicial import (
    CochainPair,
    SimplicialComplex,
    complement_subcomplex,
    relative_cochain_complex,
    tensor_complex,
)
from torloc.suite import random_pair, random_supported_class
from torloc.torsor import (
    CohomologyClass,
    ExactnessReport,
    NotInTorsor,
    NotSupported,
    canonical_lift_if_unique,
    check_exactness,
    cohomology,
    external_product,
    factorization_check,
    les,
    lift_external_product,
    supported_lifts,
    torsor_difference,
)


def circle_pair():
    cx, _ = SimplicialComplex.closure(
        ["a", "b", "c", "d"], [[0, 1], [1, 2], [2, 3], [0, 3]]
    )
    return cx, CochainPair.from_selection(cx, cx.full_subcomplex([0, 2]))


def point_pair():
    cx, _ = SimplicialComplex.closure(["p"], [[0]])
    return cx, CochainPair.from_selection(cx, cx.full_subcomplex([0]))


def sphere_pair():
    # boundary of the 3-simplex with one closed vertex
    cx, _ = SimplicialComplex.closure(
        ["p", "q", "r", "s"], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    )
    return cx, CochainPair.from_selection(cx, cx.full_subcomplex([0]))


# -- cohomology bases -------------------------------------------------------


def test_circle_cohomology_dims():
    cx, pair = circle_pair()
    assert cohomology(pair.absolute, 0).dim == 1
    assert cohomology(pair.absolute, 1).dim == 1


def test_two_points_cohomology():
    cx, pair = circle_pair()
    assert cohomology(pair.quotient, 0).dim == 2
    assert cohomology(pair.quotient, 1).dim == 0


def test_basis_roundtrips():
    cx, pair = circle_pair()
    h1 = cohomology(pair.absolute, 1)
    v = h1.vector([Fraction(3)])
    assert h1.is_cocycle(v)
    assert h1.coordinates(v) == (Fraction(3),)
    cls = h1.class_of(v)
    assert cls.coordinates == (Fraction(3),)
    assert not cls.is_zero()


def test_coordinates_reject_non_cocycles():
    cx, pair = circle_pair()
    h0 = cohomology(pair.absolute, 0)
    with pytest.raises(ValueError):
        h0.coordinates([1, 0, 0, 0])  # not locally constant


def test_coordinates_kill_boundaries():
    cx, pair = circle_pair()
    h1 = cohomology(pair.absolute, 1)
    boundary = pair.absolute.differential(0).apply([1, 0, 0, 0])
    assert h1.coordinates(boundary) == zero_vec(1)


# -- the connecting sequence -------------------------------------------------


def test_circle_sequence_ranks_in_degree_one():
    _, pair = circle_pair()
    seq = les(pair, 1)
    assert seq.basis_rel.dim == 2
    assert seq.basis_abs.dim == 1
    assert seq.forget.rank() == 1
    assert seq.connect.rank() == 1
    assert seq.restrict.rank() == 0


def test_everything_closed_makes_forget_an_isomorphism():
    cx, _ = circle_pair()
    pair = CochainPair.from_selection(cx, cx.full_subcomplex(range(4)))
    for d in range(2):
        seq = les(pair, d)
        assert seq.basis_quot.dim == 0
        assert seq.forget.rank() == seq.basis_abs.dim == seq.basis_rel.dim


def test_nothing_closed_makes_restriction_the_identity():
    cx, _ = circle_pair()
    pair = CochainPair.from_selection(cx, cx.full_subcomplex([]))
    for d in range(2):
        seq = les(pair, d)
        assert seq.basis_rel.dim == 0
        assert seq.restrict == Matrix.identity(seq.basis_abs.dim)


def test_exactness_on_the_circle_pair():
    _, pair = circle_pair()
    assert check_exactness(pair).ok


def test_exactness_on_contractible_pair():
    cx, _ = SimplicialComplex.closure(["p", "q", "r"], [[0, 1, 2]])
    pair = CochainPair.from_selection(cx, cx.full_subcomplex([0]))
    assert check_exactness(pair).ok


def test_exactness_random_sweep():
    rng = random.Random(5150)
    for _ in range(25):
        _, _, pair = random_pair(rng)
        report = check_exactness(pair)
        assert report.ok, report


# -- the refinement torsor ----------------------------------------------------


def test_circle_torsor_is_an_affine_line():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    assert t.ambient.dim == 2
    assert len(t.delta_image_basis) == 1
    assert not t.is_singleton
    assert canonical_lift_if_unique(t) is None
    assert t.affine().dim == 1


def test_everything_closed_gives_unique_lift():
    cx, _ = circle_pair()
    pair = CochainPair.from_selection(cx, cx.full_subcomplex(range(4)))
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    assert t.is_singleton
    unique = canonical_lift_if_unique(t)
    assert unique is not None
    # the unique refinement forgets back to the class
    seq = les(pair, 1)
    assert seq.forget.apply(unique.coordinates) == tuple(target.coordinates)


def test_zero_class_lifts_through_zero():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([0])
    t = supported_lifts(pair, target)
    assert t.contains(zero_vec(2))
    assert len(t.delta_image_basis) == 1


def test_unsupported_class_is_refused():
    _, pair = circle_pair()
    # constants restrict nontrivially to the two open points
    target = cohomology(pair.absolute, 0).element([1])
    with pytest.raises(NotSupported):
        supported_lifts(pair, target)


def test_sphere_lift_is_unique():
    _, pair = sphere_pair()
    target = cohomology(pair.absolute, 2).element([1])
    t = supported_lifts(pair, target)
    assert t.is_singleton
    assert canonical_lift_if_unique(t) is not None


def test_torsor_difference_on_endpoints():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    base = t.base_lift
    assert torsor_difference(t, base, base) == zero_vec(1)
    shifted = t.affine().point_at([1])
    assert torsor_difference(t, base, shifted) == (Fraction(-1),)


def test_torsor_difference_rejects_outsiders():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    outside = tuple(x + 1 for x in t.base_lift)  # leaves the affine line
    if t.contains(outside):  # direction could absorb the shift
        outside = tuple(x + Fraction(1, 2) for x in t.delta_image_basis[0])
    with pytest.raises(NotInTorsor):
        torsor_difference(t, outside, t.base_lift)


def test_torsor_laws_randomized():
    rng = random.Random(2024)
    tried = 0
    while tried < 20:
        _, _, pair = random_pair(rng)
        target = random_supported_class(pair, rng)
        if target is None:
            continue
        tried += 1
        t = supported_lifts(pair, target)
        seq = t.sequence
        k = len(t.delta_image_basis)
        c1 = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        c2 = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        l1, l2 = t.affine().point_at(c1), t.affine().point_at(c2)
        # unique difference coefficients, exact reconstruction
        diff = torsor_difference(t, l1, l2)
        assert diff == tuple(a - b for a, b in zip(c1, c2))
        rebuilt = list(l2)
        for c, direction in zip(diff, t.delta_image_basis):
            for i, x in enumerate(direction):
                rebuilt[i] += c * x
        assert tuple(rebuilt) == l1
        # every member forgets to the target class
        for lift in (l1, l2, t.base_lift):
            assert seq.forget.apply(lift) == tuple(target.coordinates)


def test_uniqueness_matches_vanishing_connecting_image():
    rng = random.Random(31337)
    seen_unique = seen_line = False
    tried = 0
    while tried < 30:
        _, _, pair = random_pair(rng)
        target = random_supported_class(pair, rng)
        if target is None:
            continue
        tried += 1
        t = supported_lifts(pair, target)
        d = target.degree
        prev = les(pair, d - 1) if d > 0 else None
        im_delta = (
            t.sequence.basis_quot_prev.dim - prev.restrict.rank() if prev else 0
        )
        assert len(t.delta_image_basis) == im_delta
        unique = canonical_lift_if_unique(t)
        assert (unique is not None) == (im_delta == 0)
        seen_unique |= unique is not None
        seen_line |= unique is None
    assert seen_unique and seen_line  # the sweep saw both outcomes


# -- factorization -------------------------------------------------------------


def test_factorization_accepts_members():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    assert factorization_check(pair, t.base_lift, target).ok
    shifted = t.affine().point_at([5])
    report = factorization_check(pair, shifted, target)
    assert report.triangle_ok and report.member


def test_factorization_rejects_triangle_violations():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    # doubling the anchor forgets to 2c, not c
    bad = tuple(2 * x for x in t.base_lift)
    report = factorization_check(pair, bad, target)
    assert not report.triangle_ok
    assert not report.member
    assert "triangle compatibility fails" in report.reason


def test_factorization_rejects_unsupported_targets():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 0).element([1])
    report = factorization_check(pair, zero_vec(0), target)
    assert not report.ok
    assert "not supported" in report.reason


def test_factorization_randomized_members_and_violators():
    rng = random.Random(909)
    accepted = rejected = 0
    while accepted < 10 or rejected < 10:
        _, _, pair = random_pair(rng)
        target = random_supported_class(pair, rng)
        if target is None:
            continue
        t = supported_lifts(pair, target)
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in t.delta_image_basis]
        member = t.affine().point_at(coeffs)
        assert factorization_check(pair, member, target).ok
        accepted += 1
        # shift the target class to break the triangle when possible
        if any(x != 0 for x in target.coordinates):
            bad = tuple(2 * x for x in member)
            report = factorization_check(pair, bad, target)
            if not report.triangle_ok:
                assert not report.member
                rejected += 1


# -- external products ----------------------------------------------------------


def test_external_product_of_units():
    cx, _ = SimplicialComplex.closure(["p"], [[0]])
    unit = cohomology(
        CochainPair.from_selection(cx, cx.full_subcomplex([0])).absolute, 0
    ).element([1])
    prod = external_product(unit, unit)
    assert prod.degree == 0
    assert prod.coordinates == (Fraction(1),)


def test_external_product_with_unit_keeps_coordinates():
    cx, pair = circle_pair()
    g = cohomology(pair.absolute, 1).element([1])
    pt, ppair = point_pair()
    unit = cohomology(ppair.absolute, 0).element([1])
    prod = external_product(g, unit)
    # tensoring with a point complex is the identity on coordinates
    assert prod.degree == 1
    assert prod.coordinates == (Fraction(1),)


def test_external_product_of_circle_generators_spans_torus_top():
    cx, pair = circle_pair()
    g = cohomology(pair.absolute, 1).element([1])
    prod = external_product(g, g)
    assert prod.degree == 2
    assert prod.basis.dim == 1
    assert not prod.is_zero()


def test_lift_external_product_unique_times_unique():
    cx, _ = circle_pair()
    pair = CochainPair.from_selection(cx, cx.full_subcomplex(range(4)))
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    _, ppair = point_pair()
    pt_target = cohomology(ppair.absolute, 0).element([1])
    pt_t = supported_lifts(ppair, pt_target)
    prod_lift = lift_external_product(t, pt_t, t.base_lift, pt_t.base_lift)
    prod_pair = pair.tensor(ppair)
    prod_target = external_product(target, pt_target)
    prod_torsor = supported_lifts(prod_pair, prod_target)
    assert prod_torsor.is_singleton
    unique = canonical_lift_if_unique(prod_torsor)
    assert unique.coordinates == prod_lift


def test_lift_external_product_lands_in_product_torsor():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    _, ppair = point_pair()
    pt_target = cohomology(ppair.absolute, 0).element([1])
    pt_t = supported_lifts(ppair, pt_target)
    for coeff in (0, 1, -2):
        lift = t.affine().point_at([coeff])
        prod = lift_external_product(t, pt_t, lift, pt_t.base_lift)
        report = factorization_check(
            pair.tensor(ppair), prod, external_product(target, pt_target)
        )
        assert report.ok, report.reason


def test_lift_external_product_on_the_torus():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    l1 = t.affine().point_at([1])
    l2 = t.affine().point_at([-1])
    prod = lift_external_product(t, t, l1, l2)
    report = factorization_check(
        pair.tensor(pair), prod, external_product(target, target)
    )
    assert report.ok, report.reason


def test_lift_external_product_checks_membership():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    t = supported_lifts(pair, target)
    outside = tuple(x + 1 for x in t.base_lift)
    if t.contains(outside):
        outside = tuple(x + Fraction(1, 3) for x in outside)
    with pytest.raises(NotInTorsor):
        lift_external_product(t, t, outside, t.base_lift)


def test_kunneth_dimension_identity_on_product_pairs():
    rng = random.Random(640)
    for _ in range(6):
        _, _, pa = random_pair(rng, max_vertices=4, max_simplices=10)
        _, _, pb = random_pair(rng, max_vertices=4, max_simplices=10)
        prod = pa.tensor(pb)
        for n in range(prod.max_degree() + 1):
            want = sum(
                cohomology(pa.relative, p).dim * cohomology(pb.relative, n - p).dim
                for p in range(n + 1)
            )
            assert cohomology(prod.relative, n).dim == want


# -- the one-pass basis against the greedy oracle ---------------------------


def greedy_basis(cx, degree):
    """The oracle of the one-pass basis, greedy selection: a kernel vector
    is kept when it is outside the span of the image and of the vectors
    kept before it, one solve per kernel vector."""
    n = cx.dim(degree)
    kernel = cx.differential(degree).kernel_basis() if n else []
    image = cx.differential(degree - 1).image_basis() if n else []
    reps = []
    span = Matrix.from_columns(list(image), rows=n)
    for k in kernel:
        if span.solve(k) is None:
            reps.append(k)
            span = Matrix.from_columns(list(image) + reps, rows=n)
    coords = Matrix.from_columns(reps + list(image), rows=n)
    return reps, image, kernel, coords


def torus(k: int) -> SimplicialComplex:
    """The k x k grid torus, each square cut along its diagonal."""
    def at(i, j):
        return (i % k) * k + (j % k)

    tris = []
    for i in range(k):
        for j in range(k):
            tris.append([at(i, j), at(i + 1, j), at(i + 1, j + 1)])
            tris.append([at(i, j), at(i, j + 1), at(i + 1, j + 1)])
    return SimplicialComplex.closure([f"p{i}" for i in range(k * k)], tris)[0]


def torus_pair(k: int) -> CochainPair:
    """The k x k grid torus against the closed vertex (0, 0)."""
    cx = torus(k)
    return CochainPair.from_selection(cx, cx.full_subcomplex([0]))


def assert_basis_matches_greedy(cx):
    for d in range(cx.max_degree() + 2):
        basis = cohomology(cx, d)
        reps, image, kernel, coords = greedy_basis(cx, d)
        assert basis.representatives == tuple(reps)
        assert basis.boundaries == tuple(image)
        for v in kernel:
            assert basis.coordinates(v) == coords.solve(v)[: len(reps)]


def test_one_pass_basis_matches_greedy_on_random_pairs():
    rng = random.Random(4242)
    for _ in range(40):
        _, _, pair = random_pair(rng)
        for cx in (pair.absolute, pair.relative, pair.quotient):
            assert_basis_matches_greedy(cx)


@pytest.mark.parametrize("k", [3, 4])
def test_one_pass_basis_matches_greedy_on_tori(k):
    pair = torus_pair(k)
    assert cohomology(pair.absolute, 1).dim == 2
    for cx in (pair.absolute, pair.relative, pair.quotient):
        assert_basis_matches_greedy(cx)


def test_pair_of_a_large_torus_holds_only_nonzeros():
    # 2400 simplices: the coboundaries have 7200 nonzeros in 2.4 million cells
    cx = torus(20)
    z = cx.full_subcomplex([v for v in range(400) if v % 3 == 0])
    tracemalloc.start()
    try:
        pair = CochainPair.from_selection(cx, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6
    assert pair.absolute.dims == (400, 1200, 800)


def test_groups_and_sequence_degrees_are_built_once():
    _, pair = circle_pair()
    assert cohomology(pair.absolute, 1) is cohomology(pair.absolute, 1)
    seq = les(pair, 1)
    assert les(pair, 1) is seq
    assert seq.basis_abs is cohomology(pair.absolute, 1)
    report = check_exactness(pair)
    assert les(pair, 1) is seq and report.ok
    # a fresh pair over the same complex builds its own
    _, other = circle_pair()
    assert les(other, 1) is not seq and les(other, 1) == les(other, 1)


def test_relative_complex_of_a_pair_matches_relative_cochain_complex():
    rng = random.Random(2718)
    for _ in range(200):
        x, z, pair = random_pair(rng)
        assert pair.relative == relative_cochain_complex(x, complement_subcomplex(x, z))


# -- the record base of the result types ------------------------------------


def test_records_compare_hash_and_print_by_fields():
    a = ExactnessReport((0,), {0: True}, {0: True}, {0: True}, {0: True})
    b = ExactnessReport((0,), {0: True}, {0: True}, {0: True}, {0: True})
    assert a == b and a is not b
    assert a != ExactnessReport((0,), {0: False}, {0: True}, {0: True}, {0: True})
    assert repr(a) == (
        "ExactnessReport(degrees=(0,), composite_zero={0: True}, "
        "exact_at_rel={0: True}, exact_at_abs={0: True}, exact_at_quot={0: True})"
    )
    _, pair = circle_pair()
    basis = cohomology(pair.absolute, 1)
    c1 = CohomologyClass(basis, vec([1]), basis.vector([1]))
    c2 = CohomologyClass(basis, vec([1]), basis.vector([1]))
    assert c1 == c2 and hash(c1) == hash(c2)
    assert {c1, c2} == {c1}
    assert c1 != CohomologyClass(basis, vec([2]), basis.vector([2]))


def test_records_of_different_classes_differ():
    class Pair(Record):
        __slots__ = ("first", "second")

    class Other(Record):
        __slots__ = ("first", "second")

    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Other(1, 2)
    assert Pair(1, 2) != (1, 2)
    with pytest.raises(TypeError):
        Pair(1)


def test_records_refuse_assignment():
    _, pair = circle_pair()
    target = cohomology(pair.absolute, 1).element([1])
    with pytest.raises(AttributeError):
        target.coordinates = vec([2])
    with pytest.raises(AttributeError):
        target.extra = 1
    with pytest.raises(AttributeError):
        del target.basis
    assert target.coordinates == vec([1])
