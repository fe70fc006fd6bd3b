"""Complexes, cochain complexes, pairs, and the tensor construction.

The square circle (4 vertices, 4 edges) with the two opposite vertices
selected is the running example: every rank below is forced by the
cohomology of a circle, two points, and the sequence connecting them.
"""

import random
from fractions import Fraction

import pytest

from torloc.linalg import Matrix
from torloc.simplicial import (
    CochainComplex,
    CochainPair,
    InvalidComplex,
    NotSubcomplex,
    SimplicialComplex,
    UnknownVertex,
    cochain_complex,
    complement_subcomplex,
    relative_cochain_complex,
    tensor_complex,
)
from torloc.suite import random_complex, random_pair
from torloc.torsor import cohomology


def circle():
    cx, _ = SimplicialComplex.closure(
        ["a", "b", "c", "d"], [[0, 1], [1, 2], [2, 3], [0, 3]]
    )
    return cx


def solid_triangle():
    cx, _ = SimplicialComplex.closure(["p", "q", "r"], [[0, 1, 2]])
    return cx


# -- construction and validation ------------------------------------------


def test_closure_reports_added_faces():
    cx, added = SimplicialComplex.closure(["a", "b", "c"], [[0, 1, 2]])
    # all three vertices and all three edges were filled in
    assert added == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert cx.validate() == []


def test_closure_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        SimplicialComplex.closure(["a"], [[0, 1]])


def test_single_vertex_is_valid():
    cx, _ = SimplicialComplex.closure(["a"], [[0]])
    assert cx.validate() == []
    assert cx.dimension() == 0


def test_triangle_boundary_is_valid():
    cx, _ = SimplicialComplex.closure(["a", "b", "c"], [[0, 1], [1, 2], [0, 2]])
    assert cx.validate() == []
    assert cx.simplex_count() == 6


def test_missing_face_is_a_violation():
    # edge (0,1) filed without the vertex (1,)
    raw = SimplicialComplex(["a", "b"], {0: [(0,)], 1: [(0, 1)]})
    violations = raw.validate()
    assert any("missing face" in v for v in violations)
    with pytest.raises(InvalidComplex):
        raw.require_valid()


def test_unsorted_and_out_of_range_are_violations():
    raw = SimplicialComplex(["a", "b"], {1: [(1, 0)]})
    assert any("not strictly increasing" in v for v in raw.validate())
    raw = SimplicialComplex(["a"], {0: [(3,)]})
    assert any("out of range" in v for v in raw.validate())


def test_vertex_lookup_by_label_and_index():
    cx = circle()
    assert cx.vertex_index("c") == 2
    assert cx.vertex_index(3) == 3
    with pytest.raises(UnknownVertex):
        cx.vertex_index("nope")
    with pytest.raises(UnknownVertex):
        cx.vertex_index(17)


# -- subcomplex selection ---------------------------------------------------


def test_full_subcomplex_on_opposite_vertices():
    z = circle().full_subcomplex(["a", "c"])
    sub = z.subcomplex()
    # two isolated vertices: no edge of the circle joins a to c
    assert sub.simplices_of(0) == ((0,), (1,))
    assert sub.simplices_of(1) == ()


def test_full_subcomplex_everything_and_nothing():
    cx = circle()
    assert cx.full_subcomplex(range(4)).subcomplex() == cx
    empty = cx.full_subcomplex([]).subcomplex()
    assert empty.simplex_count() == 0


def test_complement_of_opposite_vertices():
    cx = circle()
    c = complement_subcomplex(cx, cx.full_subcomplex([0, 2]))
    assert c.n_vertices == 2
    assert c.simplices_of(1) == ()
    assert c.vertex_labels == ("b", "d")


def test_complement_degenerate_cases():
    cx = circle()
    assert complement_subcomplex(cx, cx.full_subcomplex([])) == cx
    assert complement_subcomplex(cx, cx.full_subcomplex(range(4))).simplex_count() == 0


def test_complement_rejects_foreign_selection():
    other = solid_triangle()
    with pytest.raises(NotSubcomplex):
        complement_subcomplex(circle(), other.full_subcomplex([0]))


# -- cochain complexes ------------------------------------------------------


def test_point_complex():
    cx, _ = SimplicialComplex.closure(["a"], [[0]])
    c = cochain_complex(cx)
    assert c.dims == (1,)
    assert c.differentials == ()


def test_circle_complex_dims_and_rank():
    c = cochain_complex(circle())
    assert c.dims == (4, 4)
    assert c.differential(0).rank() == 3


def test_solid_triangle_cohomology():
    c = cochain_complex(solid_triangle())
    assert c.dims == (3, 3, 1)
    assert [cohomology(c, d).dim for d in range(3)] == [1, 0, 0]


def test_differential_shapes_are_validated():
    with pytest.raises(InvalidComplex):
        CochainComplex([2, 2], [Matrix.zeros(1, 2)])


def test_d_squared_is_validated():
    d0 = Matrix.from_rows([[1], [0]])
    d1 = Matrix.from_rows([[1, 0]])
    # d1 d0 = [1] != 0
    with pytest.raises(InvalidComplex):
        CochainComplex([1, 2, 1], [d0, d1])


def test_relative_complex_of_the_circle_pair():
    cx = circle()
    c = complement_subcomplex(cx, cx.full_subcomplex([0, 2]))
    rel = relative_cochain_complex(cx, c)
    assert rel.dims == (2, 4)
    assert cohomology(rel, 0).dim == 0
    assert cohomology(rel, 1).dim == 2


def test_relative_against_empty_is_absolute():
    cx = circle()
    empty = SimplicialComplex(cx.vertex_labels, {})
    assert relative_cochain_complex(cx, empty) == cochain_complex(cx)


def test_relative_against_itself_is_zero():
    cx = circle()
    rel = relative_cochain_complex(cx, cx)
    assert rel.dims == (0, 0)


def test_relative_rejects_non_subcomplex():
    cx = circle()
    foreign = SimplicialComplex(cx.vertex_labels, {1: [(0, 2)]})
    with pytest.raises(NotSubcomplex):
        relative_cochain_complex(cx, foreign)


# -- tensor products --------------------------------------------------------


def test_tensor_point_point():
    pt = cochain_complex(SimplicialComplex.closure(["a"], [[0]])[0])
    assert tensor_complex(pt, pt).dims == (1,)


def test_tensor_with_point_is_identity():
    c = cochain_complex(circle())
    pt = cochain_complex(SimplicialComplex.closure(["a"], [[0]])[0])
    assert tensor_complex(c, pt) == c


def test_tensor_circle_circle_kunneth():
    c = cochain_complex(circle())
    t = tensor_complex(c, c)
    assert [cohomology(t, d).dim for d in range(3)] == [1, 2, 1]


def kunneth_holds(a, b):
    t = tensor_complex(a, b)
    for n in range(len(t.dims)):
        want = sum(
            cohomology(a, p).dim * cohomology(b, n - p).dim for p in range(n + 1)
        )
        if cohomology(t, n).dim != want:
            return False
    return True


def test_kunneth_on_random_complexes():
    rng = random.Random(1203)
    for _ in range(12):
        a = cochain_complex(random_complex(rng, max_vertices=4, max_simplices=12))
        b = cochain_complex(random_complex(rng, max_vertices=4, max_simplices=12))
        assert kunneth_holds(a, b)


# -- randomized global laws -------------------------------------------------


def test_euler_characteristic_matches_cohomology():
    rng = random.Random(88)
    for _ in range(25):
        c = cochain_complex(random_complex(rng))
        chi_h = sum(
            (-1) ** d * cohomology(c, d).dim for d in range(len(c.dims))
        )
        assert c.euler_characteristic() == chi_h


def test_relative_plus_quotient_dims():
    rng = random.Random(421)
    for _ in range(25):
        _, _, pair = random_pair(rng)
        for d in range(pair.max_degree() + 1):
            assert pair.absolute.dim(d) == pair.relative.dim(d) + pair.quotient.dim(d)


# -- pairs ------------------------------------------------------------------


def same_up_to_padding(a, b):
    top = max(a.max_degree(), b.max_degree()) + 1
    return all(
        a.dim(d) == b.dim(d) and a.differential(d) == b.differential(d)
        for d in range(top + 1)
    )


def test_pair_from_selection_matches_relative_complex():
    cx = circle()
    z = cx.full_subcomplex([0, 2])
    pair = CochainPair.from_selection(cx, z)
    c = complement_subcomplex(cx, z)
    assert pair.relative == relative_cochain_complex(cx, c)
    # the pair pads the quotient out to the ambient degree range
    assert same_up_to_padding(pair.quotient, cochain_complex(c))


def test_pair_rejects_unclosed_subspace():
    leak = "differential leaks out of the supported subspace in degree"
    c = cochain_complex(circle())
    # degree-0 index 0 maps into edges outside the chosen degree-1 set
    with pytest.raises(ValueError, match=leak + " 0"):
        CochainPair(c, [[0], []])
    # the 1-simplex: the coboundary of a vertex is +-1 on the edge
    edge = cochain_complex(SimplicialComplex.closure(["a", "b"], [[0, 1]])[0])
    with pytest.raises(ValueError, match=leak + " 0"):
        CochainPair(edge, [[0], []])
    # its tensor square: vertex x edge maps onto the square, not supported
    with pytest.raises(ValueError, match=leak + " 1"):
        CochainPair(tensor_complex(edge, edge), [[], [0], []])


def test_pair_from_selection_validates_once(monkeypatch):
    calls = []
    validate = SimplicialComplex.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SimplicialComplex, "validate", counting)
    cx = circle()
    CochainPair.from_selection(cx, cx.full_subcomplex([0, 2]))
    assert calls == [cx]
    # an invalid complex is refused before the selection is looked at
    bad = SimplicialComplex(["a", "b"], {1: [(0, 1)]})
    with pytest.raises(InvalidComplex):
        CochainPair.from_selection(bad, cx.full_subcomplex([0]))


def test_pair_embed_restrict_roundtrip():
    cx = circle()
    pair = CochainPair.from_selection(cx, cx.full_subcomplex([0, 2]))
    v = (Fraction(3), Fraction(-1))
    amb = pair.embed_supported(0, v)
    assert pair.is_supported(0, amb)
    assert pair.restrict_supported(0, amb) == v


def test_tensor_pair_relative_is_tensor_of_relatives():
    rng = random.Random(777)
    for _ in range(8):
        _, _, pa = random_pair(rng, max_vertices=4, max_simplices=10)
        _, _, pb = random_pair(rng, max_vertices=4, max_simplices=10)
        prod = pa.tensor(pb)
        assert prod.relative == tensor_complex(pa.relative, pb.relative)
        assert prod.absolute == tensor_complex(pa.absolute, pb.absolute)
