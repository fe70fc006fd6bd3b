"""Frozen elimination conventions plus randomized algebraic laws.

The literal matrices below pin the canonical forms (first-nonzero
pivoting, free-variables-zero solutions, free-variable kernel basis);
any change to the conventions shows up here before it can silently move
every downstream basis.  The dense Gauss-Jordan kept below is the oracle
that the sparse kernel behind ``Matrix`` is checked against.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torloc.linalg import AffineSubspace, Matrix, frac, vec, zero_vec

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# mostly zeros, as in coboundary matrices, plus non-unit rationals
sparse_fracs = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(-1)), fracs)


@st.composite
def matrices(draw, max_rows=12, max_cols=12, entries=fracs):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    values = draw(st.lists(entries, min_size=r * c, max_size=r * c))
    return Matrix(r, c, values)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)
    assert frac("3/2") == Fraction(3, 2)
    assert frac(7) == Fraction(7)


def test_exact_sum_canonicalizes():
    # two routes to the same rational agree bit for bit
    a = frac("1/6") + frac("1/3")
    b = frac("6/4") - frac("1")
    assert a == b == Fraction(1, 2)
    assert str(b) == "1/2"


def test_entry_and_row_refuse_indices_outside_the_shape():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert (m.entry(1, 0), m.row(1), m.column(1)) == (3, vec([3, 4]), vec([2, 4]))
    for i, j in ((0, 2), (-1, 0), (2, 0), (0, -1)):
        with pytest.raises(IndexError):
            m.entry(i, j)
    for i in (-1, 2):
        with pytest.raises(IndexError):
            m.row(i)
    with pytest.raises(IndexError):
        m.column(2)


def test_from_columns_refuses_ragged_columns():
    for cols in ([[1, 2], [3, 4, 5]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="ragged columns"):
            Matrix.from_columns(cols, rows=2)
    assert Matrix.from_columns([[1, 2], [3, 4]]) == Matrix.from_rows([[1, 3], [2, 4]])
    assert Matrix.from_columns([[], []]).cols == 2


def test_zero_matrix_stores_no_cells():
    tracemalloc.start()
    try:
        m = Matrix.zeros(2000, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert m.is_zero() and m.entry(1999, 1999) == 0


def test_rref_identity():
    r, pivots = Matrix.identity(2).rref()
    assert r == Matrix.identity(2)
    assert pivots == [0, 1]


def test_rref_hand_example():
    # hand Gaussian elimination: row2 is half of row1
    r, pivots = Matrix.from_rows([[2, 4], [1, 2]]).rref()
    assert r == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_empty():
    r, pivots = Matrix(0, 0, []).rref()
    assert (r.rows, r.cols) == (0, 0)
    assert pivots == []


def test_kernel_of_injective_map_is_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_of_zero_map_is_standard_basis():
    got = Matrix.zeros(2, 3).kernel_basis()
    assert got == [vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])]


def test_kernel_one_equation():
    # x0 + x1 = 0 with free x1 = 1
    assert Matrix.from_rows([[1, 1]]).kernel_basis() == [vec([-1, 1])]


def test_image_zero():
    assert Matrix.zeros(3, 2).image_basis() == []


def test_image_identity():
    got = Matrix.identity(3).image_basis()
    assert got == [vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])]


def test_image_rank_one():
    # pivot columns come from the original matrix, not its rref
    assert Matrix.from_rows([[1, 2], [2, 4]]).image_basis() == [vec([1, 2])]


def test_solve_identity_returns_rhs():
    assert Matrix.identity(3).solve([5, -1, 2]) == vec([5, -1, 2])


def test_solve_underdetermined_sets_free_vars_to_zero():
    assert Matrix.from_rows([[1, 1]]).solve([2]) == vec([2, 0])


def test_solve_inconsistent_is_none():
    assert Matrix.from_rows([[0]]).solve([1]) is None


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        Matrix.identity(2).solve([1])


@settings(max_examples=60)
@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    for k in m.kernel_basis():
        assert m.apply(k) == zero_vec(m.rows)


@settings(max_examples=60)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@settings(max_examples=60)
@given(matrices())
def test_rref_is_idempotent(m):
    r, pivots = m.rref()
    r2, pivots2 = r.rref()
    assert r2 == r and pivots2 == pivots


@settings(max_examples=60)
@given(matrices())
def test_image_basis_matches_rank(m):
    cols = m.image_basis()
    assert len(cols) == m.rank()
    assert Matrix.from_columns(cols, rows=m.rows).rank() == len(cols)


@settings(max_examples=60)
@given(matrices(max_rows=6, max_cols=6), st.lists(fracs, min_size=6, max_size=6))
def test_solve_solutions_are_exact(m, coeffs):
    # build a guaranteed-consistent rhs, then check m x = b on the answer
    b = m.apply(vec(coeffs[: m.cols]))
    x = m.solve(b)
    assert x is not None
    assert m.apply(x) == b


def test_affine_base_point_has_zero_coordinates():
    s = AffineSubspace(3, [1, 2, 3], [[1, 0, 0], [0, 1, 0]])
    assert s.membership([1, 2, 3]) == zero_vec(2)


def test_affine_first_direction_is_unit_coordinate():
    s = AffineSubspace(3, [1, 2, 3], [[1, 0, 0], [0, 1, 0]])
    assert s.membership([2, 2, 3]) == vec([1, 0])


def test_affine_point_outside_span():
    s = AffineSubspace(3, [0, 0, 0], [[1, 0, 0]])
    assert s.membership([0, 1, 0]) is None
    assert not s.contains([0, 1, 0])


def test_affine_rejects_dependent_directions():
    with pytest.raises(ValueError):
        AffineSubspace(2, [0, 0], [[1, 1], [2, 2]])


def test_affine_singleton_contains_only_base():
    s = AffineSubspace(2, [1, 1], [])
    assert s.dim == 0
    assert s.membership([1, 1]) == ()
    assert s.membership([1, 2]) is None


@settings(max_examples=40)
@given(
    st.lists(fracs, min_size=3, max_size=3),
    st.lists(fracs, min_size=2, max_size=2),
)
def test_affine_membership_roundtrip(base, coeffs):
    s = AffineSubspace(3, base, [[1, 0, 2], [0, 1, -1]])
    p = s.point_at(coeffs)
    assert s.membership(p) == vec(coeffs)


# -- the dense oracle ------------------------------------------------------


def dense_eliminate(rows: list[list[Fraction]], pivot_cols: int) -> list[int]:
    # dense Gauss-Jordan, pivot search restricted to the leading pivot_cols
    # columns (so an augmented column can never become a pivot)
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        hit = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                hit = i
                break
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [e / pv for e in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_rref(m: Matrix) -> tuple[Matrix, list[int]]:
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = dense_eliminate(work, m.cols)
    return Matrix(m.rows, m.cols, [x for row in work for x in row]), pivots


def dense_kernel_basis(m: Matrix) -> list[tuple]:
    r, pivots = dense_rref(m)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in enumerate(pivots):
            v[p] = -r.entry(row, f)
        basis.append(tuple(v))
    return basis


def dense_solve(m: Matrix, b) -> tuple | None:
    if m.rows == 0:
        return zero_vec(m.cols)
    work = [list(m.row(i)) + [frac(b[i])] for i in range(m.rows)]
    pivots = dense_eliminate(work, m.cols)
    if any(work[i][m.cols] for i in range(len(pivots), m.rows)):
        return None
    x = [Fraction(0)] * m.cols
    for row, p in enumerate(pivots):
        x[p] = work[row][m.cols]
    return tuple(x)


@settings(max_examples=200)
@given(matrices(max_rows=9, max_cols=9, entries=sparse_fracs), st.data())
def test_sparse_kernel_matches_dense_oracle(m, data):
    reduced, pivots = dense_rref(m)
    assert m.rref() == (reduced, pivots)
    assert hash(m.rref()[0]) == hash(reduced)
    assert all(type(x) is Fraction for i in range(m.rows) for x in m.rref()[0].row(i))
    assert m.rank() == len(pivots)
    kernel = m.kernel_basis()
    assert kernel == dense_kernel_basis(m)
    assert all(type(x) is Fraction for v in kernel for x in v)
    assert m.image_basis() == [m.column(p) for p in pivots]
    # an arbitrary right-hand side is often inconsistent; an image vector never is
    b = data.draw(st.lists(sparse_fracs, min_size=m.rows, max_size=m.rows))
    x = m.solve(b)
    assert x == dense_solve(m, b)
    assert x is None or all(type(v) is Fraction for v in x)
    c = data.draw(st.lists(sparse_fracs, min_size=m.cols, max_size=m.cols))
    image = m.apply(c)
    assert m.solve(image) == dense_solve(m, image) is not None
    # several right-hand sides in one elimination, column by column
    rhs = [image, b, image]
    want = [dense_solve(m, v) for v in rhs]
    got = m._solve(Matrix.from_columns(rhs, rows=m.rows))
    if None in want:
        assert got is None
    else:
        assert [got.column(j) for j in range(len(rhs))] == want


def test_sparse_kernel_degenerate_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1)):
        m = Matrix.zeros(rows, cols)
        assert m.rref() == dense_rref(m)
        assert m.kernel_basis() == dense_kernel_basis(m)
        assert m.solve([0] * rows) == dense_solve(m, [0] * rows)
    assert Matrix.zeros(2, 0).solve([1, 0]) is None
    assert Matrix.zeros(2, 0).solve([0, 0]) == ()
    assert Matrix.zeros(0, 2).solve([]) == zero_vec(2)


def test_rref_is_computed_once_and_shared():
    m = Matrix.from_rows([[2, 4, 1], [1, 2, 0]])
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append(self)
        return original(self)

    Matrix.rref = counting
    try:
        assert m.rank() == 2
        assert m.kernel_basis() == [vec([-2, 1, 0])]
        assert m.image_basis() == [vec([2, 1]), vec([1, 0])]
        r1, p1 = m.rref()
        p1.append(99)  # the caller's copy; the kept form is unchanged
        assert m.rref()[1] == [0, 2]
    finally:
        Matrix.rref = original
    assert calls == [m, m, m]
