"""Deterministic exact linear algebra over the rationals.

Conventions are fixed once and relied on everywhere else in the package:
elimination always takes the first nonzero entry as pivot, kernels use the
canonical free-variable basis read off the reduced row echelon form, and
particular solutions set every free variable to zero.  With exact
arithmetic there is no stability reason to deviate, and fixed conventions
make every downstream basis and report reproducible bit for bit.

A matrix is stored as its sparse rows and nothing else: each row maps the
column of a nonzero entry to that entry.  Elimination, products and
matrix-vector products run over the nonzeros, so time and memory follow
the nonzeros, not the shape.  The public methods take and return dense
tuples of Fractions, converted at the boundary from the one sparse
implementation.  The conventions above are unchanged by this: the pivot
rule is the same, and the reduced row echelon form is unique anyway.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Fraction",
    "frac",
    "vec",
    "zero_vec",
    "Matrix",
    "AffineSubspace",
]

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


def frac(x: int | str | Fraction) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to a canonical Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction or 'p/q'")
    return Fraction(x)


def vec(values: Iterable) -> Vector:
    return tuple(frac(v) for v in values)


def zero_vec(n: int) -> Vector:
    return (_ZERO,) * n


# Sparse rows and vectors map a position to its nonzero entry.  An
# integral entry is held as an int, so that the +-1 entries of coboundary
# matrices cost int arithmetic, not Fraction arithmetic; entries leave
# the sparse form as Fractions again.  Nothing divides two ints.
Entry = int | Fraction
Sparse = dict[int, Entry]


def _compact(x: Fraction) -> Entry:
    return x.numerator if x.denominator == 1 else x


def _as_fraction(x: Entry) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _sparse(values: Iterable) -> Sparse:
    """The nonzero entries of a dense vector, by position."""
    out: Sparse = {}
    for j, x in enumerate(values):
        x = x if type(x) is int else _compact(frac(x))
        if x:
            out[j] = x
    return out


def _dense(v: Sparse, n: int) -> Vector:
    """The length-n vector of Fractions with the entries of v, zero elsewhere."""
    out = [_ZERO] * n
    for j, x in v.items():
        out[j] = _as_fraction(x)
    return tuple(out)


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")


_NO_LEAD = 1 << 62  # leading column of a row with no nonzero entry


def _lead(row: dict[int, Entry]) -> int:
    return min(row) if row else _NO_LEAD


def _add_scaled(row: dict[int, Entry], f: Entry, other: Iterable[tuple[int, Entry]]) -> None:
    """row += f * other, in place, dropping entries that cancel."""
    for k, v in other:
        x = row.get(k)
        if x is None:
            row[k] = f * v
        else:
            x += f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _eliminate(rows: list[dict[int, Entry]], pivot_cols: int) -> list[int]:
    """Gauss-Jordan on sparse rows ``{column: nonzero entry}``, in place.

    Column by column, the first row at or below the current one with a
    nonzero entry in that column is the pivot row.  The pivot search is
    restricted to the leading pivot_cols columns, so an augmented column
    can never become a pivot.  Returns the pivot columns; the rows are left
    in reduced row echelon form, zero rows last.
    """
    # Rows at or below the current one are zero left of the column being
    # searched, so the next pivot column is the smallest of their leading
    # columns, and the pivot row is the first of them that leads there;
    # the columns in between are free.  Only rows leading at the pivot
    # column need clearing below it.  Rows above are cleared of the later
    # pivot columns in a second pass, bottom up, which yields the same
    # reduced form as clearing them column by column.
    n = len(rows)
    lead = [_lead(row) for row in rows]
    pivots: list[int] = []
    r = 0
    while r < n:
        c = min(lead[r:])
        if c >= pivot_cols:
            break
        hit = lead.index(c, r)
        rows[r], rows[hit] = rows[hit], rows[r]
        lead[r], lead[hit] = lead[hit], lead[r]
        pv = rows[r][c]
        if pv == -1:
            rows[r] = {k: -v for k, v in rows[r].items()}
        elif pv != 1:
            pv = Fraction(pv)
            rows[r] = {k: v / pv for k, v in rows[r].items()}
        rest = [(k, v) for k, v in rows[r].items() if k != c]
        i = r
        for _ in range(lead.count(c) - 1):  # rows above lead further left
            i = lead.index(c, i + 1)
            row = rows[i]
            _add_scaled(row, -row.pop(c), rest)
            lead[i] = _lead(row)
        pivots.append(c)
        r += 1
    row_of = {c: r for r, c in enumerate(pivots)}
    rests: list[list[tuple[int, Entry]]] = [[] for _ in pivots]
    for r in range(len(pivots) - 1, -1, -1):
        row = rows[r]
        c = pivots[r]
        for k in [k for k in row if k != c and k in row_of]:
            _add_scaled(row, -row.pop(k), rests[row_of[k]])
        rests[r] = [(k, v) for k, v in row.items() if k != c]
    return pivots


class Matrix:
    """Immutable matrix of rationals, stored as its sparse rows only.

    ``_nonzeros[i]`` maps the column of each nonzero entry of row i to the
    entry; a zero entry is never stored.  ``entry``, ``row``, ``column``
    and the bases build Fractions on demand.  The reduced row echelon form
    is computed on first use and kept on the instance.
    """

    __slots__ = ("rows", "cols", "_nonzeros", "_rref")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        _check_shape(rows, cols)
        e = list(entries)
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.rows = rows
        self.cols = cols
        self._nonzeros = [_sparse(e[i * cols : (i + 1) * cols]) for i in range(rows)]
        self._rref = None

    @classmethod
    def _from_nonzeros(cls, rows: int, cols: int, nonzeros: list[Sparse]) -> "Matrix":
        """The matrix whose row i has the entries ``nonzeros[i]``, zero
        elsewhere.  The rows are taken over, not copied."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._nonzeros = nonzeros
        m._rref = None
        return m

    @classmethod
    def _from_columns(cls, rows: int, columns: Sequence[Sparse]) -> "Matrix":
        """The matrix whose column j has the entries ``columns[j]``."""
        nonzeros: list[Sparse] = [{} for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                nonzeros[i][j] = x
        return cls._from_nonzeros(rows, len(columns), nonzeros)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(row) != m for row in rows):
            raise ValueError("ragged rows")
        return cls._from_nonzeros(n, m, [_sparse(row) for row in rows])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        if not cols:
            if rows is None:
                raise ValueError("need explicit row count for empty column list")
            return cls.zeros(rows, 0)
        n = len(cols[0])
        if rows is not None and rows != n:
            raise ValueError("explicit row count disagrees with column length")
        if any(len(col) != n for col in cols):
            raise ValueError("ragged columns")
        return cls._from_columns(n, [_sparse(col) for col in cols])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_shape(n, n)
        return cls._from_nonzeros(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        _check_shape(rows, cols)
        return cls._from_nonzeros(rows, cols, [{} for _ in range(rows)])

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return _as_fraction(self._nonzeros[i].get(j, 0))

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError("row index out of range")
        return _dense(self._nonzeros[i], self.cols)

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return tuple(_as_fraction(row.get(j, 0)) for row in self._nonzeros)

    def _submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The matrix of the given rows and columns, in the given order."""
        pos = {j: k for k, j in enumerate(cols)}
        return Matrix._from_nonzeros(len(rows), len(cols), [
            {pos[j]: x for j, x in self._nonzeros[i].items() if j in pos} for i in rows
        ])

    def is_zero(self) -> bool:
        return not any(self._nonzeros)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        # an int and the equal Fraction compare and hash alike
        return (self.rows, self.cols, self._nonzeros) == (other.rows, other.cols, other._nonzeros)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._nonzeros)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        right = other._nonzeros
        out = []
        for row in self._nonzeros:
            acc: Sparse = {}
            for k, a in row.items():
                _add_scaled(acc, a, right[k].items())
            out.append(acc)
        return Matrix._from_nonzeros(self.rows, other.cols, out)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product; v has length self.cols."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        w = vec(v)
        return tuple(sum((a * w[k] for k, a in row.items()), Fraction(0))
                     for row in self._nonzeros)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot column indices.

        Pivoting is deterministic: within each column the first nonzero
        entry at or below the current row wins.  The form is computed once
        per matrix.
        """
        if self._rref is None:
            work = [dict(row) for row in self._nonzeros]
            pivots = _eliminate(work, self.cols)
            self._rref = (Matrix._from_nonzeros(self.rows, self.cols, work), tuple(pivots))
        reduced, pivots = self._rref
        return reduced, list(pivots)

    def _reduced(self) -> tuple["Matrix", tuple[int, ...]]:
        # every elimination goes through rref, which keeps the result
        if self._rref is None:
            self.rref()
        return self._rref

    def rank(self) -> int:
        return len(self._reduced()[1])

    def _kernel(self) -> list[Sparse]:
        """``kernel_basis`` as sparse vectors."""
        reduced, pivots = self._reduced()
        pivot_set = set(pivots)
        basis = {f: {f: 1} for f in range(self.cols) if f not in pivot_set}
        for p, row in zip(pivots, reduced._nonzeros):
            for f, x in row.items():
                if f != p:
                    basis[f][p] = -x
        return list(basis.values())

    def kernel_basis(self) -> list[Vector]:
        """Canonical basis of the right kernel.

        One vector per free column f, in ascending f order: entry 1 at f,
        minus the rref entry at each pivot column, zero elsewhere.
        """
        return [_dense(v, self.cols) for v in self._kernel()]

    def _image(self) -> list[Sparse]:
        """``image_basis`` as sparse vectors, by one pass over the nonzeros."""
        cols: dict[int, Sparse] = {p: {} for p in self._reduced()[1]}
        for i, row in enumerate(self._nonzeros):
            for j, x in row.items():
                if j in cols:
                    cols[j][i] = x
        return list(cols.values())

    def image_basis(self) -> list[Vector]:
        """Pivot columns of the original matrix, in pivot order."""
        return [_dense(v, self.rows) for v in self._image()]

    def _solve(self, rhs: "Matrix") -> "Matrix | None":
        """The canonical particular solution X of self * X = rhs, column
        by column, from one elimination of [self | rhs]; None when any
        column of rhs is outside the image."""
        n = self.cols
        work = [{**row, **{n + j: x for j, x in b.items()}}
                for row, b in zip(self._nonzeros, rhs._nonzeros)]
        pivots = _eliminate(work, n)
        if any(work[len(pivots) :]):
            return None
        out: list[Sparse] = [{} for _ in range(n)]
        for p, row in zip(pivots, work):
            out[p] = {k - n: x for k, x in row.items() if k >= n}
        return Matrix._from_nonzeros(n, rhs.cols, out)

    def solve(self, b: Sequence) -> Vector | None:
        """Canonical particular solution of self * x = b, or None.

        Free variables are set to zero, so the answer is unique and
        reproducible even for underdetermined systems.
        """
        if len(b) != self.rows:
            raise ValueError("length mismatch")
        x = self._solve(Matrix.from_columns([b], rows=self.rows))
        return None if x is None else x.column(0)


class AffineSubspace:
    """base_point + span(directions) inside Q^ambient_dim.

    Directions must be linearly independent; this is verified once at
    construction so membership answers are coordinates in a basis.
    """

    __slots__ = ("ambient_dim", "base_point", "directions", "_dmat")

    def __init__(self, ambient_dim: int, base_point: Sequence, directions: Sequence[Sequence]):
        self.ambient_dim = ambient_dim
        self.base_point = vec(base_point)
        if len(self.base_point) != ambient_dim:
            raise ValueError("base point has wrong length")
        dirs = [vec(d) for d in directions]
        for d in dirs:
            if len(d) != ambient_dim:
                raise ValueError("direction has wrong length")
        self.directions = tuple(dirs)
        self._dmat = Matrix.from_columns(dirs, rows=ambient_dim)
        if self._dmat.rank() != len(dirs):
            raise ValueError("directions are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.directions)

    def membership(self, v: Sequence) -> Vector | None:
        """Coordinates of v w.r.t. the directions, or None if v is outside.

        Coordinates are unique because directions are independent.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        w = vec(v)
        delta = tuple(a - b for a, b in zip(w, self.base_point))
        return self._dmat.solve(delta)

    def contains(self, v: Sequence) -> bool:
        return self.membership(v) is not None

    def point_at(self, coords: Sequence) -> Vector:
        """The point base_point + sum coords[i] * directions[i]."""
        cs = vec(coords)
        if len(cs) != self.dim:
            raise ValueError("length mismatch")
        out = list(self.base_point)
        for c, d in zip(cs, self.directions):
            for i in range(self.ambient_dim):
                out[i] += c * d[i]
        return tuple(out)
