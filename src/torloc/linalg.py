"""Deterministic exact linear algebra over the rationals.

Conventions are fixed once and relied on everywhere else in the package:
elimination always takes the first nonzero entry as pivot, kernels use the
canonical free-variable basis read off the reduced row echelon form, and
particular solutions set every free variable to zero.  With exact
arithmetic there is no stability reason to deviate, and fixed conventions
make every downstream basis and report reproducible bit for bit.

Matrices are stored dense, but elimination runs on sparse rows, which map
a column to its nonzero entry, and products and matrix-vector products run
over the nonzeros only, so their cost follows the nonzeros, not the shape.
The conventions above are unchanged by this: the pivot rule is the same,
and the reduced row echelon form is unique anyway.

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
    return (Fraction(0),) * n


# Sparse rows map a column to its nonzero entry.  An integral entry is
# held as an int, so that the +-1 entries of coboundary matrices cost int
# arithmetic, not Fraction arithmetic; entries leave a sparse row as
# Fractions again.  Nothing divides two ints.
Entry = int | Fraction


def _compact(x: Fraction) -> Entry:
    return x.numerator if x.denominator == 1 else x


def _as_fraction(x: Entry) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


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
    """Immutable dense matrix with Fraction entries, stored row major.

    The nonzeros of each row and the reduced row echelon form are computed
    on first use and kept on the instance.
    """

    __slots__ = ("rows", "cols", "_e", "_nonzeros", "_rref")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        e = tuple(frac(x) for x in entries)
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.rows = rows
        self.cols = cols
        self._e = e
        self._nonzeros = None
        self._rref = None

    @classmethod
    def _from_nonzeros(cls, rows: int, cols: int, nonzeros: list[dict[int, Entry]]) -> "Matrix":
        """The matrix whose row i has the entries ``nonzeros[i]``, zero elsewhere."""
        zero = Fraction(0)
        e: list[Fraction] = []
        for row in nonzeros:
            dense = [zero] * cols
            for j, x in row.items():
                dense[j] = _as_fraction(x)
            e.extend(dense)
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._e = tuple(e)
        m._nonzeros = nonzeros
        m._rref = None
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        flat = []
        for row in rows:
            if len(row) != m:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(n, m, flat)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        if not cols:
            if rows is None:
                raise ValueError("need explicit row count for empty column list")
            return cls(rows, 0, [])
        n = len(cols[0])
        if rows is not None and rows != n:
            raise ValueError("explicit row count disagrees with column length")
        if n == 0:
            # keep the column count; from_rows would collapse to 0 x 0
            return cls(0, len(cols), [])
        return cls.from_rows([[col[i] for col in cols] for i in range(n)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self._e[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def _rows_nonzero(self) -> list[dict[int, Entry]]:
        """The sparse rows: ``{column: entry}`` over the nonzero entries of
        each row.  Shared, so callers must not mutate them."""
        if self._nonzeros is None:
            e, c = self._e, self.cols
            self._nonzeros = [
                {j: _compact(x) for j, x in enumerate(e[i * c : (i + 1) * c]) if x}
                for i in range(self.rows)
            ]
        return self._nonzeros

    def is_zero(self) -> bool:
        return not any(self._e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._e) == (other.rows, other.cols, other._e)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        right = other._rows_nonzero()
        out = []
        for row in self._rows_nonzero():
            acc: dict[int, Entry] = {}
            for k, a in row.items():
                _add_scaled(acc, a, right[k].items())
            out.append(acc)
        return Matrix._from_nonzeros(self.rows, other.cols, out)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product; v has length self.cols."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        w = vec(v)
        return tuple(sum((a * w[k] for k, a in row.items()), Fraction(0))
                     for row in self._rows_nonzero())

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot column indices.

        Pivoting is deterministic: within each column the first nonzero
        entry at or below the current row wins.  The form is computed once
        per matrix.
        """
        if self._rref is None:
            work = [dict(row) for row in self._rows_nonzero()]
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

    def kernel_basis(self) -> list[Vector]:
        """Canonical basis of the right kernel.

        One vector per free column f, in ascending f order: entry 1 at f,
        minus the rref entry at each pivot column, zero elsewhere.
        """
        reduced, pivots = self._reduced()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        zero = Fraction(0)
        basis = {f: [zero] * self.cols for f in free}
        for f in free:
            basis[f][f] = Fraction(1)
        for p, row in zip(pivots, reduced._rows_nonzero()):
            for f, x in row.items():
                if f != p:
                    basis[f][p] = _as_fraction(-x)
        return [tuple(basis[f]) for f in free]

    def image_basis(self) -> list[Vector]:
        """Pivot columns of the original matrix, in pivot order."""
        return [self.column(p) for p in self._reduced()[1]]

    def solve(self, b: Sequence) -> Vector | None:
        """Canonical particular solution of self * x = b, or None.

        Free variables are set to zero, so the answer is unique and
        reproducible even for underdetermined systems.
        """
        if len(b) != self.rows:
            raise ValueError("length mismatch")
        rhs = vec(b)
        if self.rows == 0:
            return zero_vec(self.cols)
        n = self.cols
        work = []
        for row, x in zip(self._rows_nonzero(), rhs):
            row = dict(row)
            if x:
                row[n] = _compact(x)
            work.append(row)
        pivots = _eliminate(work, n)
        if any(work[len(pivots) :]):
            return None
        x = [Fraction(0)] * n
        for p, row in zip(pivots, work):
            if n in row:
                x[p] = _as_fraction(row[n])
        return tuple(x)


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
