"""Deterministic exact linear algebra over the rationals.

Conventions are fixed once and relied on everywhere else in the package:
elimination always takes the first nonzero entry as pivot, kernels use the
canonical free-variable basis read off the reduced row echelon form, and
particular solutions set every free variable to zero.  With exact
arithmetic there is no stability reason to deviate, and fixed conventions
make every downstream basis and report reproducible bit for bit.

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


def _eliminate(rows: list[list[Fraction]], pivot_cols: int) -> list[int]:
    # Gauss-Jordan, pivot search restricted to the leading pivot_cols
    # columns (so an augmented column can never become a pivot).
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


class Matrix:
    """Immutable dense matrix with Fraction entries, stored row major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        e = tuple(frac(x) for x in entries)
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.rows = rows
        self.cols = cols
        self._e = e

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

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

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
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.entry(k, j) for k in range(self.cols)),
                               Fraction(0)))
        return Matrix(self.rows, other.cols, out)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product; v has length self.cols."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        w = vec(v)
        return tuple(sum((self.entry(i, k) * w[k] for k in range(self.cols)),
                         Fraction(0)) for i in range(self.rows))

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot column indices.

        Pivoting is deterministic: within each column the first nonzero
        entry at or below the current row wins.
        """
        work = [list(self.row(i)) for i in range(self.rows)]
        pivots = _eliminate(work, self.cols)
        return Matrix(self.rows, self.cols, [x for row in work for x in row]), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[Vector]:
        """Canonical basis of the right kernel.

        One vector per free column f, in ascending f order: entry 1 at f,
        minus the rref entry at each pivot column, zero elsewhere.
        """
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -R.entry(r, f)
            basis.append(tuple(v))
        return basis

    def image_basis(self) -> list[Vector]:
        """Pivot columns of the original matrix, in pivot order."""
        _, pivots = self.rref()
        return [self.column(p) for p in pivots]

    def solve(self, b: Sequence) -> Vector | None:
        """Canonical particular solution of self * x = b, or None.

        Free variables are set to zero, so the answer is unique and
        reproducible even for underdetermined systems.
        """
        if len(b) != self.rows:
            raise ValueError("length mismatch")
        rhs = vec(b)
        work = [list(self.row(i)) + [rhs[i]] for i in range(self.rows)]
        if self.rows == 0:
            return zero_vec(self.cols)
        pivots = _eliminate(work, self.cols)
        for i in range(len(pivots), self.rows):
            if work[i][self.cols]:
                return None
        x = [Fraction(0)] * self.cols
        for r, p in enumerate(pivots):
            x[p] = work[r][self.cols]
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
