"""Finite simplicial complexes and their exact cochain models.

A closed locus is always selected by a vertex subset, and the selected
subcomplex is the full (induced) one on those vertices.  The open
complement of such a locus deformation retracts onto the full subcomplex
on the remaining vertices, so that complementary full subcomplex is the
combinatorial stand-in for the open part throughout this package.  No
claim is made for loci that are not full subcomplexes; subdivide first if
you need one.

Sign convention, fixed once and shared by the absolute, relative and
tensor differentials: the coboundary of a cochain evaluated on a sorted
simplex (v_0 < ... < v_{d+1}) is the alternating sum over omitted-vertex
positions, the i-th facet contributing (-1)^i.  Tensor differentials use
the Koszul sign (-1)^p on the second factor in bidegree (p, q).

Coefficients are rational throughout, so cohomology is a matter of exact
ranks and every basis below is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Matrix, Sparse, Vector, vec

__all__ = [
    "UnknownVertex",
    "InvalidComplex",
    "NotSubcomplex",
    "SimplicialComplex",
    "SubcomplexSelection",
    "complement_subcomplex",
    "CochainComplex",
    "cochain_complex",
    "relative_cochain_complex",
    "tensor_complex",
    "tensor_cochain",
    "CochainPair",
]

Simplex = tuple[int, ...]


class UnknownVertex(Exception):
    """A vertex index or label that the complex does not have."""


class InvalidComplex(Exception):
    """Structural validation failed (see .violations for the report)."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class NotSubcomplex(Exception):
    """The alleged subcomplex contains a simplex the parent lacks."""


def _facets(s: Simplex) -> list[Simplex]:
    return [s[:i] + s[i + 1 :] for i in range(len(s))]


class SimplicialComplex:
    """A finite abstract simplicial complex on labelled vertices.

    ``simplices`` maps dimension d to the tuple of d-simplices, each a
    tuple of vertex indices.  The constructor stores what it is given so
    that ``validate`` can report problems; use :meth:`closure` to build a
    complex from generators with automatic downward completion.
    """

    __slots__ = ("vertex_labels", "simplices", "_index")

    def __init__(self, vertex_labels: Sequence[str], simplices: dict[int, Iterable[Simplex]]):
        self.vertex_labels = tuple(str(v) for v in vertex_labels)
        cleaned: dict[int, tuple[Simplex, ...]] = {}
        for d, items in simplices.items():
            batch = tuple(tuple(int(v) for v in s) for s in items)
            if batch:
                cleaned[int(d)] = batch
        self.simplices = cleaned
        self._index = {
            d: {s: k for k, s in enumerate(items)} for d, items in cleaned.items()
        }

    @classmethod
    def closure(
        cls, vertex_labels: Sequence[str], generators: Iterable[Sequence[int]]
    ) -> tuple["SimplicialComplex", list[Simplex]]:
        """Downward-close the generators; also report the added faces.

        Every vertex of the label list is included as a 0-simplex.  Within
        each dimension the simplices come out lexicographically sorted, so
        the resulting cochain bases are canonical.
        """
        n = len(vertex_labels)
        have: set[Simplex] = set()
        for g in generators:
            s = tuple(sorted(set(int(v) for v in g)))
            if not s:
                continue
            if s[0] < 0 or s[-1] >= n:
                raise UnknownVertex(f"vertex index out of range in {s}")
            have.add(s)
        given = set(have)
        for i in range(n):
            have.add((i,))
        stack = list(have)
        while stack:
            s = stack.pop()
            if len(s) > 1:
                for f in _facets(s):
                    if f not in have:
                        have.add(f)
                        stack.append(f)
        added = sorted((s for s in have - given), key=lambda s: (len(s), s))
        by_dim: dict[int, list[Simplex]] = {}
        for s in have:
            by_dim.setdefault(len(s) - 1, []).append(s)
        return cls(vertex_labels, {d: sorted(v) for d, v in by_dim.items()}), added

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def dimension(self) -> int:
        return max(self.simplices, default=-1)

    def simplices_of(self, d: int) -> tuple[Simplex, ...]:
        return self.simplices.get(d, ())

    def has_simplex(self, s: Sequence[int]) -> bool:
        t = tuple(s)
        return t in self._index.get(len(t) - 1, {})

    def simplex_count(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def all_simplices(self) -> list[Simplex]:
        out: list[Simplex] = []
        for d in sorted(self.simplices):
            out.extend(self.simplices[d])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.vertex_labels, self.simplices) == (other.vertex_labels, other.simplices)

    def __hash__(self) -> int:
        return hash((self.vertex_labels, tuple(sorted(self.simplices.items()))))

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.n_vertices} vertices, {self.simplex_count()} simplices)"

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """Structural violations as data; empty list means valid.

        Checks: vertex indices in range, strictly increasing vertex
        tuples, no duplicates within a dimension, dimension keys
        consistent, downward closure.
        """
        out: list[str] = []
        n = self.n_vertices
        for d, items in sorted(self.simplices.items()):
            seen: set[Simplex] = set()
            for s in items:
                if len(s) != d + 1:
                    out.append(f"simplex {s} filed under dimension {d}")
                if any(v < 0 or v >= n for v in s):
                    out.append(f"simplex {s} has a vertex index out of range")
                    continue
                if any(a >= b for a, b in zip(s, s[1:])):
                    out.append(f"simplex {s} is not strictly increasing")
                    continue
                if s in seen:
                    out.append(f"duplicate simplex {s}")
                seen.add(s)
                if len(s) > 1:
                    for f in _facets(s):
                        if not self.has_simplex(f):
                            out.append(f"missing face {f} of {s}")
        return out

    def require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidComplex(violations)

    # -- subcomplex selection -------------------------------------------

    def vertex_index(self, v: int | str) -> int:
        if isinstance(v, str):
            try:
                return self.vertex_labels.index(v)
            except ValueError:
                raise UnknownVertex(f"no vertex labelled {v!r}") from None
        i = int(v)
        if i < 0 or i >= self.n_vertices:
            raise UnknownVertex(f"vertex index {i} out of range")
        return i

    def full_subcomplex(self, vertices: Iterable[int | str]) -> "SubcomplexSelection":
        return SubcomplexSelection(self, vertices)


class SubcomplexSelection:
    """A closed subcomplex selected by a vertex subset.

    Only the subset is stored; the subcomplex is the full one induced on
    those vertices, which makes fullness a guarantee of the representation
    rather than a runtime check.
    """

    __slots__ = ("parent", "vertices")

    def __init__(self, parent: SimplicialComplex, vertices: Iterable[int | str]):
        self.parent = parent
        self.vertices = frozenset(parent.vertex_index(v) for v in vertices)

    def complement_vertices(self) -> frozenset[int]:
        return frozenset(range(self.parent.n_vertices)) - self.vertices

    def subcomplex(self) -> SimplicialComplex:
        """The induced subcomplex as a standalone complex.

        Vertices are relabelled to 0..k-1 preserving parent order; labels
        carry over.
        """
        return _induced(self.parent, sorted(self.vertices))

    def __repr__(self) -> str:
        names = ",".join(self.parent.vertex_labels[i] for i in sorted(self.vertices))
        return f"SubcomplexSelection({{{names}}})"


def _induced(x: SimplicialComplex, verts: Sequence[int]) -> SimplicialComplex:
    old_to_new = {v: i for i, v in enumerate(verts)}
    keep = set(verts)
    by_dim: dict[int, list[Simplex]] = {}
    for d, items in x.simplices.items():
        got = [tuple(old_to_new[v] for v in s) for s in items if set(s) <= keep]
        if got:
            by_dim[d] = sorted(got)
    labels = [x.vertex_labels[v] for v in verts]
    return SimplicialComplex(labels, {d: tuple(v) for d, v in by_dim.items()})


def complement_subcomplex(x: SimplicialComplex, z: SubcomplexSelection) -> SimplicialComplex:
    """Full subcomplex on the vertices away from the selection.

    This is the deformation-retract model of the open complement of the
    selected closed locus.
    """
    if z.parent is not x and z.parent != x:
        raise NotSubcomplex("selection belongs to a different complex")
    return _induced(x, sorted(z.complement_vertices()))


class CochainComplex:
    """A nonnegatively graded cochain complex of finite Q-vector spaces.

    ``dims[d]`` is the rank in degree d and ``differentials[d]`` the
    matrix of d: C^d -> C^{d+1} (rows index degree d+1).  d squared = 0 is
    verified at construction.  ``torsor.cohomology`` keeps the cohomology
    bases it builds in ``_cohomology``, by degree.
    """

    __slots__ = ("dims", "differentials", "_cohomology")

    def __init__(self, dims: Sequence[int], differentials: Sequence[Matrix]):
        self.dims = tuple(int(d) for d in dims)
        self.differentials = tuple(differentials)
        self._cohomology = {}
        problems: list[str] = []
        if any(d < 0 for d in self.dims):
            problems.append("negative dimension")
        expected = max(len(self.dims) - 1, 0)
        if len(self.differentials) != expected:
            problems.append(
                f"expected {expected} differentials, got {len(self.differentials)}"
            )
        else:
            for d, m in enumerate(self.differentials):
                if (m.rows, m.cols) != (self.dims[d + 1], self.dims[d]):
                    problems.append(f"differential {d} has shape {(m.rows, m.cols)}")
            if not problems:
                for d in range(len(self.differentials) - 1):
                    if not (self.differentials[d + 1] * self.differentials[d]).is_zero():
                        problems.append(f"d o d != 0 in degrees {d},{d + 1}")
        if problems:
            raise InvalidComplex(problems)

    def max_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, d: int) -> int:
        if 0 <= d < len(self.dims):
            return self.dims[d]
        return 0

    def differential(self, d: int) -> Matrix:
        """The matrix of d: C^d -> C^{d+1}, zero-padded out of range."""
        if 0 <= d < len(self.differentials):
            return self.differentials[d]
        return Matrix.zeros(self.dim(d + 1), self.dim(d))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.dims))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CochainComplex):
            return NotImplemented
        return self.dims == other.dims and self.differentials == other.differentials

    def __repr__(self) -> str:
        return f"CochainComplex(dims={list(self.dims)})"


def _coboundary(x: SimplicialComplex, d: int) -> Matrix:
    # x is valid, so the facets of a simplex are distinct simplices of x
    idx = x._index.get(d, {})
    rows = [
        {idx[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))}
        for s in x.simplices_of(d + 1)
    ]
    return Matrix._from_nonzeros(len(rows), len(x.simplices_of(d)), rows)


def cochain_complex(x: SimplicialComplex) -> CochainComplex:
    """Simplicial cochain complex of x with rational coefficients."""
    x.require_valid()
    top = x.dimension()
    if top < 0:
        return CochainComplex([0], [])
    dims = [len(x.simplices_of(d)) for d in range(top + 1)]
    diffs = [_coboundary(x, d) for d in range(top)]
    return CochainComplex(dims, diffs)


def relative_cochain_complex(x: SimplicialComplex, c: SimplicialComplex) -> CochainComplex:
    """Cochains of x vanishing on the subcomplex c.

    ``c`` is identified inside x through its vertex labels, so both a
    subcomplex in x's own indexing and a relabelled one produced by
    ``complement_subcomplex`` work.  The basis in degree d is the set of
    d-simplices of x not in c, and the differential is the corresponding
    submatrix of the absolute one (the subspace is closed under it
    because c is downward closed).
    """
    x.require_valid()
    excluded: dict[int, set[Simplex]] = {}
    for d, items in c.simplices.items():
        for s in items:
            try:
                t = tuple(sorted(x.vertex_index(c.vertex_labels[v]) for v in s))
            except (UnknownVertex, IndexError):
                raise NotSubcomplex(
                    f"simplex {s} uses vertices the ambient complex lacks"
                ) from None
            if not x.has_simplex(t):
                raise NotSubcomplex(f"simplex {s} is not in the ambient complex")
            excluded.setdefault(d, set()).add(t)
    top = x.dimension()
    if top < 0:
        return CochainComplex([0], [])
    keep: list[list[int]] = []
    for d in range(top + 1):
        cset = excluded.get(d, set())
        keep.append([k for k, s in enumerate(x.simplices_of(d)) if s not in cset])
    dims = [len(k) for k in keep]
    diffs = [_coboundary(x, d)._submatrix(keep[d + 1], keep[d]) for d in range(top)]
    return CochainComplex(dims, diffs)


# -- tensor complexes ---------------------------------------------------


def _blocks(a: CochainComplex, b: CochainComplex, n: int) -> list[tuple[int, int, int]]:
    """Nonzero (p, q, offset) blocks of the tensor in total degree n."""
    out = []
    off = 0
    for p in range(n + 1):
        q = n - p
        size = a.dim(p) * b.dim(q)
        if size:
            out.append((p, q, off))
            off += size
    return out


def tensor_complex(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Tensor product complex with the Koszul sign on the second factor.

    Degree n basis: for each bidegree block (p, q), p ascending, the pairs
    (i, j) in row-major order (i over the first factor).
    """
    top = a.max_degree() + b.max_degree()
    dims = [sum(a.dim(p) * b.dim(n - p) for p in range(n + 1)) for n in range(top + 1)]
    diffs = []
    for n in range(top):
        src = _blocks(a, b, n)
        dst = {(p, q): off for p, q, off in _blocks(a, b, n + 1)}
        # Each entry is set once: block (p, q) maps into the two distinct
        # blocks (p + 1, q) and (p, q + 1), and distinct pairs of basis
        # vectors land in distinct cells of a block.
        rows: list[Sparse] = [{} for _ in range(dims[n + 1])]
        for p, q, off in src:
            bq = b.dim(q)
            if (p + 1, q) in dst:
                o = dst[(p + 1, q)]
                for i2, arow in enumerate(a.differential(p)._nonzeros):
                    for i, v in arow.items():
                        for j in range(bq):
                            rows[o + i2 * bq + j][off + i * bq + j] = v
            if (p, q + 1) in dst:
                o = dst[(p, q + 1)]
                bq1 = b.dim(q + 1)
                sign = -1 if p % 2 else 1
                for j2, brow in enumerate(b.differential(q)._nonzeros):
                    for j, v in brow.items():
                        for i in range(a.dim(p)):
                            rows[o + i * bq1 + j2][off + i * bq + j] = sign * v
        diffs.append(Matrix._from_nonzeros(dims[n + 1], dims[n], rows))
    return CochainComplex(dims, diffs)


def tensor_cochain(
    a: CochainComplex, b: CochainComplex, p: int, q: int, u: Sequence, w: Sequence
) -> Vector:
    """The element u tensor w placed in bidegree (p, q) of the tensor."""
    if len(u) != a.dim(p) or len(w) != b.dim(q):
        raise ValueError("length mismatch")
    n = p + q
    total = sum(a.dim(r) * b.dim(n - r) for r in range(n + 1))
    out = [Fraction(0)] * total
    uu, ww = vec(u), vec(w)
    for bp, bq, off in _blocks(a, b, n):
        if (bp, bq) == (p, q):
            for i in range(a.dim(p)):
                for j in range(b.dim(q)):
                    out[off + i * b.dim(q) + j] = uu[i] * ww[j]
    return tuple(out)


# -- pairs ----------------------------------------------------------------


class CochainPair:
    """An ambient complex with a differential-closed supported subspace.

    ``supported[d]`` lists the ambient degree-d basis indices spanning the
    supported (relative) cochains; the complementary indices present the
    quotient, which plays the role of the open part.  Both the simplicial
    pair (complex, closed vertex selection) and the tensor product of two
    pairs are instances, so the long-exact-sequence machinery upstream is
    written once against this interface.  ``torsor.les`` keeps the degrees
    of the sequence it computes in ``_les``.
    """

    __slots__ = ("absolute", "supported", "_quot", "relative", "quotient", "_les")

    def __init__(self, absolute: CochainComplex, supported: Sequence[Sequence[int]]):
        self.absolute = absolute
        self._les = {}
        if len(supported) != len(absolute.dims):
            raise ValueError("need one index list per degree")
        self.supported = tuple(tuple(sorted(set(s))) for s in supported)
        for d, idx in enumerate(self.supported):
            if idx and (idx[0] < 0 or idx[-1] >= absolute.dim(d)):
                raise ValueError(f"supported index out of range in degree {d}")
        self._quot = tuple(
            tuple(sorted(set(range(absolute.dim(d))).difference(idx)))
            for d, idx in enumerate(self.supported)
        )
        sup, quot = self.supported, self._quot
        diffs = absolute.differentials
        # The supported subspace must be closed under the differential:
        # blocks mapping supported columns to quotient rows must vanish.
        for d, m in enumerate(diffs):
            if not m._submatrix(quot[d + 1], sup[d]).is_zero():
                raise ValueError(
                    f"differential leaks out of the supported subspace in degree {d}"
                )
        self.relative = CochainComplex(
            [len(s) for s in sup],
            [m._submatrix(sup[d + 1], sup[d]) for d, m in enumerate(diffs)],
        )
        self.quotient = CochainComplex(
            [len(s) for s in quot],
            [m._submatrix(quot[d + 1], quot[d]) for d, m in enumerate(diffs)],
        )

    @classmethod
    def from_selection(cls, x: SimplicialComplex, z: SubcomplexSelection) -> "CochainPair":
        """Pair of x against the complement model of the selection z.

        Supported cochains are those vanishing on the full subcomplex of
        the complementary vertices, i.e. spanned by simplices meeting z.
        """
        absolute = cochain_complex(x)  # validates x
        if z.parent is not x and z.parent != x:
            raise NotSubcomplex("selection belongs to a different complex")
        away = z.complement_vertices()
        top = x.dimension()
        supported = [
            [k for k, s in enumerate(x.simplices_of(d)) if not set(s) <= away]
            for d in range(top + 1)
        ]
        if top < 0:
            supported = [[]]
        return cls(absolute, supported)

    def tensor(self, other: "CochainPair") -> "CochainPair":
        """Tensor of pairs: supported = supported x supported.

        Models the pair of a product against the product of the two
        closed loci, the open part being covered by the two complements.
        """
        absolute = tensor_complex(self.absolute, other.absolute)
        supported: list[list[int]] = []
        for n in range(len(absolute.dims)):
            idx = []
            for p, q, off in _blocks(self.absolute, other.absolute, n):
                sa = set(self.supported[p]) if p < len(self.supported) else set()
                sb = set(other.supported[q]) if q < len(other.supported) else set()
                bq = other.absolute.dim(q)
                for i in range(self.absolute.dim(p)):
                    for j in range(bq):
                        if i in sa and j in sb:
                            idx.append(off + i * bq + j)
            supported.append(idx)
        return CochainPair(absolute, supported)

    # -- coordinate plumbing ---------------------------------------------
    # Degrees beyond the stored range are zero spaces; the index accessors
    # pad with () so the sequence machinery can walk past the top degree.

    def _supported_at(self, d: int) -> tuple[int, ...]:
        return self.supported[d] if 0 <= d < len(self.supported) else ()

    def _quot_at(self, d: int) -> tuple[int, ...]:
        return self._quot[d] if 0 <= d < len(self._quot) else ()

    def _inclusion(self, d: int, idx: Sequence[int]) -> Matrix:
        """The matrix placing coordinate k at the degree-d basis index idx[k]."""
        return Matrix._from_columns(self.absolute.dim(d), [{i: 1} for i in idx])

    def embed_supported(self, d: int, v: Sequence) -> Vector:
        """Supported coordinates -> ambient cochain (zero on the quotient)."""
        return self._inclusion(d, self._supported_at(d)).apply(v)

    def restrict_supported(self, d: int, v: Sequence) -> Vector:
        """Ambient cochain -> its supported coordinates (components kept)."""
        if len(v) != self.absolute.dim(d):
            raise ValueError("length mismatch")
        w = vec(v)
        return tuple(w[i] for i in self._supported_at(d))

    def embed_quotient(self, d: int, v: Sequence) -> Vector:
        """Quotient coordinates -> ambient section (zero on supported)."""
        return self._inclusion(d, self._quot_at(d)).apply(v)

    def restrict_quotient(self, d: int, v: Sequence) -> Vector:
        """Ambient cochain -> quotient coordinates (restriction map)."""
        if len(v) != self.absolute.dim(d):
            raise ValueError("length mismatch")
        w = vec(v)
        return tuple(w[i] for i in self._quot_at(d))

    def is_supported(self, d: int, v: Sequence) -> bool:
        w = vec(v)
        return all(w[i] == 0 for i in self._quot_at(d))

    def max_degree(self) -> int:
        return self.absolute.max_degree()

    def __repr__(self) -> str:
        return (
            f"CochainPair(abs={list(self.absolute.dims)}, "
            f"rel={[len(s) for s in self.supported]})"
        )
