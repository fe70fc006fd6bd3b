"""Long exact sequences and torsors of supported refinements.

Given a pair (ambient complex, supported subspace) this module computes
deterministic cohomology bases, the three maps of the localization long
exact sequence

    ... -> H^d_rel --forget--> H^d_abs --restrict--> H^d_quot
        --connect--> H^{d+1}_rel -> ...

and, for a class whose restriction vanishes, the set of its supported
refinements: the fiber of the forgetful map.  That fiber is an affine
subspace, a torsor under the image of the connecting map.  Only
differences of refinements are canonical; the engine anchors reports on
the particular solution with all free variables zero, and
``torsor_difference`` is the operation whose output is convention-free.

A refinement is unique exactly when the connecting map into that degree
vanishes; ``canonical_lift_if_unique`` returns it in that case and
declines otherwise rather than invent a preferred point.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import AffineSubspace, Matrix, Vector, vec
from .record import Record
from .simplicial import CochainComplex, CochainPair, tensor_cochain

__all__ = [
    "NotSupported",
    "NotInTorsor",
    "CohomologyBasis",
    "CohomologyClass",
    "cohomology",
    "LESData",
    "les",
    "ExactnessReport",
    "check_exactness",
    "LiftTorsor",
    "supported_lifts",
    "torsor_difference",
    "canonical_lift_if_unique",
    "FactorizationReport",
    "factorization_check",
    "external_product",
    "lift_external_product",
]


class NotSupported(Exception):
    """The class restricts nontrivially to the open part, so no supported
    refinement exists."""


class NotInTorsor(Exception):
    """A vector claimed to be a refinement lies outside the fiber."""


class CohomologyBasis:
    """Deterministic basis of H^d of a cochain complex.

    Representatives are the vectors of the canonical kernel basis of the
    degree-d differential that are independent, modulo the image of the
    degree-(d-1) one, of the kernel vectors before them.  One elimination
    of the columns [image | kernel] finds them: a kernel vector is kept
    exactly when its column is a pivot.  Determinism of the underlying
    elimination makes the basis canonical for the complex, so equal
    complexes yield equal bases.  The basis is kept as the sparse matrix
    [representatives | boundaries], and its columns are built dense on
    demand.
    """

    __slots__ = ("complex", "degree", "_reps", "_coord_mat")

    def __init__(self, cx: CochainComplex, degree: int):
        self.complex = cx
        self.degree = degree
        n = cx.dim(degree)
        kernel = cx.differential(degree)._kernel() if n else []
        image = cx.differential(degree - 1)._image() if n else []
        # the image columns are independent, so each of them is a pivot
        _, pivots = Matrix._from_columns(n, image + kernel).rref()
        reps = [kernel[p - len(image)] for p in pivots if p >= len(image)]
        self._reps = Matrix._from_columns(n, reps)
        self._coord_mat = Matrix._from_columns(n, reps + image)

    @property
    def representatives(self) -> tuple[Vector, ...]:
        return tuple(map(self._coord_mat.column, range(self.dim)))

    @property
    def boundaries(self) -> tuple[Vector, ...]:
        return tuple(map(self._coord_mat.column, range(self.dim, self._coord_mat.cols)))

    @property
    def dim(self) -> int:
        return self._reps.cols

    def is_cocycle(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.complex.differential(self.degree).apply(v))

    def _coordinates(self, cocycles: Matrix) -> Matrix:
        """The coordinates of the classes of the columns of ``cocycles``, as
        columns, from one elimination of [representatives | boundaries |
        cocycles]."""
        if not cocycles.cols:
            return Matrix.zeros(self.dim, 0)
        if not (self.complex.differential(self.degree) * cocycles).is_zero():
            raise ValueError("not a cocycle")
        x = self._coord_mat._solve(cocycles)
        if x is None:
            raise RuntimeError("cocycle escaped the kernel decomposition")
        return x._submatrix(range(self.dim), range(x.cols))

    def coordinates(self, v: Sequence) -> Vector:
        """Coordinates of the class of the cocycle v in this basis."""
        n = self.complex.dim(self.degree)
        return self._coordinates(Matrix.from_columns([v], rows=n)).column(0)

    def vector(self, coords: Sequence) -> Vector:
        """The distinguished representative with the given coordinates."""
        return self._reps.apply(coords)

    def element(self, coords: Sequence) -> "CohomologyClass":
        cs = vec(coords)
        return CohomologyClass(self, cs, self.vector(cs))

    def class_of(self, cocycle: Sequence) -> "CohomologyClass":
        cs = self.coordinates(cocycle)
        return CohomologyClass(self, cs, self.vector(cs))

    def __repr__(self) -> str:
        return f"CohomologyBasis(degree={self.degree}, dim={self.dim})"


def cohomology(cx: CochainComplex, degree: int) -> CohomologyBasis:
    """H^degree of the complex with its canonical basis.

    The basis is built once per complex and degree, and kept on the
    complex.
    """
    basis = cx._cohomology.get(degree)
    if basis is None:
        basis = cx._cohomology[degree] = CohomologyBasis(cx, degree)
    return basis


class CohomologyClass(Record):
    """A class pinned to a basis: coordinates plus the distinguished
    representative cocycle."""

    __slots__ = ("basis", "coordinates", "representative")
    basis: CohomologyBasis
    coordinates: Vector
    representative: Vector

    @property
    def degree(self) -> int:
        return self.basis.degree

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


class LESData(Record):
    """One degree of the localization long exact sequence.

    Matrices act on coordinates: ``forget`` maps supported classes of the
    given degree to ambient ones, ``restrict`` maps ambient classes to
    quotient ones, and ``connect`` maps quotient classes one degree down
    into supported classes of the given degree.
    """

    __slots__ = ("pair", "degree", "basis_rel", "basis_abs", "basis_quot",
                 "basis_quot_prev", "forget", "restrict", "connect")
    pair: CochainPair
    degree: int
    basis_rel: CohomologyBasis
    basis_abs: CohomologyBasis
    basis_quot: CohomologyBasis
    basis_quot_prev: CohomologyBasis
    forget: Matrix
    restrict: Matrix
    connect: Matrix


def les(pair: CochainPair, degree: int) -> LESData:
    """The three maps of the long exact sequence around H^degree.

    Each degree is computed once per pair, and kept on the pair.
    """
    seq = pair._les.get(degree)
    if seq is None:
        seq = pair._les[degree] = _les(pair, degree)
    return seq


def _les(pair: CochainPair, d: int) -> LESData:
    rel = cohomology(pair.relative, d)
    ab = cohomology(pair.absolute, d)
    quot = cohomology(pair.quotient, d)
    quot_prev = cohomology(pair.quotient, d - 1)

    sup, qt = pair._supported_at(d), pair._quot_at(d)
    forget = ab._coordinates(pair._inclusion(d, sup) * rel._reps)
    restrict = quot._coordinates(ab._reps._submatrix(qt, range(ab.dim)))

    # extend each quotient cocycle by zero and take its coboundary
    ext = pair._inclusion(d - 1, pair._quot_at(d - 1)) * quot_prev._reps
    w = pair.absolute.differential(d - 1) * ext
    if not w._submatrix(qt, range(w.cols)).is_zero():
        raise RuntimeError("connecting zig-zag left the supported subspace")
    connect = rel._coordinates(w._submatrix(sup, range(w.cols)))

    return LESData(pair, d, rel, ab, quot, quot_prev, forget, restrict, connect)


class ExactnessReport(Record):
    """Per-degree exactness verdicts; ``ok`` is the conjunction."""

    __slots__ = ("degrees", "composite_zero", "exact_at_rel", "exact_at_abs",
                 "exact_at_quot")
    degrees: tuple[int, ...]
    composite_zero: dict[int, bool]
    exact_at_rel: dict[int, bool]
    exact_at_abs: dict[int, bool]
    exact_at_quot: dict[int, bool]

    @property
    def ok(self) -> bool:
        return all(
            all(table[d] for table in (
                self.composite_zero, self.exact_at_rel,
                self.exact_at_abs, self.exact_at_quot,
            ))
            for d in self.degrees
        )


def check_exactness(pair: CochainPair) -> ExactnessReport:
    """Verify exactness of the sequence at every degree by exact ranks.

    At each spot the containment of image in kernel is witnessed by the
    vanishing composite, and equality by the rank identity; both halves
    are recorded so a failure names the degree and the spot.
    """
    top = pair.max_degree() + 1
    data = {d: les(pair, d) for d in range(top + 2)}
    degrees = tuple(range(top + 1))
    composite: dict[int, bool] = {}
    at_rel: dict[int, bool] = {}
    at_abs: dict[int, bool] = {}
    at_quot: dict[int, bool] = {}
    for d in degrees:
        cur = data[d]
        nxt = data[d + 1]
        composite[d] = (
            (cur.restrict * cur.forget).is_zero()
            and (cur.forget * cur.connect).is_zero()
            and (nxt.connect * cur.restrict).is_zero()
        )
        at_rel[d] = cur.connect.rank() == cur.basis_rel.dim - cur.forget.rank()
        at_abs[d] = cur.forget.rank() == cur.basis_abs.dim - cur.restrict.rank()
        at_quot[d] = cur.restrict.rank() == cur.basis_quot.dim - nxt.connect.rank()
    return ExactnessReport(degrees, composite, at_rel, at_abs, at_quot)


class LiftTorsor:
    """All supported refinements of one ambient class.

    The set is ``base_lift + span(delta_image_basis)`` inside the
    supported cohomology of the same degree: an affine subspace, and a
    torsor under the image of the connecting map.  ``base_lift`` is the
    engine's anchor (canonical particular solution), not a mathematically
    preferred point; only differences are canonical.
    """

    __slots__ = ("pair", "degree", "ambient", "base_lift", "delta_image_basis",
                 "sequence", "target")

    def __init__(
        self,
        sequence: LESData,
        target: CohomologyClass,
        base_lift: Vector,
        delta_image_basis: tuple[Vector, ...],
    ):
        self.pair = sequence.pair
        self.degree = sequence.degree
        self.ambient = sequence.basis_rel
        self.base_lift = base_lift
        self.delta_image_basis = delta_image_basis
        self.sequence = sequence
        self.target = target

    def affine(self) -> AffineSubspace:
        return AffineSubspace(self.ambient.dim, self.base_lift, self.delta_image_basis)

    def contains(self, lift: Sequence) -> bool:
        return self.affine().membership(lift) is not None

    @property
    def is_singleton(self) -> bool:
        return not self.delta_image_basis

    def __repr__(self) -> str:
        return (
            f"LiftTorsor(degree={self.degree}, ambient_dim={self.ambient.dim}, "
            f"directions={len(self.delta_image_basis)})"
        )


def supported_lifts(pair: CochainPair, target: CohomologyClass) -> LiftTorsor:
    """The torsor of supported refinements of ``target``.

    Raises NotSupported when the class restricts nontrivially to the
    quotient; by exactness the fiber is then empty, and conversely.
    """
    d = target.degree
    seq = les(pair, d)
    if target.basis.complex != pair.absolute:
        raise ValueError("class does not live on the pair's ambient complex")
    obstruction = seq.restrict.apply(target.coordinates)
    if any(x != 0 for x in obstruction):
        raise NotSupported(
            "restriction to the open part is nonzero: " + _fmt_vec(obstruction)
        )
    base = seq.forget.solve(target.coordinates)
    if base is None:
        raise RuntimeError("exactness broken: restriction vanished but no preimage")
    directions = tuple(seq.connect.image_basis())
    return LiftTorsor(seq, target, base, directions)


def torsor_difference(t: LiftTorsor, lift_a: Sequence, lift_b: Sequence) -> Vector:
    """Coefficients of lift_a - lift_b against the connecting-image basis.

    Both arguments must lie in the torsor; the identity
    ``lift_a = lift_b + sum(coeff_i * direction_i)`` then holds exactly.
    """
    aff = t.affine()
    ca = aff.membership(lift_a)
    if ca is None:
        raise NotInTorsor("first argument is not a supported refinement")
    cb = aff.membership(lift_b)
    if cb is None:
        raise NotInTorsor("second argument is not a supported refinement")
    return tuple(x - y for x, y in zip(ca, cb))


def canonical_lift_if_unique(t: LiftTorsor) -> CohomologyClass | None:
    """The unique refinement when the torsor is a point, else None."""
    if not t.is_singleton:
        return None
    return t.ambient.element(t.base_lift)


class FactorizationReport(Record):
    """Verdict on a candidate refinement of a class.

    ``triangle_ok``: forgetting the candidate returns the class (the
    compatibility a refinement must satisfy).  ``member``: the candidate
    lies in the computed torsor.  For an honest engine the two agree; both
    are computed independently and reported.
    """

    __slots__ = ("candidate", "triangle_ok", "member", "reason")
    candidate: Vector
    triangle_ok: bool
    member: bool
    reason: str

    @property
    def ok(self) -> bool:
        return self.triangle_ok and self.member


def factorization_check(
    pair: CochainPair, candidate: Sequence, target: CohomologyClass
) -> FactorizationReport:
    """Check a claimed refinement against the torsor, with reasons.

    Any candidate whose forgetful image equals the class must land in the
    torsor (the factorization property); a candidate failing the triangle
    is rejected with that reason, never silently.
    """
    cand = vec(candidate)
    d = target.degree
    seq = les(pair, d)
    if len(cand) != seq.basis_rel.dim:
        raise ValueError("candidate has wrong length")
    forgotten = seq.forget.apply(cand)
    triangle_ok = forgotten == tuple(target.coordinates)
    obstruction = seq.restrict.apply(target.coordinates)
    if any(x != 0 for x in obstruction):
        return FactorizationReport(
            cand, triangle_ok, False,
            "target class is not supported (nonzero restriction to the open part)",
        )
    torsor = supported_lifts(pair, target)
    member = torsor.contains(cand)
    if triangle_ok and member:
        reason = "candidate refines the class; difference from the anchor lies in the connecting image"
    elif not triangle_ok:
        reason = (
            "triangle compatibility fails: forgetting the candidate yields "
            + _fmt_vec(forgotten) + " instead of " + _fmt_vec(target.coordinates)
        )
    else:
        reason = "forgetful image matches but candidate is outside the torsor"
    return FactorizationReport(cand, triangle_ok, member, reason)


def external_product(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product class on the tensor complex of the two ambient complexes.

    The representative is the tensor of the two representatives placed in
    bidegree (deg a, deg b); coordinates are taken in the canonical basis
    of the tensor complex in total degree deg a + deg b.
    """
    from .simplicial import tensor_complex

    cx = tensor_complex(a.basis.complex, b.basis.complex)
    v = tensor_cochain(
        a.basis.complex, b.basis.complex, a.degree, b.degree,
        a.representative, b.representative,
    )
    return cohomology(cx, a.degree + b.degree).class_of(v)


def lift_external_product(
    torsor_a: LiftTorsor,
    torsor_b: LiftTorsor,
    lift_a: Sequence,
    lift_b: Sequence,
) -> Vector:
    """Tensor two refinements into a refinement of the product class.

    Returns coordinates in the supported cohomology of the tensor pair.
    The result satisfies the factorization property against the external
    product of the two target classes (checked by the caller or the test
    suite via ``factorization_check``; the construction lands there by
    compatibility of the forgetful maps with tensors).
    """
    if not torsor_a.contains(lift_a):
        raise NotInTorsor("first lift is not in its torsor")
    if not torsor_b.contains(lift_b):
        raise NotInTorsor("second lift is not in its torsor")
    pa, pb = torsor_a.pair, torsor_b.pair
    va = torsor_a.ambient.vector(lift_a)
    vb = torsor_b.ambient.vector(lift_b)
    pair = pa.tensor(pb)
    v = tensor_cochain(
        pa.relative, pb.relative, torsor_a.degree, torsor_b.degree, va, vb
    )
    basis = cohomology(pair.relative, torsor_a.degree + torsor_b.degree)
    return basis.coordinates(v)


def _fmt_vec(v: Sequence) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"
