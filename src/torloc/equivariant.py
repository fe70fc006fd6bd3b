"""Fixed-component calculus: Euler denominators, localized inverses and
fixed-point integration.

The coefficient ring is a polynomial ring in r variables, all of
cohomological degree 2, thought of as the equivariant parameters of a
rank-r torus.  A fixed component carries a finite-dimensional graded
component algebra, the integer linear forms of its normal weights, and an
integration functional on top degree.  Inverting an Euler class is legal
exactly when its unit-space coefficient is a nonzero scalar times a
product of linear forms; the nilpotent remainder is then handled by the
finite geometric series, truncated at the nilpotency order of the
positive-degree ideal.

Denominators are kept factored as (linear form, multiplicity) lists, so
membership in the multiplicative set they generate is visible by
construction.  Rational functions of the parameters are reduced by
integer content only; equality is decided by cross-multiplication, never
by a multivariate gcd.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, frac
from .poly import ArityMismatch, Exponents, GradedPoly
from .record import Record

__all__ = [
    "ArityMismatch",
    "ZeroWeight",
    "NotInvertible",
    "NotProper",
    "GradedPoly",
    "LinearForm",
    "ComponentAlgebra",
    "EquivariantElement",
    "FixedComponent",
    "euler_class",
    "invert_localized",
    "RoundtripReport",
    "self_intersection_roundtrip",
    "PolyFraction",
    "component_integral",
    "abbv_integrate",
    "orbit_annihilation_witness",
    "ConcentrationReport",
    "concentration_check",
    "projective_space_components",
    "unit_restrictions",
    "euler_restrictions",
    "hyperplane_restrictions",
]


class ZeroWeight(Exception):
    """A normal weight is the zero form, so no Euler denominator exists."""


class NotInvertible(Exception):
    """The unit part is zero or not a scalar times a product of linear forms."""


class NotProper(Exception):
    """The subtorus is the whole torus; nothing vanishes on all of it."""


def _glex_key(e: Exponents) -> tuple:
    # heapq pops the smallest key first: this pops the graded-lex largest
    return -sum(e), tuple(-x for x in e)


def try_exact_division(num: GradedPoly, den: GradedPoly) -> GradedPoly | None:
    """num/den when den divides num exactly, else None.

    Single-divisor division in graded-lex order; needs no gcd and always
    terminates because the leading monomial strictly drops.  The
    remainder is updated in place, its leading term taken from a heap, so
    each quotient term costs one pass over the divisor's terms.
    """
    num._check(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead_e, lead_c = den.leading_term()
    rest = [(e, c) for e, c in den.terms.items() if e != lead_e]
    rem = dict(num.terms)
    heap = [_glex_key(e) for e in rem]
    heapq.heapify(heap)
    q: dict[Exponents, Fraction] = {}
    while heap:
        _, neg = heapq.heappop(heap)
        e = tuple(-x for x in neg)
        c = rem.pop(e)
        if not c:
            continue
        diff = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in diff):
            return None
        coef = c / lead_c
        q[diff] = coef
        for e2, c2 in rest:
            # below e in the order, so never a term already popped
            t = tuple(a + b for a, b in zip(diff, e2))
            if t in rem:
                rem[t] -= coef * c2
            else:
                rem[t] = -coef * c2
                heapq.heappush(heap, _glex_key(t))
    return GradedPoly(num.num_vars, q)


class LinearForm(Record):
    """Integer linear form in the degree-2 parameters."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def poly(self) -> GradedPoly:
        return GradedPoly(
            len(self.coeffs),
            {
                tuple(1 if j == i else 0 for j in range(len(self.coeffs))): c
                for i, c in enumerate(self.coeffs) if c
            },
        )

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != len(self.coeffs):
            raise ArityMismatch("evaluation point has wrong arity")
        return sum((frac(x) * c for x, c in zip(point, self.coeffs)), Fraction(0))

    def __str__(self) -> str:
        return str(self.poly())


class ComponentAlgebra:
    """Finite-dimensional graded-commutative algebra, unit in degree 0.

    Basis element 0 is the unit; all degrees are even and nonnegative, so
    commutativity is ordinary.  Structure constants are verified for
    grading, commutativity and associativity at construction, and the
    nilpotency order of the positive-degree ideal is computed once (it
    truncates geometric series during localized inversion).

    ``products`` gives, for 1 <= i <= j, the coefficient vector of
    basis_i * basis_j; products with the unit are implied.
    """

    __slots__ = ("basis_degrees", "table", "nilpotency_order")

    def __init__(
        self,
        basis_degrees: Sequence[int],
        products: Mapping[tuple[int, int], Sequence] | None = None,
    ):
        degs = tuple(int(d) for d in basis_degrees)
        if not degs:
            raise ValueError("empty basis")
        if degs[0] != 0 or any(d == 0 for d in degs[1:]):
            raise ValueError("need exactly one degree-0 basis element, at index 0")
        if any(d < 0 or d % 2 for d in degs):
            raise ValueError("basis degrees must be even and nonnegative")
        self.basis_degrees = degs
        n = len(degs)
        table: list[list[tuple[Fraction, ...] | None]] = [[None] * n for _ in range(n)]
        for j in range(n):
            unit_row = tuple(Fraction(1) if k == j else Fraction(0) for k in range(n))
            table[0][j] = unit_row
            table[j][0] = unit_row
        for (i, j), v in (products or {}).items():
            if not (1 <= i <= j < n):
                raise ValueError(f"product key {(i, j)} out of range or unnormalized")
            vv = tuple(frac(x) for x in v)
            if len(vv) != n:
                raise ValueError(f"product vector for {(i, j)} has wrong length")
            table[i][j] = vv
            table[j][i] = vv
        for i in range(1, n):
            for j in range(i, n):
                if table[i][j] is None:
                    raise ValueError(f"product of basis {i} and {j} not given")
        self.table = tuple(tuple(row) for row in table)
        for i in range(n):
            for j in range(n):
                row = self.table[i][j]
                want = degs[i] + degs[j]
                for k, c in enumerate(row):
                    if c and degs[k] != want:
                        raise ValueError(
                            f"grading violated: basis {i}*{j} hits degree {degs[k]}"
                        )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self._mult_vec(self.table[i][j], self._unit_vec(k))
                    right = self._mult_vec(self._unit_vec(i), self.table[j][k])
                    if left != right:
                        raise ValueError(f"associativity fails on basis ({i},{j},{k})")
        self.nilpotency_order = self._nilpotency()

    def _unit_vec(self, k: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) if i == k else Fraction(0) for i in range(self.dim))

    def _mult_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        n = self.dim
        out = [Fraction(0)] * n
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] += a * b * c
        return tuple(out)

    def _nilpotency(self) -> int:
        pos = [k for k, d in enumerate(self.basis_degrees) if d > 0]
        if not pos:
            return 1
        current = [self._unit_vec(k) for k in pos]
        order = 1
        while current:
            nxt = []
            for v in current:
                for k in pos:
                    w = self._mult_vec(v, self._unit_vec(k))
                    if any(w):
                        nxt.append(w)
            if nxt:
                span = Matrix.from_columns(nxt, rows=self.dim)
                current = [tuple(col) for col in span.image_basis()]
            else:
                current = []
            order += 1
            if order > self.dim + 1:
                raise ValueError("positive ideal fails to be nilpotent")
        return order

    @property
    def dim(self) -> int:
        return len(self.basis_degrees)

    def top_degree(self) -> int:
        return max(self.basis_degrees)

    def basis_product(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.table[i][j]

    @classmethod
    def point(cls) -> "ComponentAlgebra":
        """The one-dimensional algebra of an isolated fixed point."""
        return cls((0,), {})

    @classmethod
    def truncated(cls, length: int) -> "ComponentAlgebra":
        """Q[h]/(h^length) with h in degree 2; basis 1, h, ..., h^(length-1)."""
        if length < 1:
            raise ValueError("length must be at least 1")
        n = length
        products = {}
        for i in range(1, n):
            for j in range(i, n):
                v = [0] * n
                if i + j < n:
                    v[i + j] = 1
                products[(i, j)] = v
        return cls(tuple(2 * k for k in range(n)), products)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComponentAlgebra):
            return NotImplemented
        return self.basis_degrees == other.basis_degrees and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.basis_degrees)

    def __repr__(self) -> str:
        return f"ComponentAlgebra(degrees={list(self.basis_degrees)})"


def _merge_factors(
    a: tuple[tuple[LinearForm, int], ...], b: tuple[tuple[LinearForm, int], ...]
) -> tuple[tuple[LinearForm, int], ...]:
    acc: dict[tuple[int, ...], int] = {}
    order: list[LinearForm] = []
    for form, m in list(a) + list(b):
        if form.coeffs not in acc:
            order.append(form)
            acc[form.coeffs] = 0
        acc[form.coeffs] += m
    return tuple((f, acc[f.coeffs]) for f in order)


class EquivariantElement:
    """Element of (component algebra) tensor (parameter polynomials),
    over a factored denominator of nonzero linear forms.

    ``coeffs`` maps basis indices to nonzero polynomials.  The denominator
    is a multiset of (form, multiplicity) pairs; the empty tuple means 1.
    Keeping it factored keeps membership in the localizing set evident.

    ``unit_split`` is the factorization of the unit coefficient when it is
    known by construction, as ``_factor_linear_forms`` would return it:
    (scalar, primitive sign-normalized forms, merged and sorted).  Only
    ``euler_class`` records one; every other element carries None, and its
    inversion falls back to factoring.
    """

    __slots__ = ("component", "num_vars", "coeffs", "den_factors", "unit_split")

    def __init__(
        self,
        component: ComponentAlgebra,
        num_vars: int,
        coeffs: Mapping[int, GradedPoly] | None = None,
        den_factors: Iterable[tuple[LinearForm, int]] = (),
    ):
        self.component = component
        self.num_vars = int(num_vars)
        clean: dict[int, GradedPoly] = {}
        for i, p in (coeffs or {}).items():
            if not isinstance(p, GradedPoly):
                p = GradedPoly.constant(self.num_vars, p)
            if p.num_vars != self.num_vars:
                raise ArityMismatch("coefficient polynomial has wrong arity")
            if not (0 <= int(i) < component.dim):
                raise ValueError(f"basis index {i} out of range")
            if not p.is_zero():
                clean[int(i)] = p
        self.coeffs = clean
        dens = []
        for form, m in den_factors:
            if form.num_vars != self.num_vars:
                raise ArityMismatch("denominator form has wrong arity")
            if form.is_zero():
                raise ZeroWeight("zero form in a denominator")
            if int(m) <= 0:
                raise ValueError("denominator multiplicities must be positive")
            dens.append((form, int(m)))
        self.den_factors = _merge_factors(tuple(dens), ())
        self.unit_split: tuple[Fraction, tuple[tuple[LinearForm, int], ...]] | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def unit(cls, component: ComponentAlgebra, num_vars: int) -> "EquivariantElement":
        return cls(component, num_vars, {0: GradedPoly.constant(num_vars, 1)})

    @classmethod
    def from_poly(cls, component: ComponentAlgebra, p: GradedPoly) -> "EquivariantElement":
        return cls(component, p.num_vars, {0: p})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "EquivariantElement") -> None:
        if self.component != other.component:
            raise ValueError("elements live over different component algebras")
        if self.num_vars != other.num_vars:
            raise ArityMismatch("elements have different parameter arity")

    def _scale_num(self, extra: Iterable[tuple[LinearForm, int]]) -> dict[int, GradedPoly]:
        p = _times_forms(GradedPoly.one(self.num_vars), extra)
        return {i: q * p for i, q in self.coeffs.items()}

    def __add__(self, other: "EquivariantElement") -> "EquivariantElement":
        self._check(other)
        common = _merge_factors(self.den_factors, ())
        key = {f.coeffs: m for f, m in common}
        for form, m in other.den_factors:
            key[form.coeffs] = max(key.get(form.coeffs, 0), m)
        merged: list[tuple[LinearForm, int]] = []
        seen = set()
        for form, _ in list(self.den_factors) + list(other.den_factors):
            if form.coeffs not in seen:
                seen.add(form.coeffs)
                merged.append((form, key[form.coeffs]))
        mine = {f.coeffs: m for f, m in self.den_factors}
        theirs = {f.coeffs: m for f, m in other.den_factors}
        extra_self = [(f, m - mine.get(f.coeffs, 0)) for f, m in merged if m > mine.get(f.coeffs, 0)]
        extra_other = [(f, m - theirs.get(f.coeffs, 0)) for f, m in merged if m > theirs.get(f.coeffs, 0)]
        a = self._scale_num(extra_self)
        b = other._scale_num(extra_other)
        out = dict(a)
        for i, p in b.items():
            out[i] = out.get(i, GradedPoly.zero(self.num_vars)) + p
        return EquivariantElement(self.component, self.num_vars, out, tuple(merged))

    def __neg__(self) -> "EquivariantElement":
        return EquivariantElement(
            self.component, self.num_vars,
            {i: -p for i, p in self.coeffs.items()}, self.den_factors,
        )

    def __sub__(self, other: "EquivariantElement") -> "EquivariantElement":
        return self + (-other)

    def __mul__(self, other: "EquivariantElement") -> "EquivariantElement":
        self._check(other)
        out: dict[int, GradedPoly] = {}
        for i, p in self.coeffs.items():
            for j, q in other.coeffs.items():
                pq = p * q
                for k, c in enumerate(self.component.basis_product(i, j)):
                    if c:
                        add = pq.scale(c)
                        out[k] = out.get(k, GradedPoly.zero(self.num_vars)) + add
        return EquivariantElement(
            self.component, self.num_vars, out,
            _merge_factors(self.den_factors, other.den_factors),
        )

    def times_poly(self, p: GradedPoly) -> "EquivariantElement":
        return EquivariantElement(
            self.component, self.num_vars,
            {i: q * p for i, q in self.coeffs.items()}, self.den_factors,
        )

    def scale(self, c) -> "EquivariantElement":
        c = frac(c)
        return EquivariantElement(
            self.component, self.num_vars,
            {i: p.scale(c) for i, p in self.coeffs.items()}, self.den_factors,
        )

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def denominator_poly(self) -> GradedPoly:
        return _times_forms(GradedPoly.one(self.num_vars), self.den_factors)

    def equals(self, other: "EquivariantElement") -> bool:
        """Equality as localized elements, by cross-multiplication."""
        self._check(other)
        dp = self.denominator_poly()
        dq = other.denominator_poly()
        for i in set(self.coeffs) | set(other.coeffs):
            a = self.coeffs.get(i, GradedPoly.zero(self.num_vars))
            b = other.coeffs.get(i, GradedPoly.zero(self.num_vars))
            if a * dq != b * dp:
                return False
        return True

    def cohomological_degrees(self) -> list[int]:
        """Degrees present: algebra degree + 2*monomial degree - 2*den degree."""
        shift = 2 * sum(m for _, m in self.den_factors)
        out = set()
        for i, p in self.coeffs.items():
            d = self.component.basis_degrees[i]
            for e in p.terms:
                out.add(d + 2 * sum(e) - shift)
        return sorted(out)

    def is_homogeneous(self) -> bool:
        return len(self.cohomological_degrees()) <= 1

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            p = self.coeffs[i]
            parts.append(f"({p})*<{i}>" if i else f"({p})")
        body = " + ".join(parts)
        if self.den_factors:
            den = " * ".join(
                f"({f})" + (f"^{m}" if m > 1 else "") for f, m in self.den_factors
            )
            return f"[{body}] / [{den}]"
        return body

    def __repr__(self) -> str:
        return f"EquivariantElement({self})"


def _as_form(w) -> LinearForm:
    return w if isinstance(w, LinearForm) else LinearForm(w)


class FixedComponent:
    """One connected fixed component: algebra, normal weights, integration.

    ``weights`` entries are LinearForm, plain integer vectors, or
    (either, multiplicity) pairs.  ``corrections`` aligns with the weight
    list: None, or a degree-2 purely-nilpotent element correcting that
    normal direction.  ``integration`` is the functional on top-degree
    basis elements; for a point algebra it defaults to reading the unit
    coefficient.

    A component is a value: its Euler class and that class's inverse are
    built on first use and kept on the component (``euler`` and
    ``euler_inverse``), so every consumer of one job shares them.
    """

    __slots__ = (
        "algebra", "weights", "corrections", "integration", "num_vars",
        "_euler", "_euler_inverse",
    )

    def __init__(
        self,
        algebra: ComponentAlgebra,
        weights: Sequence,
        corrections: Sequence | None = None,
        integration: Mapping[int, object] | None = None,
        num_vars: int | None = None,
    ):
        self.algebra = algebra
        normal: list[tuple[LinearForm, int]] = []
        for w in weights:
            if isinstance(w, tuple) and len(w) == 2 and isinstance(w[1], int) \
                    and not isinstance(w[0], int):
                form, mult = _as_form(w[0]), w[1]
            else:
                form, mult = _as_form(w), 1
            if mult <= 0:
                raise ValueError("weight multiplicities must be positive")
            if form.is_zero():
                raise ZeroWeight("a normal weight is the zero form")
            normal.append((form, mult))
        self.weights = tuple(normal)
        if num_vars is None:
            if not normal:
                raise ValueError("need num_vars when there are no weights")
            num_vars = normal[0][0].num_vars
        self.num_vars = int(num_vars)
        for form, _ in normal:
            if form.num_vars != self.num_vars:
                raise ArityMismatch("weights have inconsistent arity")
        if corrections is None:
            corrections = [None] * len(normal)
        if len(corrections) != len(normal):
            raise ValueError("need one correction slot per weight entry")
        for corr in corrections:
            if corr is None:
                continue
            if corr.component != algebra or corr.num_vars != self.num_vars:
                raise ValueError("correction lives over the wrong algebra or arity")
            if corr.den_factors:
                raise ValueError("corrections must be denominator-free")
            if 0 in corr.coeffs:
                raise ValueError("corrections must be nilpotent (no unit part)")
            if corr.cohomological_degrees() not in ([], [2]):
                raise ValueError("corrections must be homogeneous of degree 2")
        self.corrections = tuple(corrections)
        if integration is None:
            if algebra.top_degree() != 0:
                raise ValueError("integration functional required for this algebra")
            integration = {0: 1}
        functional = {int(i): frac(c) for i, c in integration.items()}
        top = algebra.top_degree()
        for i in functional:
            if not (0 <= i < algebra.dim):
                raise ValueError(f"functional index {i} out of range")
            if algebra.basis_degrees[i] != top:
                raise ValueError("integration functional must live in top degree")
        self.integration = functional
        self._euler: EquivariantElement | None = None
        self._euler_inverse: EquivariantElement | None = None

    # getattr defaults: a component assembled without __init__ has no memo

    def euler(self) -> EquivariantElement:
        """``euler_class(self)``, built once."""
        if getattr(self, "_euler", None) is None:
            self._euler = euler_class(self)
        return self._euler

    def euler_inverse(self) -> EquivariantElement:
        """``invert_localized(self.euler())``, computed once; NotInvertible
        is raised again on every call."""
        if getattr(self, "_euler_inverse", None) is None:
            self._euler_inverse = invert_localized(self.euler())
        return self._euler_inverse

    def __repr__(self) -> str:
        return (
            f"FixedComponent(dim={self.algebra.dim}, "
            f"weights={[(str(f), m) for f, m in self.weights]})"
        )


def euler_class(fc: FixedComponent) -> EquivariantElement:
    """Product of (weight + correction) factors with multiplicity.

    Homogeneous of degree twice the weighted normal rank; invertible in
    the localized ring whenever the component is legal, because the unit
    part is exactly the product of the (nonzero) weights.  When every
    weight is nonzero and no correction has a unit part or a denominator
    (all of which a legal component guarantees), the grading keeps the
    corrections out of the unit part, so its split into linear forms is
    recorded as ``unit_split``.
    """
    result = EquivariantElement.unit(fc.algebra, fc.num_vars)
    for (form, mult), corr in zip(fc.weights, fc.corrections):
        factor = EquivariantElement.from_poly(fc.algebra, form.poly())
        if corr is not None:
            factor = factor + corr
        for _ in range(mult):
            result = result * factor
    if not any(form.is_zero() for form, _ in fc.weights) and all(
        corr is None or (0 not in corr.coeffs and not corr.den_factors)
        for corr in fc.corrections
    ):
        result.unit_split = _split_forms((form.coeffs, m) for form, m in fc.weights)
    return result


def _primitive(coeffs: Sequence) -> tuple[Fraction, LinearForm]:
    """(s, f) with coeffs = s * f, where f is the primitive integer form
    whose first nonzero coefficient is positive; coeffs must not all
    vanish."""
    cs = [frac(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return Fraction(g, den), LinearForm([v // g for v in ints])


def _split_forms(
    factors: Iterable[tuple[Sequence, int]],
) -> tuple[Fraction, tuple[tuple[LinearForm, int], ...]]:
    """The product of (coefficients, multiplicity) linear factors as a
    scalar times primitive sign-normalized forms, merged and sorted."""
    scalar = Fraction(1)
    merged: dict[LinearForm, int] = {}
    for coeffs, mult in factors:
        s, form = _primitive(coeffs)
        scalar *= s**mult
        merged[form] = merged.get(form, 0) + mult
    return scalar, tuple(sorted(merged.items(), key=lambda fm: fm[0].coeffs))


def _factor_linear_forms(
    p: GradedPoly,
) -> tuple[Fraction, tuple[tuple[LinearForm, int], ...]] | None:
    """Write p as scalar * product of primitive integer linear forms.

    Returns None when p is zero or has any non-linear (or inhomogeneous)
    irreducible factor.  Exact factorization over Q is delegated to sympy,
    imported lazily; it is the fallback for unit parts whose split is not
    known by construction (see ``EquivariantElement.unit_split``).
    Primitive vectors are sign-normalized (first nonzero coefficient
    positive) with the adjustment absorbed into the scalar.
    """
    if p.is_zero():
        return None
    if p.total_degree() == 0:
        return p.constant_value(), ()
    if not p.is_homogeneous():
        return None
    import sympy

    xs = sympy.symbols(f"w0:{p.num_vars}")
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for x, k in zip(xs, e):
            if k:
                mono *= x**k
        expr += mono
    coeff, factors = sympy.factor_list(expr)
    forms = []
    for base, mult in factors:
        poly = sympy.Poly(base, *xs)
        if poly.total_degree() != 1 or poly.coeff_monomial(1) != 0:
            return None
        cs = [sympy.Rational(poly.coeff_monomial(x)) for x in xs]
        forms.append(([Fraction(int(c.p), int(c.q)) for c in cs], int(mult)))
    scalar, split = _split_forms(forms)
    return Fraction(int(coeff.p), int(coeff.q)) * scalar, split


def invert_localized(e: EquivariantElement) -> EquivariantElement:
    """Inverse of e in the ring localized at nonzero linear forms.

    Requires the unit-space coefficient u to be a nonzero scalar times a
    product of linear forms; the nilpotent remainder n is handled by the
    geometric series truncated at the nilpotency order N:

        (u + n)^(-1) = (sum over m < N of (-1)^m n^m u^(N-1-m)) / u^N.

    The split of u is ``e.unit_split`` when recorded, else factored by
    sympy.  The product e * result is verified to be the unit before
    returning.
    """
    u_poly = e.coeffs.get(0)
    if u_poly is None:
        raise NotInvertible("unit coefficient is zero")
    split = e.unit_split if e.unit_split is not None else _factor_linear_forms(u_poly)
    if split is None:
        raise NotInvertible(
            "unit coefficient is not a scalar times a product of linear forms: "
            f"{u_poly}"
        )
    scalar, factors = split
    if scalar == 0:
        raise NotInvertible("unit coefficient is zero")
    order = e.component.nilpotency_order
    nil = EquivariantElement(
        e.component, e.num_vars, {i: p for i, p in e.coeffs.items() if i != 0}
    )
    acc = EquivariantElement(e.component, e.num_vars, {})
    power = EquivariantElement.unit(e.component, e.num_vars)
    for m in range(order):
        term = power.times_poly(u_poly ** (order - 1 - m))
        if m % 2:
            term = term.scale(-1)
        acc = acc + term
        if m + 1 < order:
            power = power * nil
    acc = acc.scale(Fraction(1) / scalar**order)
    inv = EquivariantElement(
        e.component, e.num_vars, acc.coeffs,
        tuple((f, m * order) for f, m in factors),
    )
    if e.den_factors:
        inv = inv.times_poly(e.denominator_poly())
    check = e * inv
    if not check.equals(EquivariantElement.unit(e.component, e.num_vars)):
        raise RuntimeError("inversion failed to round-trip")
    return inv


class RoundtripReport(Record):
    """Outcome of the self-intersection round trip (b * e) / e == b."""

    __slots__ = ("ok", "lhs", "rhs")
    ok: bool
    lhs: EquivariantElement
    rhs: EquivariantElement


def self_intersection_roundtrip(
    beta: EquivariantElement, e: EquivariantElement
) -> RoundtripReport:
    """Push a class into the ambient by multiplying with the Euler class
    and localize straight back; reports whether the round trip is the
    identity (it is whenever e is invertible)."""
    lhs = (beta * e) * invert_localized(e)
    return RoundtripReport(lhs.equals(beta), lhs, beta)


class PolyFraction:
    """Rational function num/den of the parameters, content-reduced only.

    Canonical form: zero is 0/1; a denominator dividing the numerator
    exactly collapses (single-divisor division, no gcd); otherwise the
    denominator is scaled to integer coprime coefficients with positive
    leading graded-lex coefficient.  Equality is cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: GradedPoly, den: GradedPoly | None = None):
        if den is None:
            den = GradedPoly.constant(num.num_vars, 1)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num = GradedPoly.zero(num.num_vars)
            den = GradedPoly.constant(num.num_vars, 1)
        else:
            q = try_exact_division(num, den)
            if q is not None:
                num, den = q, GradedPoly.constant(num.num_vars, 1)
            c = den.content()
            if den.leading_term()[1] < 0:
                c = -c
            if c != 1:
                num = num.scale(Fraction(1) / c)
                den = den.scale(Fraction(1) / c)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, num_vars: int) -> "PolyFraction":
        return cls(GradedPoly.zero(num_vars))

    @classmethod
    def _canonical(cls, num: GradedPoly, den: GradedPoly) -> "PolyFraction":
        """Wrap a pair the caller knows to be in canonical form."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == GradedPoly.constant(self.num.num_vars, 1)

    def __add__(self, other: "PolyFraction") -> "PolyFraction":
        return PolyFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "PolyFraction") -> "PolyFraction":
        return PolyFraction(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "PolyFraction":
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other: "PolyFraction") -> "PolyFraction":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        raise TypeError("unhashable (no canonical reduced form)")

    def evaluate(self, point: Sequence) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("evaluation point lies on the denominator locus")
        return self.num.evaluate(point) / d

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"PolyFraction({self})"


def _integral_numerator(fc: FixedComponent, el: EquivariantElement) -> GradedPoly:
    if el.component != fc.algebra:
        raise ValueError("element lives over a different component algebra")
    if el.num_vars != fc.num_vars:
        raise ArityMismatch("element has wrong parameter arity")
    num = GradedPoly.zero(fc.num_vars)
    for i, weight in sorted(fc.integration.items()):
        p = el.coeffs.get(i)
        if p is not None and weight:
            num = num + p.scale(weight)
    return num


def component_integral(fc: FixedComponent, el: EquivariantElement) -> PolyFraction:
    """Integrate over the component: apply the top-degree functional to
    the numerator coefficients, over the element's denominator."""
    return PolyFraction(_integral_numerator(fc, el), el.denominator_poly())


def _times_forms(p: GradedPoly, forms: Iterable[tuple[LinearForm, int]]) -> GradedPoly:
    """p times the product of the forms, with multiplicity."""
    for form, m in forms:
        for _ in range(m):
            p = p * form.poly()
    return p


def _excess(a: dict[LinearForm, int], b: dict[LinearForm, int]) -> list[tuple[LinearForm, int]]:
    """The factors of the product a left over after dividing it by b."""
    return [(f, m - b.get(f, 0)) for f, m in a.items() if m > b.get(f, 0)]


def _cancel(num: GradedPoly, den: dict[LinearForm, int]) -> GradedPoly:
    """Divide out of num every factor of den that divides it; den is
    updated in place, so num/den keeps its value in lowest terms."""
    for form in list(den):
        while den[form]:
            q = try_exact_division(num, form.poly())
            if q is None:
                break
            num = q
            den[form] -= 1
        if not den[form]:
            del den[form]
    return num


def abbv_integrate(
    components: Sequence[FixedComponent],
    restrictions: Sequence[EquivariantElement],
) -> PolyFraction:
    """Fixed-point integration: sum over components of the integral of
    restriction / euler, over a common denominator.

    The result is independent of the component order as a rational
    function; a non-invertible Euler class aborts with the offending
    component identified.

    The sum is kept as a numerator over the least common multiple of the
    terms' linear forms, held factored and cancelled by exact division
    by one form at a time.  The printed form is that of the running
    PolyFraction sum: a non-polynomial result is over the product of the
    denominators of the terms whose own fraction did not collapse, since
    the last partial sum that was a polynomial.  That product (``spent``)
    is expanded once, at the end.
    """
    if len(components) != len(restrictions):
        raise ValueError("need one restriction per component")
    if not components:
        raise ValueError("empty component list")
    num_vars = components[0].num_vars
    total = GradedPoly.zero(num_vars)
    lcm: dict[LinearForm, int] = {}
    spent: dict[LinearForm, int] = {}
    for idx, (fc, res) in enumerate(zip(components, restrictions)):
        try:
            inv = fc.euler_inverse()
        except NotInvertible as exc:
            raise NotInvertible(f"component {idx}: {exc}") from None
        el = res * inv
        scalar, factors = _split_forms((f.coeffs, m) for f, m in el.den_factors)
        den = dict(factors)
        num = _cancel(_integral_numerator(fc, el).scale(1 / scalar), den)
        if den:  # the term's own fraction did not collapse
            for form, m in factors:
                spent[form] = spent.get(form, 0) + m
        total = _times_forms(total, _excess(den, lcm)) + _times_forms(num, _excess(lcm, den))
        for form, m in den.items():
            lcm[form] = max(lcm.get(form, 0), m)
        total = _cancel(total, lcm)
        if not lcm:
            spent.clear()
    one = GradedPoly.one(num_vars)
    if not lcm:
        return PolyFraction._canonical(total, one)
    return PolyFraction._canonical(
        _times_forms(total, _excess(spent, lcm)), _times_forms(one, spent.items())
    )


def orbit_annihilation_witness(
    subtorus_basis: Sequence[Sequence[int]], num_vars: int | None = None
) -> LinearForm:
    """A nonzero primitive integer form vanishing on the given subtorus.

    The witness kills the equivariant cohomology of the corresponding
    orbit type after localization.  Raises NotProper when the vectors
    span the whole space rationally (the orbit has full stabilizer-free
    direction, nothing vanishes on it).
    """
    rows = [tuple(int(x) for x in v) for v in subtorus_basis]
    if num_vars is None:
        if not rows:
            raise ValueError("need num_vars for an empty basis")
        num_vars = len(rows[0])
    for v in rows:
        if len(v) != num_vars:
            raise ArityMismatch("basis vectors have inconsistent arity")
    m = Matrix.from_rows(rows) if rows else Matrix.zeros(0, num_vars)
    kernel = m.kernel_basis()
    if not kernel:
        raise NotProper("the vectors span the whole parameter space")
    return _primitive(kernel[0])[1]


class ConcentrationReport(Record):
    """Per-component verdict for localization concentration."""

    __slots__ = ("index", "ok", "problems")
    index: int
    ok: bool
    problems: tuple[str, ...]


def concentration_check(components: Sequence[FixedComponent]) -> tuple[ConcentrationReport, ...]:
    """Verify the hypotheses making the fixed-point sum legitimate.

    Defensive: trusts nothing the constructors normally enforce, so a
    component smuggled past validation is still reported, not crashed on.
    """
    out = []
    for idx, fc in enumerate(components):
        problems: list[str] = []
        for form, _ in fc.weights:
            if form.is_zero():
                problems.append("trivial weight (zero normal form)")
        for corr in fc.corrections:
            if corr is None:
                continue
            if 0 in corr.coeffs:
                problems.append("non-nilpotent remainder (correction has a unit part)")
            if corr.den_factors:
                problems.append("correction carries a denominator")
        if not problems:
            try:
                fc.euler_inverse()
            except NotInvertible as exc:
                problems.append(f"euler class not invertible: {exc}")
        out.append(ConcentrationReport(idx, not problems, tuple(problems)))
    return tuple(out)


# -- stock datasets: projective space with the standard torus ------------


def projective_space_components(n: int) -> list[FixedComponent]:
    """The n+1 coordinate fixed points of n-dimensional projective space
    under the diagonal torus, with tangent weights x_j - x_i at point i."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    r = n + 1
    pt = ComponentAlgebra.point()
    comps = []
    for i in range(r):
        weights = []
        for j in range(r):
            if j != i:
                v = [0] * r
                v[j] = 1
                v[i] = -1
                weights.append(LinearForm(v))
        comps.append(FixedComponent(pt, weights, num_vars=r))
    return comps


def unit_restrictions(n: int) -> list[EquivariantElement]:
    pt = ComponentAlgebra.point()
    return [EquivariantElement.unit(pt, n + 1) for _ in range(n + 1)]


def euler_restrictions(components: Sequence[FixedComponent]) -> list[EquivariantElement]:
    return [fc.euler() for fc in components]


def hyperplane_restrictions(n: int) -> list[EquivariantElement]:
    """Restrictions of the equivariant hyperplane class: -x_(i+1) at the
    i-th coordinate point (the linearization fixed by this convention)."""
    pt = ComponentAlgebra.point()
    out = []
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 1
        out.append(
            EquivariantElement.from_poly(pt, GradedPoly.monomial(n + 1, e, -1))
        )
    return out
