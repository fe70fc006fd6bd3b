"""JSON ingestion with an exact-number policy, and canonical rendering.

Every number that enters the engine is an integer or a 'p/q' string;
floats are rejected at the parser so inexactness cannot leak in.  Parsing
problems raise ParseError (malformed JSON, with position) or
ValidationError (well-formed JSON that violates the input contract).
The polynomial engines are imported by the parsers that build their
objects, so that a pair job starts without loading them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .simplicial import (
    CochainPair,
    SimplicialComplex,
    SubcomplexSelection,
    UnknownVertex,
)
from .torsor import CohomologyClass, cohomology

if TYPE_CHECKING:
    from .equivariant import ComponentAlgebra, EquivariantElement, FixedComponent
    from .ktheory import KFixedPoint
    from .poly import LaurentPoly

__all__ = [
    "ParseError",
    "ValidationError",
    "load_json",
    "exact_number",
    "parse_complex",
    "parse_pair_input",
    "parse_class_spec",
    "parse_poly",
    "parse_algebra",
    "parse_abbv_input",
    "parse_ktheory_input",
]


class ParseError(Exception):
    """The input is not well-formed JSON."""


class ValidationError(Exception):
    """Well-formed JSON that does not satisfy the input contract."""


def _reject_float(text: str):
    raise ValidationError(
        f"inexact number {text!r}: use integers or 'p/q' strings"
    )


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def parse_json_text(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def exact_number(x, where: str) -> Fraction:
    """ints and 'p/q' strings only; booleans and floats are refused."""
    if isinstance(x, bool):
        raise ValidationError(f"{where}: expected a number, got a boolean")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{where}: {x!r} is not a rational 'p/q'") from None
    raise ValidationError(f"{where}: expected int or 'p/q' string, got {type(x).__name__}")


def _expect_list(x, where: str) -> list:
    if not isinstance(x, list):
        raise ValidationError(f"{where}: expected a list")
    return x


def _expect_object(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise ValidationError(f"{where}: expected an object")
    return x


def _int_list(x, where: str) -> list[int]:
    out = []
    for k, v in enumerate(_expect_list(x, where)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(f"{where}[{k}]: expected an integer")
        out.append(v)
    return out


# Bound on the sum of 2^k - 1 over the distinct generators, k the number
# of vertices of each: the most faces their downward closure can have.
MAX_CLOSURE_FACES = 2**16


def parse_complex(obj) -> tuple[SimplicialComplex, list]:
    """Complex from {'vertices': [...], 'simplices': [[...], ...]}.

    Faces may be omitted; the downward closure is taken and the added
    faces are returned for the report.  Generators whose closures could
    hold more than MAX_CLOSURE_FACES faces in all are refused before any
    face is built.
    """
    obj = _expect_object(obj, "complex")
    vertices = _expect_list(obj.get("vertices"), "complex.vertices")
    for k, v in enumerate(vertices):
        if not isinstance(v, str):
            raise ValidationError(f"complex.vertices[{k}]: expected a string label")
    if len(set(vertices)) != len(vertices):
        raise ValidationError("complex.vertices: duplicate labels")
    gens = _expect_list(obj.get("simplices"), "complex.simplices")
    parsed = [_int_list(g, f"complex.simplices[{k}]") for k, g in enumerate(gens)]
    faces = 0
    for vertex_set in {frozenset(g) for g in parsed}:
        # the cap keeps the shift small; one generator past 2^16 decides it
        faces += (1 << min(len(vertex_set), 17)) - 1
        if faces > MAX_CLOSURE_FACES:
            raise ValidationError(
                "complex.simplices: closing the generators could take more than "
                f"{MAX_CLOSURE_FACES} faces (2^k - 1 for a generator with k "
                f"vertices); the bound is {MAX_CLOSURE_FACES}"
            )
    try:
        cx, added = SimplicialComplex.closure(vertices, parsed)
    except UnknownVertex as exc:
        raise ValidationError(f"complex.simplices: {exc}") from None
    return cx, added


def parse_closed_vertices(cx: SimplicialComplex, obj) -> SubcomplexSelection:
    values = _expect_list(obj, "closed_vertices")
    picked = []
    for k, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ValidationError(f"closed_vertices[{k}]: expected index or label")
        picked.append(v)
    try:
        return cx.full_subcomplex(picked)
    except UnknownVertex as exc:
        raise ValidationError(f"closed_vertices: {exc}") from None


def parse_pair_input(obj) -> tuple[SimplicialComplex, SubcomplexSelection, CochainPair, list]:
    obj = _expect_object(obj, "input")
    cx, added = parse_complex(obj.get("complex"))
    if "closed_vertices" not in obj:
        raise ValidationError("input: missing 'closed_vertices'")
    z = parse_closed_vertices(cx, obj["closed_vertices"])
    return cx, z, CochainPair.from_selection(cx, z), added


def parse_class_spec(obj, pair: CochainPair) -> CohomologyClass:
    """Class from {'degree': d, 'coordinates': [...]} or
    {'degree': d, 'cocycle': [...]}."""
    obj = _expect_object(obj, "class")
    d = obj.get("degree")
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise ValidationError("class.degree: expected a nonnegative integer")
    basis = cohomology(pair.absolute, d)
    if "coordinates" in obj:
        coords = [
            exact_number(v, f"class.coordinates[{k}]")
            for k, v in enumerate(_expect_list(obj["coordinates"], "class.coordinates"))
        ]
        if len(coords) != basis.dim:
            raise ValidationError(
                f"class.coordinates: expected {basis.dim} entries, got {len(coords)}"
            )
        return basis.element(coords)
    if "cocycle" in obj:
        vals = [
            exact_number(v, f"class.cocycle[{k}]")
            for k, v in enumerate(_expect_list(obj["cocycle"], "class.cocycle"))
        ]
        if len(vals) != pair.absolute.dim(d):
            raise ValidationError(
                f"class.cocycle: expected {pair.absolute.dim(d)} entries, got {len(vals)}"
            )
        try:
            return basis.class_of(vals)
        except ValueError:
            raise ValidationError("class.cocycle: not a cocycle") from None
    raise ValidationError("class: need 'coordinates' or 'cocycle'")


def _parse_exponents(key: str, num_vars: int, where: str, allow_negative: bool) -> tuple[int, ...]:
    parts = key.split(",")
    try:
        exps = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ValidationError(f"{where}: bad exponent key {key!r}") from None
    if len(exps) != num_vars:
        raise ValidationError(
            f"{where}: exponent key {key!r} has arity {len(exps)}, expected {num_vars}"
        )
    if not allow_negative and any(e < 0 for e in exps):
        raise ValidationError(f"{where}: negative exponent in {key!r}")
    return exps


def parse_poly(cls: type[LaurentPoly], obj, num_vars: int, where: str) -> LaurentPoly:
    """Polynomial of class ``cls`` from {'<e1,e2,...>': coeff, ...}."""
    obj = _expect_object(obj, where)
    terms = {}
    for key, val in obj.items():
        e = _parse_exponents(key, num_vars, where, cls.negative_exponents)
        terms[e] = exact_number(val, f"{where}[{key!r}]")
    return cls(num_vars, terms)


def parse_algebra(obj, where: str = "algebra") -> ComponentAlgebra:
    """'point' or {'basis_degrees': [...], 'products': {'i,j': [...]},
    'integration' handled by the component parser}."""
    from .equivariant import ComponentAlgebra

    if obj == "point":
        return ComponentAlgebra.point()
    obj = _expect_object(obj, where)
    degrees = _int_list(obj.get("basis_degrees"), f"{where}.basis_degrees")
    products = {}
    for key, val in _expect_object(obj.get("products", {}), f"{where}.products").items():
        parts = key.split(",")
        try:
            i, j = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValidationError(f"{where}.products: bad key {key!r}") from None
        vals = [
            exact_number(v, f"{where}.products[{key!r}][{k}]")
            for k, v in enumerate(_expect_list(val, f"{where}.products[{key!r}]"))
        ]
        products[(i, j)] = vals
    try:
        return ComponentAlgebra(degrees, products)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_restriction(obj, algebra: ComponentAlgebra, fc: FixedComponent, where: str) -> EquivariantElement:
    from .equivariant import EquivariantElement, GradedPoly

    r = fc.num_vars
    if obj == "unit":
        return EquivariantElement.unit(algebra, r)
    if obj == "euler":
        return fc.euler()
    obj = _expect_object(obj, where)
    if "poly" in obj:
        return EquivariantElement.from_poly(algebra, parse_poly(GradedPoly, obj["poly"], r, f"{where}.poly"))
    if "coefficients" in obj:
        coeffs = {}
        for key, val in _expect_object(obj["coefficients"], f"{where}.coefficients").items():
            try:
                idx = int(key)
            except ValueError:
                raise ValidationError(f"{where}.coefficients: bad index {key!r}") from None
            coeffs[idx] = parse_poly(GradedPoly, val, r, f"{where}.coefficients[{key!r}]")
        try:
            return EquivariantElement(algebra, r, coeffs)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    raise ValidationError(f"{where}: need 'unit', 'euler', 'poly' or 'coefficients'")


def parse_abbv_input(obj) -> tuple[list[FixedComponent], list[EquivariantElement]]:
    from .equivariant import EquivariantElement, FixedComponent, GradedPoly, LinearForm

    obj = _expect_object(obj, "input")
    nv = obj.get("num_vars")
    if isinstance(nv, bool) or not isinstance(nv, int) or nv < 1:
        raise ValidationError("input.num_vars: expected a positive integer")
    comps_json = _expect_list(obj.get("components"), "input.components")
    if not comps_json:
        raise ValidationError("input.components: empty")
    components: list[FixedComponent] = []
    restrictions: list[EquivariantElement] = []
    for k, cj in enumerate(comps_json):
        where = f"components[{k}]"
        cj = _expect_object(cj, where)
        algebra = parse_algebra(cj.get("algebra", "point"), f"{where}.algebra")
        weights = []
        for wk, wj in enumerate(_expect_list(cj.get("weights"), f"{where}.weights")):
            wwhere = f"{where}.weights[{wk}]"
            entry = _expect_list(wj, wwhere)
            if entry and isinstance(entry[0], list):
                if len(entry) != 2 or isinstance(entry[1], bool) or not isinstance(entry[1], int):
                    raise ValidationError(f"{wwhere}: expected [vector, multiplicity]")
                weights.append((LinearForm(_int_list(entry[0], wwhere)), entry[1]))
            else:
                weights.append(LinearForm(_int_list(entry, wwhere)))
        corrections = None
        if cj.get("corrections") is not None:
            corrections = []
            for ck, corr in enumerate(_expect_list(cj["corrections"], f"{where}.corrections")):
                if corr is None:
                    corrections.append(None)
                    continue
                cwhere = f"{where}.corrections[{ck}]"
                coeffs = {}
                for key, val in _expect_object(corr, cwhere).items():
                    try:
                        idx = int(key)
                    except ValueError:
                        raise ValidationError(f"{cwhere}: bad index {key!r}") from None
                    coeffs[idx] = GradedPoly.constant(nv, exact_number(val, f"{cwhere}[{key!r}]"))
                try:
                    corrections.append(EquivariantElement(algebra, nv, coeffs))
                except ValueError as exc:
                    raise ValidationError(f"{cwhere}: {exc}") from None
        integration = None
        if cj.get("integration") is not None:
            integration = {}
            for key, val in _expect_object(cj["integration"], f"{where}.integration").items():
                try:
                    idx = int(key)
                except ValueError:
                    raise ValidationError(f"{where}.integration: bad index {key!r}") from None
                integration[idx] = exact_number(val, f"{where}.integration[{key!r}]")
        try:
            fc = FixedComponent(algebra, weights, corrections, integration, num_vars=nv)
        except Exception as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if "restriction" not in cj:
            raise ValidationError(f"{where}: missing 'restriction'")
        restrictions.append(_parse_restriction(cj["restriction"], algebra, fc, f"{where}.restriction"))
        components.append(fc)
    return components, restrictions


# Bound on the exponent span of a K-theory sum: the span of the fiber
# exponents over all points plus sum |w| over all conormals, counted in each
# variable and added up.  The polynomials a sum builds, and so its time and
# memory, grow with this span.
MAX_KTHEORY_SPAN = 2**20


def parse_ktheory_input(obj) -> list[KFixedPoint]:
    """Fixed points from {'num_vars': r, 'points': [...]}.

    Sums whose exponent span could pass MAX_KTHEORY_SPAN are refused
    before any work on them starts.
    """
    from .ktheory import KFixedPoint, LaurentPoly

    obj = _expect_object(obj, "input")
    nv = obj.get("num_vars")
    if isinstance(nv, bool) or not isinstance(nv, int) or nv < 1:
        raise ValidationError("input.num_vars: expected a positive integer")
    pts_json = _expect_list(obj.get("points"), "input.points")
    if not pts_json:
        raise ValidationError("input.points: empty")
    points = []
    for k, pj in enumerate(pts_json):
        where = f"points[{k}]"
        pj = _expect_object(pj, where)
        fiber = parse_poly(LaurentPoly, pj.get("fiber"), nv, f"{where}.fiber")
        conormals = [
            _int_list(w, f"{where}.conormal[{i}]")
            for i, w in enumerate(_expect_list(pj.get("conormal"), f"{where}.conormal"))
        ]
        try:
            points.append(KFixedPoint(fiber, conormals))
        except Exception as exc:
            raise ValidationError(f"{where}: {exc}") from None
    span = sum(abs(x) for p in points for w in p.conormals for x in w)
    for i in range(nv):
        exps = [e[i] for p in points for e in p.fiber.terms]
        if exps:
            span += max(exps) - min(exps)
    if span > MAX_KTHEORY_SPAN:
        raise ValidationError(
            f"input: the exponent span of the sum (fiber exponents plus the "
            f"conormal weights) is {span}; the bound is {MAX_KTHEORY_SPAN}"
        )
    return points
