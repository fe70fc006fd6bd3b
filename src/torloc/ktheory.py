"""Multiplicative fixed-point sums with lambda_-1 denominators.

The character lattice is written additively: a weight is an integer
exponent vector w and the corresponding character is the Laurent monomial
t^w.  The class of the Koszul resolution of a fixed point with conormal
characters w_1..w_c is the product of (1 - t^(w_i)); those products are
the denominators of the localized sum

    sum over fixed points of  fiber / lambda_-1(conormal),

which for a global situation collapses to a genuine Laurent polynomial
(the character of the alternating sum of cohomologies).  Collapse
detection and evaluation at t = 1 are only offered univariately; reduce a
torus action along a generic one-parameter subgroup first.

Univariate fractions are kept gcd-reduced with the denominator an
ordinary polynomial whose lowest (constant) coefficient is 1, so "is a
character" is simply "denominator equals 1" and every reported fraction
is canonical.  Multivariate fractions are compared by cross-multiplication
and never reduced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Exponents, LaurentPoly
from .record import Record

__all__ = [
    "TrivialCharacter",
    "MultivariateUnsupported",
    "PoleAtOne",
    "LaurentPoly",
    "LaurentRational",
    "KFixedPoint",
    "lambda_minus_one",
    "fixed_point_sum",
    "is_character",
    "evaluate_at_one",
    "projective_space_dataset",
]


class TrivialCharacter(Exception):
    """A conormal character is trivial (zero weight): 1 - 1 = 0 divides
    nothing."""


class MultivariateUnsupported(Exception):
    """Collapse detection and evaluation need a univariate specialization."""


class PoleAtOne(Exception):
    """The fraction did not collapse to a character, so t = 1 is a pole."""


# -- univariate dense helpers (for gcd reduction) -------------------------


def _shifted_dense(p: LaurentPoly) -> tuple[int, list[Fraction]]:
    """p = t^shift * (c_0 + c_1 t + ...) with c_0 nonzero; zero -> (0, [])."""
    if not p.terms:
        return 0, []
    lo = min(e[0] for e in p.terms)
    hi = max(e[0] for e in p.terms)
    cs = [Fraction(0)] * (hi - lo + 1)
    for e, c in p.terms.items():
        cs[e[0] - lo] = c
    return lo, cs


def _from_dense(shift: int, cs: Sequence[Fraction]) -> LaurentPoly:
    return LaurentPoly(1, {(shift + i,): c for i, c in enumerate(cs) if c})


def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _dense_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _trim(list(a))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while a and len(a) >= len(b):
        k = len(a) - len(b)
        f = a[-1] / lead
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a.pop()
        _trim(a)
    return q, a


def _dense_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    x, y = list(a), list(b)
    while y:
        _, r = _dense_divmod(x, y)
        x, y = y, _trim(r)
    lead = x[-1]
    if lead != 1:
        x = [c / lead for c in x]
    return x


class LaurentRational:
    """Fraction of Laurent polynomials.

    Univariate fractions are reduced at construction: the numerator and
    denominator are cleared of their common polynomial gcd and monomial
    shift, and the denominator ends up an ordinary polynomial with
    constant coefficient 1.  Multivariate fractions are stored as given.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.num_vars)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.num_vars == 1:
            num, den = self._reduce(num, den)
        elif num.is_zero():
            den = LaurentPoly.one(num.num_vars)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        if num.is_zero():
            return LaurentPoly.zero(1), LaurentPoly.one(1)
        a_shift, a = _shifted_dense(num)
        b_shift, b = _shifted_dense(den)
        g = _dense_gcd(a, b)
        if len(g) > 1:
            a, _ = _dense_divmod(a, g)
            b, _ = _dense_divmod(b, g)
            _trim(a)
            _trim(b)
        c0 = b[0]
        if c0 != 1:
            a = [x / c0 for x in a]
            b = [x / c0 for x in b]
        return _from_dense(a_shift - b_shift, a), _from_dense(0, b)

    @classmethod
    def zero(cls, num_vars: int) -> "LaurentRational":
        return cls(LaurentPoly.zero(num_vars))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "LaurentRational") -> "LaurentRational":
        return LaurentRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "LaurentRational") -> "LaurentRational":
        return LaurentRational(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "LaurentRational":
        return LaurentRational(-self.num, self.den)

    def __sub__(self, other: "LaurentRational") -> "LaurentRational":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentRational):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        raise TypeError("unhashable")

    def __str__(self) -> str:
        if self.den == LaurentPoly.one(self.num.num_vars):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"LaurentRational({self})"


class KFixedPoint(Record):
    """An isolated fixed point: fiber character and conormal characters."""

    __slots__ = ("fiber", "conormals")
    fiber: LaurentPoly
    conormals: tuple[Exponents, ...]

    def __init__(self, fiber: LaurentPoly, conormals: Sequence[Sequence[int]]):
        cs = tuple(tuple(int(x) for x in w) for w in conormals)
        for w in cs:
            if len(w) != fiber.num_vars:
                raise ValueError("conormal character has wrong arity")
            if all(x == 0 for x in w):
                raise TrivialCharacter(
                    "a conormal character is trivial; its Koszul factor 1 - 1 vanishes"
                )
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "conormals", cs)

    @property
    def num_vars(self) -> int:
        return self.fiber.num_vars


def lambda_minus_one(point: KFixedPoint) -> LaurentPoly:
    """Product of (1 - t^w) over the conormal characters.

    Expands to the alternating sum of exterior powers of the conormal
    bundle; the constant term is always 1, so the product is nonzero.
    """
    r = point.num_vars
    out = LaurentPoly.one(r)
    for w in point.conormals:
        out = out * (LaurentPoly.one(r) - LaurentPoly.monomial(r, w))
    return out


def fixed_point_sum(points: Sequence[KFixedPoint]) -> LaurentRational:
    """Sum of fiber / lambda_-1 over the fixed points.

    Addition over a common denominator; the result does not depend on the
    ordering of the points.  Univariate sums come out gcd-reduced, so a
    global class that is a character is visibly one.
    """
    if not points:
        raise ValueError("empty fixed-point list")
    r = points[0].num_vars
    for p in points:
        if p.num_vars != r:
            raise ValueError("fixed points have inconsistent arity")
    total = LaurentRational.zero(r)
    for p in points:
        total = total + LaurentRational(p.fiber, lambda_minus_one(p))
    return total


def is_character(f: LaurentRational) -> LaurentPoly | None:
    """The Laurent polynomial the fraction collapses to, or None.

    Univariate only: reduction already happened at construction, so this
    is just "denominator equals 1".
    """
    if f.num.num_vars != 1:
        raise MultivariateUnsupported(
            "collapse detection needs a univariate specialization"
        )
    if f.den == LaurentPoly.one(1):
        return f.num
    return None


def evaluate_at_one(f: LaurentRational) -> Fraction:
    """Dimension count: the character evaluated at t = 1.

    Raises PoleAtOne when the fraction is not a character, rather than
    guess at a limit.
    """
    ch = is_character(f)
    if ch is None:
        raise PoleAtOne(f"not a character: {f}")
    return ch.coefficient_sum()


def projective_space_dataset(n: int, d: int) -> list[KFixedPoint]:
    """Coordinate fixed points of projective n-space twisted by degree d,
    specialized along a generic one-parameter subgroup with weights
    0, 1, ..., n.

    At the i-th point the conormal characters are {i - j : j != i} and the
    fiber character is t^(-d*i).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    points = []
    for i in range(n + 1):
        fiber = LaurentPoly.monomial(1, (-d * i,))
        conormals = [(i - j,) for j in range(n + 1) if j != i]
        points.append(KFixedPoint(fiber, conormals))
    return points
