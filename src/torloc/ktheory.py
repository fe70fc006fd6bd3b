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

A univariate sum never multiplies its denominators out.  Each Koszul
factor splits by construction: 1 - t^w = -t^w (1 - t^|w|) for w < 0, and
1 - t^a is the product of Psi_k over the divisors k of a, where
Psi_1 = 1 - t and Psi_k is the k-th cyclotomic polynomial for k > 1.  The
numerators are summed over the least common multiple L = prod Psi_k^M_k
of the denominators, and the total is divided by L once.  A product of
Psi's is carried as the exponents of the binomials 1 - t^a it equals
(Moebius inversion), so multiplying by one is a sparse shift and an
exact division by one is a running sum over each residue class mod a.
When the division by L is not exact the Psi_k are cancelled one at a
time and what is left of L becomes the denominator.  Each univariate sum
is checked exactly against its terms at t = 2.  Every polynomial on the
way is a sparse dict, so the cost follows the terms that occur, not the
exponent span.

Univariate fractions are kept gcd-reduced with the denominator an
ordinary polynomial whose lowest (constant) coefficient is 1, so "is a
character" is simply "denominator equals 1" and every reported fraction
is canonical.  Multivariate fractions are compared by cross-multiplication
and never reduced.
"""

from __future__ import annotations

import math
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
    def _canonical(cls, num: LaurentPoly, den: LaurentPoly) -> "LaurentRational":
        """A univariate pair already in the form `_reduce` returns; the
        reduction, which is dense over the exponent span, is skipped."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

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

    The result does not depend on the ordering of the points.  Univariate
    sums run over the factored LCM of the denominators and come out
    gcd-reduced, so a global class that is a character is visibly one.
    Multivariate sums are added over a running common denominator.
    """
    if not points:
        raise ValueError("empty fixed-point list")
    r = points[0].num_vars
    for p in points:
        if p.num_vars != r:
            raise ValueError("fixed points have inconsistent arity")
    if r == 1:
        return _univariate_sum(points)
    total = LaurentRational.zero(r)
    for p in points:
        total = total + LaurentRational(p.fiber, lambda_minus_one(p))
    return total


# -- univariate sums over a factored LCM ------------------------------------
#
# A sparse polynomial here is a dict from exponent to nonzero int.  A
# product of Psi's is kept in binomial form: a dict from a > 0 to the
# exponent, of either sign, of (1 - t^a) in it.


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _psi(k: int) -> dict[int, int]:
    """Psi_k in binomial form: (1 - t^(k/s))^mu(s) over the squarefree s | k."""
    form = {k: 1}
    n, p = k, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            for a, x in list(form.items()):
                form[a // p] = -x
            while n % p == 0:
                n //= p
        p += 1
    return form


def _binomial_times(p: dict[int, int], a: int) -> dict[int, int]:
    """p * (1 - t^a)."""
    out = dict(p)
    for e, c in p.items():
        x = out.get(e + a, 0) - c
        if x:
            out[e + a] = x
        else:
            del out[e + a]
    return out


def _binomial_divide(p: dict[int, int], a: int) -> dict[int, int] | None:
    """p / (1 - t^a), or None when the division is not exact.

    The quotient q has q_e = p_e + q_(e-a): along each residue class mod a
    it is the running sum of p, which must end at 0.
    """
    classes: dict[int, list[int]] = {}
    for e in p:
        classes.setdefault(e % a, []).append(e)
    out: dict[int, int] = {}
    for es in classes.values():
        es.sort()
        s = 0
        for e, nxt in zip(es, es[1:]):
            s += p[e]
            if s:
                for x in range(e, nxt, a):
                    out[x] = s
        if s + p[es[-1]]:
            return None
    return out


def _times(p: dict[int, int], form: dict[int, int]) -> dict[int, int] | None:
    """p * prod (1 - t^a)^form[a], or None when a division is not exact.

    The multiplications come first, so if the result is a polynomial every
    division on the way is exact.
    """
    for a, x in form.items():
        for _ in range(x):
            p = _binomial_times(p, a)
    for a, x in form.items():
        for _ in range(-x):
            p = _binomial_divide(p, a)
            if p is None:
                return None
    return p


def _psi_product(top: dict[int, int]) -> dict[int, int]:
    """prod Psi_k^top[k] in binomial form."""
    form: dict[int, int] = {}
    for k, m in top.items():
        for a, x in _psi(k).items():
            form[a] = form.get(a, 0) + m * x
    return form


def _cancel(
    total: dict[int, int], top: dict[int, int], lcm_form: dict[int, int]
) -> tuple[dict[int, int], dict[int, int]]:
    """total / L in lowest terms, as (numerator, denominator), where
    L = prod Psi_k^top[k] has the binomial form lcm_form.

    The denominator is the product of the Psi_k that stay, so its constant
    term is 1.
    """
    if not total:
        return {}, {0: 1}
    q = _times(total, {a: -x for a, x in lcm_form.items()})
    if q is not None:
        return q, {0: 1}
    # an open pole: cancel one Psi_k at a time, as often as it divides
    left = dict(top)
    for k in top:
        inverse = {a: -x for a, x in _psi(k).items()}
        while left[k]:
            q = _times(total, inverse)
            if q is None:
                break
            total = q
            left[k] -= 1
    return total, _times({0: 1}, _psi_product(left))


def _at_two(p: dict[int, int]) -> tuple[int, int]:
    """(v, lo) with p(2) = v * 2^lo.  Halving the sorted terms keeps the
    cost near linear in the span, where Horner's rule is quadratic."""
    if not p:
        return 0, 0
    items = sorted(p.items())

    def value(i: int, j: int) -> int:
        if j - i == 1:
            return items[i][1]
        m = (i + j) // 2
        return value(i, m) + (value(m, j) << (items[m][0] - items[i][0]))

    return value(0, len(items)), items[0][0]


def _check_at_two(
    fibers: list[dict[int, int]],
    points: Sequence[KFixedPoint],
    num: dict[int, int],
    den: dict[int, int],
) -> None:
    """Raise RuntimeError unless the sum of fiber(2) / lambda_-1(2) over the
    points equals num(2) / den(2); fibers are the scaled integer fibers.

    Exact integers throughout: the sum is kept as one unreduced fraction,
    so no gcd runs.  den(2) is not 0, since the roots of every Psi_k are
    roots of unity.
    """
    top, bottom = 0, 1
    for f, p in zip(fibers, points):
        v, lo = _at_two(f)
        d = 1
        for (w,) in p.conormals:
            if w > 0:
                d *= 1 - (1 << w)
            else:
                # 1 - 2^w = (2^|w| - 1) / 2^|w|
                d *= (1 << -w) - 1
                lo -= w
        if lo >= 0:
            v <<= lo
        else:
            d <<= -lo
        top, bottom = top * d + v * bottom, bottom * d
    v, lo = _at_two(num)
    u, _ = _at_two(den)
    lhs, rhs = top * u, v * bottom
    if lo >= 0:
        rhs <<= lo
    else:
        lhs <<= -lo
    if lhs != rhs:
        raise RuntimeError("fixed-point sum: the reduced fraction differs from its terms at t = 2")


def _univariate_sum(points: Sequence[KFixedPoint]) -> LaurentRational:
    # one integer scale clears every fiber denominator, so the work is in ints
    scale = 1
    for p in points:
        for c in p.fiber.terms.values():
            scale = math.lcm(scale, c.denominator)
    fibers = [
        {e: c.numerator * (scale // c.denominator) for (e,), c in p.fiber.terms.items()}
        for p in points
    ]
    counts = []  # binomial form of each point's prod (1 - t^|w|)
    top: dict[int, int] = {}  # k -> M_k, the exponent of Psi_k in the LCM
    for p in points:
        count: dict[int, int] = {}
        for (w,) in p.conormals:
            count[abs(w)] = count.get(abs(w), 0) + 1
        mult: dict[int, int] = {}
        for a, x in count.items():
            for k in _divisors(a):
                mult[k] = mult.get(k, 0) + x
        for k, m in mult.items():
            if m > top.get(k, 0):
                top[k] = m
        counts.append(count)
    lcm_form = _psi_product(top)

    total: dict[int, int] = {}
    for f, p, count in zip(fibers, points, counts):
        # lambda_-1 = sign * t^-shift * prod (1 - t^|w|)
        sign, shift = 1, 0
        for (w,) in p.conormals:
            if w < 0:
                sign, shift = -sign, shift - w
        cofactor = dict(lcm_form)
        for a, x in count.items():
            cofactor[a] = cofactor.get(a, 0) - x
        part = _times({e + shift: sign * c for e, c in f.items()}, cofactor)
        if part is None:
            raise RuntimeError("fixed-point sum: a denominator does not divide the LCM")
        for e, c in part.items():
            x = total.get(e, 0) + c
            if x:
                total[e] = x
            else:
                del total[e]
    num, den = _cancel(total, top, lcm_form)
    _check_at_two(fibers, points, num, den)
    return LaurentRational._canonical(
        LaurentPoly(1, {(e,): Fraction(c, scale) for e, c in num.items()}),
        LaurentPoly(1, {(e,): c for e, c in den.items()}),
    )


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
