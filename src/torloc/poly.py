"""Sparse polynomials with exact coefficients, shared by both engines.

A polynomial maps exponent vectors to nonzero Fractions; the zero
polynomial has no terms.  ``LaurentPoly`` admits exponents of any sign
(the characters of the K-theoretic sums); ``GradedPoly`` is the ring of
ordinary polynomials in the degree-2 equivariant parameters and differs
only in refusing negative exponents and in its variable names.  Ring
operations return the type of the left operand, and polynomials of the
two types never compare equal.  Printing uses graded-lex order, highest
first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import frac

__all__ = ["ArityMismatch", "LaurentPoly", "GradedPoly"]


class ArityMismatch(ValueError):
    """Operands live over different numbers of variables."""


Exponents = tuple[int, ...]


class LaurentPoly:
    """Laurent polynomial in r variables with exact coefficients."""

    __slots__ = ("num_vars", "terms")

    # the exponent-sign rule; the JSON parser reads it too
    negative_exponents = True

    def __init__(self, num_vars: int, terms: Mapping[Exponents, object] | None = None):
        self.num_vars = int(num_vars)
        signed = self.negative_exponents
        clean: dict[Exponents, Fraction] = {}
        for e, c in (terms or {}).items():
            ee = tuple(int(x) for x in e)
            if len(ee) != self.num_vars:
                raise ArityMismatch(f"exponent {ee} has arity {len(ee)}, not {self.num_vars}")
            if not signed and any(x < 0 for x in ee):
                raise ValueError("negative exponent in a polynomial")
            cc = frac(c)
            if cc:
                clean[ee] = clean.get(ee, Fraction(0)) + cc
                if not clean[ee]:
                    del clean[ee]
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "LaurentPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "LaurentPoly":
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def one(cls, num_vars: int) -> "LaurentPoly":
        return cls.constant(num_vars, 1)

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "LaurentPoly":
        e = [0] * num_vars
        e[i] = 1
        return cls(num_vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, num_vars: int, exps: Sequence[int], c=1) -> "LaurentPoly":
        return cls(num_vars, {tuple(exps): c})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.num_vars != other.num_vars:
            raise ArityMismatch(f"{self.num_vars} variables vs {other.num_vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return type(self)(self.num_vars, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return type(self)(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return type(self)(self.num_vars, out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one(self.num_vars)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "LaurentPoly":
        c = frac(c)
        return type(self)(self.num_vars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Top monomial degree (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.num_vars, Fraction(0))

    def coefficient_sum(self) -> Fraction:
        """Value at t = 1 (every variable set to 1)."""
        return sum(self.terms.values(), Fraction(0))

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """Highest term in graded-lex order; undefined on zero."""
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def content(self) -> Fraction:
        """Positive rational c with self/c integral and coprime; 0 for zero."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = math.lcm(den, c.denominator)
        return Fraction(num, den)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise ArityMismatch("evaluation point has wrong arity")
        ps = [frac(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(ps, e):
                if k:
                    v *= x**k
            total += v
        return total

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def _variables(self) -> list[str]:
        if self.num_vars == 1:
            return ["t"]
        return [f"t{i + 1}" for i in range(self.num_vars)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self._variables()
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join([n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k])
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class GradedPoly(LaurentPoly):
    """Polynomial in r commuting degree-2 variables x1..xr."""

    __slots__ = ()

    negative_exponents = False

    def _variables(self) -> list[str]:
        return [f"x{i + 1}" for i in range(self.num_vars)]
