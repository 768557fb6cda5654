"""Exact sparse multivariate arithmetic over the rationals.

Monomials are tuples of non-negative exponents, one slot per ring
variable.  A polynomial stores a sparse mapping from monomials to nonzero
exact rational coefficients, so every computation in the package is
exact.  A coefficient is a plain ``int`` when it is integral and a
``Fraction`` whose denominator is not 1 otherwise, never a float: most
coefficients are integers, and ``int`` arithmetic is many times faster
than ``Fraction`` arithmetic.  ``groebner`` and ``linalg`` work on
integers internally, cleared of denominators by ``_cleared``.  Two
``int`` coefficients are divided only through ``_divide``, never with
``/``.  Reads that return a single coefficient (``leading_term``,
``constant_term``) give a ``Fraction``, so that callers may divide what
they read.  All values are immutable by convention: operations return new
objects and never mutate their operands.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence
from operator import add, le, sub
from typing import Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _integral(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when it is an integral ``Fraction``; ``c``
    itself otherwise."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _exact(value) -> Scalar:
    """An outside value as a coefficient, an ``int`` when integral; a value
    that is not an ``int`` or a ``Fraction`` raises ``TypeError``."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{value!r} is not an int or a Fraction")
    return _integral(value)


def _divide(a: Scalar, b: Scalar) -> Scalar:
    """Exact ``a / b``: an ``int`` when b divides a evenly, otherwise a
    ``Fraction``, so two ``int``s never meet ``/``."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _integral(a / b)


def _cleared(coeffs: Mapping) -> tuple[Mapping, int]:
    """Integer values F and the positive integer d with coeffs = F/d, key
    by key; F is ``coeffs`` itself when every value is an ``int``."""
    d = math.lcm(*[c.denominator for c in coeffs.values()])
    return coeffs if d == 1 else {k: c.numerator * (d // c.denominator)
                                  for k, c in coeffs.items()}, d


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; b must divide a."""
    if not all(map(le, b, a)):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _grevlex_key(exps: Monomial):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class MonomialOrder:
    """Total order on monomials, compatible with multiplication.

    ``max(monos, key=order.key)`` picks the leading monomial.  The order is
    also given as 0/1 weight rows (Robbiano 1985): ``order.rows(nvars)``
    lists them, and x^a > x^b when the row values of a, read top row first,
    are lexicographically larger than those of b.  Degrevlex has the partial
    sums ``a1+...+an, a1+...+a(n-1), ..., a1``, lex the exponents
    themselves, and an elimination order the degrevlex rows of its first
    block and then of the rest.  ``groebner`` packs the row values and the
    exponents into one ``int`` whose ``<`` is the order.  There is one
    instance per order, so orders compare by identity.
    """

    __slots__ = ("name", "key", "rows")

    def __init__(self, name: str, key, rows):
        self.name = name
        self.key = key
        self.rows = rows

    def __repr__(self):
        return self.name


def _grevlex_rows(start: int, stop: int, nvars: int) -> list[tuple[int, ...]]:
    """Degrevlex rows of the variables start..stop-1 among nvars."""
    return [tuple(int(start <= i < k) for i in range(nvars))
            for k in range(stop, start, -1)]


LEX = MonomialOrder("lex", lambda mono: mono,
                    lambda nvars: [tuple(int(i == k) for i in range(nvars))
                                   for k in range(nvars)])
DEGREVLEX = MonomialOrder("degrevlex", _grevlex_key,
                          lambda nvars: _grevlex_rows(0, nvars, nvars))


@functools.cache
def elimination(block: int) -> MonomialOrder:
    """Block order whose first ``block`` variables dominate the rest."""
    if block < 1:
        raise ValueError("elimination order needs a positive block size")

    def key(mono: Monomial):
        return (_grevlex_key(mono[:block]), _grevlex_key(mono[block:]))

    def rows(nvars: int):
        return (_grevlex_rows(0, min(block, nvars), nvars)
                + _grevlex_rows(block, nvars, nvars))

    return MonomialOrder(f"elimination({block})", key, rows)


class Polynomial:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int,
                 terms: Mapping[Monomial, Scalar] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Scalar] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} does not fit {nvars} variables")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = _integral(clean.get(mono, 0) + _exact(coeff))
            if c:
                clean[mono] = c
            elif mono in clean:
                del clean[mono]
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _from_clean(cls, nvars: int,
                    terms: dict[Monomial, Scalar]) -> "Polynomial":
        """Wrap terms that are clean by construction, without checks or a
        copy: every key is an exponent tuple of length ``nvars`` and every
        value a nonzero ``int``, or a ``Fraction`` whose denominator is not
        1, and never a float.  Outside data goes through
        ``Polynomial(...)``."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._from_clean(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def monomial(cls, nvars: int, mono: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls(nvars, {tuple(mono): coeff})

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * self.nvars, 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def leading_term(self, order: MonomialOrder) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=order.key)
        return mono, Fraction(self.terms[mono])

    def content_split(self) -> tuple[Fraction, "Polynomial"]:
        """Split into (content, primitive part).

        The primitive part has coprime integer coefficients with a positive
        leading coefficient under degrevlex; self == content * primitive.
        """
        if not self.terms:
            return _ZERO, self
        terms, d = _cleared(self.terms)
        lead = terms[max(terms, key=DEGREVLEX.key)]
        n = math.gcd(*terms.values()) * (1 if lead > 0 else -1)
        if n == d:
            return Fraction(1), self
        return Fraction(n, d), Polynomial._from_clean(
            self.nvars, {m: c // n for m, c in terms.items()})

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = _integral(terms.get(mono, 0) + c)
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return Polynomial._from_clean(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_clean(
            self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _integral(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return Polynomial._from_clean(
                self.nvars, {m: _integral(v * c) for m, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = _integral(terms.get(m, 0) + c1 * c2)
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial._from_clean(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if len(self.terms) == 1:
            [(mono, c)] = self.terms.items()
            return Polynomial._from_clean(
                self.nvars, {tuple(exponent * k for k in mono): _integral(c ** exponent)})
        # the primitive part has integer coefficients, whose products need
        # no gcd; the content is raised on its own
        content, base = self.content_split()
        result = Polynomial.constant(self.nvars, 1)
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result if content == 1 else result * content ** exponent

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    # ------------------------------------------------------------------
    # calculus and evaluation

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        values = [_exact(v) for v in point]
        total = _ZERO
        for mono, c in self.terms.items():
            term = c
            for v, e in zip(values, mono):
                if e:
                    term *= v ** e
            total += term
        return total

    # ------------------------------------------------------------------
    # variable plumbing (used by the lcm and the radical test)

    def pad(self, left: int = 0, right: int = 0) -> "Polynomial":
        """Embed into a ring with extra variables on either side."""
        n = self.nvars + left + right
        terms = {(0,) * left + m + (0,) * right: c for m, c in self.terms.items()}
        return Polynomial._from_clean(n, terms)

    def __repr__(self):
        from .printing import format_polynomial

        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"<{format_polynomial(self, names)}>"
