"""Rational functions as pairs of polynomials, kept as they were made.

Arithmetic, equality and reduction modulo an ideal need no normal form.
:meth:`RationalFunction.simplify` is the one reduction, which callers
invoke where fractions would otherwise grow and before printing one.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Union

from .poly import Polynomial, Scalar, mono_div

_Operand = Union["RationalFunction", Polynomial, int, Fraction]


class RationalFunction:
    """Quotient of two polynomials with a nonzero denominator, kept as
    given until :meth:`simplify` puts it in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | Scalar = 1):
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(num.nvars, den)
        if den.nvars != num.nvars:
            raise ValueError("variable counts differ")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, nvars: int) -> "RationalFunction":
        return cls(Polynomial.zero(nvars), 1)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_polynomial(self) -> bool:
        return self.den.total_degree() == 0 and self.den.constant_term() == 1

    # ------------------------------------------------------------------

    def __add__(self, other: _Operand) -> "RationalFunction":
        other = _as_ratfun(other, self.nvars)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other: _Operand) -> "RationalFunction":
        other = _as_ratfun(other, self.nvars)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        """Equality as fractions of the free polynomial ring."""
        other = _as_ratfun(other, self.nvars)
        if other is None:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    # ------------------------------------------------------------------

    def simplify(self) -> "RationalFunction":
        """The fraction in lowest terms, 0 as 0/1, its denominator primitive
        with a positive leading coefficient.  The common factor is the
        monomial that divides every term when the denominator has one term,
        and otherwise the gcd from ``groebner.gcd_via_lcm``."""
        num, den = self.num, self.den
        if num.is_zero:
            return RationalFunction(num)
        if len(den.terms) == 1:
            shared = functools.reduce(lambda a, b: tuple(map(min, a, b)), num.terms, *den.terms)
            # dividing every term by a shared monomial keeps them distinct
            num, den = (Polynomial._from_clean(p.nvars, {
                mono_div(m, shared): c for m, c in p.terms.items()}) for p in (num, den))
        else:
            from .groebner import divide_exact, gcd_via_lcm

            g = gcd_via_lcm(num, den)
            num, den = divide_exact(num, g), divide_exact(den, g)
        content, den = den.content_split()
        return RationalFunction(num * (1 / content) if content != 1 else num, den)

    def reduce_mod(self, ideal) -> "RationalFunction":
        """Reduce numerator and denominator to normal form mod an ideal.

        Sound on the open set where the denominator is invertible; the
        reduced denominator must stay nonzero mod the ideal.
        """
        den = ideal.normal_form(self.den)
        if den.is_zero:
            raise ZeroDivisionError("denominator lies in the ideal")
        return RationalFunction(ideal.normal_form(self.num), den)

    def __repr__(self):
        from .printing import format_ratfun

        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"<{format_ratfun(self, names)}>"


def ratfun_eq_mod(ideal, a: _Operand, b: _Operand) -> bool:
    """Equality of two rational functions modulo an ideal, decided by
    cross multiplication; both denominators must be invertible mod the
    ideal (i.e. nonzero in the quotient)."""
    nvars = ideal.nvars
    a = _as_ratfun(a, nvars)
    b = _as_ratfun(b, nvars)
    if a is None or b is None:
        raise TypeError("ratfun_eq_mod compares rational functions, "
                        "polynomials, ints and Fractions")
    for side in (a, b):
        if ideal.normal_form(side.den).is_zero:
            raise ZeroDivisionError("denominator lies in the ideal")
    return ideal.normal_form(a.num * b.den - b.num * a.den).is_zero


def _as_ratfun(value, nvars: int) -> RationalFunction | None:
    """``value`` as a rational function in ``nvars`` variables, or None
    when it is not a RationalFunction, Polynomial, int or Fraction."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value, 1)
    if isinstance(value, (int, Fraction)):
        return RationalFunction(Polynomial.constant(nvars, value), 1)
    return None
