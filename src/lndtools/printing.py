"""Canonical text form for every value the package prints.

Terms are listed by descending monomial order, coefficients as reduced
fractions, so equal values always print identically and printed
polynomials re-parse to themselves.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Sequence

from .poly import DEGREVLEX, Monomial, MonomialOrder, Polynomial, Scalar

# Integers of at most this many bits go to ``str``: 2,000 bits are at most
# 603 digits, below the least limit that sys.set_int_max_str_digits()
# accepts (640).  Larger ones go to ``Decimal`` in _DECIMAL_BITS-bit pieces.
_STR_BITS = 2000
_DECIMAL_BITS = 4096


def format_number(value: Scalar) -> str:
    """An integer, or a fraction as ``numerator/denominator``, in full:
    ``str`` of an ``int`` refuses more digits than
    ``sys.get_int_max_str_digits()``, and ``Decimal`` has no such limit."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return (f"{format_number(value.numerator)}/"
                f"{format_number(value.denominator)}")
    n = int(value)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    # Decimal(n) takes time quadratic in the digits, a Decimal product less:
    # split n by a power of two, convert the halves, recombine them exactly.
    def convert(m: int, w: int) -> Decimal:
        if w <= _DECIMAL_BITS:
            return Decimal(m)
        half = w >> 1
        high = m >> half
        return convert(high, w - half) * Decimal(2) ** half + convert(m - (high << half), half)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        return str(convert(n, n.bit_length()))


def _term_body(coeff_abs: Fraction, mono: Monomial, names: Sequence[str],
               parameter_part: str | None = None) -> str:
    factors = []
    if coeff_abs != 1:
        factors.append(format_number(coeff_abs))
    if parameter_part:
        factors.append(parameter_part)
    for name, e in zip(names, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return "1"
    return "*".join(factors)


def format_monomial(mono: Monomial, names: Sequence[str]) -> str:
    return _term_body(Fraction(1), mono, names)


def format_polynomial(poly: Polynomial, names: Sequence[str],
                      order: MonomialOrder = DEGREVLEX) -> str:
    if poly.is_zero:
        return "0"
    pieces = []
    for mono in sorted(poly.terms, key=order.key, reverse=True):
        coeff = poly.terms[mono]
        body = _term_body(abs(coeff), mono, names)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def format_exp_action(coeffs: Sequence[Polynomial], names: Sequence[str],
                      parameter: str = "s") -> str:
    """The polynomial in ``parameter`` with the given nonzero coefficients
    by its power, as ``Derivation.exp_action`` returns them."""
    if not coeffs:
        return "0"
    pieces = []
    for k, c in enumerate(coeffs):
        ppart = None if k == 0 else (parameter if k == 1 else f"{parameter}^{k}")
        if len(c.terms) == 1:
            ((mono, coeff),) = c.terms.items()
            body = _term_body(abs(coeff), mono, names, ppart)
            negative = coeff < 0
        else:
            inner = format_polynomial(c, names)
            body = f"{ppart}*({inner})" if ppart else inner
            negative = False
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def _wrap_side(text: str) -> str:
    if " " in text or "*" in text or "/" in text or text.startswith("-"):
        return f"({text})"
    return text


def format_ratfun(value, names: Sequence[str]) -> str:
    """``num/den`` as the fraction holds them, or ``num`` over 1; callers
    that print lowest terms simplify first."""
    num = format_polynomial(value.num, names)
    if value.is_polynomial:
        return num
    den = format_polynomial(value.den, names)
    return f"{_wrap_side(num)}/{_wrap_side(den)}"


def format_ideal(ideal, names: Sequence[str]) -> str:
    if not ideal.basis:
        return "(0)"
    inner = ", ".join(format_polynomial(g, names, ideal.order)
                      for g in ideal.basis)
    return f"({inner})"


def format_point(values: Sequence) -> str:
    return "(" + ", ".join(format_number(v) for v in values) + ")"
