"""Ideal arithmetic over the rationals.

Buchberger's algorithm with the normal selection strategy, normal forms,
membership and radical-membership tests, elimination ideals, and the
lcm/gcd of polynomials through an ideal intersection.

Every basis returned here is the reduced Groebner basis: monic,
auto-reduced, sorted by descending leading monomial.  Reduced bases are
unique for a given ideal and order, so shuffling the input generators can
never change the output; the verification layers rely on that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .poly import (
    DEGREVLEX,
    LEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    elimination,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_up_to,
)

_ZERO = Fraction(0)


def _subtract_shifted(work: dict[Monomial, Fraction], factor: Fraction,
                      shift: Monomial, g: Polynomial) -> None:
    """work -= factor * x^shift * g, in place; zero terms are dropped."""
    for m2, c2 in g.terms.items():
        m = mono_mul(m2, shift)
        c = work.get(m, _ZERO) - factor * c2
        if c:
            work[m] = c
        else:
            del work[m]


def reduce_poly(f: Polynomial, divisors: Sequence[Polynomial],
                order: MonomialOrder) -> Polynomial:
    """Remainder of multivariate division of f by the divisor list.

    Divisors are tried in list order, so the result is deterministic; for
    a Groebner basis it is the normal form regardless of that order.
    """
    divisors = [d for d in divisors if d]
    if not divisors or f.is_zero:
        return f
    lead = [(d.leading_term(order), d) for d in divisors]
    work = dict(f.terms)
    remainder: dict[Monomial, Fraction] = {}
    while work:
        mono = max(work, key=order.key)
        coeff = work[mono]
        for (lm, lc), d in lead:
            if mono_divides(lm, mono):
                _subtract_shifted(work, coeff / lc, mono_div(mono, lm), d)
                break
        else:
            remainder[mono] = coeff
            del work[mono]
    return Polynomial._from_clean(f.nvars, remainder)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when the division is exact; raises otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    quotient: dict[Monomial, Fraction] = {}
    lm, lc = g.leading_term(DEGREVLEX)
    work = dict(f.terms)
    while work:
        mono = max(work, key=DEGREVLEX.key)
        if not mono_divides(lm, mono):
            raise ValueError("division is not exact")
        shift = mono_div(mono, lm)
        factor = work[mono] / lc
        # the leading monomial of work falls at each step, so no shift repeats
        quotient[shift] = factor
        _subtract_shifted(work, factor, shift, g)
    return Polynomial._from_clean(f.nvars, quotient)


def _s_polynomial(f: Polynomial, g: Polynomial,
                  order: MonomialOrder) -> Polynomial:
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    l = mono_lcm(lmf, lmg)
    mf = Polynomial.monomial(f.nvars, mono_div(l, lmf), 1 / lcf)
    mg = Polynomial.monomial(g.nvars, mono_div(l, lmg), 1 / lcg)
    return mf * f - mg * g


def _reduced_basis(basis: list[Polynomial],
                   order: MonomialOrder) -> tuple[Polynomial, ...]:
    # Minimal set of leading terms, smallest first so ties drop later entries.
    kept: list[Polynomial] = []
    for g in sorted(basis, key=lambda p: order.key(p.leading_monomial(order))):
        lm = g.leading_monomial(order)
        if any(mono_divides(h.leading_monomial(order), lm) for h in kept):
            continue
        kept.append(g)
    # Tail-reduce each element against the rest; leading terms are already
    # pairwise non-divisible, so one pass lands on the reduced basis.
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        kept[i] = reduce_poly(kept[i], others, order).monic(order)
    kept.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
    return tuple(kept)


def buchberger(generators: Iterable[Polynomial],
               order: MonomialOrder = DEGREVLEX,
               nvars: int | None = None) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal spanned by ``generators``.

    Pairs are processed by ascending lcm of the leading monomials with
    ties broken by generator index (normal selection strategy); pairs with
    coprime leading terms are skipped.
    """
    gens = list(generators)
    if nvars is None:
        if not gens:
            raise ValueError("cannot infer the variable count of an empty ideal")
        nvars = gens[0].nvars
    basis = [g.monic(order) for g in gens if g]
    if not basis:
        return ()
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]

    def pair_key(ij):
        i, j = ij
        l = mono_lcm(basis[i].leading_monomial(order),
                     basis[j].leading_monomial(order))
        return (order.key(l), i, j)

    while pairs:
        best = min(pairs, key=pair_key)
        pairs.remove(best)
        i, j = best
        lmi = basis[i].leading_monomial(order)
        lmj = basis[j].leading_monomial(order)
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue
        r = reduce_poly(_s_polynomial(basis[i], basis[j], order), basis, order)
        if r:
            basis.append(r.monic(order))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _reduced_basis(basis, order)


class Ideal:
    """An ideal together with its reduced Groebner basis.

    The basis is computed once at construction; instances are immutable.
    """

    __slots__ = ("nvars", "order", "generators", "basis")

    def __init__(self, nvars: int, generators: Iterable[Polynomial] = (),
                 order: MonomialOrder = DEGREVLEX):
        gens = tuple(generators)
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("generator has wrong variable count")
        self.nvars = nvars
        self.order = order
        self.generators = gens
        self.basis = buchberger(gens, order, nvars)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise ValueError("polynomial has wrong variable count")
        return reduce_poly(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_trivial(self) -> bool:
        """True when the ideal is the whole ring."""
        return len(self.basis) == 1 and self.basis[0].total_degree() == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return (self.nvars == other.nvars and self.order == other.order
                and self.basis == other.basis)

    def __repr__(self):
        return f"Ideal({self.nvars} vars, basis size {len(self.basis)})"


def radical_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Rabinowitsch test: f lies in the radical iff 1 lies in
    I + (1 - t*f) after adjoining a fresh variable t."""
    n = ideal.nvars
    if f.nvars != n:
        raise ValueError("element has wrong variable count")
    lifted = [g.pad(right=1) for g in ideal.generators]
    t = Polynomial.variable(n + 1, n)
    saturator = Polynomial.constant(n + 1, 1) - t * f.pad(right=1)
    trick = Ideal(n + 1, (*lifted, saturator), elimination(n))
    return trick.is_trivial


def eliminate(ideal: Ideal, k: int) -> Ideal:
    """Intersection with the subring omitting the first k variables."""
    if k == 0:
        return ideal
    if not 0 < k <= ideal.nvars:
        raise ValueError(f"cannot eliminate {k} of {ideal.nvars} variables")
    if not ideal.order.is_elimination_for(k):
        raise ValueError(f"{ideal.order!r} is not an elimination order "
                         f"for the first {k} variables")
    kept = [g for g in ideal.basis
            if all(not any(m[:k]) for m in g.terms)]
    rest_order = LEX if ideal.order.kind == "lex" else DEGREVLEX
    return Ideal(ideal.nvars - k, [g.drop_first(k) for g in kept], rest_order)


def lcm_via_intersection(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic lcm of two nonzero polynomials, via (f) ∩ (g)."""
    if f.is_zero or g.is_zero:
        raise ValueError("lcm of a zero polynomial")
    n = f.nvars
    t = Polynomial.variable(n + 1, 0)
    a = t * f.pad(left=1)
    b = (Polynomial.constant(n + 1, 1) - t) * g.pad(left=1)
    meet = eliminate(Ideal(n + 1, (a, b), elimination(1)), 1)
    if len(meet.basis) != 1:
        raise ArithmeticError("intersection of principal ideals is principal")
    return meet.basis[0]


def gcd_via_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd computed as f*g divided by the lcm; the result is primitive with
    integer coprime coefficients and a positive leading coefficient."""
    if f.is_zero or g.is_zero:
        raise ValueError("gcd of a zero polynomial")
    l = lcm_via_intersection(f, g)
    q = divide_exact(f * g, l)
    return q.content_split(DEGREVLEX)[1]


def standard_monomials(ideal: Ideal, max_degree: int) -> list[Monomial]:
    """Monomials of total degree <= max_degree not divisible by any leading
    monomial of the basis; a vector-space basis of the quotient up to that
    degree when the order is degree compatible."""
    lts = [g.leading_monomial(ideal.order) for g in ideal.basis]
    out = [m for m in monomials_up_to(ideal.nvars, max_degree)
           if not any(mono_divides(l, m) for l in lts)]
    out.sort(key=ideal.order.key)
    return out
