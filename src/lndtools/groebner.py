"""Ideal arithmetic over the rationals.

Buchberger's algorithm, normal forms, membership and radical-membership
tests, the lcm of polynomials through an ideal intersection, and their
gcd by the heuristic GCDHEU (Char, Geddes & Gonnet 1989): integer
evaluation, checked by exact division, with the lcm as the fallback.

Division and Buchberger work on primitive integer polynomials by
pseudo-division (Becker & Weispfenning 1993); fractions are made, and
basis elements made monic, only where a ``Polynomial`` is returned.
Division takes each leading term from a heap keyed by
``MonomialOrder.descending_key``, so every monomial's order key is
computed once.  Buchberger keeps the leading monomials of its elements
in a list, selects pairs from a heap by the normal strategy, and prunes
them by the Gebauer–Möller update (Gebauer & Möller 1988), which applies
Buchberger's coprime rule and chain criterion.

Every basis returned here is the reduced Groebner basis: monic,
auto-reduced, sorted by descending leading monomial.  Reduced bases are
unique for a given ideal and order, so shuffling the input generators can
never change the output; the verification layers rely on that.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le
from typing import Iterable, Sequence

from .poly import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    _cleared,
    _divide,
    elimination,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

# A divisor as division uses it: leading monomial, leading coefficient and
# the remaining terms of a primitive integer polynomial, with lc > 0.
Lead = tuple[Monomial, int, tuple[tuple[Monomial, int], ...]]
_CONTENT_EVERY = 8   # pseudo-division steps between two divisions by the content
_HEU_TRIES = 6       # evaluation points GCDHEU tries at each level before giving up
_HEU_MAX_BITS = 200_000  # GCDHEU gives up when xi^deg would pass this many bits


def _primitive(f: Polynomial, order: MonomialOrder) -> tuple[Lead, int, int]:
    """(``Lead`` of the primitive part P of a nonzero f, n, d) with f = n/d*P."""
    terms, d = _cleared(f.terms)
    lm = max(terms, key=order.key)
    n = gcd(*terms.values()) * (1 if terms[lm] > 0 else -1)
    tail = tuple((m, c // n) for m, c in terms.items() if m != lm)
    return (lm, terms[lm] // n, tail), n, d


class _Dividend:
    """The integer terms of a polynomial under division, with a heap of
    ``(order.descending_key(m), m)`` entries that yields them leading term
    first.  A term that cancels leaves its entry behind, and popping skips
    it; a term that cancels and comes back gets a second entry, and the
    two pop one after the other, since division only ever adds terms below
    the one being divided."""

    __slots__ = ("terms", "heap", "key")

    def __init__(self, terms: Iterable[tuple[Monomial, int]],
                 order: MonomialOrder):
        self.key = key = order.descending_key
        self.terms = dict(terms)
        self.heap = [(key(m), m) for m in self.terms]
        heapify(self.heap)

    def pop_leading(self) -> tuple[Monomial, int] | None:
        """Remove the leading term and return it; None when none is left."""
        heap, terms = self.heap, self.terms
        while heap:
            mono = heappop(heap)[1]
            coeff = terms.pop(mono, None)
            if coeff is not None:
                return mono, coeff
        return None

    def scale(self, a: int) -> None:
        """terms *= a."""
        self.terms = {m: c * a for m, c in self.terms.items()}

    def subtract(self, factor: int, shift: Monomial,
                 tail: Iterable[tuple[Monomial, int]]) -> None:
        """terms -= factor * x^shift * tail; zero terms are dropped."""
        terms, heap, key = self.terms, self.heap, self.key
        for m2, c2 in tail:
            m = tuple(map(add, m2, shift))
            c = terms.get(m)
            if c is None:
                terms[m] = -factor * c2
                heappush(heap, (key(m), m))
            else:
                c -= factor * c2
                if c:
                    terms[m] = c
                else:
                    del terms[m]


def _remainder(work: _Dividend, divisors: Sequence[Lead],
               scale: int = 1) -> tuple[dict[Monomial, int], int]:
    """Pseudo-divide, trying divisors in list order; returns (r, s) where r/s
    is the rational remainder of work/scale, r's terms in descending order."""
    remainder: dict[Monomial, int] = {}
    steps = 0
    while (term := work.pop_leading()) is not None:
        mono, coeff = term
        for lm, lc, tail in divisors:
            if all(map(le, lm, mono)):
                g = gcd(coeff, lc)
                if g != lc:
                    a = lc // g
                    work.scale(a)
                    remainder = {m: c * a for m, c in remainder.items()}
                    scale *= a
                work.subtract(coeff // g, mono_div(mono, lm), tail)
                steps += 1
                if steps % _CONTENT_EVERY == 0 and scale > 1 and (
                        g := gcd(scale, *work.terms.values(), *remainder.values())) > 1:
                    work.terms = {m: c // g for m, c in work.terms.items()}
                    remainder = {m: c // g for m, c in remainder.items()}
                    scale //= g
                break
        else:
            remainder[mono] = coeff
    return remainder, scale


def reduce_poly(f: Polynomial, divisors: Sequence[Polynomial],
                order: MonomialOrder, *,
                leads: Sequence[Lead] | None = None) -> Polynomial:
    """Remainder of multivariate division of f by the divisor list.

    Divisors are tried in list order, so the result is deterministic; for
    a Groebner basis it is the normal form regardless of that order.
    ``leads``, when given, holds the ``Lead`` of each nonzero divisor
    under ``order``, in list order, as ``Ideal`` keeps them for its basis.
    """
    if any(d.nvars != f.nvars for d in divisors):
        raise ValueError("polynomial has wrong variable count")
    if leads is None:
        leads = [_primitive(d, order)[0] for d in divisors if d]
    if not leads or f.is_zero:
        return f
    terms, d = _cleared(f.terms)
    r, s = _remainder(_Dividend(terms.items(), order), leads, d)
    return Polynomial._from_clean(
        f.nvars, r if s == 1 else {m: _divide(c, s) for m, c in r.items()})


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when the division is exact; raises ArithmeticError
    otherwise.  With f = F/e and g = (n/d)*G, G primitive, F/G is integral
    when it exists (Gauss's lemma), so each step is an exact divmod."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if g.nvars != f.nvars:
        raise ValueError("polynomial has wrong variable count")
    (lm, lc, tail), n, d = _primitive(g, DEGREVLEX)
    terms, e = _cleared(f.terms)
    work = _Dividend(terms.items(), DEGREVLEX)
    quotient: dict[Monomial, int] = {}
    while (term := work.pop_leading()) is not None:
        mono, coeff = term
        factor, rest = divmod(coeff, lc)
        if rest or not mono_divides(lm, mono):
            raise ArithmeticError("division is not exact")
        shift = mono_div(mono, lm)
        # the leading monomial of work falls at each step, so no shift repeats
        quotient[shift] = factor
        work.subtract(factor, shift, tail)
    return Polynomial._from_clean(
        f.nvars, {m: _divide(q * d, e * n) for m, q in quotient.items()})


def buchberger(generators: Iterable[Polynomial], order: MonomialOrder,
               nvars: int) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal spanned by ``generators``, which
    have ``nvars`` variables.

    Each generator, then each S-polynomial, is reduced by the elements in
    play, and a nonzero remainder joins them, made primitive, through the
    Gebauer–Möller update:

    - of its pairs with the elements in play, it keeps one per minimal lcm
      and drops those with coprime leading monomials (Buchberger's first
      criterion);
    - of the pairs waiting, it drops those it chains out: its leading
      monomial divides their lcm and differs from both of its lcms with
      them (the chain criterion);
    - it retires the elements whose leading monomial it divides.

    Pairs are taken by ascending lcm of the leading monomials, ties broken
    by index (normal selection strategy).  A remainder that is a nonzero
    constant ends the run with the basis of the unit ideal.  The elements
    left in play are then a minimal basis, and reducing their tails and
    making them monic gives the reduced one.
    """
    one = (0,) * nvars
    leads: list[Lead] = []      # every element found, primitive, by index
    active: list[int] = []      # indices of the elements in play
    pairs: list = []            # heap of (order.key(lcm), i, j, lcm), i < j

    def add(work: _Dividend) -> bool:
        """Reduce work and add its remainder; False when that is a constant."""
        r = _remainder(work, [leads[a] for a in active])[0]
        if not r:
            return True
        lk = next(iter(r))
        if lk == one:
            return False
        n = gcd(*r.values()) * (1 if r[lk] > 0 else -1)
        lc = r.pop(lk) // n
        k = len(leads)
        leads.append((lk, lc, tuple((m, c // n) for m, c in r.items())))
        # new pairs: one is kept unless a later one, or one kept already,
        # has an lcm dividing its own; coprime ones are kept here only so
        # that they still count as divisors
        new = [(i, mono_lcm(leads[i][0], lk)) for i in active]
        kept: list[tuple[int, Monomial]] = []
        for n, (i, l) in enumerate(new):
            if (mono_mul(leads[i][0], lk) == l
                    or not any(mono_divides(l2, l) for _, l2 in new[n + 1:])
                    and not any(mono_divides(l2, l) for _, l2 in kept)):
                kept.append((i, l))
        waiting = [entry for entry in pairs
                   if not mono_divides(lk, entry[3])
                   or mono_lcm(leads[entry[1]][0], lk) == entry[3]
                   or mono_lcm(leads[entry[2]][0], lk) == entry[3]]
        waiting.extend((order.key(l), i, k, l) for i, l in kept
                       if mono_mul(leads[i][0], lk) != l)
        heapify(waiting)
        pairs[:] = waiting
        active[:] = [a for a in active if not mono_divides(lk, leads[a][0])]
        active.append(k)
        return True

    unit = (Polynomial.constant(nvars, 1),)
    for g in generators:
        if not add(_Dividend(_cleared(g.terms)[0].items(), order)):
            return unit
    while pairs:
        _, i, j, l = heappop(pairs)
        lmi, lci, tail_i = leads[i]
        lmj, lcj, tail_j = leads[j]
        si, ci = mono_div(l, lmi), lcm(lci, lcj) // lci
        work = _Dividend(((mono_mul(m, si), ci * c) for m, c in tail_i), order)
        work.subtract(ci * lci // lcj, mono_div(l, lmj), tail_j)
        if not add(work):
            return unit
    # No tail term of an element is divisible by its own leading monomial,
    # so reducing by the others gives the normal form of the tail.
    basis = []
    for a in sorted(active, key=lambda a: order.key(leads[a][0]), reverse=True):
        lm, lc, tail = leads[a]
        others = [leads[b] for b in active if b != a]
        rest, s = _remainder(_Dividend(tail, order), others)
        basis.append(Polynomial._from_clean(
            nvars, {lm: 1, **{m: _divide(c, s * lc) for m, c in rest.items()}}))
    return tuple(basis)


class Ideal:
    """An ideal together with its reduced Groebner basis.

    The basis, and the ``Lead`` of each of its elements that division
    uses, are computed once at construction; instances are immutable.
    """

    __slots__ = ("nvars", "order", "generators", "basis", "leads")

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
        self.leads = tuple(_primitive(g, order)[0] for g in self.basis)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f by the basis; f itself when no leading
        monomial of the basis divides any of its terms."""
        if f.nvars != self.nvars:
            raise ValueError("polynomial has wrong variable count")
        if not any(all(map(le, lm, m)) for lm, _, _ in self.leads for m in f.terms):
            return f
        return reduce_poly(f, self.basis, self.order, leads=self.leads)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_trivial(self) -> bool:
        """True when the ideal is the whole ring."""
        return len(self.basis) == 1 and self.basis[0].total_degree() == 0

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


def lcm_via_intersection(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic lcm of two nonzero polynomials, via (f) ∩ (g)."""
    if f.is_zero or g.is_zero:
        raise ValueError("lcm of a zero polynomial")
    n = f.nvars
    t = Polynomial.variable(n + 1, 0)
    a = t * f.pad(left=1)
    b = (Polynomial.constant(n + 1, 1) - t) * g.pad(left=1)
    # (f) ∩ (g) = (t*f, (1 - t)*g) ∩ k[x].  Under a block order that puts
    # every monomial with t above those free of t, the elements free of t of
    # the reduced basis are the reduced basis of that intersection
    # (Elimination Theorem): the monic lcm alone.
    meet = [h for h in buchberger((a, b), elimination(1), n + 1)
            if not any(m[0] for m in h.terms)]
    if len(meet) != 1:
        raise ArithmeticError("intersection of principal ideals is principal")
    return Polynomial._from_clean(n, {m[1:]: c for m, c in meet[0].terms.items()})


def _scaled(f: Polynomial, n: int) -> Polynomial:
    """f/n for an integer polynomial f and a divisor n of its content."""
    if n == 1:
        return f
    return Polynomial._from_clean(f.nvars, {m: c // n for m, c in f.terms.items()})


def _evaluate(f: Polynomial, v: int, xi: int) -> Polynomial:
    """f with variable v set to the integer xi."""
    powers = [1]
    for _ in range(max(m[v] for m in f.terms)):
        powers.append(powers[-1] * xi)
    values: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        k = (*m[:v], 0, *m[v + 1:])
        values[k] = values.get(k, 0) + c * powers[m[v]]
    return Polynomial._from_clean(f.nvars, {m: c for m, c in values.items() if c})


def _interpolate(h: Polynomial, v: int, xi: int) -> Polynomial:
    """The primitive polynomial in v whose coefficients of each power of v
    are the symmetric xi-adic digits, in (-xi/2, xi/2], of h's."""
    terms: dict[Monomial, int] = {}
    half = xi // 2
    for m, c in h.terms.items():
        e = 0
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                terms[(*m[:v], e, *m[v + 1:])] = digit
            c = (c - digit) // xi
            e += 1
    return _scaled(Polynomial._from_clean(h.nvars, terms), gcd(*terms.values()))


def _divides(h: Polynomial, f: Polynomial) -> bool:
    try:
        divide_exact(f, h)
    except ArithmeticError:
        return False
    return True


def _heu_gcd(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """gcd of two nonzero integer polynomials by GCDHEU (Char, Geddes &
    Gonnet 1989), up to sign; None when the heuristic gives up.

    Both inputs are made primitive first, at every level of the recursion,
    as the theorem below needs, and the gcd of their contents is put back:
    at an inner level that integer is the value of a factor in the
    variables set above, and a candidate without it can be a proper
    common divisor that still divides both.  The variable v of
    highest degree is set to an integer xi >= 2*min(|f|, |g|) + 2 (max
    norms), the gcd of the two values is taken by recursion, and its
    symmetric xi-adic digits rebuild a primitive candidate in v.  A
    candidate that divides both inputs is their gcd (the GCDHEU theorem);
    otherwise xi grows, up to ``_HEU_TRIES`` values and ``_HEU_MAX_BITS``.
    """
    cf, cg = gcd(*f.terms.values()), gcd(*g.terms.values())
    content = gcd(cf, cg)
    if f.total_degree() == 0 or g.total_degree() == 0:
        return Polynomial._from_clean(f.nvars, {(0,) * f.nvars: content})
    f, g = _scaled(f, cf), _scaled(g, cg)
    degrees = [max(m[i] for p in (f, g) for m in p.terms) for i in range(f.nvars)]
    v = max(range(f.nvars), key=degrees.__getitem__)
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * degrees[v] > _HEU_MAX_BITS:
            return None
        ff, gg = _evaluate(f, v, xi), _evaluate(g, v, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            h = _interpolate(h, v, xi)
            if _divides(h, f) and _divides(h, g):
                return h * content
        xi = xi * 73794 // 27011
    return None


def gcd_via_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd of two nonzero polynomials, primitive with integer coprime
    coefficients and a positive leading coefficient.

    GCDHEU (``_heu_gcd``) finds it on the primitive parts, and every answer
    it gives is checked by exact division.  When it gives up, the gcd is
    f*g divided by the lcm from ``lcm_via_intersection``, one Groebner
    basis.  The gcd is unique up to a constant factor, so both paths give
    the same polynomial.  The name stays from the time the lcm was the
    only path: it is the name callers and the benchmark's tracer bind.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("gcd of a zero polynomial")
    h = _heu_gcd(f.content_split()[1], g.content_split()[1])
    if h is None:
        h = divide_exact(f * g, lcm_via_intersection(f, g))
    return h.content_split()[1]


def standard_monomials(ideal: Ideal, max_degree: int) -> list[Monomial]:
    """Monomials of total degree <= max_degree not divisible by any leading
    monomial of the basis, in ascending order; a vector-space basis of the
    quotient up to that degree when the order is degree compatible.  Their
    divisors are standard too, so each degree is made from the one below in
    degrevlex order: x_i*m for i from the last variable down to m's last."""
    lts, one = [lm for lm, _, _ in ideal.leads], (0,) * ideal.nvars
    layer = [] if max_degree < 0 or one in lts else [(one, 0)]
    out = [m for m, _ in layer]
    for _ in range(max_degree):
        layer = [(x, i) for i in range(ideal.nvars - 1, -1, -1) for m, last in layer
                 if last <= i for x in [(*m[:i], m[i] + 1, *m[i + 1:])]
                 if not any(mono_divides(l, x) for l in lts)]
        out += [m for m, _ in layer]
    if ideal.order is not DEGREVLEX:
        out.sort(key=ideal.order.key)
    return out
