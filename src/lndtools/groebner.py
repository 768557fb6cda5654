"""Ideal arithmetic over the rationals.

Buchberger's algorithm, normal forms, membership and radical-membership
tests, the lcm of polynomials through an ideal intersection, and their
gcd by the heuristic GCDHEU (Char, Geddes & Gonnet 1989): integer
evaluation, checked by exact division, with the lcm as the fallback.

Division and Buchberger work on primitive integer polynomials by
pseudo-division (Becker & Weispfenning 1993); fractions are made, and
basis elements made monic, only where a ``Polynomial`` is returned.  A
step whose leading coefficient does not divide the term's scales the
dividend and the remainder; common factors cancel only at the end.
Inside them a monomial is one ``int`` (packed exponent vectors, Monagan
& Pearce 2007): the values of the order's weight rows in its high fields
and the exponents in its low ones, each field with a guard bit above it.
A product is ``+``, a quotient ``-``, the order is ``<``, and a
divisibility test is one ``&``; division pops each leading term from a
heap of negated ints.  A call starts with 16-bit fields and begins again
at twice the width when a monomial outgrows them.  Terms are packed on
the way in and unpacked on the way out, through a bounded memo of the
monomials met lately.  Packed ints carry a derivation's Leibniz sum too
(``_leibniz``): x^(a - e_j + t) is ``a - unit_j + t``.  Buchberger
keeps the leading monomials of its elements packed only, selects pairs
from a heap by the normal strategy, and prunes them by the Gebauer–Möller
update (Gebauer & Möller 1988), which applies Buchberger's coprime rule
and chain criterion.

Every basis returned here is the reduced Groebner basis: monic,
auto-reduced, sorted by descending leading monomial.  Reduced bases are
unique for a given ideal and order, so shuffling the input generators can
never change the output; the verification layers rely on that.
"""

from __future__ import annotations

import functools
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import le, mul, or_
from typing import Iterable, Mapping, Sequence

from .poly import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    _cleared,
    _divide,
    elimination,
    mono_divides,
    mono_lcm,
)

# A divisor as division uses it: leading monomial, leading coefficient and
# the remaining terms of a primitive integer polynomial, with lc > 0, its
# monomials packed by a ``_Packing``.
Lead = tuple[int, int, tuple[tuple[int, int], ...]]
_WIDTH = 16          # bits of a packed field at the first try of a call
_MEMO_SIZE = 4096    # entries of a packing's memo of tuples and packed ints
_HEU_TRIES = 6       # evaluation points GCDHEU tries at each level before giving up
_HEU_MAX_BITS = 200_000  # GCDHEU gives up when xi^deg would pass this many bits


class _Widen(Exception):
    """A packed monomial outgrew its fields; the call starts again at twice
    the width.  Deliberately neither an ``ArithmeticError``, which
    ``_divides`` reads as "does not divide", nor a ``ValueError``, which the
    command line reports as bad input."""


class _Packing:
    """Monomials in ``nvars`` variables under ``order`` as single ints.

    Each field has ``width`` bits and a guard bit above them.  The high
    fields hold the values of ``order.rows(nvars)``, top row highest, and
    the low ones the exponents.  Packing is linear, so a product is ``+``
    and a quotient ``-``, and while every field stays below ``2**width``
    ints compare as the order does.  A tuple is packed only when its total
    degree is below ``2**width``, which bounds each field, the rows being
    0/1; a product that reaches it in some field sets that field's guard
    bit.  x^a divides x^b exactly when ``pack(b) - pack(a)`` has no guard
    bit of an exponent field set: the lowest exponent of b below a's
    borrows and sets its field's guard.
    """

    __slots__ = ("width", "limit", "units", "shifts", "mask", "guards", "divides", "memo")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        rows = order.rows(nvars)
        step = width + 1
        self.width, self.limit, self.mask = width, 1 << width, (1 << width) - 1
        self.shifts = tuple(step * i for i in range(nvars))
        tops = [step * (nvars + len(rows) - 1 - r) for r in range(len(rows))]
        self.units = tuple(sum(row[i] << top for row, top in zip(rows, tops)) + (1 << s)
                           for i, s in enumerate(self.shifts))
        self.guards = sum(1 << (step * f + width) for f in range(nvars + len(rows)))
        self.divides = sum(1 << (s + width) for s in self.shifts)
        # the packed int of each tuple lately packed or unpacked, and the
        # tuple of each such int: division and Buchberger meet the same
        # few monomials again and again.  Emptied at _MEMO_SIZE entries.
        self.memo: dict = {}

    def _remember(self, mono: Monomial, packed: int) -> None:
        memo = self.memo
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        memo[mono] = packed
        memo[packed] = mono

    def pack(self, mono: Monomial) -> int:
        packed = self.memo.get(mono)
        if packed is None:
            if sum(mono) >= self.limit:
                raise _Widen
            packed = sum(map(mul, mono, self.units))
            self._remember(mono, packed)
        return packed

    def pack_all(self, monos: Iterable[Monomial]) -> list[int]:
        return list(map(self.pack, monos))

    def unpack(self, packed: int) -> Monomial:
        mono = self.memo.get(packed)
        if mono is None:
            mask = self.mask
            mono = tuple([packed >> s & mask for s in self.shifts])
            self._remember(mono, packed)
        return mono

    def lead(self, terms: Mapping[Monomial, int]) -> tuple[Lead, int]:
        """(``Lead`` of the primitive part P of nonzero integer terms F, n)
        with F = n*P."""
        packed = dict(zip(self.pack_all(terms), terms.values()))
        lm = max(packed)
        n = gcd(*packed.values()) * (1 if packed[lm] > 0 else -1)
        lc = packed.pop(lm) // n
        return (lm, lc, tuple((m, c // n) for m, c in packed.items())), n

    def dividend(self, terms: Mapping[Monomial, int]) -> _Dividend:
        """A ``_Dividend`` of the integer terms."""
        return _Dividend(dict(zip(self.pack_all(terms), terms.values())), self)


@functools.lru_cache(maxsize=32)
def _packing(order: MonomialOrder, nvars: int, width: int) -> _Packing:
    return _Packing(order, nvars, width)


def _widening(order: MonomialOrder, nvars: int, run):
    """(packing, ``run(packing)``) at the first field width, from ``_WIDTH``
    up by doubling, at which ``run`` raises no ``_Widen``."""
    width = _WIDTH
    while True:
        packing = _packing(order, nvars, width)
        try:
            return packing, run(packing)
        except _Widen:
            width *= 2


class _Dividend:
    """The integer terms of a polynomial under division, keyed by packed
    monomial, with a heap of the negated keys that yields them leading
    term first.  A term that cancels leaves its entry behind, and popping
    skips it; a term that cancels and comes back gets a second entry, and
    the two pop one after the other, since division only ever adds terms
    below the one being divided."""

    __slots__ = ("terms", "heap", "packing")

    def __init__(self, terms: dict[int, int], packing: _Packing):
        self.terms = terms
        self.heap = [-m for m in terms]
        heapify(self.heap)
        self.packing = packing

    def pop_leading(self) -> tuple[int, int] | None:
        """Remove the leading term and return it; None when none is left."""
        heap, terms = self.heap, self.terms
        while heap:
            mono = -heappop(heap)
            coeff = terms.pop(mono, None)
            if coeff is not None:
                return mono, coeff
        return None

    def subtract(self, factor: int, shift: int,
                 tail: Iterable[tuple[int, int]]) -> None:
        """terms -= factor * x^shift * tail; zero terms are dropped."""
        terms, heap, guards = self.terms, self.heap, self.packing.guards
        for m, c2 in tail:
            m += shift
            c = terms.get(m)
            if c is None:
                if m & guards:
                    raise _Widen
                terms[m] = -factor * c2
                heappush(heap, -m)
            else:
                c -= factor * c2
                if c:
                    terms[m] = c
                else:
                    del terms[m]


def _remainder(work: _Dividend, divisors: Sequence[Lead],
               scale: int = 1) -> tuple[dict[int, int], int]:
    """Pseudo-divide, trying divisors in list order; returns (r, s) where r/s
    is the rational remainder of work/scale, r's terms in descending order."""
    divides = work.packing.divides
    remainder: dict[int, int] = {}
    while (term := work.pop_leading()) is not None:
        mono, coeff = term
        for lm, lc, tail in divisors:
            shift = mono - lm
            if not shift & divides:
                g = gcd(coeff, lc)
                if g != lc:
                    a = lc // g
                    work.terms = {m: c * a for m, c in work.terms.items()}
                    remainder = {m: c * a for m, c in remainder.items()}
                    scale *= a
                work.subtract(coeff // g, shift, tail)
                break
        else:
            remainder[mono] = coeff
    return remainder, scale


def _leibniz(terms: Iterable[tuple[int, int]], images: Sequence[tuple[int, int, Sequence]],
             packing: _Packing, leads: Sequence[Lead], scale: int) -> tuple[dict[int, int], int]:
    """(r, s) with r/s = d(T/scale) for packed integer terms T: over each
    c*x^a in T, x_j with e = a_j > 0 and c_t*x^t in d(x_j), the sum of
    e*c*c_t*x^(a - e_j + t).  ``images`` holds (the shift of x_j's field,
    x_j packed, the packed integer terms of d(x_j)) for each d(x_j) != 0.
    The sum is pseudo-divided by ``leads`` when there are any."""
    mask = packing.mask
    total: dict[int, int] = {}
    get = total.get
    for a, c in terms:
        for shift, unit, image in images:
            if e := a >> shift & mask:
                base, factor = a - unit, e * c
                for t, ct in image:
                    m = base + t
                    total[m] = get(m, 0) + factor * ct
    if 0 in total.values():
        total = {m: c for m, c in total.items() if c}
    if functools.reduce(or_, total, 0) & packing.guards:
        raise _Widen
    if leads:
        return _remainder(_Dividend(total, packing), leads, scale)
    return total, scale


def _packed_leads(divisors: Sequence[Polynomial], packing: _Packing,
                  leads: dict[int, list[Lead]]) -> list[Lead]:
    """The packed ``Lead`` of each nonzero divisor, in list order, kept in
    ``leads`` under the packing's field width."""
    packed = leads.get(packing.width)
    if packed is None:
        packed = leads[packing.width] = [packing.lead(_cleared(g.terms)[0])[0]
                                         for g in divisors if g]
    return packed


def reduce_poly(f: Polynomial, divisors: Sequence[Polynomial],
                order: MonomialOrder, *,
                leads: dict[int, list[Lead]] | None = None) -> Polynomial:
    """Remainder of multivariate division of f by the divisor list.

    Divisors are tried in list order, so the result is deterministic; for
    a Groebner basis it is the normal form regardless of that order.
    ``leads``, when given, maps a field width to the packed ``Lead`` of
    each nonzero divisor under ``order``, in list order, as ``Ideal`` keeps
    them for its basis; a width it lacks is added.
    """
    if any(d.nvars != f.nvars for d in divisors):
        raise ValueError("polynomial has wrong variable count")
    if f.is_zero or not any(divisors):
        return f
    terms, d = _cleared(f.terms)
    if leads is None:
        leads = {}
    packing, (r, s) = _widening(order, f.nvars, lambda packing: _remainder(
        packing.dividend(terms), _packed_leads(divisors, packing, leads), d))
    unpack = packing.unpack
    return Polynomial._from_clean(f.nvars, {unpack(m): c if s == 1 else _divide(c, s)
                                            for m, c in r.items()})


def _exact_quotient(f: Polynomial, g: Polynomial) -> tuple[_Packing, tuple[dict[int, int], int]]:
    """(packing, (Q, s)) with f/g = Q/s, Q's monomials packed by ``packing``
    under degrevlex; raises ArithmeticError when g does not divide f.
    With f = F/e and g = (n/d)*G, G primitive, F/G is integral when it
    exists (Gauss's lemma), so each step is an exact divmod."""
    (terms, e), (divisor, d) = _cleared(f.terms), _cleared(g.terms)

    def run(packing: _Packing) -> tuple[dict[int, int], int]:
        (lm, lc, tail), n = packing.lead(divisor)
        work, divides = packing.dividend(terms), packing.divides
        quotient: dict[int, int] = {}
        while (term := work.pop_leading()) is not None:
            mono, coeff = term
            factor, rest = divmod(coeff, lc)
            shift = mono - lm
            if rest or shift & divides:
                raise ArithmeticError("division is not exact")
            # the leading monomial of work falls at each step, so no shift repeats
            quotient[shift] = factor * d
            work.subtract(factor, shift, tail)
        return quotient, e * n

    return _widening(DEGREVLEX, f.nvars, run)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when the division is exact; raises ArithmeticError
    otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if g.nvars != f.nvars:
        raise ValueError("polynomial has wrong variable count")
    packing, (quotient, s) = _exact_quotient(f, g)
    unpack = packing.unpack
    return Polynomial._from_clean(
        f.nvars, {unpack(m): _divide(q, s) for m, q in quotient.items()})


def buchberger(generators: Iterable[Polynomial], order: MonomialOrder,
               nvars: int) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal spanned by ``generators``, which
    have ``nvars`` variables; each element lists its terms from the leading
    one down.

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
    gens = [_cleared(g.terms)[0] for g in generators]
    return _widening(order, nvars, lambda packing: _buchberger(gens, nvars, packing))[1]


def _buchberger(gens: Sequence[Mapping[Monomial, int]], nvars: int,
                packing: _Packing) -> tuple[Polynomial, ...]:
    """``buchberger`` on integer generators at one field width."""
    divides, pack, unpack = packing.divides, packing.pack, packing.unpack
    elements: list[Lead] = []   # every element found, primitive, by index
    active: list[int] = []      # indices of the elements in play
    pairs: list = []            # heap of (packed lcm, i, j), i < j

    def lcm_with(i: int, b: int) -> int:
        """The packed lcm of element i's leading monomial and b."""
        return pack(mono_lcm(unpack(elements[i][0]), unpack(b)))

    def add(work: _Dividend) -> bool:
        """Reduce work and add its remainder; False when that is a constant."""
        r = _remainder(work, [elements[a] for a in active])[0]
        if not r:
            return True
        plk = next(iter(r))
        if not plk:   # the monomial 1
            return False
        n = gcd(*r.values()) * (1 if r[plk] > 0 else -1)
        lc = r.pop(plk) // n
        k = len(elements)
        elements.append((plk, lc, tuple((m, c // n) for m, c in r.items())))
        # new pairs: one is kept unless a later one, or one kept already,
        # has an lcm dividing its own; coprime ones are kept here only so
        # that they still count as divisors
        new = [(i, lcm_with(i, plk)) for i in active]
        kept: list[tuple[int, int]] = []
        for n, (i, l) in enumerate(new):
            if (elements[i][0] + plk == l
                    or not any(not (l - l2) & divides for _, l2 in new[n + 1:])
                    and not any(not (l - l2) & divides for _, l2 in kept)):
                kept.append((i, l))
        waiting = [entry for entry in pairs
                   if (entry[0] - plk) & divides
                   or lcm_with(entry[1], plk) == entry[0]
                   or lcm_with(entry[2], plk) == entry[0]]
        waiting.extend((l, i, k) for i, l in kept if elements[i][0] + plk != l)
        heapify(waiting)
        pairs[:] = waiting
        active[:] = [a for a in active if (elements[a][0] - plk) & divides]
        active.append(k)
        return True

    for terms in gens:
        if not add(packing.dividend(terms)):
            return (Polynomial.constant(nvars, 1),)
    while pairs:
        l, i, j = heappop(pairs)
        lmi, lci, tail_i = elements[i]
        lmj, lcj, tail_j = elements[j]
        ci = lcm(lci, lcj) // lci
        work = _Dividend({}, packing)
        work.subtract(-ci, l - lmi, tail_i)
        work.subtract(ci * lci // lcj, l - lmj, tail_j)
        if not add(work):
            return (Polynomial.constant(nvars, 1),)
    # No tail term of an element is divisible by its own leading monomial,
    # so reducing by the others gives the normal form of the tail.
    basis = []
    for a in sorted(active, key=lambda a: elements[a][0], reverse=True):
        lm, lc, tail = elements[a]
        others = [elements[b] for b in active if b != a]
        rest, s = (_remainder(_Dividend(dict(tail), packing), others) if others
                   else (dict(tail), 1))
        basis.append(Polynomial._from_clean(nvars, {unpack(lm): 1, **{
            unpack(m): _divide(c, s * lc) for m, c in rest.items()}}))
    return tuple(basis)


class Ideal:
    """An ideal together with its reduced Groebner basis.

    The basis and the leading monomial of each of its elements (``leads``)
    are kept.  The packed ``Lead`` of each element that division uses is
    made at the first division at each field width, and kept; instances
    are immutable apart from that cache.
    """

    __slots__ = ("nvars", "order", "generators", "basis", "leads", "_packed")

    def __init__(self, nvars: int, generators: Iterable[Polynomial] = (),
                 order: MonomialOrder = DEGREVLEX):
        gens = tuple(generators)
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("generator has wrong variable count")
        self.nvars = nvars
        self.order = order
        self.generators = gens
        self._packed: dict[int, list[Lead]] = {}
        self.basis = buchberger(gens, order, nvars)
        self.leads = tuple(next(iter(g.terms)) for g in self.basis)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f by the basis; f itself when no leading
        monomial of the basis divides any of its terms."""
        if f.nvars != self.nvars:
            raise ValueError("polynomial has wrong variable count")
        if not any(all(map(le, lm, m)) for lm in self.leads for m in f.terms):
            return f
        return reduce_poly(f, self.basis, self.order, leads=self._packed)

    def _leads_at(self, packing: _Packing) -> list[Lead]:
        """The packed ``Lead`` of each basis element under ``packing``."""
        return _packed_leads(self.basis, packing, self._packed)

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


def radical_membership(f: Polynomial, generators: Iterable[Polynomial]) -> bool:
    """Rabinowitsch test: f lies in the radical of the ideal I spanned by
    ``generators`` iff 1 lies in I + (1 - t*f), t a fresh variable."""
    n = f.nvars
    lifted = [g.pad(right=1) for g in generators]
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
    # only the powers that occur: a list of all of them up to the degree
    # takes memory quadratic in it
    powers = {e: xi ** e for e in {m[v] for m in f.terms}}
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
        _exact_quotient(f, h)
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
    lts, one = ideal.leads, (0,) * ideal.nvars
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
