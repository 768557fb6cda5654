"""Derivations of finitely presented rings and the actions they generate.

A derivation is given by its images on the ring generators and extends by
the Leibniz rule.  When every generator is annihilated by some iterate,
exponentiation yields a polynomial one-parameter family of automorphisms:
the orbit map of the corresponding additive group action.  Everything is
computed on representatives and reduced modulo the relation ideal, which
is sound once the derivation is known to preserve that ideal.  ``apply``
takes d of a polynomial to its normal form and ``apply_rational`` of a
fraction by the quotient rule over den^2, not simplified.  Both, and the
columns of ``cylinder``'s preimage systems, which one packed pass also
filters and sorts, take the Leibniz sum by one kernel on packed
monomials, ``groebner``'s ``_leibniz``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .groebner import Ideal, _leibniz, _Packing, _widening
from .poly import Monomial, Polynomial, Scalar, _cleared, _divide, _exact
from .ratfun import RationalFunction

DEFAULT_NILPOTENCY_CAP = 64


class CapExceededError(Exception):
    """An iterated application failed to vanish within the cap; the
    nilpotency question stays open at this bound."""

    def __init__(self, cap: int):
        super().__init__(f"derivation did not annihilate element within {cap} steps")
        self.cap = cap


class Derivation:
    """A derivation of the ring presented by the relation ideal ``ring``,
    stored via generator images.

    Images are kept in normal form modulo the relations.  ``apply`` is
    well defined on the quotient only when the derivation preserves the
    relation ideal, which is exactly when
    :meth:`check_preserves_relations` returns None.
    """

    __slots__ = ("ring", "images", "_den", "_packed")

    def __init__(self, ring: Ideal, images: Sequence[Polynomial]):
        if not ring.nvars:
            raise ValueError("a ring needs at least one variable")
        if ring.is_trivial:
            raise ValueError("relations generate the unit ideal; "
                             "the presented ring is zero")
        images = tuple(images)
        if len(images) != ring.nvars:
            raise ValueError("need exactly one image per variable")
        for g in images:
            if g.nvars != ring.nvars:
                raise ValueError("image has wrong variable count")
        self.ring = ring
        self.images = tuple(ring.normal_form(g) for g in images)
        self._den = math.lcm(*[c.denominator for g in self.images for c in g.terms.values()])
        self._packed: dict[int, list] = {}

    def _images(self, packing: _Packing, terms: Iterable[Iterable[tuple[int, int]]],
                scale: int = 1) -> Iterator[dict[int, Scalar]]:
        """d of each list of packed integer terms over ``scale``, in order, by
        the kernel ``_leibniz``, keyed by packed monomial and in normal form
        modulo the relations.  The kernel takes the images as integers over
        their common denominator ``_den``, packed once per width and fetched
        once here."""
        images = self._packed.get(packing.width)
        if images is None:
            images = self._packed[packing.width] = [
                (shift, unit, [(m, c.numerator * (self._den // c.denominator))
                               for m, c in zip(packing.pack_all(g.terms), g.terms.values())])
                for shift, unit, g in zip(packing.shifts, packing.units, self.images) if g]
        leads = self.ring._leads_at(packing)
        for t in terms:
            r, s = _leibniz(t, images, packing, leads, scale * self._den)
            yield r if s == 1 else {m: _divide(c, s) for m, c in r.items()}

    def _image_rows(self, monomials: Sequence[Monomial]
                    ) -> tuple[tuple[Monomial, ...], dict[Monomial, tuple]]:
        """(columns, rows) of d on ``monomials``, packed once: the columns are
        those that no leading monomial of the relations divides, sorted as
        packed ints, which is the ring's order; the rows map each monomial
        of their images, in descending order, to its ``(column, coefficient)``
        pairs in column order."""
        def run(packing: _Packing):
            listed, divides = dict(zip(packing.pack_all(monomials), monomials)), packing.divides
            for lm, _, _ in self.ring._leads_at(packing):
                listed = {p: m for p, m in listed.items() if (p - lm) & divides}
            columns, rows = sorted(listed), {}
            for col, image in enumerate(self._images(packing, [((a, 1),) for a in columns])):
                for m, c in image.items():
                    rows.setdefault(m, []).append((col, c))
            return (tuple(map(listed.__getitem__, columns)),
                    {packing.unpack(m): tuple(rows[m]) for m in sorted(rows, reverse=True)})
        return _widening(self.ring.order, self.ring.nvars, run)[1]

    def apply(self, f: Polynomial) -> Polynomial:
        """Leibniz extension, reduced modulo the relations."""
        if f.nvars != self.ring.nvars:
            raise ValueError("polynomial has wrong variable count")
        terms, e = _cleared(f.terms)
        packing, (image,) = _widening(self.ring.order, f.nvars, lambda packing: tuple(self._images(
            packing, [zip(packing.pack_all(terms), terms.values())], e)))
        unpack = packing.unpack
        return Polynomial._from_clean(f.nvars, {unpack(m): c for m, c in image.items()})

    def check_preserves_relations(self) -> tuple[Polynomial, Polynomial] | None:
        """``(relation, image)`` for the first relation whose image does
        not reduce to zero, or None when the derivation preserves them."""
        for g in self.ring.generators:
            image = self.apply(g)
            if image:
                return g, image
        return None

    def iterates(self, f: Polynomial,
                 cap: int = DEFAULT_NILPOTENCY_CAP) -> list[Polynomial]:
        """The reduced iterates f, d(f), d^2(f), ... up to the last nonzero
        one, so as many as the order of f.  Raises CapExceededError when
        d^cap(f) is still nonzero."""
        if cap < 0:
            raise ValueError("cap must be non-negative")
        out: list[Polynomial] = []
        current = self.ring.normal_form(f)
        while current:
            if len(out) == cap:
                raise CapExceededError(cap)
            out.append(current)
            current = self.apply(current)
        return out

    def nilpotency_orders(self, cap: int = DEFAULT_NILPOTENCY_CAP
                          ) -> tuple[int | None, ...]:
        """Per-generator vanishing orders: orders[i] applications kill the
        i-th variable, and None means it did not vanish within the cap."""
        n = self.ring.nvars
        orders: list[int | None] = []
        for i in range(n):
            try:
                orders.append(len(self.iterates(Polynomial.variable(n, i), cap)))
            except CapExceededError:
                orders.append(None)
        return tuple(orders)

    def exp_action(self, f: Polynomial) -> tuple[Polynomial, ...]:
        """Coefficients d^k(f) / k! of exp(s*d)(f) by power of s; the last
        one is nonzero, and there are none when f reduces to zero."""
        return tuple(g * Fraction(1, math.factorial(k))
                     for k, g in enumerate(self.iterates(f)))

    def orbit_point(self, point: Sequence[Scalar],
                    time: Scalar) -> tuple[Fraction, ...]:
        """Move a rational point of the variety for the given time."""
        p = tuple(_exact(v) for v in point)
        n = self.ring.nvars
        if len(p) != n:
            raise ValueError("point length does not match variable count")
        relations = self.ring.generators
        if any(g.evaluate(p) for g in relations):
            raise ValueError("point does not satisfy the relations")
        s = _exact(time)
        moved = tuple(
            sum((c.evaluate(p) * s ** k
                 for k, c in enumerate(self.exp_action(Polynomial.variable(n, i)))),
                Fraction(0))
            for i in range(n))
        # Cannot happen when the derivation preserves the relations.
        if any(g.evaluate(moved) for g in relations):
            raise RuntimeError("orbit left the variety")
        return moved

    def fixed_locus(self) -> Ideal:
        """Vanishing locus of all derivation images inside the variety."""
        gens = [g for g in self.images if g]
        gens.extend(self.ring.generators)
        return Ideal(self.ring.nvars, gens, self.ring.order)

    def apply_rational(self, value: RationalFunction) -> RationalFunction:
        """Quotient-rule extension to fractions with invertible denominator:
        (den*d(num) - num*d(den))/den^2 with d in normal form, not simplified.
        Neither changes a comparison modulo the relations: the normal forms
        move the numerator by a multiple of a relation, and all that
        ``simplify`` would cancel is a factor of den^2, nonzero there."""
        if self.ring.normal_form(value.den).is_zero:
            raise ZeroDivisionError("denominator lies in the relation ideal")
        return RationalFunction(value.den * self.apply(value.num)
                                - value.num * self.apply(value.den), value.den * value.den)

    def __repr__(self):
        return f"Derivation on {self.ring!r}"
