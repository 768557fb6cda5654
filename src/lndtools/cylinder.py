"""Deciding invariant cylinders and building their trivializations.

For a locally nilpotent derivation, the principal open set where a kernel
element h is invertible splits off a line factor exactly when some power
of h is the image of a ring element.  The routines here search for such a
power within explicit bounds, assemble checkable certificates on success
(the slice f/h^n together with invariant coordinates produced by the
Dixmier map), and return exact linear-algebra infeasibility certificates
when no slice of bounded degree exists.  The search is a semi-decision:
"no" is only ever reported when h itself fails the kernel test, which is
conclusive because kernels of locally nilpotent derivations on domains
are factorially closed.  Every power of h is solved against one preimage
system, d on the standard monomials of bounded degree, whose blocks are
each eliminated once, when a power first reaches them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .derivation import Derivation
from .groebner import (Ideal, MonomialNormalForms, gcd_via_lcm, radical_membership,
                       standard_monomials)
from .linalg import Elimination, Inconsistency, QMatrix, solve_exact
from .poly import DEGREVLEX, Monomial, Polynomial, Scalar, _cleared, _divide, mono_mul
from .ratfun import RationalFunction, ratfun_eq_mod


class Outcome(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown at bounds"


class CertificateError(Exception):
    """A certificate failed its own re-verification."""


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the bounded search: powers of h up to ``max_power`` and
    preimages of total degree up to ``max_degree``."""

    max_power: int = 4
    max_degree: int = 8

    def __post_init__(self):
        if self.max_power < 1:
            raise ValueError("max_power must be at least 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")


@dataclass(frozen=True)
class PlinthCertificate:
    """Witness that element^power is both a kernel element and an image:
    derivation(preimage) equals element^power modulo the relations."""

    derivation: Derivation
    element: Polynomial
    power: int
    preimage: Polynomial

    def __post_init__(self):
        if self.derivation.apply(self.element):
            raise CertificateError("claimed element is not in the kernel")
        target = self.derivation.ring.normal_form(self.element ** self.power)
        if self.derivation.apply(self.preimage) != target:
            raise CertificateError("preimage does not hit the claimed power")

    @property
    def slice_value(self) -> RationalFunction:
        """preimage / element^power, which has derivative one on D(element)."""
        return RationalFunction(self.preimage, self.element ** self.power)


@dataclass(frozen=True)
class CylinderCertificate(PlinthCertificate):
    """A verified product decomposition over the open set D(element): a
    plinth certificate, whose slice preimage/element^power has derivative
    one there, and the Dixmier images, one per ring generator, which are
    derivation constants.  Together they give the coordinates of the
    decomposition."""

    dixmier_images: tuple[RationalFunction, ...]

    def __post_init__(self):
        super().__post_init__()
        deriv = self.derivation
        if len(self.dixmier_images) != deriv.ring.nvars:
            raise CertificateError("need one Dixmier image per ring variable")
        for image in self.dixmier_images:
            if not ratfun_eq_mod(deriv.ring, deriv.apply_rational(image), 0):
                raise CertificateError("Dixmier image is not a derivation constant")


@dataclass(frozen=True)
class PreimageResult:
    """A preimage within its system's degree bound, or the exact proof that
    none exists: multipliers of the rows combining the system to 0 = value."""

    preimage: Polynomial | None
    certificate: Inconsistency | None
    row_monomials: tuple[Monomial, ...]
    column_monomials: tuple[Monomial, ...]

    @property
    def found(self) -> bool:
        return self.preimage is not None

    def nonzero_multipliers(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, y) for m, y in zip(self.row_monomials,
                                       self.certificate.multipliers) if y]


@dataclass(frozen=True)
class SearchResult:
    """The verdict of a plinth or cylinder search on ``element``: on a yes
    the certificate, a ``CylinderCertificate`` for a cylinder decision; on
    a no the nonzero derivative of the element."""

    outcome: Outcome
    element: Polynomial
    bounds: SearchBounds
    certificate: PlinthCertificate | None = None
    obstruction: Polynomial | None = None


@dataclass(frozen=True)
class PlinthClaimReport:
    outcome: Outcome
    entries: tuple[SearchResult, ...]
    complement: Ideal


@dataclass(frozen=True)
class PrincipalityResult:
    outcome: Outcome
    gcd: Polynomial


@dataclass(frozen=True)
class MaximalCylinderResult:
    outcome: Outcome
    claim: PlinthClaimReport
    principality: PrincipalityResult | None = None
    cylinder: SearchResult | None = None


class PreimageSystem(NamedTuple):
    """The linear map d on the standard monomials up to the degree bound it
    was built with: column j is ``columns[j]``.  ``image_rows`` maps each
    monomial of a reduced image, in descending order, to its row of the
    matrix: the ``(column, coefficient)`` pairs in column order.  Every
    target is solved against these rows by their one ``elimination``."""

    columns: tuple[Monomial, ...]
    derivation: Derivation
    image_rows: dict[Monomial, tuple[tuple[int, Scalar], ...]]
    elimination: Elimination

    def equations(self, target: Polynomial):
        """``(rows, matrix, rhs)`` of d(f) = target, for a target reduced
        modulo the relations: the image rows, then an empty row for each
        other monomial of the target, both in descending order."""
        image_rows = self.image_rows
        extra = sorted((m for m in target.terms if m not in image_rows),
                       key=self.derivation.ring.order.key, reverse=True)
        rows = (*image_rows, *extra)
        matrix = QMatrix._from_clean(len(self.columns),
                                     [*image_rows.values(), *[()] * len(extra)])
        rhs = tuple(target.terms.get(r, 0) for r in rows)
        return rows, matrix, rhs


def build_preimage_system(derivation: Derivation,
                          max_degree: int) -> PreimageSystem:
    """The images under the derivation of the standard monomials of degree
    <= max_degree, the rows they make, and the elimination of their matrix.
    Requires a degree-compatible order so that these span the image of every
    residue class of bounded degree.  d(x^a) is the normal form of the sum
    of a_i*c*x^(a-e_i)*t over i and the terms c*t of d(x_i)."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    ring = derivation.ring
    if ring.order != DEGREVLEX:
        raise ValueError("bounded preimage search needs a degree-compatible order")
    columns = tuple(standard_monomials(ring, max_degree))
    table = MonomialNormalForms(ring)
    images = [_cleared(g.terms) for g in derivation.images]
    rows: dict[Monomial, list] = {}
    # columns in ascending order, so each row's pairs come sorted
    for col, a in enumerate(columns):
        image, den = table.of_sum(
            (a[i] * c, e, mono_mul((*a[:i], a[i] - 1, *a[i + 1:]), t))
            for i, (terms, e) in enumerate(images) if a[i] for t, c in terms.items())
        for mono, coeff in image.items():
            rows.setdefault(mono, []).append((col, _divide(coeff, den)))
    image_rows = {m: tuple(rows[m])
                  for m in sorted(rows, key=ring.order.key, reverse=True)}
    del table   # before the elimination, which then peaks alone
    matrix = QMatrix._from_clean(len(columns), image_rows.values())
    return PreimageSystem(columns, derivation, image_rows, Elimination(matrix))


def preimage_search(system: PreimageSystem, target: Polynomial) -> PreimageResult:
    """Find f of total degree <= the system's bound with derivation(f) =
    target modulo the relations, or prove that none exists in that range.
    Either answer is checked before it is returned."""
    derivation = system.derivation
    ring = derivation.ring
    target = ring.normal_form(target)
    rows, matrix, rhs = system.equations(target)
    solved = solve_exact(matrix, rhs, elimination=system.elimination)
    if isinstance(solved, Inconsistency):
        if not solved.verify(matrix, rhs):
            raise CertificateError("inconsistency certificate does not verify")
        return PreimageResult(None, solved, rows, system.columns)
    preimage = Polynomial(ring.nvars,
                          {m: c for m, c in zip(system.columns, solved) if c})
    if derivation.apply(preimage) != target:
        raise CertificateError("solver returned a spurious preimage")
    return PreimageResult(preimage, None, rows, system.columns)


def plinth_membership(derivation: Derivation, element: Polynomial,
                      bounds: SearchBounds = SearchBounds(),
                      system: Callable[[], PreimageSystem] | None = None
                      ) -> SearchResult:
    """Decide whether some power of ``element`` is a kernel element that
    is also an image, within the given bounds.  ``system``, when given,
    returns the derivation's preimage system at ``bounds.max_degree``, for
    callers that search several elements against one system."""
    if element.is_zero:
        raise ValueError("the zero element is excluded; its open set is empty")
    relations = derivation.ring
    h = relations.normal_form(element)
    # D(h) is empty when h is nilpotent: in the radical of the relations
    if h.is_zero or (not relations.is_zero
                     and radical_membership(h, relations)):
        raise ValueError("element vanishes on the variety; its open set is empty")
    image = derivation.apply(h)
    if image:
        # Kernels are factorially closed in a domain, so no power of a
        # non-kernel element can ever land in the kernel: a conclusive no.
        return SearchResult(Outcome.NO, h, bounds, obstruction=image)
    preimages = (build_preimage_system(derivation, bounds.max_degree)
                 if system is None else system())
    power = Polynomial.constant(relations.nvars, 1)
    for n in range(1, bounds.max_power + 1):
        power = relations.normal_form(power * h)
        search = preimage_search(preimages, power)
        if search.found:
            cert = PlinthCertificate(derivation, h, n, search.preimage)
            return SearchResult(Outcome.YES, h, bounds, certificate=cert)
    return SearchResult(Outcome.UNKNOWN, h, bounds)


def dixmier_image(derivation: Derivation, slice_value: RationalFunction,
                  element: Polynomial) -> RationalFunction:
    """Projection of ``element`` onto derivation constants along the slice:
    sum((-slice)^j d^j(element) / j!)."""
    return _dixmier_sum(derivation.ring, slice_value,
                        derivation.iterates(element))


def _dixmier_sum(relations: Ideal, slice_value: RationalFunction,
                 iterates: Sequence[Polynomial]) -> RationalFunction:
    """sum((-slice)^j iterates[j] / j!), reduced and simplified."""
    total = RationalFunction.zero(relations.nvars)
    sign_slice = -slice_value
    slice_power = RationalFunction(Polynomial.constant(relations.nvars, 1), 1)
    for j, current in enumerate(iterates):
        if j:
            slice_power = slice_power * sign_slice
        total = total + slice_power * current * Fraction(1, math.factorial(j))
    return total.reduce_mod(relations).simplify()


def dixmier_reduce(derivation: Derivation, slice_value: RationalFunction,
                   element: Polynomial) -> tuple[RationalFunction, ...]:
    """Coefficients c_k, all derivation constants, with
    element = sum(c_k * slice^k) modulo the relations."""
    relations = derivation.ring
    if not ratfun_eq_mod(relations, derivation.apply_rational(slice_value), 1):
        raise ValueError("the given value is not a slice on this open set")
    its = derivation.iterates(element)
    coefficients = [_dixmier_sum(relations, slice_value, its[k:])
                    * Fraction(1, math.factorial(k)) for k in range(len(its))]
    for c in coefficients:
        if not ratfun_eq_mod(relations, derivation.apply_rational(c), 0):
            raise CertificateError("Dixmier coefficient is not a constant")
    reconstructed = RationalFunction.zero(relations.nvars)
    for k, c in enumerate(coefficients):
        reconstructed = reconstructed + c * slice_value ** k
    if not ratfun_eq_mod(relations, reconstructed, element):
        raise CertificateError("Dixmier coefficients do not reconstruct the element")
    # no trailing zero: the last is d^(J-1)(element)/(J-1)!; 0 has no iterates
    return tuple(coefficients) or (RationalFunction.zero(relations.nvars),)


def cylinder_decision(derivation: Derivation, element: Polynomial,
                      bounds: SearchBounds = SearchBounds()) -> SearchResult:
    """Decide whether the open set D(element) is an invariant cylinder,
    with a slice and invariant coordinates on success."""
    return cylinder_from_plinth(plinth_membership(derivation, element, bounds))


def cylinder_from_plinth(plinth: SearchResult) -> SearchResult:
    """The cylinder decision that a plinth search has settled: the search
    itself unless it is a yes, and otherwise the search with its
    certificate extended by the Dixmier images of the ring generators."""
    if plinth.outcome is not Outcome.YES:
        return plinth
    cert = plinth.certificate
    derivation = cert.derivation
    nvars = derivation.ring.nvars
    images = tuple(dixmier_image(derivation, cert.slice_value,
                                 Polynomial.variable(nvars, i))
                   for i in range(nvars))
    full = CylinderCertificate(derivation, cert.element, cert.power,
                               cert.preimage, images)
    return replace(plinth, certificate=full)


def slice_nonexistence(derivation: Derivation,
                       max_degree: int) -> PreimageResult:
    """Search for a global polynomial slice of bounded degree; failure is
    certified exactly, and the certificate is checked before it is given."""
    return preimage_search(build_preimage_system(derivation, max_degree),
                           Polynomial.constant(derivation.ring.nvars, 1))


def _shared_system(derivation: Derivation,
                   bounds: SearchBounds) -> Callable[[], PreimageSystem]:
    """The derivation's preimage system at ``bounds.max_degree``, built on
    the first call and returned again on the others."""
    return functools.cache(
        lambda: build_preimage_system(derivation, bounds.max_degree))


def plinth_claim_verify(derivation: Derivation, claimed: Sequence[Polynomial],
                        bounds: SearchBounds = SearchBounds(),
                        system: Callable[[], PreimageSystem] | None = None
                        ) -> PlinthClaimReport:
    """Check a claimed plinth generating set: every generator must pass the
    kernel test and exhibit a power with a preimage.  Also returns the
    ideal the claimed generators span; on the variety its zero locus is
    the complement of the union of invariant principal cylinders.  One
    preimage system serves every generator: ``system``, as for
    ``plinth_membership``, or else one built when first needed."""
    if not claimed:
        raise ValueError("no generators claimed")
    if system is None:
        system = _shared_system(derivation, bounds)
    entries = tuple(plinth_membership(derivation, g, bounds, system)
                    for g in claimed)
    if any(e.outcome is Outcome.NO for e in entries):
        outcome = Outcome.NO
    elif any(e.outcome is Outcome.UNKNOWN for e in entries):
        outcome = Outcome.UNKNOWN
    else:
        outcome = Outcome.YES
    ring = derivation.ring
    complement = Ideal(ring.nvars, tuple(e.element for e in entries),
                       ring.order)
    return PlinthClaimReport(outcome, entries, complement)


def principality_check(ideal: Ideal, relations: Ideal) -> PrincipalityResult:
    """Whether ``ideal`` is principal modulo ``relations``.  Yes when the
    free-ring gcd of its generators lies in the ideal, which it then
    generates, with or without relations.  Otherwise no in a free ring,
    and unknown with relations, which can still make the ideal principal:
    (z, w) = (z) modulo w - z^2."""
    if relations.nvars != ideal.nvars:
        raise ValueError("relation ideal has wrong variable count")
    gens = [g for g in ideal.generators if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    gcd = gens[0].content_split(DEGREVLEX)[1]
    for g in gens[1:]:
        gcd = gcd_via_lcm(gcd, g)
    if ideal.contains(gcd):
        return PrincipalityResult(Outcome.YES, gcd)
    outcome = Outcome.NO if relations.is_zero else Outcome.UNKNOWN
    return PrincipalityResult(outcome, gcd)


def maximal_cylinder(derivation: Derivation, claimed: Sequence[Polynomial],
                     bounds: SearchBounds = SearchBounds()) -> MaximalCylinderResult:
    """If the claimed plinth generators verify and span a principal ideal,
    the cylinder over the principal generator contains every other
    principal invariant cylinder; build its certificate.  When the
    generator is itself one of the verified claims, its certificate is
    reused instead of searching again.  A claim that does not verify, or
    a principality check on its ideal that is not a yes, passes its
    outcome on."""
    system = _shared_system(derivation, bounds)
    claim = plinth_claim_verify(derivation, claimed, bounds, system)
    if claim.outcome is not Outcome.YES:
        return MaximalCylinderResult(claim.outcome, claim)
    principality = principality_check(claim.complement, derivation.ring)
    if principality.outcome is not Outcome.YES:
        return MaximalCylinderResult(principality.outcome, claim, principality)
    h = derivation.ring.normal_form(principality.gcd)
    plinth = next((e for e in claim.entries if e.element == h), None)
    if plinth is None:
        plinth = plinth_membership(derivation, principality.gcd, bounds, system)
    decision = cylinder_from_plinth(plinth)
    return MaximalCylinderResult(decision.outcome, claim, principality, decision)
