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
are factorially closed.  Integer weights that make d and the relations
homogeneous split the preimage system, d on the standard monomials of
bounded degree, into classes.  A power of h is solved on the classes it
reaches, listed directly as lattice points under the degree bound, then
filtered, sorted and imaged by the derivation in one packed pass, which
keeps the images; systems are shared by a command's powers and elements,
and each is eliminated once, at its first solve.
The Dixmier sums are polynomials over a power of the slice's denominator,
built by Horner's rule and made a fraction once each; the checks that
they and the slice are what they claim use the quotient rule without the
gcd that ``simplify`` would cancel, which cannot change such a check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .derivation import Derivation
from .groebner import Ideal, gcd_via_lcm, radical_membership, standard_monomials
from .linalg import Inconsistency, QMatrix, null_space, solve_exact
from .poly import DEGREVLEX, Monomial, Polynomial, Scalar
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
            if not ratfun_eq_mod(deriv.ring, deriv._quotient_rule(image), 0):
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
    """The linear map d on its columns, standard monomials of bounded
    degree in ascending order: column j is ``columns[j]``.  ``image_rows``,
    as ``Derivation._image_rows`` makes it, maps each monomial of a reduced
    image, in descending order, to its row of ``matrix``: the
    ``(column, coefficient)`` pairs in column order.  Every target is
    solved against this one matrix, which keeps its elimination."""

    columns: tuple[Monomial, ...]
    derivation: Derivation
    image_rows: dict[Monomial, tuple[tuple[int, Scalar], ...]]
    matrix: QMatrix

    def equations(self, target: Polynomial):
        """``(rows, matrix, rhs)`` of d(f) = target, for a target reduced
        modulo the relations: the image rows, then each other monomial of
        the target, both in descending order; ``rhs`` runs past the rows of
        the matrix at the others, whose rows are empty."""
        image_rows = self.image_rows
        extra = sorted((m for m in target.terms if m not in image_rows),
                       key=self.derivation.ring.order.key, reverse=True)
        rows = (*image_rows, *extra)
        return rows, self.matrix, tuple(target.terms.get(r, 0) for r in rows)


class Grading:
    """A basis of the integer weights w on the variables, with shifts, such
    that each term t of d(x_i) has w(t) = w(x_i) + shift and the relations'
    reduced basis is w-homogeneous; a monomial's class is its weights.  So d
    maps class c into c + shift and normal forms keep classes: all that a
    target reaches lies in the classes w(m) - shift of its monomials m,
    whose members alone it lists.
    One grading serves a command at one degree bound: it finds its weights
    when a first system is asked for, and keeps the systems it has built;
    their column images stay with the derivation."""

    def __init__(self, derivation: Derivation, max_degree: int):
        self.derivation, self.max_degree = derivation, max_degree
        self.weights: tuple[tuple[int, ...], ...] | None = None
        self.systems: dict[frozenset, PreimageSystem] = {}

    def _grade(self):
        ring, n = self.derivation.ring, self.derivation.ring.nvars
        equations = [[*enumerate(t), (i, -1), (n, -1)]
                     for i, image in enumerate(self.derivation.images) for t in image.terms]
        equations += [[(j, e - f) for j, (e, f) in enumerate(zip(m, lead))]
                      for g, lead in zip(ring.basis, ring.leads) for m in g.terms]
        lattice = null_space(QMatrix(n + 1, equations))
        if any(sum(v[j] * e for j, e in row) for v in lattice for row in equations):
            raise CertificateError("the grading leaves d or the relations inhomogeneous")
        self.weights, self.shift = tuple(v[:n] for v in lattice), tuple(v[n] for v in lattice)

    def weigh(self, monomial: Monomial) -> tuple[int, ...]:
        return tuple(sum(map(int.__mul__, w, monomial)) for w in self.weights)

    def members(self, weight: tuple[int, ...]) -> list[Monomial]:
        """The monomials of degree <= ``max_degree`` and weights ``weight``,
        standard or not, exponent by exponent: a branch is cut when the weight
        still needed lies outside what the degree left can add on the later
        variables, and the last exponent is solved for when it has weight."""
        n, out = self.derivation.ring.nvars, []
        by_var = [[w[j] for w in self.weights] for j in range(n)]
        reach = [[(min(0, *w[j:]), max(0, *w[j:])) for w in self.weights]
                 for j in range(n)]
        last = by_var[-1]
        k = next((k for k, w in enumerate(last) if w), None)

        def extend(prefix: Monomial, left: int, need: list[int]):
            j = len(prefix)
            for c, (lo, hi) in zip(need, reach[j]):
                if not left * lo <= c <= left * hi:
                    return
            if j < n - 1:
                for e in range(left + 1):
                    extend((*prefix, e), left - e, [c - e * w for c, w in zip(need, by_var[j])])
            elif k is None:
                out.extend((*prefix, e) for e in range(left + 1))
            elif [need[k] // last[k] * w for w in last] == need:
                out.append((*prefix, need[k] // last[k]))

        extend((), self.max_degree, list(weight))
        return out

    def system(self, target: Polynomial) -> PreimageSystem:
        """The preimage system on the classes that ``target`` reaches: their
        standard monomials, in ascending order."""
        if self.weights is None:
            self._grade()
        classes = frozenset(tuple(c - s for c, s in zip(self.weigh(m), self.shift))
                            for m in target.terms)
        if classes not in self.systems:
            self.systems[classes] = build_preimage_system(
                self.derivation, [m for c in classes for m in self.members(c)])
        return self.systems[classes]


def build_preimage_system(derivation: Derivation, monomials: Sequence[Monomial]
                          ) -> PreimageSystem:
    """The system whose columns are the standard monomials among
    ``monomials``, in ascending order, with the rows that
    ``Derivation._image_rows`` makes of their images.  Requires a
    degree-compatible order so that the standard monomials of degree <= D
    span the image of every residue class of degree <= D."""
    if derivation.ring.order != DEGREVLEX:
        raise ValueError("bounded preimage search needs a degree-compatible order")
    columns, image_rows = derivation._image_rows(monomials)
    matrix = QMatrix._from_clean(len(columns), image_rows.values())
    return PreimageSystem(columns, derivation, image_rows, matrix)


def preimage_search(system: PreimageSystem, target: Polynomial) -> PreimageResult:
    """Find f of total degree <= the system's bound with derivation(f) =
    target modulo the relations, or prove that none exists in that range.
    Either answer is checked before it is returned."""
    derivation = system.derivation
    ring = derivation.ring
    target = ring.normal_form(target)
    rows, matrix, rhs = system.equations(target)
    solved = solve_exact(matrix, rhs)
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
                      grading: Grading | None = None) -> SearchResult:
    """Decide whether some power of ``element`` is a kernel element that
    is also an image, within the given bounds.  Each power is solved on the
    classes of ``grading`` that it reaches; callers that search several
    elements share one, made for ``derivation`` at ``bounds.max_degree``."""
    if grading is None:
        grading = Grading(derivation, bounds.max_degree)
    elif grading.derivation is not derivation or grading.max_degree != bounds.max_degree:
        raise ValueError("the grading was made for another derivation or degree bound")
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
    power = Polynomial.constant(relations.nvars, 1)
    for n in range(1, bounds.max_power + 1):
        power = relations.normal_form(power * h)
        search = preimage_search(grading.system(power), power)
        if search.found:
            cert = PlinthCertificate(derivation, h, n, search.preimage)
            return SearchResult(Outcome.YES, h, bounds, certificate=cert)
    return SearchResult(Outcome.UNKNOWN, h, bounds)


def dixmier_image(derivation: Derivation, slice_value: RationalFunction,
                  element: Polynomial) -> RationalFunction:
    """Projection of ``element`` onto derivation constants along the slice:
    sum((-slice)^j d^j(element) / j!)."""
    return _dixmier_sums(derivation.ring, slice_value,
                         derivation.iterates(element), 1)[0]


def _dixmier_sums(relations: Ideal, slice_value: RationalFunction,
                  iterates: Sequence[Polynomial], count: int) -> list[RationalFunction]:
    """sum((-slice)^j iterates[k + j] / j!) for k < count by Horner's rule
    on numerators: with slice = P/Q, a running total N/Q^j steps to
    (iterates[m]*Q^(j+1) - P*N/(m-k+1))/Q^(j+1), and j starts again at 0
    when N vanishes.  Each sum is one fraction N/Q^j, reduced and
    simplified."""
    top, bottom = slice_value.num, slice_value.den
    powers = [Polynomial.constant(relations.nvars, 1)]   # powers[j] = Q^j
    sums = []
    for k in range(count):
        total, j = Polynomial.zero(relations.nvars), 0
        for m in range(len(iterates) - 1, k - 1, -1):
            if not total:
                total, j = iterates[m], 0
                continue
            if len(powers) == j + 1:
                powers.append(powers[j] * bottom)
            total = iterates[m] * powers[j + 1] - top * (total * Fraction(1, m - k + 1))
            j += 1
        sums.append(RationalFunction(total, powers[j]).reduce_mod(relations).simplify())
    return sums


def dixmier_reduce(derivation: Derivation, slice_value: RationalFunction,
                   element: Polynomial) -> tuple[RationalFunction, ...]:
    """Coefficients c_k, all derivation constants, with
    element = sum(c_k * slice^k) modulo the relations."""
    relations = derivation.ring
    if not ratfun_eq_mod(relations, derivation._quotient_rule(slice_value), 1):
        raise ValueError("the given value is not a slice on this open set")
    its = derivation.iterates(element)
    coefficients = [RationalFunction(c.num * Fraction(1, math.factorial(k)), c.den)
                    for k, c in enumerate(_dixmier_sums(relations, slice_value, its, len(its)))]
    for c in coefficients:
        if not ratfun_eq_mod(relations, derivation._quotient_rule(c), 0):
            raise CertificateError("Dixmier coefficient is not a constant")
    reconstructed = RationalFunction.zero(relations.nvars)
    for c in reversed(coefficients):   # Horner's rule in the slice
        reconstructed = reconstructed * slice_value + c
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
    certified exactly.  d maps each class into one class, so only the class
    system of 1 is solved; the result reports the full system, every standard
    monomial of degree <= ``max_degree``, with the certificate lifted to its
    rows, zero off the class, and checked against its matrix."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    one = Polynomial.constant(derivation.ring.nvars, 1)
    full = build_preimage_system(derivation, standard_monomials(derivation.ring, max_degree))
    search = preimage_search(Grading(derivation, max_degree).system(one), one)
    rows, matrix, rhs = full.equations(one)
    certificate = search.certificate
    if certificate is not None:
        lifted = dict.fromkeys(rows, Fraction(0))
        lifted.update(zip(search.row_monomials, certificate.multipliers))
        certificate = Inconsistency(tuple(lifted.values()), certificate.value)
        if not certificate.verify(matrix, rhs):
            raise CertificateError("inconsistency certificate does not verify")
    return PreimageResult(search.preimage, certificate, rows, full.columns)


def plinth_claim_verify(derivation: Derivation, claimed: Sequence[Polynomial],
                        bounds: SearchBounds = SearchBounds(),
                        grading: Grading | None = None) -> PlinthClaimReport:
    """Check a claimed plinth generating set: every generator must pass the
    kernel test and exhibit a power with a preimage.  Also returns the
    ideal the claimed generators span; on the variety its zero locus is
    the complement of the union of invariant principal cylinders.  One
    grading, as for ``plinth_membership``, serves every generator."""
    if not claimed:
        raise ValueError("no generators claimed")
    grading = grading or Grading(derivation, bounds.max_degree)
    entries = tuple(plinth_membership(derivation, g, bounds, grading)
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
    gcd = functools.reduce(gcd_via_lcm, gens[1:], gens[0].content_split()[1])
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
    grading = Grading(derivation, bounds.max_degree)
    claim = plinth_claim_verify(derivation, claimed, bounds, grading)
    if claim.outcome is not Outcome.YES:
        return MaximalCylinderResult(claim.outcome, claim)
    principality = principality_check(claim.complement, derivation.ring)
    if principality.outcome is not Outcome.YES:
        return MaximalCylinderResult(principality.outcome, claim, principality)
    h = derivation.ring.normal_form(principality.gcd)
    plinth = next((e for e in claim.entries if e.element == h), None)
    if plinth is None:
        plinth = plinth_membership(derivation, principality.gcd, bounds, grading)
    decision = cylinder_from_plinth(plinth)
    return MaximalCylinderResult(decision.outcome, claim, principality, decision)
