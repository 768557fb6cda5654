import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lndtools.cylinder
import lndtools.groebner
from lndtools.cylinder import Grading, PlinthCertificate, _dixmier_sums
from helpers import (
    assert_same_terms,
    danielewski,
    dixmier_sum,
    full_system,
    leibniz_oracle,
    monomials_up_to,
    plane,
    random_fraction,
    random_poly,
    translation4,
    triangular3,
)
from lndtools import (
    CertificateError,
    CylinderCertificate,
    DEGREVLEX,
    Derivation,
    Ideal,
    Inconsistency,
    LEX,
    Outcome,
    Polynomial,
    QMatrix,
    RationalFunction,
    SearchBounds,
    build_preimage_system,
    cylinder_decision,
    dixmier_image,
    dixmier_reduce,
    format_ratfun,
    maximal_cylinder,
    parse_polynomial,
    parse_spec,
    plinth_claim_verify,
    plinth_membership,
    preimage_search,
    principality_check,
    ratfun_eq_mod,
    slice_nonexistence,
    spec_derivation,
)

XYZ = ["x", "y", "z"]


def P(text, names=XYZ):
    return parse_polynomial(text, names)


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_power=0)
    with pytest.raises(ValueError):
        SearchBounds(max_degree=-1)


def test_kernel_check():
    d, _ = triangular3()
    assert d.apply(P("z")).is_zero
    assert d.apply(P("y^2 - 2*x*z")).is_zero
    assert not d.apply(P("x")).is_zero
    surface, _ = danielewski()
    assert surface.apply(P("y^2 - 2*x*z")).is_zero  # constant on the surface


# ----------------------------------------------------------------------
# preimage search


def test_preimage_of_z_is_exactly_y():
    d, _ = triangular3()
    for bound in (1, 4, 8):
        result = preimage_search(full_system(d, bound), P("z"))
        assert result.found
        assert result.preimage == P("y")


def test_constructed_targets_always_resolve():
    rng = random.Random(701)
    builders = (triangular3, danielewski, translation4, plane)
    for _ in range(200):
        d, _ = rng.choice(builders)()
        nvars = d.ring.nvars
        f = d.ring.normal_form(random_poly(rng, nvars, max_total=3, max_terms=3))
        target = d.apply(f)
        system = full_system(d, max(f.total_degree(), 0))
        result = preimage_search(system, target)
        assert result.found
        assert d.apply(result.preimage) == target


def test_feasibility_is_monotone_in_the_bound():
    rng = random.Random(702)
    d, _ = triangular3()
    for _ in range(50):
        f = random_poly(rng, 3, max_total=2, max_terms=3)
        target = d.apply(f)
        bound = max(f.total_degree(), 0)
        low = preimage_search(full_system(d, bound), target)
        high = preimage_search(full_system(d, bound + 2), target)
        assert low.found and high.found


def test_unreachable_target_yields_checkable_certificate():
    d, _ = triangular3()
    one = P("1")
    for bound in (0, 3, 6):
        system = full_system(d, bound)
        result = preimage_search(system, one)
        assert not result.found
        rows, matrix, rhs = system.equations(one)
        assert rows == result.row_monomials
        assert system.columns == result.column_monomials
        assert result.certificate.verify(matrix, rhs)


def test_shared_system_matches_a_fresh_one():
    # one system serves every target, found or not; equal results have the
    # same preimage, certificate (multipliers and value), rows and columns
    rng = random.Random(703)
    outcomes = set()
    for example in (triangular3, danielewski, translation4, plane):
        d, _ = example()
        nvars = d.ring.nvars
        for bound in (1, 3):
            shared = full_system(d, bound)
            targets = [Polynomial.constant(nvars, 1)]
            for _ in range(12):
                f = random_poly(rng, nvars, max_total=bound, max_terms=3)
                targets += [d.apply(f), random_poly(rng, nvars, max_total=3)]
            for target in targets:
                result = preimage_search(shared, target)
                fresh = preimage_search(full_system(d, bound), target)
                assert result == fresh
                outcomes.add(result.found)
    assert outcomes == {True, False}


def grading_cases():
    """(derivation, elements, max_degree, grading rank) to search on."""
    xy = ["x", "y"]
    rank0 = Derivation(Ideal(2), [P("1 + y", xy), P("1", xy)])
    yield rank0, [P("2*x - 2*y - y^2", xy), P("1", xy), P("x", xy)], 4, 0
    # x*z^2 = p(y), p seeded: D(z) is a cylinder at n = 2 and no lower
    rng = random.Random(2510)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4)]
    p = sum((y ** i * c for i, c in enumerate(coeffs)), Polynomial.zero(3))
    dp = sum((y ** (i - 1) * (i * c) for i, c in enumerate(coeffs) if i),
             Polynomial.zero(3))
    surface = Derivation(Ideal(3, [x * z ** 2 - p]), [dp, z ** 2, Polynomial.zero(3)])
    yield surface, [z, z + 1], 8, 1
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    a4 = spec_derivation(parse_spec((corpus / "ex_a4.lnd").read_text(encoding="utf-8")))
    uv = ["x", "y", "u", "v"]
    yield a4, [P(e, uv) for e in ("u", "v", "u + v", "u*v - 1", "x*v - y*u")], 4, 3
    # the least degree bounds: the constants alone, then the variables too
    for max_degree in (0, 1):
        yield a4, [P(e, uv) for e in ("u", "u*v - 1")], max_degree, 3
        yield surface, [z, z + 1], max_degree, 1
    # z + 1 spans two classes on the Danielewski surface
    d, _ = danielewski()
    yield d, [P("z"), P("z + 1"), P("z^2 - 3*z")], 6, 1
    # weights (-1, 0, 1) and shift 1: z reaches class 0, which holds the
    # relation's leading monomial y^2, and the listing must drop it
    text = (corpus / "ex_danielewski.lnd").read_text(encoding="utf-8")
    yield spec_derivation(parse_spec(text)), [P("z"), P("x*z + y")], 7, 1


def test_class_systems_agree_with_the_full_system():
    # the oracle: on every power, a class system finds the full system's
    # preimage, or both find none; a class system's columns are the full
    # system's columns of the classes it reaches, in order, and its images
    # are d's
    outcomes, spans, dropped = set(), set(), set()
    for d, elements, max_degree, rank in grading_cases():
        grading = Grading(d, max_degree)
        full = full_system(d, max_degree)
        for h in elements:
            power = Polynomial.constant(d.ring.nvars, 1)
            for _ in range(3):
                power = d.ring.normal_form(power * h)
                system = grading.system(power)
                result = preimage_search(system, power)
                assert result.preimage == preimage_search(full, power).preimage
                outcomes.add(result.found)
                spans.add(len({grading.weigh(m) for m in power.terms}))
                reached = {tuple(c - s for c, s in zip(grading.weigh(m), grading.shift))
                           for m in power.terms}
                assert system.columns == tuple(m for m in full.columns
                                               if grading.weigh(m) in reached)
                dropped.update(m for c in reached for m in grading.members(c)
                               if m not in system.columns)
                for mono, image in zip(system.columns, column_images(system)):
                    want = leibniz_oracle(d, Polynomial.monomial(d.ring.nvars, mono))
                    assert_same_terms(image, want.terms)
        assert len(grading.weights) == rank
    assert outcomes == {True, False} and max(spans) > 1
    assert (0, 2, 0) in dropped


def column_images(system):
    """The image of each column, read back from the system's rows."""
    images = [{} for _ in system.columns]
    for mono, row in system.image_rows.items():
        for col, value in row:
            images[col][mono] = value
    return images


def assert_applies_as_oracle(d, f):
    """d.apply, and apply_rational's numerator and denominator of
    f/(1 + the last variable), agree with ``leibniz_oracle`` and the quotient
    rule on it, coefficient types included."""
    assert_same_terms(d.apply(f).terms, leibniz_oracle(d, f).terms)
    nvars = d.ring.nvars
    den = Polynomial.variable(nvars, nvars - 1) + 1
    got = d.apply_rational(RationalFunction(f, den))
    want = RationalFunction(den * leibniz_oracle(d, f) - f * leibniz_oracle(d, den), den * den)
    assert_same_terms(got.num.terms, want.num.terms)
    assert_same_terms(got.den.terms, want.den.terms)


def assert_images_match_oracle(d, max_degree, rng, every=1):
    """Every ``every``-th column image of the full system at ``max_degree``
    is the oracle's, and so is d on its column monomial and on seeded
    polynomials with Fraction coefficients."""
    system = full_system(d, max_degree)
    nvars = d.ring.nvars
    for mono, image in list(zip(system.columns, column_images(system)))[::every]:
        f = Polynomial.monomial(nvars, mono)
        assert_same_terms(image, leibniz_oracle(d, f).terms)
        assert_applies_as_oracle(d, f)
    for _ in range(10):
        assert_applies_as_oracle(d, random_poly(rng, nvars, max_total=4, max_terms=4))
    return system


def test_column_images_equal_derivation_apply():
    # against the Polynomial-arithmetic oracle, which shares no code with
    # the packed kernel that makes both the column images and d.apply
    rng = random.Random(706)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    specs = sorted(corpus.glob("*.lnd"))
    assert len(specs) == 5
    for path in specs:
        d = spec_derivation(parse_spec(path.read_text(encoding="utf-8")))
        assert d.ring.order is DEGREVLEX
        assert_images_match_oracle(d, 8, rng)
    # x*z^k = p(y), d(x) = p'(y), d(y) = z^k, d(z) = 0, with seeded p; at
    # k = 1 and deg p = 4 the leading monomial is y^4, whose coefficient 3
    # makes the monic basis element, and so the images, carry Fractions
    rng = random.Random(707)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    for k, deg, lead in [(1, 4, 3), (1, 2, 1), (2, 2, -2), (2, 3, 5), (3, 2, 1)]:
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(deg)] + [lead]
        p = sum((y ** i * c for i, c in enumerate(coeffs)), Polynomial.zero(3))
        dp = sum((y ** (i - 1) * (i * c) for i, c in enumerate(coeffs) if i),
                 Polynomial.zero(3))
        d = Derivation(Ideal(3, [x * z ** k - p]), [dp, z ** k, Polynomial.zero(3)])
        assert d.check_preserves_relations() is None
        system = assert_images_match_oracle(d, 8, rng)
        if (k, deg) == (1, 4):
            assert any(type(v) is Fraction
                       for row in system.image_rows.values() for _, v in row)
    # a monomial relation: x*y and its multiples have normal form zero
    d = Derivation(Ideal(3, [x * y]), [x * z, 3 * y * z, x + y])
    assert d.check_preserves_relations() is None
    assert_images_match_oracle(d, 8, rng)
    # images with Fraction coefficients, over the common denominators 6
    # and 3 in the kernel, on the free ring and on the Danielewski surface
    half, third = Fraction(1, 2), Fraction(1, 3)
    for ring, images in [(Ideal(3), [y * half, z * Fraction(2, 3), Polynomial.zero(3)]),
                         (Ideal(3, [y * y - x * z * 2 - 1]),
                          [y * third, z * third, Polynomial.zero(3)])]:
        d = Derivation(ring, images)
        assert d.check_preserves_relations() is None
        system = assert_images_match_oracle(d, 6, rng)
        assert any(type(v) is Fraction for row in system.image_rows.values() for _, v in row)
    # x*y = 1 at degree 400: x^k*y^400 reduces one step per factor x*y,
    # so each image needs up to 400 reductions; the oracle, in Fraction
    # arithmetic, checks one column in 16
    x, y = (Polynomial.variable(2, i) for i in range(2))
    d = Derivation(Ideal(2, [x * y - 1]), [x * y ** 400, -y ** 401])
    assert d.check_preserves_relations() is None
    assert len(assert_images_match_oracle(d, 400, rng, every=16).columns) == 801


def test_derivation_under_lex_matches_the_oracle():
    # apply and the quotient rule pack under the ring's
    # own order; the preimage system, which needs degrevlex, is not built
    rng = random.Random(708)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    ring = Ideal(3, [y * y - x * z * 2 - 1], LEX)
    d = Derivation(ring, [y * Fraction(1, 3), z * Fraction(1, 3), Polynomial.zero(3)])
    assert d.check_preserves_relations() is None
    assert d.ring.leads != Ideal(3, [y * y - x * z * 2 - 1]).leads
    for mono in monomials_up_to(3, 5):
        assert_applies_as_oracle(d, Polynomial.monomial(3, mono))
    for _ in range(30):
        assert_applies_as_oracle(d, random_poly(rng, 3, max_total=5, max_terms=5))


def test_kernel_restarts_at_twice_the_width():
    # d(x) = y^70000 outgrows 16-bit fields: apply, the quotient rule and
    # the column images all start again at 32 bits
    x, y = (Polynomial.variable(2, i) for i in range(2))
    d = Derivation(Ideal(2), [y ** 70000, Polynomial.zero(2)])
    for f in (x, x * x):
        assert_applies_as_oracle(d, f)
    assert d.apply(x * x) == x * y ** 70000 * 2
    system = full_system(d, 2)
    for mono, image in zip(system.columns, column_images(system)):
        assert_same_terms(image, leibniz_oracle(d, Polynomial.monomial(2, mono)).terms)
    assert (0, 70000) in system.image_rows
    # d(x) = y^65530 packs at 16 bits, but the sums d(x^10) = 10*x^9*y^65530
    # and d(x*y^10) = y^65540 set a guard bit, of the degree's field and of
    # y's, which restarts the call
    d = Derivation(Ideal(2), [y ** 65530, Polynomial.zero(2)])
    for f in (x ** 10, x * y ** 10):
        assert_applies_as_oracle(d, f)


def test_grading_keeps_images_apart_by_width():
    # d(x) = y^65530: the image of x fits 16-bit fields, that of x^10 does
    # not, so the second system starts again at 32 bits, where the images
    # of the variables, packed at 16 bits by the first, are packed anew
    x, y = (Polynomial.variable(2, i) for i in range(2))
    d = Derivation(Ideal(2), [y ** 65530, Polynomial.zero(2)])
    grading = Grading(d, 10)
    for target, preimage in [(y ** 65530, x),
                             (y ** 65530 + x ** 9 * y ** 65530, x + x ** 10 * Fraction(1, 10))]:
        system = grading.system(target)
        for mono, image in zip(system.columns, column_images(system)):
            assert_same_terms(image, leibniz_oracle(d, Polynomial.monomial(2, mono)).terms)
        assert preimage_search(system, target).preimage == preimage
    assert system.columns == ((1, 0), (10, 0))
    assert sorted(d._packed) == [16, 32]


def test_listing_keeps_the_standard_monomials_in_order():
    # a build drops what a leading monomial divides and sorts the rest as
    # degrevlex does, also when a leading monomial, x*y^70000, outgrows
    # 16-bit fields and the build starts again at 32 bits
    x, y = (Polynomial.variable(2, i) for i in range(2))
    monos = [(a, b) for a in range(5) for b in range(5)][::-1]
    for relation, standard in [(x * y ** 3, lambda m: not (m[0] and m[1] >= 3)),
                               (x * y ** 70000, lambda m: True)]:
        d = Derivation(Ideal(2, [relation]), [x, -y])
        assert d.check_preserves_relations() is None
        system = build_preimage_system(d, monos)
        assert system.columns == tuple(sorted(filter(standard, monos), key=DEGREVLEX.key))
        for mono, image in zip(system.columns, column_images(system)):
            assert_same_terms(image, leibniz_oracle(d, Polynomial.monomial(2, mono)).terms)


def test_a_grading_packs_each_listed_monomial_once(monkeypatch):
    # the generator images and the relations' leads are packed by a first
    # apply; a system then packs the monomials it lists once, standard or
    # not, to filter, sort and image them in one pass
    d, _ = danielewski()
    d.apply(P("x"))
    grading = Grading(d, 6)
    packed, listed = [], []
    pack_all, members = lndtools.groebner._Packing.pack_all, Grading.members

    def counted_pack_all(self, monos):
        monos = list(monos)
        packed.extend(monos)
        return pack_all(self, monos)

    def counted_members(self, weight):
        listed.append(members(self, weight))
        return listed[-1]

    monkeypatch.setattr(lndtools.groebner._Packing, "pack_all", counted_pack_all)
    monkeypatch.setattr(Grading, "members", counted_members)
    system = grading.system(P("z + 1"))
    listed = [m for group in listed for m in group]
    assert len(listed) == len(set(listed)) and sorted(packed) == sorted(listed)
    assert 0 < len(system.columns) < len(listed)


def test_preimage_search_requires_degree_compatible_order():
    from lndtools import LEX

    names = ["x", "y"]
    ring = Ideal(2, [], LEX)
    d = Derivation(ring, [parse_polynomial("y", names),
                          parse_polynomial("0", names)])
    with pytest.raises(ValueError):
        preimage_search(full_system(d, 2), parse_polynomial("y", names))


# ----------------------------------------------------------------------
# plinth membership


def test_plinth_membership_frozen_cases():
    d, _ = triangular3()
    result = plinth_membership(d, P("z"))
    assert result.outcome is Outcome.YES
    assert result.certificate.power == 1
    assert result.certificate.preimage == P("y")

    negative = plinth_membership(d, P("x"))
    assert negative.outcome is Outcome.NO
    assert negative.obstruction == P("y")

    open_case = plinth_membership(d, P("y^2 - 2*x*z"))
    assert open_case.outcome is Outcome.UNKNOWN
    assert open_case.certificate is None

    names4 = ["x", "y", "u", "v"]
    d4, _ = translation4()
    for gen, pre in (("u", "x"), ("v", "y")):
        result = plinth_membership(d4, parse_polynomial(gen, names4))
        assert result.outcome is Outcome.YES
        assert result.certificate.power == 1
        assert result.certificate.preimage == parse_polynomial(pre, names4)
    wedge = plinth_membership(d4, parse_polynomial("x*v - y*u", names4),
                              SearchBounds(max_power=2, max_degree=6))
    assert wedge.outcome is Outcome.UNKNOWN

    flat, names2 = plane()
    result = plinth_membership(flat, parse_polynomial("y", names2))
    assert result.outcome is Outcome.YES
    assert result.certificate.power == 2
    assert result.certificate.preimage == parse_polynomial("x", names2)


def test_plinth_membership_validation():
    d, _ = triangular3()
    with pytest.raises(ValueError):
        plinth_membership(d, Polynomial.zero(3))
    surface, _ = danielewski()
    with pytest.raises(ValueError):
        plinth_membership(surface, P("y^2 - 2*x*z - 1"))


def test_nilpotent_elements_are_refused():
    # with x^2 = 0, D(x) is empty although d(y) = x is a plinth identity
    names = ["x", "y"]
    ring = Ideal(2, [parse_polynomial("x^2", names)])
    d = Derivation(ring, [parse_polynomial(e, names) for e in ("0", "x")])
    for text in ("x", "3*x", "x*y", "x^3"):
        element = parse_polynomial(text, names)
        with pytest.raises(ValueError, match="open set is empty"):
            plinth_membership(d, element)
        with pytest.raises(ValueError, match="open set is empty"):
            cylinder_decision(d, element)
    # y is not nilpotent, and d(y) = x rules it out
    result = plinth_membership(d, parse_polynomial("y", names))
    assert (result.outcome, result.obstruction) == (Outcome.NO,
                                                    parse_polynomial("x", names))


def test_kernel_multiples_of_z_are_plinth_members():
    # pl contains z*Ker: z*k = d(y*k) whenever k is constant
    rng = random.Random(703)
    d, _ = triangular3()
    z = P("z")
    h = P("y^2 - 2*x*z")
    for _ in range(60):
        k = Polynomial.constant(3, 1)
        for _ in range(rng.randint(0, 2)):
            k = k * rng.choice([z, h])
        k = k * Fraction(rng.randint(1, 5))
        element = z * k
        result = plinth_membership(d, element)
        assert result.outcome is Outcome.YES
        assert d.apply(result.certificate.preimage) == \
            d.ring.normal_form(element ** result.certificate.power)


def test_verified_plinth_elements_have_verified_squares():
    # h = d(f) gives h^2 = d(h*f) since h is constant
    d, _ = triangular3()
    for text in ("z", "z^2", "z*y^2 - 2*x*z^2"):
        base = plinth_membership(d, P(text))
        assert base.outcome is Outcome.YES
        square = plinth_membership(d, P(text) ** 2,
                                   SearchBounds(max_power=1, max_degree=8))
        assert square.outcome is Outcome.YES


# ----------------------------------------------------------------------
# Dixmier reduction


def test_dixmier_images_frozen():
    d, _ = triangular3()
    sigma = RationalFunction(P("y"), P("z"))
    pi_x = dixmier_image(d, sigma, P("x"))
    assert pi_x == RationalFunction(P("-1/2*y^2 + x*z"), P("z"))
    assert dixmier_image(d, sigma, P("y")) == 0
    assert dixmier_image(d, sigma, P("z")) == RationalFunction(P("z"))


def test_dixmier_images_are_constants():
    rng = random.Random(704)
    d, _ = triangular3()
    sigma = RationalFunction(P("y"), P("z"))
    for _ in range(100):
        b = random_poly(rng, 3, max_total=3, max_terms=3)
        image = dixmier_image(d, sigma, b)
        assert d.apply_rational(image) == 0


def test_dixmier_reconstruction_random():
    rng = random.Random(705)
    d, _ = triangular3()
    sigma = RationalFunction(P("y"), P("z"))
    for _ in range(100):
        b = random_poly(rng, 3, max_total=3, max_terms=3)
        coeffs = dixmier_reduce(d, sigma, b)
        total, power = RationalFunction.zero(3), RationalFunction(P("1"))
        for c in coeffs:
            total, power = total + c * power, power * sigma
        assert total == RationalFunction(b)


def test_dixmier_reconstruction_on_the_surface():
    rng = random.Random(706)
    surface, _ = danielewski()
    relations = surface.ring
    sigma = RationalFunction(P("y"), P("z"))
    for _ in range(60):
        b = surface.ring.normal_form(random_poly(rng, 3, max_total=3, max_terms=3))
        coeffs = dixmier_reduce(surface, sigma, b)
        total, power = RationalFunction.zero(3), RationalFunction(P("1"))
        for c in coeffs:
            total, power = total + c * power, power * sigma
        assert ratfun_eq_mod(relations, total, RationalFunction(b))


def test_dixmier_reduce_applies_d_once_per_iterate(monkeypatch):
    # the coefficients c_k come from the tails of one list of iterates; the
    # checks' own calls, made inside apply_rational, are not counted
    path = Path(__file__).resolve().parent.parent / "corpus" / "ex_fp.lnd"
    d = spec_derivation(parse_spec(path.read_text(encoding="utf-8")))
    sigma = RationalFunction(P("y"), P("z"))
    calls = []
    apply = Derivation.apply

    def counted(self, f):
        if sys._getframe(1).f_code.co_name != "apply_rational":
            calls.append(f)
        return apply(self, f)

    monkeypatch.setattr(Derivation, "apply", counted)
    coeffs = dixmier_reduce(d, sigma, P("x^3*y^2"))
    assert len(calls) == 9
    assert [format_ratfun(c, XYZ) for c in coeffs] == [
        "0", "0",
        "(-1/8*y^6 + 3/4*x*y^4*z - 3/2*x^2*y^2*z^2 + x^3*z^3)/z", "0",
        "3/8*y^4*z - 3/2*x*y^2*z^2 + 3/2*x^2*z^3", "0",
        "-3/8*y^2*z^3 + 3/4*x*z^4", "0", "1/8*z^5"]


def test_dixmier_coefficients_match_the_per_coefficient_reference():
    # slices y/z + p/q, x/u + p/q with p, q seeded kernel elements: every
    # coefficient, and the image, is the very fraction, numerator and
    # denominator, that one sum per coefficient gives
    rng = random.Random(707)
    cases = ((triangular3, "y", "z", ("z", "y^2 - 2*x*z")),
             (danielewski, "y", "z", ("z",)),
             (translation4, "x", "u", ("u", "v")))
    for build, top, bottom, kernel in cases:
        d, names = build()
        nvars = len(names)
        kernel = [parse_polynomial(k, names) for k in kernel]

        def constant():
            total = Polynomial.zero(nvars)
            for _ in range(rng.randint(1, 2)):
                term = Polynomial.constant(nvars, random_fraction(rng, 3))
                for k in kernel:
                    term = term * k ** rng.randint(0, 1)
                total = total + term
            return total

        for _ in range(8):
            p, q = constant(), constant() or Polynomial.constant(nvars, 1)
            sigma = RationalFunction(parse_polynomial(top, names) * q + p,
                                     parse_polynomial(bottom, names) * q)
            b = d.ring.normal_form(random_poly(rng, nvars, max_total=3, max_terms=3))
            its = d.iterates(b)
            coeffs = dixmier_reduce(d, sigma, b)
            # the element 0 has no iterates and the one coefficient 0
            assert len(coeffs) == max(len(its), 1)
            for k, c in enumerate(coeffs):
                want = dixmier_sum(d.ring, sigma, its[k:]) * Fraction(1, math.factorial(k))
                assert (c.num, c.den) == (want.num, want.den)
            image, want = dixmier_image(d, sigma, b), dixmier_sum(d.ring, sigma, its)
            assert (image.num, image.den) == (want.num, want.den)
    # on the surface: a Horner total that vanishes before the last step, so
    # the power of the denominator starts again from 1 (at k = 0 the
    # numerator x*(y+1) - x*(2y+2)/2 is 0) ...
    d, _ = danielewski()
    sigma = RationalFunction(P("x"), P("y + 1"))
    its = [P("z"), P("x"), P("2*y + 2")]
    sums = _dixmier_sums(d.ring, sigma, its, len(its))
    assert [format_ratfun(s, XYZ) for s in sums] == ["z", "-x", "2*y + 2"]
    for k, c in enumerate(sums):
        want = dixmier_sum(d.ring, sigma, its[k:])
        assert (c.num, c.den) == (want.num, want.den)
    # ... and a slice whose numerator and denominator share the monomial z,
    # where a numerator N and z^j share a power of z, which the one fraction
    # per sum strips as a total made a fraction at every step did
    sigma = RationalFunction(P("y + z"), P("z"))
    for b in (P("x"), P("x^2 + y"), P("x*y*z - 3*x^2")):
        its = d.iterates(b)
        for k, c in enumerate(dixmier_reduce(d, sigma, b)):
            want = dixmier_sum(d.ring, sigma, its[k:]) * Fraction(1, math.factorial(k))
            assert (c.num, c.den) == (want.num, want.den)


def test_dixmier_sums_keep_one_power_of_the_slice_denominator(monkeypatch):
    # by Horner's rule a sum over J iterates has a denominator dividing
    # den(slice)^(J-1) before simplify, whose gcd costs grow with it; a sum
    # of the terms (-slice)^j/j! would multiply their denominators (12 here)
    d, names = translation4()
    sigma = RationalFunction(parse_polynomial("x*(u*y - v*x + 2) + v", names),
                             parse_polynomial("u*(u*y - v*x + 2)", names))
    element = parse_polynomial("x^3", names)
    assert len(d.iterates(element)) == 4
    degrees, simplify = [], RationalFunction.simplify

    def recording(self):
        degrees.append(self.den.total_degree())
        return simplify(self)

    monkeypatch.setattr(RationalFunction, "simplify", recording)
    image = dixmier_image(d, sigma, element)
    assert degrees and max(degrees) <= 3 * sigma.den.total_degree() == 9
    assert image == dixmier_sum(d.ring, sigma, d.iterates(element))


def test_dixmier_reduce_rejects_non_slices():
    d, _ = triangular3()
    with pytest.raises(ValueError, match="not a slice"):
        dixmier_reduce(d, RationalFunction(P("y"), P("z^2")), P("x"))
    surface, _ = danielewski()
    with pytest.raises(ValueError, match="not a slice"):
        dixmier_reduce(surface, RationalFunction(P("x"), P("z")), P("x"))


@pytest.mark.parametrize("added, message", [("x", "not a constant"),
                                             ("1", "do not reconstruct")])
def test_dixmier_reduce_rejects_doctored_coefficients(monkeypatch, added, message):
    # whatever computed the sums, each is checked as a derivation constant
    # and all of them against the element: x/z added to the first is not a
    # constant, and 1/z is a constant but a wrong one
    d, _ = danielewski()
    sums = lndtools.cylinder._dixmier_sums

    def doctored(relations, slice_value, iterates, count):
        out = sums(relations, slice_value, iterates, count)
        return [out[0] + RationalFunction(P(added), P("z")), *out[1:]]

    monkeypatch.setattr(lndtools.cylinder, "_dixmier_sums", doctored)
    with pytest.raises(CertificateError, match=message):
        dixmier_reduce(d, RationalFunction(P("y"), P("z")), P("x"))


def test_certificate_constructor_rejects_doctored_slices():
    d, _ = triangular3()
    cert = cylinder_decision(d, P("z")).certificate
    with pytest.raises(CertificateError):
        # slice y*z/z^2: the preimage y*z hits z^2, not the claimed z^1
        CylinderCertificate(d, cert.element, cert.power, P("y*z"),
                            cert.dixmier_images)
    with pytest.raises(CertificateError):
        CylinderCertificate(d, cert.element, cert.power, cert.preimage,
                            (RationalFunction(P("x")),) + cert.dixmier_images[1:])


def test_certificate_constructor_ties_the_slice_to_the_plinth():
    d, _ = triangular3()
    cert = cylinder_decision(d, P("z")).certificate
    # a cylinder certificate is the plinth certificate it extends, so its
    # slice is that plinth's preimage over its power and nothing else
    assert isinstance(cert, PlinthCertificate)
    assert cert.slice_value == RationalFunction(cert.preimage,
                                                cert.element ** cert.power)
    plinth = PlinthCertificate(d, cert.element, cert.power, cert.preimage)
    assert plinth.slice_value == cert.slice_value
    for images in ((), cert.dixmier_images[:2], cert.dixmier_images * 2):
        with pytest.raises(CertificateError):
            CylinderCertificate(d, cert.element, cert.power, cert.preimage,
                                images)
    # the same slice, as y*z over the power z^2, is accepted
    assert CylinderCertificate(d, cert.element, 2, P("y*z"),
                               cert.dixmier_images)


# ----------------------------------------------------------------------
# cylinder decisions


def test_cylinder_over_z_frozen():
    d, _ = triangular3()
    decision = cylinder_decision(d, P("z"))
    assert decision.outcome is Outcome.YES
    cert = decision.certificate
    assert cert.slice_value == RationalFunction(P("y"), P("z"))
    assert cert.dixmier_images == (
        RationalFunction(P("-1/2*y^2 + x*z"), P("z")),
        RationalFunction.zero(3),
        RationalFunction(P("z")),
    )


def test_cylinder_on_the_surface_frozen():
    surface, _ = danielewski()
    decision = cylinder_decision(surface, P("z"))
    assert decision.outcome is Outcome.YES
    cert = decision.certificate
    assert cert.slice_value == RationalFunction(P("y"), P("z"))
    assert cert.dixmier_images[0] == RationalFunction(P("-1/2"), P("z"))
    assert cert.dixmier_images[1] == 0
    assert cert.dixmier_images[2] == RationalFunction(P("z"))


def test_cylinder_negative_and_open_cases():
    d, _ = triangular3()
    negative = cylinder_decision(d, P("x"))
    assert negative.outcome is Outcome.NO
    assert negative.obstruction == P("y")
    assert negative.certificate is None
    open_case = cylinder_decision(d, P("y^2 - 2*x*z"))
    assert open_case.outcome is Outcome.UNKNOWN


def test_cylinders_over_u_and_v():
    d4, names4 = translation4()
    for gen in ("u", "v"):
        decision = cylinder_decision(d4, parse_polynomial(gen, names4))
        assert decision.outcome is Outcome.YES
        for image in decision.certificate.dixmier_images:
            assert d4.apply_rational(image) == 0


# ----------------------------------------------------------------------
# global slices


def test_no_global_slice_certificates():
    for builder in (triangular3, danielewski, translation4, plane):
        d, _ = builder()
        result = slice_nonexistence(d, 6)
        assert not result.found
        one = Polynomial.constant(d.ring.nvars, 1)
        rows, matrix, rhs = full_system(d, 6).equations(one)
        assert result.certificate.verify(matrix, rhs)
        assert result.nonzero_multipliers()


def test_slice_nonexistence_checks_its_certificate(monkeypatch):
    d, _ = triangular3()
    one = Polynomial.constant(d.ring.nvars, 1)
    _, matrix, rhs = full_system(d, 3).equations(one)
    doctored = Inconsistency((Fraction(1),) * matrix.rows, Fraction(1))
    assert not doctored.verify(matrix, rhs)
    monkeypatch.setattr(QMatrix, "_solve", lambda self, rhs: doctored)
    with pytest.raises(CertificateError):
        slice_nonexistence(d, 3)


def test_every_inconsistency_is_verified(monkeypatch):
    d, _ = triangular3()
    verified = []
    verify = Inconsistency.verify

    def counted(self, matrix, rhs):
        verified.append((self, matrix))
        return verify(self, matrix, rhs)

    monkeypatch.setattr(Inconsistency, "verify", counted)
    # y^2 - 2*x*z is a kernel element with no preimage of its powers
    result = plinth_membership(d, P("y^2 - 2*x*z"), SearchBounds(3, 4))
    assert result.outcome is Outcome.UNKNOWN
    assert len(verified) == 3
    # slice-none checks its class certificate, then the one it lifts to the
    # full system, which it returns
    result = slice_nonexistence(d, 2)
    assert len(verified) == 5
    certificate, matrix = verified[-1]
    assert certificate is result.certificate
    assert matrix.cols == len(result.column_monomials) == 10
    # a certificate that fails its check ends the search
    monkeypatch.setattr(QMatrix, "_solve", lambda self, rhs:
                        Inconsistency((Fraction(1),) * len(rhs), Fraction(1)))
    with pytest.raises(CertificateError):
        plinth_membership(d, P("z"))


def test_slice_none_solves_only_the_class_of_one(monkeypatch):
    # the full system is built for its rows, its columns and the check of
    # the lifted certificate, but only the class system of 1 is solved, so
    # the full matrix is never eliminated
    path = Path(__file__).resolve().parent.parent / "corpus" / "ex_danielewski.lnd"
    d = spec_derivation(parse_spec(path.read_text(encoding="utf-8")))
    built, solved = [], []
    build, solve = lndtools.cylinder.build_preimage_system, QMatrix._solve
    monkeypatch.setattr(lndtools.cylinder, "build_preimage_system",
                        lambda *args: built.append(build(*args)) or built[-1])
    monkeypatch.setattr(QMatrix, "_solve",
                        lambda self, rhs: solved.append(self) or solve(self, rhs))
    result = slice_nonexistence(d, 6)
    full, part = built
    assert full.columns == result.column_monomials and len(full.columns) == 49
    assert solved == [part.matrix] and part.matrix.cols < full.matrix.cols
    assert full.matrix.pivots is None
    rows, matrix, rhs = full.equations(P("1"))
    assert rows == result.row_monomials and result.certificate.verify(matrix, rhs)


def test_slice_found_when_one_exists():
    names = ["x", "y"]
    ring = Ideal(len(names))
    shift = Derivation(ring, [parse_polynomial("1", names),
                              parse_polynomial("0", names)])
    result = slice_nonexistence(shift, 3)
    assert result.found
    assert result.preimage == parse_polynomial("x", names)
    assert result.certificate is None


# ----------------------------------------------------------------------
# plinth claims, principality, maximal cylinders


def test_plinth_claim_reports_frozen():
    d, _ = triangular3()
    report = plinth_claim_verify(d, [P("z")])
    assert report.outcome is Outcome.YES
    assert report.complement.basis == (P("z"),)

    surface, _ = danielewski()
    report = plinth_claim_verify(surface, [P("z")])
    assert report.outcome is Outcome.YES
    assert report.complement.basis == (P("z"),)

    d4, names4 = translation4()
    report = plinth_claim_verify(d4, [parse_polynomial("u", names4),
                                      parse_polynomial("v", names4)])
    assert report.outcome is Outcome.YES
    assert report.complement.basis == (parse_polynomial("u", names4),
                                       parse_polynomial("v", names4))


def test_plinth_claim_rejection_and_unknown():
    d, _ = triangular3()
    rejected = plinth_claim_verify(d, [P("z"), P("x")])
    assert rejected.outcome is Outcome.NO
    stuck = plinth_claim_verify(d, [P("z"), P("y^2 - 2*x*z")])
    assert stuck.outcome is Outcome.UNKNOWN
    with pytest.raises(ValueError):
        plinth_claim_verify(d, [])


def test_principality_check():
    free3 = Ideal(3)
    for gens in ([P("z")], [P("2*z"), P("z^2")]):
        check = principality_check(Ideal(3, gens), free3)
        assert (check.outcome, check.gcd) == (Outcome.YES, P("z"))
    names4 = ["x", "y", "u", "v"]
    split = principality_check(Ideal(4, [parse_polynomial("u", names4),
                                         parse_polynomial("v", names4)]),
                               Ideal(4))
    assert split.outcome is Outcome.NO
    assert split.gcd == parse_polynomial("1", names4)
    # gcd can be a proper divisor that is not in the ideal
    corner = principality_check(Ideal(3, [P("x*y"), P("x^2")]), free3)
    assert corner.outcome is Outcome.NO
    assert corner.gcd == P("x")
    with pytest.raises(ValueError):
        principality_check(Ideal(3, [Polynomial.zero(3)]), free3)


def test_principality_outcome_follows_the_relations():
    names = ["x", "y", "z", "w"]
    one, z = parse_polynomial("1", names), parse_polynomial("z", names)
    # k[x,y,z,w]/(w - z^2) is k[x,y,z]
    relations = Ideal(4, [parse_polynomial("w - z^2", names)])

    def check(texts, relations):
        gens = [parse_polynomial(t, names) for t in texts]
        return principality_check(Ideal(4, gens), relations)

    # a free ring: (z, w) is not principal, a certified no
    free = check(["z", "w"], Ideal(4))
    assert (free.outcome, free.gcd) == (Outcome.NO, one)
    # modulo the relation (z, w) = (z), but the free-ring gcd 1 is not in
    # the ideal: unknown, never no
    graph = check(["z", "w"], relations)
    assert (graph.outcome, graph.gcd) == (Outcome.UNKNOWN, one)
    # a gcd inside the ideal is a yes with or without relations
    square = check(["z", "z^2"], relations)
    assert (square.outcome, square.gcd) == (Outcome.YES, z)
    with pytest.raises(ValueError):
        check(["z"], Ideal(3))


def test_maximal_cylinder_over_triangular_and_surface():
    for builder in (triangular3, danielewski):
        d, _ = builder()
        result = maximal_cylinder(d, [P("z")])
        assert result.outcome is Outcome.YES
        principality = result.principality
        assert (principality.outcome, principality.gcd) == (Outcome.YES, P("z"))
        assert result.cylinder.certificate.slice_value == \
            RationalFunction(P("y"), P("z"))


def test_maximal_cylinder_blocked_by_non_principality():
    d4, names4 = translation4()
    result = maximal_cylinder(d4, [parse_polynomial("u", names4),
                                   parse_polynomial("v", names4)])
    assert result.outcome is Outcome.NO
    assert result.claim.outcome is Outcome.YES
    assert result.principality.outcome is Outcome.NO
    assert result.cylinder is None


def test_maximal_cylinder_with_relations_never_says_no_for_a_gcd():
    # k[x,y,z,w]/(w - z^2) is k[x,y,z]: (z, w) = (z) there, but not in the
    # free ring where principality is decided
    names = ["x", "y", "z", "w"]
    relation = parse_polynomial("w - z^2", names)
    ring = Ideal(4, [relation])
    d = Derivation(ring, [parse_polynomial(e, names) for e in ("y", "z", "0", "0")])
    gens = [parse_polynomial(g, names) for g in ("z", "w")]
    result = maximal_cylinder(d, gens)
    assert result.claim.outcome is Outcome.YES
    assert result.principality.outcome is Outcome.UNKNOWN
    assert result.outcome is Outcome.UNKNOWN
    assert result.cylinder is None


def test_maximal_cylinder_propagates_open_claims():
    d4, names4 = translation4()
    result = maximal_cylinder(
        d4, [parse_polynomial("u", names4),
             parse_polynomial("x*v - y*u", names4)],
        SearchBounds(max_power=2, max_degree=6))
    assert result.outcome is Outcome.UNKNOWN
    assert result.principality is None
    assert result.cylinder is None
