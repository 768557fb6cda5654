"""Acceptance gate: the worked examples and the randomized laws, end to end.

Every check is exact rational arithmetic with zero tolerance.  One verdict
line prints per criterion; run with output enabled to see them all:

    python3 -m pytest tests/test_acceptance.py -s -v
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from lndtools import (
    Ideal,
    Outcome,
    Polynomial,
    RationalFunction,
    cylinder_decision,
    dixmier_reduce,
    format_exp_action,
    format_ideal,
    maximal_cylinder,
    parse_polynomial,
    plinth_claim_verify,
    preimage_search,
    principality_check,
    radical_membership,
    ratfun_eq_mod,
    slice_nonexistence,
)

from helpers import (
    ALL_DERIVATIONS,
    assert_exp_commutes_with_d_ds,
    assert_exp_group_law,
    assert_exp_multiplicative,
    danielewski,
    full_system,
    radical_by_power_search,
    random_nonzero_poly,
    random_poly,
    translation4,
    triangular3,
)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {label}")
        raise
    print(f"[criterion {number:2d}] PASS - {label} "
          f"({time.perf_counter() - start:.2f}s)")


def test_criterion_01_exponential_action_verbatim():
    with criterion(1, "exponential action of the triangular derivation"):
        start = time.perf_counter()
        d, names = triangular3()
        printed = [format_exp_action(d.exp_action(parse_polynomial(n, names)), names)
                   for n in names]
        assert printed == ["x + s*y + 1/2*s^2*z", "y + s*z", "z"]
        assert time.perf_counter() - start < 1.0


def test_criterion_02_kernel_memberships():
    with criterion(2, "kernel memberships in all three coordinate rings"):
        d, names = triangular3()
        for text in ("z", "y^2 - 2*x*z"):
            assert d.apply(parse_polynomial(text, names)).is_zero
        d4, names4 = translation4()
        for text in ("u", "v", "x*v - y*u"):
            assert d4.apply(parse_polynomial(text, names4)).is_zero
        surface, names3 = danielewski()
        assert surface.apply(parse_polynomial("z", names3)).is_zero


def test_criterion_03_fixed_loci():
    with criterion(3, "fixed loci reduce to (y, z) and (u, v)"):
        d, names = triangular3()
        assert d.fixed_locus().basis == (
            parse_polynomial("y", names), parse_polynomial("z", names))
        d4, names4 = translation4()
        assert d4.fixed_locus().basis == (
            parse_polynomial("u", names4), parse_polynomial("v", names4))


def test_criterion_04_cylinders_certified():
    with criterion(4, "principal cylinders carry verified slices"):
        cases = [(triangular3, "z"), (danielewski, "z"),
                 (translation4, "u"), (translation4, "v")]
        for build, text in cases:
            begin = time.perf_counter()
            d, names = build()
            result = cylinder_decision(d, parse_polynomial(text, names))
            assert result.outcome is Outcome.YES
            cert = result.certificate
            assert cert.power == 1
            relations = d.ring
            assert ratfun_eq_mod(relations,
                                 d.apply_rational(cert.slice_value), 1)
            for image in cert.dixmier_images:
                assert ratfun_eq_mod(relations, d.apply_rational(image), 0)
            assert time.perf_counter() - begin < 5.0


def test_criterion_05_kernel_obstruction_is_definite():
    with criterion(5, "non-constant derivative rules the cylinder out"):
        d, names = triangular3()
        result = cylinder_decision(d, parse_polynomial("x", names))
        assert result.outcome is Outcome.NO
        assert result.certificate is None
        assert result.obstruction == parse_polynomial("y", names)


def test_criterion_06_no_bounded_slice():
    with criterion(6, "slice nonexistence certified through degree 6"):
        for build in (triangular3, translation4):
            begin = time.perf_counter()
            d, _ = build()
            result = slice_nonexistence(d, 6)
            assert not result.found
            one = Polynomial.constant(d.ring.nvars, 1)
            rows, matrix, rhs = full_system(d, 6).equations(one)
            assert rows == result.row_monomials
            assert result.certificate.verify(matrix, rhs)
            assert time.perf_counter() - begin < 60.0


def test_criterion_07_plinth_claims_and_complements():
    with criterion(7, "plinth claims verify with the expected complements"):
        cases = [(triangular3, ("z",), "(z)"),
                 (danielewski, ("z",), "(z)"),
                 (translation4, ("u", "v"), "(u, v)")]
        for build, texts, expected in cases:
            d, names = build()
            gens = [parse_polynomial(t, names) for t in texts]
            report = plinth_claim_verify(d, gens)
            assert report.outcome is Outcome.YES
            assert all(e.outcome is Outcome.YES for e in report.entries)
            assert format_ideal(report.complement, names) == expected


def test_criterion_08_principality_and_maximal_cylinder():
    with criterion(8, "principality verdicts and the top cylinder"):
        for build in (triangular3, danielewski):
            d, names = build()
            z = parse_polynomial("z", names)
            check = principality_check(Ideal(d.ring.nvars, [z]), d.ring)
            assert check.outcome is Outcome.YES and check.gcd == z
            top = maximal_cylinder(d, [z])
            assert top.outcome is Outcome.YES
            assert top.cylinder is not None
            assert top.cylinder.element == z
            assert top.cylinder.certificate is not None
        d4, names4 = translation4()
        pair = [parse_polynomial("u", names4), parse_polynomial("v", names4)]
        check4 = principality_check(Ideal(4, pair), d4.ring)
        assert check4.outcome is Outcome.NO
        assert check4.gcd == Polynomial.constant(4, 1)
        top4 = maximal_cylinder(d4, pair)
        assert top4.outcome is Outcome.NO
        assert top4.cylinder is None


def test_criterion_09_surface_cylinder_isomorphism():
    with criterion(9, "cylinder coordinates invert the surface embedding"):
        surface, names = danielewski()
        relations = surface.ring
        free3 = Ideal(3, [])
        x, y, z = (parse_polynomial(n, names) for n in names)

        u_val = RationalFunction(z)
        v_val = RationalFunction(parse_polynomial("y + 1", names), z)
        back_x = (u_val * v_val + -2) * v_val * Fraction(1, 2)
        back_y = u_val * v_val + -1
        assert ratfun_eq_mod(relations, back_x,
                             RationalFunction(x))
        assert not ratfun_eq_mod(free3, back_x,
                                 RationalFunction(x))
        assert ratfun_eq_mod(relations, back_y,
                             RationalFunction(y))
        assert ratfun_eq_mod(relations, u_val,
                             RationalFunction(z))

        pair = ("u", "v")
        pu = parse_polynomial("u", pair)
        pv = parse_polynomial("v", pair)
        phi_x = parse_polynomial("1/2*u*v^2 - v", pair)
        phi_y = parse_polynomial("u*v - 1", pair)
        phi_z = pu
        pulled = (phi_y * phi_y - phi_x * phi_z * Fraction(2)
                  - Polynomial.constant(2, 1))
        assert pulled.is_zero
        round_u = RationalFunction(phi_z)
        round_v = RationalFunction(phi_y + Polynomial.constant(2, 1), phi_z)
        assert round_u == RationalFunction(pu)
        assert round_v == RationalFunction(pv)

        lhs = RationalFunction(parse_polynomial("y + 1", names), z)
        rhs = RationalFunction(parse_polynomial("2*x", names),
                               parse_polynomial("y - 1", names))
        assert ratfun_eq_mod(relations, lhs, rhs)
        assert not ratfun_eq_mod(free3, lhs, rhs)


def test_criterion_10_rational_kernel_members():
    with criterion(10, "rational functions of the level are constants"):
        d, names = triangular3()
        h = parse_polynomial("y^2 - 2*x*z", names)
        z = parse_polynomial("z", names)
        y = parse_polynomial("y", names)
        quotient = RationalFunction(z * z, h)
        assert d.apply_rational(quotient) == 0
        assert d.apply_rational(RationalFunction(y * z, h)) == quotient


# ----------------------------------------------------------------------
# criterion 11: randomized law suites, 200 cases each, fixed seeds


def _leibniz(rng):
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=3)
        g = random_poly(rng, nvars, max_total=2, max_terms=3)
        nf = d.ring.normal_form
        assert d.apply(nf(f * g)) == nf(f * d.apply(g) + g * d.apply(f))


def _exp_homomorphism(rng):
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=2)
        g = random_poly(rng, nvars, max_total=2, max_terms=2)
        assert_exp_multiplicative(d, f, g)


def _group_law(rng):
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=3)
        assert_exp_group_law(d, f)


def _parameter_derivative(rng):
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=3)
        assert_exp_commutes_with_d_ds(d, f)


def _dixmier_reconstruction(rng):
    for _ in range(200):
        d, names = rng.choice((triangular3, danielewski))()
        sigma = RationalFunction(parse_polynomial("y", names),
                                 parse_polynomial("z", names))
        b = d.ring.normal_form(random_poly(rng, 3, max_total=3, max_terms=3))
        coeffs = dixmier_reduce(d, sigma, b)
        total = RationalFunction.zero(3)
        power = RationalFunction(parse_polynomial("1", names))
        for c in coeffs:
            total, power = total + c * power, power * sigma
        assert ratfun_eq_mod(d.ring, total,
                             RationalFunction(b))


def _basis_determinism(rng):
    for _ in range(200):
        gens = [random_nonzero_poly(rng, 3, max_total=2, max_terms=3, bound=3)
                for _ in range(rng.randint(1, 3))]
        reference = Ideal(3, gens).basis
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                               rng.randint(1, 4))
                  for g in shuffled]
        assert Ideal(3, scaled).basis == reference


def _preimage_reverification(rng):
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = d.ring.normal_form(random_poly(rng, nvars, max_total=3,
                                           max_terms=3))
        target = d.apply(f)
        system = full_system(d, max(f.total_degree(), 0))
        result = preimage_search(system, target)
        assert result.found
        assert d.apply(result.preimage) == target


def _radical_two_routes(rng):
    positives = 0
    for _ in range(200):
        gens = [random_nonzero_poly(rng, 3, max_total=2, max_terms=2, bound=3)
                for _ in range(rng.randint(1, 2))]
        ideal = Ideal(3, gens)
        f = random_poly(rng, 3, max_total=2, max_terms=2, bound=3)
        claimed = radical_membership(f, ideal)
        searched = radical_by_power_search(f, ideal, max_power=5)
        if searched:
            positives += 1
            assert claimed
        if not claimed:
            assert not searched
    assert positives > 5


def test_criterion_11_property_suites():
    with criterion(11, "eight randomized law suites, 200 cases each"):
        _leibniz(random.Random(1101))
        _exp_homomorphism(random.Random(1102))
        _group_law(random.Random(1103))
        _parameter_derivative(random.Random(1104))
        _dixmier_reconstruction(random.Random(1105))
        _basis_determinism(random.Random(1106))
        _preimage_reverification(random.Random(1107))
        _radical_two_routes(random.Random(1108))
