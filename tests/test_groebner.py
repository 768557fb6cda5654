import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    cyclic,
    is_groebner_basis,
    katsura,
    membership_by_linear_algebra,
    monomials_up_to,
    radical_by_power_search,
    random_nonzero_poly,
    random_poly,
    reference_remainder,
)
from lndtools import (
    DEGREVLEX,
    LEX,
    Ideal,
    Polynomial,
    buchberger,
    divide_exact,
    elimination,
    format_ideal,
    gcd_via_lcm,
    lcm_via_intersection,
    parse_polynomial,
    radical_membership,
    reduce_poly,
    standard_monomials,
)
from lndtools.poly import mono_divides

XYZ = ["x", "y", "z"]
ROOT = Path(__file__).resolve().parent.parent


def P(text, names=XYZ):
    return parse_polynomial(text, names)


def random_ideal(rng, nvars=3, ngens=2, order=DEGREVLEX):
    gens = [random_nonzero_poly(rng, nvars, max_total=2, max_terms=3, bound=3)
            for _ in range(rng.randint(1, ngens))]
    return Ideal(nvars, gens, order)


# ----------------------------------------------------------------------
# frozen bases


def test_known_basis_degrevlex():
    ideal = Ideal(3, [P("x^2 + y"), P("x*y - 1")])
    assert ideal.basis == (P("x^2 + y"), P("x*y - 1"), P("y^2 + x"))


def test_known_basis_lex():
    ideal = Ideal(3, [P("x^2 + y"), P("x*y - 1")], LEX)
    assert ideal.basis == (P("x + y^2"), P("y^3 + 1"))


def test_linear_generators_interreduce():
    ideal = Ideal(3, [P("x - y"), P("y - z")])
    assert ideal.basis == (P("x - z"), P("y - z"))


def test_principal_ideal_normalizes():
    ideal = Ideal(3, [P("2*x^2 - 2*y") * Fraction(3, 7)])
    assert ideal.basis == (P("x^2 - y"),)


def test_unit_ideal():
    ideal = Ideal(2, [parse_polynomial("x", ["x", "y"]),
                      parse_polynomial("x + 1", ["x", "y"])])
    assert ideal.is_trivial
    assert ideal.basis == (Polynomial.constant(2, 1),)
    xy = parse_polynomial("x*y", ["x", "y"])
    assert Ideal(2, [xy, Polynomial.constant(2, 3)]).basis == ideal.basis


def test_zero_ideal():
    ideal = Ideal(2, [])
    assert ideal.is_zero
    assert not ideal.is_trivial
    f = parse_polynomial("x*y + 1", ["x", "y"])
    assert ideal.normal_form(f) == f


@pytest.mark.parametrize("key, generators, order", [
    ("katsura4-degrevlex", katsura(4), DEGREVLEX),
    ("cyclic4-degrevlex", cyclic(4), DEGREVLEX),
    ("katsura3-lex", katsura(3), LEX),
])
def test_standard_systems_give_the_pinned_bases(key, generators, order):
    pinned = json.loads((ROOT / "perfbench" / "data" / "bases.json")
                        .read_text(encoding="utf-8"))
    nvars = generators[0].nvars
    ideal = Ideal(nvars, generators, order)
    assert format_ideal(ideal, "abcde"[:nvars]) == pinned[key]


def test_katsura5_gives_the_pinned_basis():
    # pinned from the rational-coefficient implementation
    ideal = Ideal(6, katsura(5))
    assert len(ideal.basis) == 22
    pinned = (ROOT / "tests" / "data" / "katsura5.txt").read_text(encoding="utf-8")
    assert format_ideal(ideal, "abcdef") + "\n" == pinned


def test_cyclic5_basis():
    generators = cyclic(5)
    ideal = Ideal(5, generators)
    assert len(ideal.basis) == 20
    assert is_groebner_basis(ideal.basis, DEGREVLEX)
    assert all(ideal.contains(g) for g in generators)


def random_form(rng, nvars, degree, nterms):
    """A homogeneous polynomial of the given degree with nterms terms."""
    terms = {}
    while len(terms) < nterms:
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                      rng.randint(1, 2))
    return Polynomial(nvars, terms)


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, elimination(1)],
                         ids=repr)
def test_pair_criteria_keep_the_basis_complete(order):
    # Homogeneous generators keep every basis element homogeneous, and a
    # form of degree d in the ideal has cofactors of degree d minus the
    # generator's, so the linear-algebra oracle is complete at that bound.
    rng = random.Random(315)
    for _ in range(25):
        nvars = rng.randint(3, 4)
        gens = [random_form(rng, nvars, rng.randint(2, 3), rng.randint(2, 3))
                for _ in range(rng.randint(3, 4))]
        ideal = Ideal(nvars, gens, order)
        assert is_groebner_basis(ideal.basis, order)
        for g in gens:
            assert reduce_poly(g, ideal.basis, order).is_zero
        low = min(g.total_degree() for g in gens)
        for b in ideal.basis:
            assert membership_by_linear_algebra(b, gens, b.total_degree() - low)


# ----------------------------------------------------------------------
# randomized correctness against independent routes


def test_basis_satisfies_s_pair_criterion():
    rng = random.Random(301)
    for _ in range(200):
        ideal = random_ideal(rng)
        assert is_groebner_basis(ideal.basis, ideal.order)
        for g in ideal.generators:
            assert ideal.normal_form(g).is_zero


def test_membership_matches_linear_algebra_oracle():
    rng = random.Random(302)
    agree_members = agree_non = 0
    for _ in range(200):
        ideal = random_ideal(rng)
        if ideal.is_trivial:
            continue
        f = random_poly(rng, 3, max_total=2, max_terms=3, bound=3)
        expected = membership_by_linear_algebra(
            f, ideal.basis, max(f.total_degree(), 0))
        got = ideal.contains(f)
        assert got == expected
        agree_members += got
        agree_non += not got
    assert agree_members > 5 and agree_non > 50


def test_constructed_combinations_are_members():
    rng = random.Random(303)
    for _ in range(200):
        ideal = random_ideal(rng)
        combo = Polynomial.zero(3)
        for g in ideal.generators:
            combo = combo + random_poly(rng, 3, max_total=2, max_terms=2) * g
        assert ideal.contains(combo)


def test_basis_is_deterministic_under_presentation_changes():
    rng = random.Random(304)
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


def test_normal_form_is_stable_and_linear():
    rng = random.Random(305)
    for _ in range(200):
        ideal = random_ideal(rng)
        f = random_poly(rng, 3, max_total=3, max_terms=3)
        g = random_poly(rng, 3, max_total=3, max_terms=3)
        nf = ideal.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(f) + nf(g)
        shift = f
        for gen in ideal.generators:
            shift = shift + random_poly(rng, 3, max_total=2, max_terms=2) * gen
        assert nf(shift) == nf(f)


# ----------------------------------------------------------------------
# radical membership, two routes


def test_radical_known_cases():
    ideal = Ideal(3, [P("x^2*y^3")])
    assert radical_membership(P("x*y"), ideal)
    assert not radical_membership(P("x"), ideal)
    assert not radical_membership(P("x + y"), ideal)
    assert radical_membership(P("x"), Ideal(3, [P("x^2")]))
    assert not radical_membership(P("1"), Ideal(3, [P("x"), P("y")]))


def test_radical_agrees_with_power_search():
    rng = random.Random(306)
    positives = 0
    for _ in range(200):
        ideal = random_ideal(rng)
        if ideal.is_trivial:
            continue
        f = random_poly(rng, 3, max_total=2, max_terms=2, bound=3)
        if radical_by_power_search(f, ideal, max_power=5):
            positives += 1
            assert radical_membership(f, ideal)
        if not radical_membership(f, ideal):
            assert not radical_by_power_search(f, ideal, max_power=5)
    assert positives > 5


def test_radical_positive_by_construction():
    rng = random.Random(307)
    for _ in range(100):
        f = random_nonzero_poly(rng, 3, max_total=2, max_terms=2, bound=3)
        k = rng.randint(1, 3)
        ideal = Ideal(3, [f ** k])
        assert radical_membership(f, ideal)
        assert radical_by_power_search(f, ideal, max_power=k)


# ----------------------------------------------------------------------
# division, lcm, gcd


def test_divide_exact_round_trip():
    rng = random.Random(308)
    for _ in range(200):
        f = random_nonzero_poly(rng, 3, max_total=2, max_terms=3)
        g = random_nonzero_poly(rng, 3, max_total=2, max_terms=3)
        assert divide_exact(f * g, g) == f


def test_divide_exact_rejects_non_multiples():
    # its callers only divide what must divide, so a failure is internal
    with pytest.raises(ArithmeticError):
        divide_exact(P("x"), P("y"))
    with pytest.raises(ArithmeticError):
        divide_exact(P("x^2 + 1"), P("x + 1"))
    # each leading monomial divides, but a leading coefficient does not
    with pytest.raises(ArithmeticError):
        divide_exact(P("-3/4*x^2 + 2"), P("-1/2*x + 2/3"))


def test_lcm_and_gcd_known_values():
    assert gcd_via_lcm(P("x*y"), P("x^2")) == P("x")
    assert gcd_via_lcm(P("x"), P("y")) == P("1")
    assert gcd_via_lcm(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")) == P("x + y")
    assert lcm_via_intersection(P("x*y"), P("x^2")) == P("x^2*y")
    assert lcm_via_intersection(P("x + y"), P("x - y")) == P("x^2 - y^2")


def counted_buchberger(monkeypatch):
    """The list of calls that ``groebner.buchberger`` gets from now on."""
    from lndtools import groebner

    calls = []

    def counted(*args):
        calls.append(args)
        return buchberger(*args)

    monkeypatch.setattr(groebner, "buchberger", counted)
    return calls


def test_gcd_runs_one_groebner_basis(monkeypatch):
    # a heuristic that gives up at once leaves the gcd to the lcm
    from lndtools import groebner

    monkeypatch.setattr(groebner, "_HEU_TRIES", 0)
    calls = counted_buchberger(monkeypatch)
    assert gcd_via_lcm(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")) == P("x + y")
    assert len(calls) == 1
    assert lcm_via_intersection(P("2"), P("3")) == P("1")
    assert lcm_via_intersection(P("x*y"), P("y*z")) == P("x*y*z")


def test_heuristic_gcd_runs_no_groebner_basis(monkeypatch):
    calls = counted_buchberger(monkeypatch)
    assert gcd_via_lcm(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")) == P("x + y")
    assert gcd_via_lcm(P("x*y"), P("x^2")) == P("x")
    assert gcd_via_lcm(P("6*x + 6"), P("4")) == P("1")
    assert calls == []


def intersection_gcd(f, g):
    return divide_exact(f * g, lcm_via_intersection(f, g)).content_split()[1]


def planted_gcd_pairs():
    """Seeded pairs with a common factor in 1 to 4 variables, scaled by
    integers, fractions and negative numbers."""
    rng = random.Random(326)
    pairs = []
    for nvars in (1, 2, 3, 4):
        for _ in range(15):
            h, a, b = (random_nonzero_poly(rng, nvars, max_total=2, max_terms=3, bound=5)
                       for _ in range(3))
            pairs.append((a * h * rng.choice((1, -6, 12, Fraction(-3, 2))),
                          b * h * rng.choice((1, -1, 10, Fraction(5, 7)))))
    return pairs


GCD_CASES = [
    ("6*(x + 1)*(y - 2)", "-4*(x + 1)*(x*y + 3)"),          # integer content
    ("(1/2*x + 1/3)*(y - 1/5)", "(3*x + 2)*(2/7*z + 1)"),   # fractions
    ("-(x^2 + y)*(z - 1)", "-(x^2 + y)*(y + 2)"),           # negative leads
    ("-x^2 - y", "x^2 + y"),
    ("x^2*y*(x + 1)", "x*y^3*(x - 1)"),                     # monomial factors
    ("x^3*y^2", "x*y^4*z"),
    ("x^2 - y", "x^2*y^2 - 2*x^2*y + x^2 - y^3 + 2*y^2 - y"),
    ("6", "4"),                                             # constants
    ("6", "x + 1"),
    ("-2/3", "10*x*y - 4"),
    ("x^2 + y", "x*y - 1"),                                 # coprime
    ("(x + y + z + 1)^3", "(x - y + 2*z - 3)^3"),
    ("(2*x*y - 3*z^2 + 1)^2*(x - 1)", "(2*x*y - 3*z^2 + 1)*(x^2 + 1)"),
]


def test_gcd_agrees_with_the_intersection(monkeypatch):
    from lndtools import groebner

    fallbacks = []
    monkeypatch.setattr(groebner, "lcm_via_intersection",
                        lambda f, g: fallbacks.append((f, g)) or lcm_via_intersection(f, g))
    pairs = planted_gcd_pairs() + [(P(f), P(g)) for f, g in GCD_CASES]
    for f, g in pairs:
        assert gcd_via_lcm(f, g) == intersection_gcd(f, g), (f, g)
    assert fallbacks == []
    # xi must exceed twice the smaller norm, so xi^2 passes the bit bound
    # and the answer comes from the intersection
    h = P("x") * 10 ** 40000 + 1
    f, g = h * P("x + 2"), h * P("y - 3")
    assert gcd_via_lcm(f, g) == intersection_gcd(f, g) == h
    assert fallbacks == [(f, g)]


def test_gcd_times_lcm_matches_product():
    rng = random.Random(309)
    for _ in range(60):
        f = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        g = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        combined = lcm_via_intersection(f, g) * gcd_via_lcm(f, g)
        quotient = divide_exact(f * g, combined)
        assert quotient.total_degree() == 0


def test_gcd_divides_both_arguments():
    rng = random.Random(310)
    for _ in range(60):
        f = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        g = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        d = gcd_via_lcm(f, g)
        divide_exact(f, d)
        divide_exact(g, d)
        lcm = lcm_via_intersection(f, g)
        divide_exact(lcm, f)
        divide_exact(lcm, g)


def test_common_factor_shows_up_in_gcd():
    rng = random.Random(311)
    for _ in range(40):
        h = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        f = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        g = random_nonzero_poly(rng, 2, max_total=2, max_terms=2, bound=3)
        d = gcd_via_lcm(f * h, g * h)
        # h divides the gcd whatever the cofactors share
        divide_exact(d, h.content_split()[1])


# ----------------------------------------------------------------------
# standard monomials


def test_standard_monomials_known_quotients():
    ideal = Ideal(2, [parse_polynomial("x^2 + y", ["x", "y"]),
                      parse_polynomial("x*y - 1", ["x", "y"])])
    assert standard_monomials(ideal, 5) == [(0, 0), (0, 1), (1, 0)]
    box = Ideal(2, [parse_polynomial("x^2", ["x", "y"]),
                    parse_polynomial("y^3", ["x", "y"])])
    assert len(standard_monomials(box, 10)) == 6
    free = Ideal(2, [])
    # stars and bars again
    assert len(standard_monomials(free, 3)) == 10


def test_standard_monomials_span_normal_forms():
    rng = random.Random(313)
    for _ in range(100):
        ideal = random_ideal(rng, nvars=2)
        if ideal.is_trivial:
            continue
        f = random_poly(rng, 2, max_total=3, max_terms=3)
        nf = ideal.normal_form(f)
        allowed = set(standard_monomials(ideal, max(nf.total_degree(), 0)))
        assert set(nf.terms) <= allowed


def test_standard_monomials_are_the_filtered_enumeration():
    # made degree by degree, they are every monomial up to the bound that no
    # leading monomial divides, in ascending order, whatever the order
    rng = random.Random(315)
    for case in range(150):
        nvars, order = rng.randint(1, 4), (DEGREVLEX, LEX, elimination(1))[case % 3]
        ideal = random_ideal(rng, nvars, order=order)
        leads = [lm for lm, _, _ in ideal.leads]
        for bound in (-1, 0, 2, 5):
            want = sorted((m for m in monomials_up_to(nvars, bound)
                           if not any(mono_divides(l, m) for l in leads)),
                          key=order.key)
            assert standard_monomials(ideal, bound) == want
    assert standard_monomials(Ideal(2, [P("1", ["x", "y"])]), 3) == []


def test_reduce_poly_remainder_is_irreducible():
    rng = random.Random(314)
    for _ in range(100):
        divisors = [random_nonzero_poly(rng, 3, max_total=2, max_terms=2)
                    for _ in range(2)]
        f = random_poly(rng, 3, max_total=3, max_terms=4)
        r = reduce_poly(f, divisors, DEGREVLEX)
        leading = [g.leading_term(DEGREVLEX)[0] for g in divisors]
        for mono in r.terms:
            assert not any(all(a >= b for a, b in zip(mono, lm))
                           for lm in leading)


def random_divisor(rng, nvars):
    """A divisor with a leading coefficient other than ±1 as often as not:
    integral, or with fractions whose lcm of denominators is not 1."""
    g = random_nonzero_poly(rng, nvars, max_total=2, max_terms=3)
    return g * rng.choice((1, 2, 3, -6, Fraction(5, 4)))


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, elimination(1)], ids=repr)
def test_reduce_poly_matches_the_reference_division(order):
    # divisor lists that are not Groebner bases: the remainder depends on
    # the list order, and pseudo-division must follow the rational steps
    rng = random.Random(316)
    for _ in range(150):
        divisors = [random_divisor(rng, 3) for _ in range(rng.randint(1, 3))]
        f = random_poly(rng, 3, max_total=4, max_terms=6)
        assert reduce_poly(f, divisors, order) == reference_remainder(f, divisors, order)


def test_normal_form_matches_the_reference_division():
    rng = random.Random(317)
    for _ in range(60):
        ideal = Ideal(3, [random_divisor(rng, 3) for _ in range(rng.randint(1, 3))])
        f = random_poly(rng, 3, max_total=4, max_terms=6)
        assert ideal.normal_form(f) == reference_remainder(f, ideal.basis, ideal.order)


def test_long_pseudo_divisions_match_the_reference_division():
    # many steps by leading coefficients 2 and 3, so the dividend is scaled
    # often and its content is divided out along the way
    f = P("(x + 2*y + 1/3*z - 5)^6")
    divisors = [P("2*x + 3*y - 1"), P("3*y^2 - 2*z + 7/2")]
    for order in (LEX, DEGREVLEX):
        assert reduce_poly(f, divisors, order) == reference_remainder(f, divisors, order)
        ideal = Ideal(3, divisors, order)
        assert ideal.normal_form(f) == reference_remainder(f, ideal.basis, order)


def test_normal_form_refuses_a_polynomial_in_more_variables():
    # run apart, so that a division that never ends fails on the timeout
    # instead of hanging the suite
    script = ("from lndtools import Ideal, Polynomial\n"
              "try:\n"
              "    Ideal(2, [Polynomial.variable(2, 0)])"
              ".normal_form(Polynomial.variable(3, 0))\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    assert _run_apart(script) == "polynomial has wrong variable count\n"


def test_reduce_poly_refuses_a_polynomial_in_more_variables():
    script = ("from lndtools import DEGREVLEX, Polynomial, reduce_poly\n"
              "try:\n"
              "    reduce_poly(Polynomial.variable(3, 0), "
              "[Polynomial.variable(2, 0)], DEGREVLEX)\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    assert _run_apart(script) == "polynomial has wrong variable count\n"


def _run_apart(script):
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=10, cwd=ROOT / "src")
    assert done.returncode == 0, done.stderr
    return done.stdout
