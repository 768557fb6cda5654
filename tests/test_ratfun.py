import random
import time
from fractions import Fraction

import pytest

from helpers import random_nonzero_poly, random_poly
from lndtools import (
    Ideal,
    Polynomial,
    RationalFunction,
    parse_polynomial,
    ratfun_eq_mod,
)

XYZ = ["x", "y", "z"]


def P(text):
    return parse_polynomial(text, XYZ)


def R(num, den="1"):
    return RationalFunction(P(num), P(den))


def random_ratfun(rng, nvars=2):
    num = random_poly(rng, nvars, max_total=2, max_terms=3, bound=4)
    den = random_nonzero_poly(rng, nvars, max_total=2, max_terms=2, bound=4)
    return RationalFunction(num, den)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(P("x"), P("0"))


def test_zero_numerator_collapses():
    value = R("0", "x^2 + y")
    assert value.is_zero
    assert value.den == Polynomial.constant(3, 1)


def test_monomial_content_is_cancelled():
    value = R("x^2*y", "x*y")
    assert value.num == P("x")
    assert value.is_polynomial
    assert value.num == P("x")


def test_denominator_is_normalized():
    value = R("x", "2*y")
    assert value.den == P("y")
    assert value.num == P("1/2*x")
    value = R("x", "-y")
    assert value.den == P("y")
    assert value.num == P("-x")


def test_equality_by_cross_multiplication():
    assert R("x", "y") == R("x*z", "y*z")
    assert R("x", "y") != R("x", "z")
    assert R("x^2 - y^2", "x - y") == R("x + y")
    assert R("3") == 3
    assert R("1", "2") == Fraction(1, 2)


def test_field_axioms_random():
    rng = random.Random(401)
    for _ in range(200):
        a = random_ratfun(rng)
        b = random_ratfun(rng)
        c = random_ratfun(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalFunction.zero(2)
        assert a * 1 == a


def test_powers_match_repeated_products():
    rng = random.Random(402)
    for _ in range(50):
        a = random_ratfun(rng)
        acc = RationalFunction(Polynomial.constant(2, 1))
        for n in range(4):
            assert a ** n == acc
            acc = acc * a
    with pytest.raises(ValueError):
        R("x", "y") ** -1


def test_simplify_cancels_polynomial_gcd():
    value = R("x^2 - y^2", "x - y").simplify()
    assert value.is_polynomial
    assert value.num == P("x + y")
    # simplify never changes the value
    rng = random.Random(403)
    for _ in range(60):
        a = random_ratfun(rng)
        h = random_nonzero_poly(rng, 2, max_total=2, max_terms=2)
        blown = RationalFunction(a.num * h, a.den * h)
        assert blown.simplify() == a
        assert blown == a


def dixmier_like_numerator():
    """78 seeded terms of total degree at most 15 in x, y, u, v, as the
    first Dixmier sum of a translation in four variables has."""
    rng = random.Random(12)
    terms = {}
    while len(terms) < 78:
        degree = rng.randint(0, 15)
        cuts = sorted(rng.randint(0, degree) for _ in range(3))
        mono = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])
        terms[mono] = rng.randint(-9, 9) or 1
    return Polynomial(4, terms)


def test_simplify_of_a_dixmier_sum_is_quick():
    # through the ideal intersection, the first of these ran for minutes
    names = ["x", "y", "u", "v"]
    num = dixmier_like_numerator()
    den = parse_polynomial("(3*u^2*v - u)^3", names)
    shared = parse_polynomial("3*u*v - 1 + x*y", names)
    assert (len(num.terms), num.total_degree()) == (78, 15)
    begin = time.perf_counter()
    coprime = RationalFunction(num, den).simplify()
    cancelled = RationalFunction(num * shared, den * shared).simplify()
    assert time.perf_counter() - begin < 2.0
    assert (coprime.num, coprime.den) == (num, den)
    assert (cancelled.num, cancelled.den) == (num, den)


def test_reduce_mod_surface():
    surface = Ideal(3, [P("y^2 - 2*x*z - 1")])
    value = RationalFunction(P("y^2"), P("z")).reduce_mod(surface)
    assert value.num == P("2*x*z + 1")
    with pytest.raises(ZeroDivisionError):
        RationalFunction(P("x"), P("y^2 - 2*x*z - 1")).reduce_mod(surface)


def test_eq_mod_surface_identity():
    surface = Ideal(3, [P("y^2 - 2*x*z - 1")])
    a = R("y + 1", "z")
    b = R("2*x", "y - 1")
    assert ratfun_eq_mod(surface, a, b)
    assert a != b
    assert not ratfun_eq_mod(surface, a, R("2*x", "y + 1"))
    # polynomial and scalar operands coerce
    assert ratfun_eq_mod(surface, R("y^2 - 2*x*z"), 1)
    with pytest.raises(ZeroDivisionError):
        ratfun_eq_mod(surface, R("x", "y^2 - 2*x*z - 1"), a)


@pytest.mark.parametrize("operand", [1.5, "x", object()])
def test_other_operands_are_refused(operand):
    surface = Ideal(3, [P("y^2 - 2*x*z - 1")])
    with pytest.raises(TypeError):
        ratfun_eq_mod(surface, operand, R("x"))
    with pytest.raises(TypeError):
        ratfun_eq_mod(surface, R("x"), operand)
    with pytest.raises(TypeError):
        R("x") + operand


def test_eq_mod_zero_ideal_is_free_equality():
    rng = random.Random(404)
    free = Ideal(2, [])
    for _ in range(100):
        a = random_ratfun(rng)
        b = random_ratfun(rng)
        assert ratfun_eq_mod(free, a, b) == (a == b)


def test_mixed_arithmetic_with_polynomials():
    a = R("x", "y")
    assert a + P("1") == R("x + y", "y")
    assert P("y") * a == R("x")
    assert 2 - a == R("2*y - x", "y")
    assert (a + Fraction(1, 2)) * 2 == R("2*x + y", "y")
