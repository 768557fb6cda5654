import math
import random
from fractions import Fraction

import pytest

from helpers import (
    monomials_up_to,
    random_fraction,
    random_monomial,
    random_nonzero_poly,
    random_poly,
)
from lndtools import (
    DEGREVLEX,
    LEX,
    Polynomial,
    RationalFunction,
    divide_exact,
    elimination,
    reduce_poly,
)


def test_constructor_cleans_terms():
    f = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert f.terms == {(0, 1): Fraction(2)}
    g = Polynomial(2, [((1, 1), 1), ((1, 1), -1)])
    assert g.is_zero
    assert g.total_degree() == -1


def test_constructor_rejects_bad_monomials():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})


def test_constructor_refuses_floats_and_strings():
    for bad in (1.5, 2.0, "1/3", "2", None):
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): bad})
        with pytest.raises(TypeError):
            Polynomial.constant(2, bad)
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): 1}) * 1.5


def test_evaluate_refuses_floats_and_strings():
    f = Polynomial(2, {(1, 0): 1})
    assert f.evaluate((Fraction(1, 2), 2)) == Fraction(1, 2)
    for bad in (0.1, "1/3", None):
        with pytest.raises(TypeError):
            f.evaluate((bad, 2))


def test_integral_coefficients_are_stored_as_int():
    f = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3),
                       (0, 0): True})
    assert f.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): 1}
    assert [type(c) for c in f.terms.values()] == [int, Fraction, int]
    g = f * 3
    assert type(g.terms[(0, 1)]) is int and g.terms[(0, 1)] == 1


def test_coefficient_reads_return_fractions():
    rng = random.Random(112)
    for _ in range(100):
        f = random_poly(rng, 3) * rng.choice((1, 2, Fraction(1, 2)))
        if not f:
            continue
        mono, lc = f.leading_term(DEGREVLEX)
        assert type(lc) is Fraction and lc == f.terms[mono]
        assert type(f.constant_term()) is Fraction
    # a ratio of two reads stays exact
    g = Polynomial(1, {(1,): 2, (0,): 3})
    assert g.leading_term(LEX)[1] / g.constant_term() == Fraction(2, 3)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        h = random_poly(rng, 3)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == Polynomial.zero(3)
        assert f * Polynomial.constant(3, 1) == f


def test_power_matches_repeated_multiplication():
    rng = random.Random(102)
    for _ in range(50):
        f = random_poly(rng, 2, max_total=2, max_terms=3)
        expected = Polynomial.constant(2, 1)
        for n in range(5):
            assert f ** n == expected
            expected = expected * f


def test_leading_term_is_multiplicative():
    rng = random.Random(103)
    for order in (LEX, DEGREVLEX, elimination(1)):
        for _ in range(100):
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            if not f or not g:
                continue
            mf, cf = f.leading_term(order)
            mg, cg = g.leading_term(order)
            mono, coeff = (f * g).leading_term(order)
            assert mono == tuple(a + b for a, b in zip(mf, mg))
            assert coeff == cf * cg


def test_order_keys_are_total_and_multiplicative():
    rng = random.Random(104)
    for order in (LEX, DEGREVLEX, elimination(2)):
        key = order.key
        for _ in range(200):
            a = random_monomial(rng, 3)
            b = random_monomial(rng, 3)
            c = random_monomial(rng, 3)
            assert (key(a) == key(b)) == (a == b)
            # the heap key of division lists the same order backwards
            down = order.descending_key
            assert (down(a) < down(b)) == (key(a) > key(b))
            if key(a) < key(b):
                shifted_a = tuple(i + j for i, j in zip(a, c))
                shifted_b = tuple(i + j for i, j in zip(b, c))
                assert key(shifted_a) < key(shifted_b)
            # 1 is the least monomial
            assert key((0, 0, 0)) <= key(a)


def test_degrevlex_is_degree_compatible():
    key = DEGREVLEX.key
    rng = random.Random(105)
    for _ in range(200):
        a = random_monomial(rng, 4)
        b = random_monomial(rng, 4)
        if sum(a) < sum(b):
            assert key(a) < key(b)


def test_orders_disagree_where_expected():
    # x against y^2 with x the senior variable
    x = (1, 0)
    y2 = (0, 2)
    assert LEX.key(x) > LEX.key(y2)
    assert DEGREVLEX.key(x) < DEGREVLEX.key(y2)
    # degrevlex against deglex on a classical pair: x*z^2 vs y^2*z
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert DEGREVLEX.key(a) < DEGREVLEX.key(b)


def test_elimination_order_separates_blocks():
    order = elimination(1)
    rng = random.Random(106)
    for _ in range(200):
        a = random_monomial(rng, 3)
        b = random_monomial(rng, 3)
        if a[0] > 0 and b[0] == 0:
            assert order.key(a) > order.key(b)


def test_each_order_is_one_instance():
    assert elimination(2) is elimination(2)
    assert [repr(order) for order in (LEX, DEGREVLEX, elimination(1))] == \
        ["lex", "degrevlex", "elimination(1)"]
    with pytest.raises(ValueError, match="positive block size"):
        elimination(0)


def test_diff_product_rule():
    rng = random.Random(107)
    for _ in range(200):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        i = rng.randrange(3)
        assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)
        assert (f + g).diff(i) == f.diff(i) + g.diff(i)


def test_evaluate_is_a_homomorphism():
    rng = random.Random(108)
    for _ in range(200):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        point = (random_fraction(rng), random_fraction(rng))
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_content_split():
    rng = random.Random(109)
    for _ in range(200):
        f = random_poly(rng, 3)
        content, primitive = f.content_split(DEGREVLEX)
        assert primitive * content == f
        if f:
            coeffs = list(primitive.terms.values())
            assert all(c.denominator == 1 for c in coeffs)
            assert math.gcd(*(abs(c.numerator) for c in coeffs)) == 1
            assert primitive.leading_term(DEGREVLEX)[1] > 0
        else:
            assert content == 0


def test_pad_and_drop():
    f = Polynomial(2, {(1, 2): Fraction(3, 2), (0, 0): 1})
    padded = f.pad(left=1)
    assert padded.nvars == 3
    assert padded.terms == {(0, 1, 2): Fraction(3, 2), (0, 0, 0): Fraction(1)}


def test_monomials_up_to_counts():
    # stars and bars: C(n + d, n)
    assert len(list(monomials_up_to(3, 4))) == 35
    assert len(list(monomials_up_to(2, 0))) == 1
    mons = list(monomials_up_to(2, 2))
    assert len(mons) == len(set(mons)) == 6
    assert all(sum(m) <= 2 for m in mons)


# ----------------------------------------------------------------------
# computed terms skip the constructor's checks, so they must be clean


def assert_clean(p):
    """Exponent tuples of length nvars mapped to nonzero coefficients, each
    a plain int or a Fraction that is not integral, never a float."""
    assert p == Polynomial(p.nvars, p.terms)
    for mono, c in p.terms.items():
        assert type(mono) is tuple and len(mono) == p.nvars
        assert all(type(e) is int for e in mono)
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0


def test_computed_terms_are_clean_random():
    rng = random.Random(111)
    for _ in range(300):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        scalar = rng.choice((random_fraction(rng), rng.randint(-3, 3)))
        results = [f + g, f - g, -f, f + (-f), f * g, f * scalar, scalar * f,
                   f.diff(rng.randrange(3)), f.pad(left=1, right=2),
                   Polynomial.zero(3)]
        divisors = [random_nonzero_poly(rng, 3, max_terms=3) for _ in range(2)]
        for order in (LEX, DEGREVLEX, elimination(1)):
            results.append(reduce_poly(f, divisors, order))
        results.append(divide_exact(f * divisors[0], divisors[0]))
        shared = Polynomial.monomial(3, random_monomial(rng, 3))
        fraction = RationalFunction(f * shared, divisors[1] * shared)
        results.extend((fraction.num, fraction.den))
        for p in results:
            assert_clean(p)
