import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from helpers import (
    ALL_DERIVATIONS,
    assert_exp_commutes_with_d_ds,
    assert_exp_group_law,
    assert_exp_multiplicative,
    danielewski,
    derivative,
    plane,
    random_fraction,
    random_poly,
    translation4,
    triangular3,
)
from lndtools import (
    CapExceededError,
    Derivation,
    Ideal,
    Polynomial,
    RationalFunction,
    parse_polynomial,
    ratfun_eq_mod,
)


def test_derivation_validation():
    ring = Ideal(2)
    with pytest.raises(ValueError):
        Derivation(ring, [Polynomial.zero(2)])
    with pytest.raises(ValueError):
        Derivation(ring, [Polynomial.zero(3), Polynomial.zero(3)])
    one = Polynomial.constant(1, 1)
    with pytest.raises(ValueError, match="the presented ring is zero"):
        Derivation(Ideal(1, [one]), [Polynomial.zero(1)])
    with pytest.raises(ValueError, match="at least one variable"):
        Derivation(Ideal(0), [])


def test_images_are_stored_in_normal_form():
    d, names = danielewski()
    lifted = Derivation(d.ring, [parse_polynomial("y + y^2 - 2*x*z - 1", names),
                                 parse_polynomial("z", names),
                                 parse_polynomial("0", names)])
    assert lifted.images == d.images


def test_preservation_report():
    d, _ = danielewski()
    assert d.check_preserves_relations() is None
    names = ["x", "y"]
    ring = Ideal(2, [parse_polynomial("x*y - 1", names)])
    bad = Derivation(ring, [parse_polynomial("1", names),
                            parse_polynomial("0", names)])
    assert bad.check_preserves_relations() == (parse_polynomial("x*y - 1", names),
                                               parse_polynomial("y", names))


def test_nilpotency_witnesses():
    expectations = {
        triangular3: (3, 2, 1),
        danielewski: (3, 2, 1),
        translation4: (2, 2, 1, 1),
        plane: (2, 1),
    }
    for builder, orders in expectations.items():
        d, _ = builder()
        assert d.nilpotency_orders() == orders


def test_non_nilpotent_derivation_is_flagged():
    euler = Derivation(Ideal(1), [Polynomial.variable(1, 0)])
    assert euler.nilpotency_orders(cap=10) == (None,)
    with pytest.raises(CapExceededError):
        euler.exp_action(Polynomial.variable(1, 0))


def test_iterates_stop_at_the_cap():
    d, names = triangular3()
    x = parse_polynomial("x", names)
    expected = [x, parse_polynomial("y", names), parse_polynomial("z", names)]
    assert d.iterates(x) == d.iterates(x, cap=3) == expected
    assert d.iterates(Polynomial.zero(3), cap=0) == []
    with pytest.raises(CapExceededError):
        d.iterates(x, cap=2)
    assert d.nilpotency_orders(cap=2) == (None, 2, 1)
    with pytest.raises(ValueError, match="cap must be non-negative"):
        d.iterates(x, cap=-1)
    with pytest.raises(ValueError, match="cap must be non-negative"):
        d.nilpotency_orders(cap=-1)


def test_exp_action_frozen_coefficients():
    d, names = triangular3()
    x = parse_polynomial("x", names)
    action = d.exp_action(x)
    assert action == (parse_polynomial("x", names),
                      parse_polynomial("y", names),
                      parse_polynomial("1/2*z", names))
    assert d.exp_action(parse_polynomial("z", names)) == \
        (parse_polynomial("z", names),)


def test_leibniz_rule_random():
    rng = random.Random(601)
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=3)
        g = random_poly(rng, nvars, max_total=2, max_terms=3)
        nf = d.ring.normal_form
        assert d.apply(nf(f * g)) == nf(f * d.apply(g) + g * d.apply(f))
        assert d.apply(f + g) == d.apply(f) + d.apply(g)


def test_exp_is_a_ring_homomorphism_random():
    rng = random.Random(602)
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=2)
        g = random_poly(rng, nvars, max_total=2, max_terms=2)
        sums = [a + b for a, b in zip_longest(d.exp_action(f), d.exp_action(g),
                                              fillvalue=Polynomial.zero(nvars))]
        while sums and sums[-1].is_zero:
            sums.pop()
        assert d.exp_action(f + g) == tuple(sums)
        assert_exp_multiplicative(d, f, g)


def test_group_law_random():
    # exp((s+t) d) agrees with exp(s d) after exp(t d)
    rng = random.Random(603)
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=3)
        assert_exp_group_law(d, f)


def test_parameter_derivative_commutes_random():
    # d/ds exp(s d)(f) = exp(s d)(d f)
    rng = random.Random(604)
    for _ in range(200):
        d, _ = rng.choice(ALL_DERIVATIONS)()
        nvars = d.ring.nvars
        f = random_poly(rng, nvars, max_total=2, max_terms=3)
        assert_exp_commutes_with_d_ds(d, f)


def test_orbit_points_frozen():
    d, _ = triangular3()
    assert d.orbit_point((0, 0, 1), 2) == (2, 2, 1)
    assert d.orbit_point((0, 1, 0), 5) == (5, 1, 0)
    surface, _ = danielewski()
    assert surface.orbit_point((0, 1, 1), 3) == (Fraction(15, 2), 4, 1)


@pytest.mark.parametrize("point, time", [
    ((0.5, Fraction(1, 3), 0), 1),
    ((0, "1/3", 0), 1),
    ((0, 0, 1), 0.1),
    ((0, 0, 1), "2"),
])
def test_orbit_point_refuses_floats_and_strings(point, time):
    d, _ = triangular3()
    with pytest.raises(TypeError):
        d.orbit_point(point, time)


def test_orbit_point_validation():
    d, _ = danielewski()
    with pytest.raises(ValueError):
        d.orbit_point((0, 0, 0), 1)  # not on the surface
    with pytest.raises(ValueError):
        d.orbit_point((0, 1), 1)


def test_orbit_leaving_the_variety_is_an_internal_error():
    # x -> x + s does not preserve x*y = 1, so the orbit of (1, 1) leaves
    # the hyperbola; that is a broken precondition, not bad user input
    names = ["x", "y"]
    ring = Ideal(2, [parse_polynomial("x*y - 1", names)])
    d = Derivation(ring, [parse_polynomial(e, names) for e in ("1", "0")])
    with pytest.raises(RuntimeError, match="orbit left the variety"):
        d.orbit_point((1, 1), 1)


def test_orbit_group_law_on_points():
    rng = random.Random(605)
    d, _ = triangular3()
    surface, _ = danielewski()
    for _ in range(100):
        s = random_fraction(rng)
        t = random_fraction(rng)
        p = tuple(random_fraction(rng) for _ in range(3))
        assert d.orbit_point(d.orbit_point(p, s), t) == d.orbit_point(p, s + t)
        a = random_fraction(rng)
        b = random_fraction(rng)
        if a == 0:
            continue
        q = (Fraction(b * b - 1, 2 * a), b, a)
        assert surface.orbit_point(surface.orbit_point(q, s), t) == \
            surface.orbit_point(q, s + t)


def test_fixed_locus_ideals():
    d, names = triangular3()
    assert d.fixed_locus().basis == (parse_polynomial("y", names),
                                     parse_polynomial("z", names))
    d4, names4 = translation4()
    assert d4.fixed_locus().basis == (parse_polynomial("u", names4),
                                      parse_polynomial("v", names4))
    flat, names2 = plane()
    assert flat.fixed_locus().basis == (parse_polynomial("y^2", names2),)
    # the surface action is fixed-point free: the fixed ideal is trivial
    surface, _ = danielewski()
    assert surface.fixed_locus().is_trivial


def test_fixed_points_stay_fixed():
    rng = random.Random(606)
    d, _ = triangular3()
    flat, _ = plane()
    for _ in range(50):
        a = random_fraction(rng)
        s = random_fraction(rng)
        assert d.orbit_point((a, 0, 0), s) == (a, 0, 0)
        assert flat.orbit_point((a, 0), s) == (a, 0)


def test_apply_rational_extends_apply():
    rng = random.Random(607)
    d, _ = triangular3()
    for _ in range(100):
        f = random_poly(rng, 3, max_total=2, max_terms=3)
        value = d.apply_rational(RationalFunction(f))
        assert value == RationalFunction(d.apply(f))


def test_apply_rational_leibniz():
    rng = random.Random(608)
    d, _ = triangular3()
    for _ in range(100):
        num1 = random_poly(rng, 3, max_total=2, max_terms=2)
        num2 = random_poly(rng, 3, max_total=2, max_terms=2)
        den1 = parse_polynomial("z", ["x", "y", "z"])
        den2 = parse_polynomial("y + z", ["x", "y", "z"])
        a = RationalFunction(num1, den1)
        b = RationalFunction(num2, den2)
        assert d.apply_rational(a * b) == \
            d.apply_rational(a) * b + a * d.apply_rational(b)


def test_apply_rational_known_values():
    d, names = triangular3()
    h = parse_polynomial("y^2 - 2*x*z", names)
    level = RationalFunction(parse_polynomial("z^2", names), h)
    assert d.apply_rational(level) == 0
    lifted = RationalFunction(parse_polynomial("y*z", names), h)
    assert d.apply_rational(lifted) == level
    slope = RationalFunction(parse_polynomial("y", names),
                             parse_polynomial("z", names))
    assert d.apply_rational(slope) == 1


def test_apply_rational_is_the_quotient_rule_over_den_squared():
    # nothing is cancelled: each den below has a constant term and coprime
    # coefficients, so the value's denominator is den^2 as it stands.  Its
    # simplification is the value apply_rational gave when it simplified
    # (pinned), exactly on the free ring and modulo the relation on the
    # Danielewski surface, where d(num) and d(den) are now normal forms:
    # there d(x*y/(z + 1)) simplifies to (3*x*z + 1)/(z + 1)
    cases = [(triangular3, "y", "z + 1", "z", "z + 1"),
             (triangular3, "x*y", "y + 2", "y^3 + 2*y^2 + 2*x*z", "y^2 + 4*y + 4"),
             (triangular3, "x*z", "2*y^2 - 4*x*z + 2", "1/2*y*z", "y^2 - 2*x*z + 1"),
             (danielewski, "x*y", "z + 1", "y^2 + x*z", "z + 1"),
             (danielewski, "x^2 + y", "x*z - 3",
              "x^2*y*z - y^2*z + x*z^2 - 6*x*y - 3*z", "x^2*z^2 - 6*x*z + 9"),
             (danielewski, "y", "x - 1", "-y^2 + x*z - z", "x^2 - 2*x + 1")]
    for build, num, den, pinned_num, pinned_den in cases:
        d, names = build()
        P = lambda text: parse_polynomial(text, names)
        value = RationalFunction(P(num), P(den))
        got = d.apply_rational(value)
        assert got.den == value.den * value.den
        # the quotient rule on free-ring Leibniz sums, not reduced: equal to
        # the value modulo the relations, on the surface not term for term
        free = lambda f: sum((image * derivative(f, i) for i, image in enumerate(d.images)),
                             Polynomial.zero(3))
        reference = RationalFunction(value.den * free(value.num) - value.num * free(value.den),
                                     value.den * value.den)
        assert ratfun_eq_mod(d.ring, got, reference)
        for c in (0, 1, reference):
            assert ratfun_eq_mod(d.ring, got, c) == ratfun_eq_mod(d.ring, reference, c)
        simplified, pinned = got.simplify(), RationalFunction(P(pinned_num), P(pinned_den))
        assert ratfun_eq_mod(d.ring, simplified, pinned)
        if not d.ring.generators:
            assert (simplified.num, simplified.den) == (pinned.num, pinned.den)


def test_apply_rational_rejects_vanishing_denominator():
    surface, names = danielewski()
    bad = RationalFunction(parse_polynomial("x", names),
                           parse_polynomial("y^2 - 2*x*z - 1", names))
    with pytest.raises(ZeroDivisionError):
        surface.apply_rational(bad)
