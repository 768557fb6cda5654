"""Shared builders, random generators, and independent oracles.

The oracles here deliberately avoid the code paths they are used to
check: membership is decided by solving a linear system over monomial
coefficients, division is done in plain ``Fraction`` arithmetic without
the ``groebner`` module, Groebner bases are verified through the S-pair
criterion on the finished basis with that division, radical membership
is cross-checked by searching small powers directly, and a derivation's
Leibniz sum is taken in ``Polynomial`` arithmetic, reduced by that
division, apart from the packed kernel.
"""

import math
from collections.abc import Iterator
from fractions import Fraction

from lndtools import (
    DEGREVLEX,
    Derivation,
    Ideal,
    Inconsistency,
    Polynomial,
    QMatrix,
    RationalFunction,
    build_preimage_system,
    parse_polynomial,
    solve_exact,
    standard_monomials,
)


def full_system(d: Derivation, max_degree: int):
    """The preimage system of ``d`` on every standard monomial of degree
    <= ``max_degree``, as ``slice-none`` builds it."""
    return build_preimage_system(d, standard_monomials(d.ring, max_degree))


def monomials_up_to(nvars: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of total degree at most ``max_degree``, in
    ascending lex order: every monomial an oracle may need."""
    if max_degree < 0:
        return
    mono = [0] * nvars

    def rec(pos: int, budget: int):
        if pos == nvars:
            yield tuple(mono)
            return
        for e in range(budget + 1):
            mono[pos] = e
            yield from rec(pos + 1, budget - e)
        mono[pos] = 0

    yield from rec(0, max_degree)


# ----------------------------------------------------------------------
# the four standard derivations


def triangular3():
    names = ["x", "y", "z"]
    images = [parse_polynomial(e, names) for e in ("y", "z", "0")]
    return Derivation(Ideal(3), images), names


def danielewski():
    names = ["x", "y", "z"]
    relation = parse_polynomial("y^2 - 2*x*z - 1", names)
    ring = Ideal(3, [relation])
    images = [parse_polynomial(e, names) for e in ("y", "z", "0")]
    return Derivation(ring, images), names


def translation4():
    names = ["x", "y", "u", "v"]
    images = [parse_polynomial(e, names) for e in ("u", "v", "0", "0")]
    return Derivation(Ideal(4), images), names


def plane():
    names = ["x", "y"]
    images = [parse_polynomial(e, names) for e in ("y^2", "0")]
    return Derivation(Ideal(2), images), names


ALL_DERIVATIONS = (triangular3, danielewski, translation4, plane)


# ----------------------------------------------------------------------
# standard Groebner benchmarks


def katsura(n):
    """Katsura-n in the n + 1 variables u_0, ..., u_n."""
    nvars = n + 1
    zero = Polynomial.zero(nvars)

    def u(i):
        i = abs(i)
        return Polynomial.variable(nvars, i) if i <= n else zero

    eqs = [sum((u(l) * u(m - l) for l in range(-n, n + 1)), zero) - u(m)
           for m in range(n)]
    eqs.append(sum((u(l) for l in range(-n, n + 1)), zero) - 1)
    return eqs


def cyclic(n):
    """Cyclic-n in n variables."""
    x = [Polynomial.variable(n, i) for i in range(n)]
    eqs = [sum((math.prod(x[(i + j) % n] for j in range(d)) for i in range(n)),
               Polynomial.zero(n))
           for d in range(1, n)]
    eqs.append(math.prod(x) - 1)
    return eqs


# ----------------------------------------------------------------------
# random data


def random_fraction(rng, bound=6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_monomial(rng, nvars, max_total=3):
    exps = [0] * nvars
    for _ in range(rng.randint(0, max_total)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(rng, nvars, max_total=3, max_terms=4, bound=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = random_fraction(rng, bound)
        if coeff:
            terms[random_monomial(rng, nvars, max_total)] = coeff
    return Polynomial(nvars, terms)


def random_nonzero_poly(rng, nvars, max_total=3, max_terms=4, bound=6):
    while True:
        f = random_poly(rng, nvars, max_total, max_terms, bound)
        if f:
            return f


# ----------------------------------------------------------------------
# oracles


def membership_by_linear_algebra(f, generators, cofactor_degree):
    """Decide f in (generators) with cofactors of bounded degree by
    exact linear algebra over monomial coefficients.

    Complete against a reduced degree-compatible basis once the bound
    reaches deg f: the division algorithm never needs a cofactor of
    larger degree there.  Against arbitrary generators only a positive
    answer is conclusive.
    """
    nvars = f.nvars
    unknowns = []
    for g in generators:
        for mono in monomials_up_to(nvars, cofactor_degree):
            unknowns.append((g, mono))
    rows = set(f.terms)
    for g, mono in unknowns:
        for gmono in g.terms:
            rows.add(tuple(a + b for a, b in zip(mono, gmono)))
    rows = sorted(rows)
    row_index = {mono: i for i, mono in enumerate(rows)}
    entries = [[] for _ in rows]
    for col, (g, mono) in enumerate(unknowns):
        for gmono, coeff in g.terms.items():
            prod = tuple(a + b for a, b in zip(mono, gmono))
            entries[row_index[prod]].append((col, coeff))
    rhs = [f.terms.get(mono, 0) for mono in rows]
    outcome = solve_exact(QMatrix(len(unknowns), entries), rhs)
    return not isinstance(outcome, Inconsistency)


def reference_remainder(f, divisors, order):
    """Remainder of multivariate division of f by the divisor list, tried
    in list order, in plain ``Fraction`` arithmetic: each step subtracts
    the multiple of the first divisor whose leading monomial divides the
    leading monomial left (Cox, Little & O'Shea, ch. 2 §3)."""
    leads = [(g, *g.leading_term(order)) for g in divisors if g]
    p = {m: Fraction(c) for m, c in f.terms.items()}
    remainder = {}
    while p:
        mono = max(p, key=order.key)
        for g, lm, lc in leads:
            if all(a >= b for a, b in zip(mono, lm)):
                factor = p[mono] / lc
                for gm, c in g.terms.items():
                    m = tuple(a + b - e for a, b, e in zip(gm, mono, lm))
                    p[m] = p.get(m, 0) - factor * c
                    if not p[m]:
                        del p[m]
                break
        else:
            remainder[mono] = p.pop(mono)
    return Polynomial(f.nvars, remainder)


def leibniz_oracle(d, f, reduce=True):
    """sum_j d(x_j) * df/dx_j in ``Polynomial`` arithmetic, the derivation's
    Leibniz sum on f as it was computed before the packed kernel, reduced
    by the ring's basis with ``reference_remainder`` when ``reduce``."""
    total = Polynomial.zero(d.ring.nvars)
    for i, image in enumerate(d.images):
        if image:
            total = total + image * derivative(f, i)
    return reference_remainder(total, d.ring.basis, d.ring.order) if reduce else total


def derivative(f, i):
    """The formal partial derivative df/dx_i, term by term."""
    return Polynomial(f.nvars, {(*m[:i], m[i] - 1, *m[i + 1:]): c * m[i]
                                for m, c in f.terms.items() if m[i]})


def assert_same_terms(got, want):
    """Equal terms, and an ``int`` or a ``Fraction`` in the same places:
    dict equality alone takes Fraction(2) for 2."""
    assert got == want
    assert [type(got[m]) for m in got] == [type(want[m]) for m in got]


def is_groebner_basis(basis, order):
    """S-pair criterion on a finished basis: every S-polynomial must
    reduce to zero against the basis itself, by the reference division."""
    basis = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            f, g = basis[i], basis[j]
            lf = f.leading_term(order)[0]
            lg = g.leading_term(order)[0]
            lcm = tuple(max(a, b) for a, b in zip(lf, lg))
            sf = Polynomial.monomial(
                f.nvars, tuple(a - b for a, b in zip(lcm, lf)),
                1 / f.leading_term(order)[1])
            sg = Polynomial.monomial(
                g.nvars, tuple(a - b for a, b in zip(lcm, lg)),
                1 / g.leading_term(order)[1])
            spair = sf * f - sg * g
            if reference_remainder(spair, basis, order):
                return False
    return True


def radical_by_power_search(f, ideal, max_power=5):
    """f^n in the ideal for some n up to max_power; positive answers
    certify radical membership, negative ones are only bounded."""
    power = Polynomial.constant(f.nvars, 1)
    for _ in range(max_power):
        power = power * f
        if ideal.contains(power):
            return True
    return False


def dixmier_sum(relations, slice_value, iterates):
    """sum((-slice)^j iterates[j] / j!), reduced and simplified, with each
    power of the slice built from 1 and a factorial per term: the Dixmier
    sum of one coefficient, as ``dixmier_reduce`` once took it."""
    total = RationalFunction.zero(relations.nvars)
    sign_slice = slice_value * -1
    slice_power = RationalFunction(Polynomial.constant(relations.nvars, 1), 1)
    for j, current in enumerate(iterates):
        if j:
            slice_power = slice_power * sign_slice
        total = total + slice_power * current * Fraction(1, math.factorial(j))
    return total.reduce_mod(relations).simplify()


# ----------------------------------------------------------------------
# the laws of exp(s*d), checked coefficient by coefficient; c_k below is
# the coefficient of s^k in exp(s*d)(f)


def assert_exp_multiplicative(d, f, g):
    """exp(s*d)(f*g) is the product of exp(s*d)(f) and exp(s*d)(g): its
    coefficient k is nf(sum of a_i*b_j over i + j = k)."""
    nvars = d.ring.nvars
    a, b = d.exp_action(f), d.exp_action(g)
    products = [Polynomial.zero(nvars) for _ in range(len(a) + len(b))]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            products[i + j] = products[i + j] + ai * bj
    expected = [d.ring.normal_form(p) for p in products]
    while expected and expected[-1].is_zero:
        expected.pop()
    assert d.exp_action(d.ring.normal_form(f * g)) == tuple(expected)


def assert_exp_group_law(d, f):
    """exp((s+t)*d) is exp(t*d) after exp(s*d): coefficient j of
    exp(t*d)(c_m) is comb(j+m, j)*c_{j+m}."""
    c = d.exp_action(f)
    for m, cm in enumerate(c):
        assert d.exp_action(cm) == tuple(
            c[j + m] * math.comb(j + m, j) for j in range(len(c) - m))


def assert_exp_commutes_with_d_ds(d, f):
    """d/ds exp(s*d)(f) = exp(s*d)(d(f)): coefficient k-1 of the right
    side is k*c_k."""
    c = d.exp_action(f)
    assert d.exp_action(d.apply(f)) == tuple(
        c[k] * k for k in range(1, len(c)))
