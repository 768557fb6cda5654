import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import random_poly
from lndtools import (
    ParseError,
    Polynomial,
    format_polynomial,
    parse_fraction,
    parse_point,
    parse_polynomial,
    parse_polynomial_list,
    parse_spec,
    spec_derivation,
)
from lndtools.printing import format_number

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def test_precedence():
    f = parse_polynomial("x + 2*y^3", XY)
    assert f == Polynomial(2, {(1, 0): 1, (0, 3): 2})
    assert parse_polynomial("2*x^2", XY) == Polynomial(2, {(2, 0): 2})
    # ^ binds tighter than unary minus on its base
    assert parse_polynomial("-x^2", XY) == Polynomial(2, {(2, 0): -1})
    assert parse_polynomial("(x + y)^2", XY) == \
        parse_polynomial("x^2 + 2*x*y + y^2", XY)


def test_powers_within_the_bounds_are_read_quickly():
    # the largest powers the term and coefficient bounds let through; a
    # fractional base is raised as its content times an integer power
    begin = time.perf_counter()
    assert len(parse_polynomial("(x+y+z)^43", XYZ).terms) == 990
    power = parse_polynomial("(1/3*x+y)^999", XY)
    assert time.perf_counter() - begin < 4.0
    assert power.terms[(999, 0)] == Fraction(1, 3 ** 999)
    assert power.terms[(1, 998)] == 333


def test_rational_literals():
    assert parse_polynomial("1/2*x", XY) == Polynomial(2, {(1, 0): Fraction(1, 2)})
    assert parse_polynomial("3/6", XY) == Polynomial(2, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ParseError):
        parse_polynomial("1/0", XY)
    # division is only a literal, not an operator
    with pytest.raises(ParseError):
        parse_polynomial("x/2", XY)


@pytest.mark.parametrize("text, reason", [
    ("1/0", "zero denominator"),
    ("1/x", "expected an integer denominator"),
])
def test_rational_literal_errors_agree(text, reason):
    for parse in (lambda t: parse_polynomial(t, XY), parse_fraction, parse_point):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.reason, info.value.column) == (reason, 3)


def test_unary_minus():
    assert parse_polynomial("-x + -2", XY) == Polynomial(2, {(1, 0): -1, (0, 0): -2})
    assert parse_polynomial("x - -y", XY) == Polynomial(2, {(1, 0): 1, (0, 1): 1})
    assert parse_polynomial("---x", XY) == parse_polynomial("-x", XY)
    assert parse_polynomial("-(x + y)*2", XY) == \
        Polynomial(2, {(1, 0): -2, (0, 1): -2})


def test_unknown_variable_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + w*y", XY)
    err = info.value
    assert err.line == 1 and err.column == 5
    assert "unknown variable 'w'" in err.reason
    assert str(err) == "line 1, column 5: unknown variable 'w'"


def test_syntax_error_positions():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + ", XY)
    assert info.value.column == 5
    with pytest.raises(ParseError) as info:
        parse_polynomial("x ^ y", XY)
    assert info.value.column == 5
    with pytest.raises(ParseError) as info:
        parse_polynomial("(x + y", XY)
    assert "expected ')'" in info.value.reason
    with pytest.raises(ParseError):
        parse_polynomial("x x", XY)  # no implicit multiplication


def test_polynomial_lists_and_points():
    polys = parse_polynomial_list("x; y^2 ; x - y", XY)
    assert polys == [parse_polynomial(t, XY) for t in ("x", "y^2", "x - y")]
    assert parse_point("0; 1/2; -3") == (Fraction(0), Fraction(1, 2), Fraction(-3))
    assert parse_fraction("-7/2") == Fraction(-7, 2)
    with pytest.raises(ParseError):
        parse_fraction("x")
    with pytest.raises(ParseError):
        parse_point("1; ")


def test_points_and_times_are_variable_free_expressions():
    assert parse_fraction("1+1") == 2
    assert parse_fraction("-(1/2)^2*3") == Fraction(-3, 4)
    assert parse_point("2^3; --1/2") == (Fraction(8), Fraction(1, 2))
    with pytest.raises(ParseError) as info:
        parse_point("1; ")
    assert (info.value.reason, info.value.column) == \
        ("expected a number, a variable, or '('", 4)


def test_digits_are_what_int_reads():
    # '٣' is ARABIC-INDIC DIGIT THREE; '²' is a digit to str.isdigit only
    assert parse_polynomial("٣*x", XY) == parse_polynomial("3*x", XY)
    assert parse_fraction("١/٢") == Fraction(1, 2)
    assert parse_polynomial("x²", ["x²"]) == Polynomial.variable(1, 0)
    # a declared name that no name token can be is refused as text
    with pytest.raises(ParseError) as info:
        parse_polynomial("²", ["²"])
    assert str(info.value) == "line 1, column 1: unexpected character '²'"
    with pytest.raises(ParseError) as info:
        parse_polynomial("x^²", XY)
    assert str(info.value) == "line 1, column 3: unexpected character '²'"


# Inputs whose errors must not move: (parser, text, (line, column, reason)).
SPEC = "ring R\nvars x y\n"
ERROR_POSITIONS = [
    ("spec", "ring R\nvars x\nder x = # c", (3, 9, "expected a number, a variable, or '('")),
    ("spec", SPEC + "der x = y # c\nder y = 0 0", (4, 11, "unexpected trailing input")),
    ("spec", SPEC + "der x = y\nder x = 1\n", (4, 5, "duplicate der line for 'x'")),
    ("spec", SPEC + "der x = y\n", (3, 1, "missing der line for variable 'y'")),
    ("spec", "ring R\nvars x x\n", (2, 8, "duplicate variable 'x'")),
    ("spec", "ring R\n  # only a comment\nvars\n", (3, 1, "vars needs at least one variable")),
    ("spec", "ring R\nvars 1\n", (2, 6, "unexpected trailing input")),
    ("spec", "ring\n", (1, 5, "expected a ring name")),
    ("spec", "ring R\nrel x\n", (2, 1, "vars must be declared before rel and der lines")),
    ("spec", SPEC + "der 2 = x\n", (3, 5, "expected a variable name")),
    ("spec", SPEC + "der x y\n", (3, 7, "expected '='")),
    ("spec", SPEC + "mul x\n", (3, 1, "expected a directive: ring, vars, rel, or der")),
    ("poly", "x + ", (1, 5, "expected a number, a variable, or '('")),
    ("poly", "x ^ y", (1, 5, "exponent must be an integer literal")),
    ("poly", "(x + y", (1, 7, "expected ')'")),
    ("poly", "x x", (1, 3, "unexpected trailing input")),
    ("poly", "x/2", (1, 2, "unexpected trailing input")),
    ("poly", "1/0", (1, 3, "zero denominator")),
    ("poly", "x +\n  w", (2, 3, "unknown variable 'w'")),
    ("poly", "x\u00a0+ y", (1, 2, "unexpected character '\\xa0'")),
    ("poly", "x + ½", (1, 5, "unexpected character '½'")),
    ("poly", "2 + 1" + "0" * 5000, (1, 5, "integer literal too long")),
    ("list", "x; y;", (1, 6, "expected a number, a variable, or '('")),
    ("list", "x; y # z\n w", (2, 2, "unexpected trailing input")),
    ("list", "x; # y", (1, 4, "expected a number, a variable, or '('")),
    # the bounds and the atom, product and power rules
    ("poly", "x^10001", (1, 3, "exponent above 10000")),
    ("poly", "(10^3000)^10000", (1, 11, "power may have more than 4000000 coefficient bits")),
    ("poly", "((x+1)*(y+1))^600", (1, 15, "power may have more than 1000 terms")),
    ("poly", "2^x", (1, 3, "exponent must be an integer literal")),
    ("poly", "x^-1", (1, 3, "exponent must be an integer literal")),
    ("poly", "4/0*x", (1, 3, "zero denominator")),
    ("poly", "x*", (1, 3, "expected a number, a variable, or '('")),
    ("poly", "x**y", (1, 3, "expected a number, a variable, or '('")),
    ("poly", "x*w", (1, 3, "unknown variable 'w'")),
    ("spec", SPEC + "der x = 1/2*x^10001\nder y = 0\n", (3, 15, "exponent above 10000")),
    # a lexical error anywhere in the text wins over a syntax error before it
    ("poly", "x x ½", (1, 5, "unexpected character '½'")),
    ("poly", "x x 1" + "0" * 5000, (1, 5, "integer literal too long")),
    ("poly", "(x ½", (1, 4, "unexpected character '½'")),
    ("spec", SPEC + "der x = y y ½", (3, 13, "unexpected character '½'")),
    # the end of input is at a last comment, or past the last line break
    ("poly", "x + # c", (1, 5, "expected a number, a variable, or '('")),
    ("poly", "x +\n # c\n", (3, 1, "expected a number, a variable, or '('")),
    ("poly", "x^2^3", (1, 4, "unexpected trailing input")),
    ("poly", "2*x^99999", (1, 5, "exponent above 10000")),
]


@pytest.mark.parametrize("kind, text, error", ERROR_POSITIONS,
                         ids=[f"{kind} {text[:24]!r}" for kind, text, _ in ERROR_POSITIONS])
def test_error_positions(kind, text, error):
    parse = {"spec": parse_spec,
             "poly": lambda t: parse_polynomial(t, XY),
             "list": lambda t: parse_polynomial_list(t, XY)}[kind]
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.column, info.value.reason) == error


def test_products_of_two_sums_are_bounded():
    # 31 * 31 terms may be read; 32 * 32 are refused at the '*'
    assert len(parse_polynomial("(x+y)^30*(x-y)^30", XY).terms) == 31
    with pytest.raises(ParseError) as info:
        parse_polynomial("(x+y)^31*(x-y)^31", XY)
    assert (info.value.line, info.value.column, info.value.reason) == \
        (1, 9, "product may have more than 1000 terms")
    with pytest.raises(ParseError) as info:
        parse_spec(SPEC + "der x = y\nder y = (x+y)^40*(x-y)^40\n")
    assert (info.value.line, info.value.column, info.value.reason) == \
        (4, 17, "product may have more than 1000 terms")
    # coefficient bits are estimated as for a power: 12 factors of 13,289-bit
    # coefficients may be read, and the 12th '*' is refused
    big = "(10^4000*x+y)"
    assert len(parse_polynomial("*".join([big] * 12), XY).terms) == 13
    with pytest.raises(ParseError) as info:
        parse_polynomial("*".join([big] * 13), XY)
    assert (info.value.line, info.value.column, info.value.reason) == \
        (1, 168, "product may have more than 4000000 coefficient bits")
    # a single term times a long sum is no product of two sums
    long_sum = " + ".join(f"x^{i}*y^{j}" for i in range(40) for j in range(40))
    assert len(parse_polynomial(f"2*x*({long_sum})*y", XY).terms) == 1600


def random_expression(rng, depth):
    """Random text of the expression grammar and its value, computed with
    ``Polynomial`` arithmetic by the grammar's rules: sums and products
    fold left, unary minus applies to a power and ``^`` to an atom."""
    text, value = random_term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice("+-")
        right, v = random_term(rng, depth)
        text, value = f"{text} {op} {right}", value + v if op == "+" else value - v
    return text, value


def random_term(rng, depth):
    text, value = random_factor(rng, depth)
    for _ in range(rng.randint(0, 1)):
        right, v = random_factor(rng, depth)
        text, value = f"{text}*{right}", value * v
    return text, value


def random_factor(rng, depth):
    text, value = random_atom(rng, depth)
    if rng.random() < 0.4:
        e = rng.randint(0, 4)
        text, value = f"{text}^{e}", value ** e
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        text, value = "-" + text, -value
    return text, value


def random_atom(rng, depth):
    kind = rng.randrange(4 if depth else 3)
    if kind == 0:
        i = rng.randrange(3)
        return XYZ[i], Polynomial.variable(3, i)
    if kind == 1:
        n = rng.randint(0, 12)
        return str(n), Polynomial.constant(3, n)
    if kind == 2:
        p, q = rng.randint(0, 12), rng.randint(1, 6)
        return f"{p}/{q}", Polynomial.constant(3, Fraction(p, q))
    text, value = random_expression(rng, depth - 1)
    return f"({text})", value


def test_parser_agrees_with_polynomial_arithmetic():
    x = Polynomial.variable(3, 0)
    fixed = [("4/2", Polynomial.constant(3, Fraction(4, 2))),
             ("0*x", Polynomial.constant(3, 0) * x),
             ("x - x", x - x),
             ("0^0", Polynomial.constant(3, 0) ** 0),
             ("x^0", x ** 0),
             ("(1/2*x)^3", (Polynomial.constant(3, Fraction(1, 2)) * x) ** 3),
             ("(-x)^2", (-x) ** 2)]
    rng = random.Random(1800)
    cases = fixed + [random_expression(rng, 2) for _ in range(300)]
    assert sum(len(value.terms) > 1 for _, value in cases) > 100
    for text, value in cases:
        # equal terms in equal order, with equal int/Fraction types
        terms = parse_polynomial(text, XYZ).terms
        assert list(terms.items()) == list(value.terms.items())
        assert list(map(type, terms.values())) == list(map(type, value.terms.values()))


def test_a_sum_of_single_terms_builds_one_polynomial(monkeypatch):
    built = []
    from_clean = Polynomial._from_clean.__func__

    def counted(cls, nvars, terms):
        built.append(terms)
        return from_clean(cls, nvars, terms)

    monkeypatch.setattr(Polynomial, "_from_clean", classmethod(counted))
    terms = parse_polynomial("x^2*y - 3*x*y^2 + 1/2*x - 7", XY).terms
    assert len(built) == 1
    assert list(terms.items()) == [((2, 1), 1), ((1, 2), -3),
                                   ((1, 0), Fraction(1, 2)), ((0, 0), -7)]
    assert list(map(type, terms.values())) == [int, int, Fraction, int]


FUZZ_ALPHABET = [*"xyz0123456789+-*^()/;= _", "#", "\n", "\t",
                 "²", "٣", "½", "α", "\u00a0"]
FUZZ_PREFIXES = ["", "ring R\n", "ring R\nvars x y\n", "ring R\nvars x y\nder x = "]


def test_parsers_return_or_raise_parse_error_on_random_text():
    rng = random.Random(20)
    parsers = (lambda t: parse_polynomial(t, XY),
               lambda t: parse_polynomial_list(t, XY),
               parse_point, parse_fraction,
               lambda t: parse_spec(rng.choice(FUZZ_PREFIXES) + t))
    for _ in range(600):
        text = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 16)))
        for parse in parsers:
            try:
                parse(text)
            except ParseError:
                pass


def test_spec_round_trip_through_printer():
    source = (CORPUS / "ex_danielewski.lnd").read_text(encoding="utf-8")
    spec = parse_spec(source)
    assert spec.name == "Danielewski"
    assert spec.variables == ("x", "y", "z")
    assert len(spec.relations) == 1
    assert_polynomials_round_trip(spec)


def assert_polynomials_round_trip(spec):
    """Each relation and image of the spec prints and re-parses to itself."""
    for poly in spec.relations + spec.images:
        text = format_polynomial(poly, spec.variables)
        assert parse_polynomial(text, spec.variables) == poly


def test_all_corpus_files_round_trip():
    for path in sorted(CORPUS.glob("*.lnd")):
        spec = parse_spec(path.read_text(encoding="utf-8"))
        assert_polynomials_round_trip(spec)
        # and they all define consistent derivations
        derivation = spec_derivation(spec)
        assert derivation.check_preserves_relations() is None


def test_spec_comments_and_blank_lines():
    text = """
# leading comment
ring R   # trailing comment

vars x y
der x = y  # images can carry comments too
der y = 0
"""
    spec = parse_spec(text)
    assert spec.name == "R"
    assert spec.images[0] == parse_polynomial("y", XY)


def test_spec_errors():
    base = "ring R\nvars x y\nder x = y\nder y = 0\n"
    with pytest.raises(ParseError) as info:
        parse_spec(base + "der x = 1\n")
    assert "duplicate" in info.value.reason
    with pytest.raises(ParseError) as info:
        parse_spec("ring R\nvars x y\nder x = y\n")
    assert "missing" in info.value.reason and "y" in info.value.reason
    with pytest.raises(ParseError):
        parse_spec("vars x y\nder x = 0\nder y = 0\n")  # no ring line
    with pytest.raises(ParseError):
        parse_spec(base + "ring S\n")
    with pytest.raises(ParseError):
        parse_spec(base + "vars z\n")
    with pytest.raises(ParseError):
        parse_spec("ring R\nrel x\nvars x\nder x = 0\n")  # rel before vars
    with pytest.raises(ParseError) as info:
        parse_spec("ring R\nvars x y\nder x = \nder y = 0\n")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_spec("ring R\nvars x y\nder w = x\nder y = 0\n")
    assert "w" in info.value.reason


def test_relations_parse_into_the_spec():
    text = "ring S\nvars x y z\nrel y^2 - 2*x*z - 1\nder x = y\nder y = z\nder z = 0\n"
    spec = parse_spec(text)
    assert spec.relations == (parse_polynomial("y^2 - 2*x*z - 1", XYZ),)


def test_print_then_parse_is_identity_on_random_polynomials():
    rng = random.Random(501)
    names = ["x", "y", "z"]
    for _ in range(200):
        f = random_poly(rng, 3, max_total=4, max_terms=5, bound=9)
        text = format_polynomial(f, names)
        assert parse_polynomial(text, names) == f


def test_format_number_prints_huge_values_in_full():
    big = random.Random(1000000).getrandbits(1_000_000) | 1 << 999_999
    # big and big + 1 are coprime, so the fraction is in lowest terms at once
    fraction = Fraction(-big, big + 1)
    # the longest int printed by str, and the shortest printed otherwise
    edges = [(1 << 2000) - 1, 1 << 2000, -(1 << 2000) + 1, -(1 << 2000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(fraction)
        expected_edges = list(map(str, edges))
        # the least limit that may be set
        sys.set_int_max_str_digits(640)
        numerator = expected.split("/")[0]
        assert format_number(fraction) == expected
        assert format_number(-big) == numerator
        assert format_number(big) == numerator[1:]
        assert [(n.bit_length(), format_number(n)) for n in edges] == \
            list(zip([2000, 2001, 2000, 2001], expected_edges))
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_polynomial_canonical_examples():
    assert format_polynomial(Polynomial.zero(2), XY) == "0"
    assert format_polynomial(parse_polynomial("-x", XY), XY) == "-x"
    f = parse_polynomial("y + x^2*y - 2*x", XY)
    assert format_polynomial(f, XY) == "x^2*y - 2*x + y"
    half = parse_polynomial("1/2*x^2", XY)
    assert format_polynomial(half, XY) == "1/2*x^2"
