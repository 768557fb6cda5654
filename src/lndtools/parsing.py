"""Parsing of polynomial expressions and derivation description files.

Expression grammar, loosest to tightest binding: sums, products, powers.
Atoms are integer or rational literals (``3``, ``1/2``), declared variable
names, and parenthesized expressions.  There is no implicit multiplication
and no division except inside a rational literal; unary minus is allowed.
A digit is a decimal digit of any script, as ``int()`` reads it.  An
exponent is an integer literal of at most ``MAX_EXPONENT``, and a power
may have at most ``MAX_POWER_TERMS`` terms and ``MAX_POWER_BITS``
coefficient bits, and a product of two sums of t1 and t2 terms at most
t1 * t2 = ``MAX_POWER_TERMS`` terms and ``MAX_POWER_BITS`` coefficient
bits, estimated alike.  Points and times are expressions without
variables.  The parser builds clean terms: single terms multiply and
raise by their exponents, a sum adds its terms into one dict, in linear
time, and only products and powers of sums use ``Polynomial`` arithmetic.

A derivation file is line oriented with ``#`` comments:

    ring <identifier>
    vars <identifier> ...
    rel <expression>          (zero or more)
    der <identifier> = <expression>   (exactly one per variable)

All syntax errors carry the offending line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .derivation import Derivation
from .groebner import Ideal
from .poly import Polynomial, Scalar, _divide, _integral, mono_mul

_DIRECTIVES = ("ring", "vars", "rel", "der")

# Parenthesized expressions nest at most this deep; the parser recurses
# once per level.
MAX_NESTING = 100

# A power has an exponent of at most MAX_EXPONENT, and a power of a base
# with t terms at most MAX_POWER_TERMS terms by the multinomial bound
# C(t - 1 + e, e), so that a short input cannot ask for a huge polynomial.
# Each of their numerators and denominators is estimated at
# e * (b + bit length of t) bits, b the longest in the base, and the term
# bound times that estimate may be at most MAX_POWER_BITS, so that short
# input cannot ask for huge coefficients either.  A product of two sums of
# t1 and t2 terms is bounded alike, with t1 * t2 terms of b1 + b2 + bit
# length of min(t1, t2) bits.
MAX_EXPONENT = 10_000
MAX_POWER_TERMS = 1_000
MAX_POWER_BITS = 4_000_000


def _bits(node: Polynomial) -> int:
    """The bit length of the longest numerator or denominator of ``node``."""
    return max((max(abs(c.numerator), c.denominator).bit_length()
                for c in node.terms.values()), default=0)


def _bound(what: str, terms: int, bits: int, token: Token) -> None:
    """Refuse, at ``token``, a power or product of more than MAX_POWER_TERMS
    terms, or of more than MAX_POWER_BITS coefficient bits in all."""
    if terms > MAX_POWER_TERMS:
        raise ParseError(f"{what} may have more than {MAX_POWER_TERMS} terms",
                         token.line, token.column)
    if terms * bits > MAX_POWER_BITS:
        raise ParseError(f"{what} may have more than {MAX_POWER_BITS} "
                         "coefficient bits", token.line, token.column)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str  # "ident", "int", "sym", "end"
    value: object
    line: int
    column: int


_new_tuple = tuple.__new__  # a Token without NamedTuple's Python-level __new__

# One alternative per token kind, tried in order.  A digit is a decimal
# digit, one that int() reads (so '٣' is 3 and '²' is no digit); a name
# starts with a letter or '_'.  Anything else is an unexpected character.
_TOKEN = re.compile(r"""(?P<newline>\n) | (?P<blank>[ \t\r]+) | (?P<comment>\#[^\n]*)
                      | (?P<int>\d+) | (?P<ident>\w+) | (?P<sym>[-+*^()=/;])
                      | (?P<other>.)""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str, line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line_start, match = 0, None
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "blank" or kind == "comment":
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        value = match.group()
        column = match.start() - line_start + 1
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("integer literal too long", line, column) from None
        elif kind == "other" or (kind == "ident" and not (value[0].isalpha()
                                                          or value[0] == "_")):
            raise ParseError(f"unexpected character {value[0]!r}", line, column)
        tokens.append(_new_tuple(Token, (kind, value, line, column)))
    # the matches tile the text: input ends at its end or at a last comment
    end = match.start() if match and match.lastgroup == "comment" else len(text)
    tokens.append(_new_tuple(Token, ("end", None, line, end - line_start + 1)))
    return tokens


class _Parser:
    """Recursive descent over one token list.  An expression may use the
    variables in ``names``; with none it is a rational number."""

    def __init__(self, tokens: Sequence[Token], names: Sequence[str] = ()):
        self.tokens = tokens
        self.pos = 0
        self.nvars = len(names)
        self.one = one = (0,) * self.nvars
        # shared: no rule writes into the terms of a factor
        self.variables = {name: Polynomial._from_clean(self.nvars, {
            one[:i] + (1,) + one[i + 1:]: 1}) for i, name in enumerate(names)}
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def accept(self, symbol: str) -> Token | None:
        """Step over ``symbol`` and return its token if it comes next."""
        token = self.tokens[self.pos]
        if token.kind == "sym" and token.value == symbol:
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, message: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(message, token.line, token.column)
        return self.advance()

    def expect_symbol(self, symbol: str):
        if not self.accept(symbol):
            token = self.peek()
            raise ParseError(f"expected {symbol!r}", token.line, token.column)

    def expect_end(self):
        self.expect("end", "unexpected trailing input")

    def expression(self) -> Polynomial:
        # one dict for every term, in the order that Polynomial.__add__ gives
        terms = dict(self.term().terms)
        while (negate := self.accept("-")) or self.accept("+"):
            for mono, c in self.term().terms.items():
                c = _integral(terms.get(mono, 0) + (-c if negate else c))
                if c:
                    terms[mono] = c
                else:
                    del terms[mono]
        return Polynomial._from_clean(self.nvars, terms)

    def term(self) -> Polynomial:
        node = self.factor()
        while star := self.accept("*"):
            right = self.factor()
            t1, t2 = len(node.terms), len(right.terms)
            if t1 == t2 == 1:
                [(m1, c1)], [(m2, c2)] = node.terms.items(), right.terms.items()
                node = Polynomial._from_clean(
                    self.nvars, {mono_mul(m1, m2): _integral(c1 * c2)})
            else:
                if min(t1, t2) > 1:
                    _bound("product", t1 * t2, _bits(node) + _bits(right)
                           + min(t1, t2).bit_length(), star)
                node = node * right
        return node

    def factor(self) -> Polynomial:
        negate = False
        while self.accept("-"):
            negate = not negate
        node = self.power()
        return -node if negate else node

    def power(self) -> Polynomial:
        base = self.atom()
        if self.accept("^"):
            token = self.expect("int", "exponent must be an integer literal")
            e = token.value
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}",
                                 token.line, token.column)
            t = len(base.terms)
            _bound("power", math.comb(max(t, 1) - 1 + e, e),
                   e * (_bits(base) + t.bit_length()), token)
            return base ** e
        return base

    def atom(self) -> Polynomial:
        token = self.advance()
        if token.kind == "int":
            c = self.rational_literal(token.value)
            return Polynomial._from_clean(self.nvars, {self.one: c} if c else {})
        if token.kind == "ident":
            node = self.variables.get(token.value)
            if node is None:
                raise ParseError(f"unknown variable {token.value!r}",
                                 token.line, token.column)
            return node
        if token.kind == "sym" and token.value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply",
                                 token.line, token.column)
            self.depth += 1
            node = self.expression()
            self.depth -= 1
            self.expect_symbol(")")
            return node
        raise ParseError("expected a number, a variable, or '('",
                         token.line, token.column)

    def rational_literal(self, numerator: int) -> Scalar:
        """The literal ``numerator`` or ``numerator / int``, the only rule
        for a number, clean (``4/2`` is 2); the denominator must be a
        nonzero integer literal."""
        if not self.accept("/"):
            return numerator
        den = self.expect("int", "expected an integer denominator")
        if den.value == 0:
            raise ParseError("zero denominator", den.line, den.column)
        return _divide(numerator, den.value)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    parser = _Parser(_tokenize(text), names)
    poly = parser.expression()
    parser.expect_end()
    return poly


def parse_polynomial_list(text: str, names: Sequence[str]) -> list[Polynomial]:
    """Parse a ';'-separated list of polynomial expressions."""
    parser = _Parser(_tokenize(text), names)
    out = [parser.expression()]
    while parser.accept(";"):
        out.append(parser.expression())
    parser.expect_end()
    return out


def parse_fraction(text: str) -> Fraction:
    """Parse a variable-free expression as a rational number."""
    return parse_polynomial(text, ()).constant_term()


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Parse ';'-separated variable-free expressions as a rational point."""
    return tuple(p.constant_term() for p in parse_polynomial_list(text, ()))


@dataclass(frozen=True)
class DerivationSpec:
    """Parsed derivation file: a named ring, its variables and relations,
    and one image per variable."""

    name: str
    variables: tuple[str, ...]
    relations: tuple[Polynomial, ...]
    images: tuple[Polynomial, ...]


def parse_spec(text: str) -> DerivationSpec:
    name: str | None = None
    variables: tuple[str, ...] | None = None
    relations: list[Polynomial] = []
    images: dict[str, Polynomial] = {}
    last_line = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        parser = _Parser(_tokenize(raw, lineno), variables or ())
        head = parser.advance()
        if head.kind == "end":
            continue
        if head.kind != "ident" or head.value not in _DIRECTIVES:
            raise ParseError("expected a directive: ring, vars, rel, or der",
                             head.line, head.column)
        if head.value == "ring":
            if name is not None:
                raise ParseError("duplicate ring directive", head.line, head.column)
            name = parser.expect("ident", "expected a ring name").value
            parser.expect_end()
        elif head.value == "vars":
            if variables is not None:
                raise ParseError("duplicate vars directive", head.line, head.column)
            seen: list[str] = []
            while parser.peek().kind == "ident":
                token = parser.advance()
                if token.value in seen:
                    raise ParseError(f"duplicate variable {token.value!r}",
                                     token.line, token.column)
                seen.append(token.value)
            parser.expect_end()
            if not seen:
                raise ParseError("vars needs at least one variable",
                                 head.line, head.column)
            variables = tuple(seen)
        elif variables is None:
            raise ParseError("vars must be declared before rel and der lines",
                             head.line, head.column)
        elif head.value == "rel":
            relations.append(parser.expression())
            parser.expect_end()
        else:
            target = parser.expect("ident", "expected a variable name")
            if target.value not in variables:
                raise ParseError(f"unknown variable {target.value!r}",
                                 target.line, target.column)
            if target.value in images:
                raise ParseError(f"duplicate der line for {target.value!r}",
                                 target.line, target.column)
            parser.expect_symbol("=")
            images[target.value] = parser.expression()
            parser.expect_end()

    if name is None:
        raise ParseError("missing ring directive", last_line, 1)
    if variables is None:
        raise ParseError("missing vars directive", last_line, 1)
    for v in variables:
        if v not in images:
            raise ParseError(f"missing der line for variable {v!r}", last_line, 1)
    return DerivationSpec(name, variables, tuple(relations),
                          tuple(images[v] for v in variables))


def spec_derivation(spec: DerivationSpec) -> Derivation:
    return Derivation(Ideal(len(spec.variables), spec.relations), spec.images)
