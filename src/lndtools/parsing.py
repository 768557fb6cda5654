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
variables.  One ``re.findall`` reads a text as a list of string tokens.
The parser carries a value of a single term as a ``(coefficient,
monomial)`` pair, which multiplies and raises by its exponent directly; it
builds a ``Polynomial`` only for a sum, adding its terms into one dict in
linear time, and for a product or power that involves a sum, with
``Polynomial`` arithmetic.  Lines and columns are worked out only when a
text fails to parse.

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
from typing import NoReturn, Sequence

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


def _bits(c: Scalar) -> int:
    """The bit length of the longer of the numerator and denominator of c."""
    return max(abs(c.numerator), c.denominator).bit_length()


def _items(node):
    """The (monomial, coefficient) items of a ``(coefficient, monomial)``
    pair or of a ``Polynomial``."""
    if type(node) is tuple:
        c, mono = node
        return ((mono, c),) if c else ()
    return node.terms.items()


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


# One match per token, with the blanks, line breaks and comments before it;
# the text's end is the empty token.  A digit is a decimal digit, one that
# int() reads (so '٣' is 3 and '²' is no digit); a name starts with a letter
# or '_'.  Any other character is a token of its own: a symbol, or an
# unexpected character, which only the error path looks for.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|\#[^\n]*)*(\d+|\w+|.|\Z)")
_SYMBOLS = frozenset("-+*^()=/;")


def _is_name(token: str) -> bool:
    return token[:1].isalpha() or token[:1] == "_"


def _error(text: str, line: int, index: int, reason: str) -> ParseError:
    """``reason`` at token ``index`` of ``text``, whose first line is
    ``line``; but the text is read whole before it is parsed, so its first
    lexical error, if it has one, wins."""
    matches = list(_TOKEN.finditer(text))
    at = matches[index].start(1)
    last_line = text.rfind("\n") + 1
    if not matches[index][1] and "#" in text[last_line:]:
        at = text.index("#", last_line)  # input ends at a last comment
    for match in matches:
        token = match[1]
        if token[:1].isdecimal():
            try:
                int(token)
            except ValueError:  # past sys.get_int_max_str_digits()
                reason, at = "integer literal too long", match.start(1)
                break
        elif token and not _is_name(token) and token not in _SYMBOLS:
            reason, at = f"unexpected character {token[0]!r}", match.start(1)
            break
    return ParseError(reason, line + text.count("\n", 0, at),
                      at - text.rfind("\n", 0, at))


class _Parser:
    """Recursive descent over the tokens of one text.  An expression may use
    the variables in ``names``; with none it is a rational number.  A value
    of a single term is a ``(coefficient, monomial)`` pair, any other a
    ``Polynomial``; ``poly`` turns either into a ``Polynomial``."""

    def __init__(self, text: str, names: Sequence[str] = (), line: int = 1):
        self.text, self.line = text, line
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.nvars = len(names)
        self.one = one = (0,) * self.nvars
        # only names a name token can be: '²' would match a refused token
        self.variables = {name: one[:i] + (1,) + one[i + 1:]
                          for i, name in enumerate(names) if _is_name(name)}
        self.depth = 0

    def fail(self, message: str, index: int) -> NoReturn:
        raise _error(self.text, self.line, index, message) from None

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, symbol: str) -> bool:
        """Step over ``symbol`` if it comes next."""
        if self.tokens[self.pos] == symbol:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, symbol: str):
        if not self.accept(symbol):
            self.fail(f"expected {symbol!r}", self.pos)

    def expect_end(self):
        if self.tokens[self.pos]:
            self.fail("unexpected trailing input", self.pos)

    def name(self, message: str) -> str:
        token = self.next()
        if not _is_name(token):
            self.fail(message, self.pos - 1)
        return token

    def integer(self, message: str) -> int:
        token = self.tokens[self.pos]
        self.pos += 1
        if not token[:1].isdecimal():
            self.fail(message, self.pos - 1)
        try:
            return int(token)
        except ValueError:  # past sys.get_int_max_str_digits()
            self.fail("integer literal too long", self.pos - 1)

    def bound(self, what: str, terms: int, bits: int, index: int):
        """Refuse, at token ``index``, a power or product of more than
        MAX_POWER_TERMS terms, or of more than MAX_POWER_BITS coefficient
        bits in all."""
        if terms > MAX_POWER_TERMS:
            self.fail(f"{what} may have more than {MAX_POWER_TERMS} terms", index)
        if terms * bits > MAX_POWER_BITS:
            self.fail(f"{what} may have more than {MAX_POWER_BITS} "
                      "coefficient bits", index)

    def poly(self, node) -> Polynomial:
        if type(node) is tuple:
            return Polynomial._from_clean(self.nvars, dict(_items(node)))
        return node

    def expression(self):
        tokens = self.tokens
        node = self.term()
        if tokens[self.pos] != "+" and tokens[self.pos] != "-":
            return node
        # one dict for every term, in the order that Polynomial.__add__ gives
        terms = dict(_items(node))
        while (sign := tokens[self.pos]) == "+" or sign == "-":
            self.pos += 1
            for mono, c in _items(self.term()):
                c = _integral(terms.get(mono, 0) + (c if sign == "+" else -c))
                if c:
                    terms[mono] = c
                else:
                    del terms[mono]
        return Polynomial._from_clean(self.nvars, terms)

    def term(self):
        tokens = self.tokens
        node = self.factor()
        while tokens[star := self.pos] == "*":
            self.pos += 1
            right = self.factor()
            if type(node) is tuple and type(right) is tuple:
                node = _integral(node[0] * right[0]), mono_mul(node[1], right[1])
                continue
            node, right = self.poly(node), self.poly(right)
            t1, t2 = len(node.terms), len(right.terms)
            if min(t1, t2) > 1:
                self.bound("product", t1 * t2, max(map(_bits, node.terms.values()))
                           + max(map(_bits, right.terms.values()))
                           + min(t1, t2).bit_length(), star)
            node = node * right
        return node

    def factor(self):
        """A power of an atom, after any unary minus."""
        tokens, negate = self.tokens, False
        while tokens[self.pos] == "-":
            self.pos += 1
            negate = not negate
        node = self.atom()
        if tokens[self.pos] == "^":
            self.pos += 1
            node = self.power(node)
        if negate:
            return (-node[0], node[1]) if type(node) is tuple else -node
        return node

    def power(self, base):
        e = self.integer("exponent must be an integer literal")
        at = self.pos - 1
        if e > MAX_EXPONENT:
            self.fail(f"exponent above {MAX_EXPONENT}", at)
        if type(base) is tuple:
            c, mono = base
            self.bound("power", 1, e * (_bits(c) + 1), at)
            return _integral(c ** e), tuple(e * k for k in mono)
        t = len(base.terms)
        self.bound("power", math.comb(max(t, 1) - 1 + e, e),
                   e * (max(map(_bits, base.terms.values()), default=0)
                        + t.bit_length()), at)
        return base ** e

    def atom(self):
        token = self.tokens[self.pos]
        mono = self.variables.get(token)
        if mono is not None:
            self.pos += 1
            return 1, mono
        if token[:1].isdecimal():
            return self.rational_literal(), self.one
        self.pos += 1
        if token == "(":
            if self.depth == MAX_NESTING:
                self.fail("expression nested too deeply", self.pos - 1)
            self.depth += 1
            node = self.expression()
            self.depth -= 1
            self.expect_symbol(")")
            return node
        self.fail(f"unknown variable {token!r}" if _is_name(token)
                  else "expected a number, a variable, or '('", self.pos - 1)

    def rational_literal(self) -> Scalar:
        """An integer literal, or ``int / int``, the only rule for a number,
        clean (``4/2`` is 2); the denominator must be a nonzero integer
        literal."""
        numerator = self.integer("expected a number, a variable, or '('")
        if not self.accept("/"):
            return numerator
        den = self.integer("expected an integer denominator")
        if den == 0:
            self.fail("zero denominator", self.pos - 1)
        return _divide(numerator, den)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    parser = _Parser(text, names)
    poly = parser.poly(parser.expression())
    parser.expect_end()
    return poly


def parse_polynomial_list(text: str, names: Sequence[str]) -> list[Polynomial]:
    """Parse a ';'-separated list of polynomial expressions."""
    parser = _Parser(text, names)
    out = [parser.poly(parser.expression())]
    while parser.accept(";"):
        out.append(parser.poly(parser.expression()))
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
        parser = _Parser(raw, variables or (), lineno)
        head = parser.next()
        if not head:
            continue
        if head not in _DIRECTIVES:
            parser.fail("expected a directive: ring, vars, rel, or der", 0)
        if head == "ring":
            if name is not None:
                parser.fail("duplicate ring directive", 0)
            name = parser.name("expected a ring name")
            parser.expect_end()
        elif head == "vars":
            if variables is not None:
                parser.fail("duplicate vars directive", 0)
            seen: list[str] = []
            while _is_name(parser.tokens[parser.pos]):
                token = parser.next()
                if token in seen:
                    parser.fail(f"duplicate variable {token!r}", parser.pos - 1)
                seen.append(token)
            parser.expect_end()
            if not seen:
                parser.fail("vars needs at least one variable", 0)
            variables = tuple(seen)
        elif variables is None:
            parser.fail("vars must be declared before rel and der lines", 0)
        elif head == "rel":
            relations.append(parser.poly(parser.expression()))
            parser.expect_end()
        else:
            target = parser.name("expected a variable name")
            if target not in variables:
                parser.fail(f"unknown variable {target!r}", parser.pos - 1)
            if target in images:
                parser.fail(f"duplicate der line for {target!r}", parser.pos - 1)
            parser.expect_symbol("=")
            images[target] = parser.poly(parser.expression())
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
