"""Parsing of polynomial expressions and derivation description files.

Expression grammar, loosest to tightest binding: sums, products, powers.
Atoms are integer or rational literals (``3``, ``1/2``), declared variable
names, and parenthesized expressions.  There is no implicit multiplication
and no division except inside a rational literal; unary minus is allowed.

A derivation file is line oriented with ``#`` comments:

    ring <identifier>
    vars <identifier> ...
    rel <expression>          (zero or more)
    der <identifier> = <expression>   (exactly one per variable)

All syntax errors carry the offending line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .derivation import Derivation, RingPresentation
from .groebner import Ideal
from .poly import Polynomial
from .printing import format_polynomial

_DIRECTIVES = ("ring", "vars", "rel", "der")

# Parenthesized expressions nest at most this deep; the parser recurses
# once per level.
MAX_NESTING = 100


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


_SYMBOLS = set("+-*^()=/;")


def _tokenize(text: str, line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    column = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch in " \t\r":
            column += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(Token("int", int(text[start:i]), line, column))
            column += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, column))
            column += i - start
        elif ch in _SYMBOLS:
            tokens.append(Token("sym", ch, line, column))
            column += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("end", None, line, column))
    return tokens


class _Cursor:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def at_symbol(self, symbol: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.value == symbol

    def expect_symbol(self, symbol: str) -> Token:
        if not self.at_symbol(symbol):
            token = self.peek()
            raise ParseError(f"expected {symbol!r}", token.line, token.column)
        return self.advance()

    def expect_end(self):
        token = self.peek()
        if token.kind != "end":
            raise ParseError("unexpected trailing input", token.line, token.column)

    def rational_literal(self) -> Fraction:
        """Read ``int`` or ``int / int`` from the current integer token; the
        denominator must be a nonzero integer literal."""
        value = Fraction(self.advance().value)
        if not self.at_symbol("/"):
            return value
        self.advance()
        den = self.peek()
        if den.kind != "int":
            raise ParseError("expected an integer denominator",
                             den.line, den.column)
        if den.value == 0:
            raise ParseError("zero denominator", den.line, den.column)
        self.advance()
        return value / den.value


class _ExpressionParser(_Cursor):
    def __init__(self, tokens: Sequence[Token], names: Sequence[str]):
        super().__init__(tokens)
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.depth = 0

    def expression(self) -> Polynomial:
        node = self.term()
        while True:
            if self.at_symbol("+"):
                self.advance()
                node = node + self.term()
            elif self.at_symbol("-"):
                self.advance()
                node = node - self.term()
            else:
                return node

    def term(self) -> Polynomial:
        node = self.factor()
        while self.at_symbol("*"):
            self.advance()
            node = node * self.factor()
        return node

    def factor(self) -> Polynomial:
        negate = False
        while self.at_symbol("-"):
            self.advance()
            negate = not negate
        node = self.power()
        return -node if negate else node

    def power(self) -> Polynomial:
        base = self.atom()
        if self.at_symbol("^"):
            self.advance()
            token = self.peek()
            if token.kind != "int":
                raise ParseError("exponent must be an integer literal",
                                 token.line, token.column)
            self.advance()
            return base ** token.value
        return base

    def atom(self) -> Polynomial:
        token = self.peek()
        if token.kind == "int":
            return Polynomial.constant(self.nvars, self.rational_literal())
        if token.kind == "ident":
            self.advance()
            index = self.names.get(token.value)
            if index is None:
                raise ParseError(f"unknown variable {token.value!r}",
                                 token.line, token.column)
            return Polynomial.variable(self.nvars, index)
        if self.at_symbol("("):
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply",
                                 token.line, token.column)
            self.advance()
            self.depth += 1
            node = self.expression()
            self.depth -= 1
            self.expect_symbol(")")
            return node
        raise ParseError("expected a number, a variable, or '('",
                         token.line, token.column)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    parser = _ExpressionParser(_tokenize(text), names)
    poly = parser.expression()
    parser.expect_end()
    return poly


def parse_polynomial_list(text: str, names: Sequence[str]) -> list[Polynomial]:
    """Parse a ';'-separated list of polynomial expressions."""
    parser = _ExpressionParser(_tokenize(text), names)
    out = [parser.expression()]
    while parser.at_symbol(";"):
        parser.advance()
        out.append(parser.expression())
    parser.expect_end()
    return out


def _parse_rational(cursor: _Cursor) -> Fraction:
    sign = 1
    if cursor.at_symbol("-"):
        cursor.advance()
        sign = -1
    token = cursor.peek()
    if token.kind != "int":
        raise ParseError("expected a rational number", token.line, token.column)
    return sign * cursor.rational_literal()


def parse_fraction(text: str) -> Fraction:
    cursor = _Cursor(_tokenize(text))
    value = _parse_rational(cursor)
    cursor.expect_end()
    return value


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Parse a ';'-separated tuple of rational numbers."""
    cursor = _Cursor(_tokenize(text))
    values = [_parse_rational(cursor)]
    while cursor.at_symbol(";"):
        cursor.advance()
        values.append(_parse_rational(cursor))
    cursor.expect_end()
    return tuple(values)


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
        tokens = _tokenize(raw, line=lineno)
        if tokens[0].kind == "end":
            continue
        head = tokens[0]
        if head.kind != "ident" or head.value not in _DIRECTIVES:
            raise ParseError("expected a directive: ring, vars, rel, or der",
                             head.line, head.column)
        rest = tokens[1:]
        if head.value == "ring":
            if name is not None:
                raise ParseError("duplicate ring directive", head.line, head.column)
            cursor = _Cursor(rest)
            token = cursor.peek()
            if token.kind != "ident":
                raise ParseError("expected a ring name", token.line, token.column)
            cursor.advance()
            cursor.expect_end()
            name = token.value
        elif head.value == "vars":
            if variables is not None:
                raise ParseError("duplicate vars directive", head.line, head.column)
            seen: list[str] = []
            cursor = _Cursor(rest)
            while cursor.peek().kind == "ident":
                token = cursor.advance()
                if token.value in seen:
                    raise ParseError(f"duplicate variable {token.value!r}",
                                     token.line, token.column)
                seen.append(token.value)
            cursor.expect_end()
            if not seen:
                raise ParseError("vars needs at least one variable",
                                 head.line, head.column)
            variables = tuple(seen)
        else:
            if variables is None:
                raise ParseError("vars must be declared before rel and der lines",
                                 head.line, head.column)
            if head.value == "rel":
                parser = _ExpressionParser(rest, variables)
                relations.append(parser.expression())
                parser.expect_end()
            else:
                cursor = _Cursor(rest)
                target = cursor.peek()
                if target.kind != "ident":
                    raise ParseError("expected a variable name",
                                     target.line, target.column)
                if target.value not in variables:
                    raise ParseError(f"unknown variable {target.value!r}",
                                     target.line, target.column)
                if target.value in images:
                    raise ParseError(f"duplicate der line for {target.value!r}",
                                     target.line, target.column)
                cursor.advance()
                cursor.expect_symbol("=")
                parser = _ExpressionParser(cursor.tokens[cursor.pos:], variables)
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


def format_spec(spec: DerivationSpec) -> str:
    """Canonical text of a derivation file; parses back to ``spec``."""
    lines = [f"ring {spec.name}", "vars " + " ".join(spec.variables)]
    for rel in spec.relations:
        lines.append("rel " + format_polynomial(rel, spec.variables))
    for variable, image in zip(spec.variables, spec.images):
        lines.append(f"der {variable} = " + format_polynomial(image, spec.variables))
    return "\n".join(lines) + "\n"


def spec_derivation(spec: DerivationSpec) -> Derivation:
    relations = Ideal(len(spec.variables), spec.relations)
    return Derivation(RingPresentation(spec.variables, relations), spec.images)
