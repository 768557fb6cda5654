"""Correctness checks for every command the benchmark runs.

Corpus reports must equal their goldens byte for byte.  Generated
commands are checked against what their inputs were built to give, and
printed certificates are re-checked by their defining identities, so a
program that prints another valid preimage or multiplier set still
passes.  Checks use only polynomial arithmetic and normal forms.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from lndtools import (DEGREVLEX, ParseError, Polynomial, parse_polynomial, parse_spec,
                      spec_derivation)

from workloads import Command, Workload, monomials

BASES = Path(__file__).resolve().parent / "data" / "bases.json"

# one side of a printed fraction: "(...)" or a bare token without / * space
_SIDE = r"(\([^()]*\)|[^()/* -][^()/* ]*)"
_RATFUN = re.compile(rf"{_SIDE}/{_SIDE}")


class Checker:
    """Maps a command and its (exit code, report) to None when correct,
    else to a one-line reason."""

    def __init__(self, workload: Workload):
        self.files = workload.files
        self.bases = json.loads(BASES.read_text(encoding="utf-8"))
        self._derivations = {}

    def __call__(self, command: Command, code: int, report: str) -> str | None:
        try:
            return getattr(self, "_" + command.kind)(command, code, report)
        except (ParseError, ValueError, ZeroDivisionError, IndexError, KeyError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------

    def _derivation(self, spec_file):
        if spec_file not in self._derivations:
            spec = parse_spec(self.files[spec_file])
            self._derivations[spec_file] = (spec.variables, spec_derivation(spec))
        return self._derivations[spec_file]

    @staticmethod
    def _golden(command, code, report):
        want_code, want_report = command.expected
        if (code, report) != (want_code, want_report):
            return f"differs from golden (exit {code}, want {want_code})"
        return None

    def _cylinder(self, command, code, report):
        (k,) = command.expected
        names, d = self._derivation(command.argv[1])
        lines = report.split("\n")
        if code != 0 or lines[:2] != ["cylinder D(z): yes", f"n = {k}"]:
            return f"want a yes with n = {k}, got exit {code}: {lines[:2]}"
        if len(lines) != 4 + len(names):
            return "wrong number of report lines"
        h_power = self._var(d, "z", names) ** k
        reason = self._preimage(d, names, lines[2], h_power)
        if reason:
            return reason
        f = parse_polynomial(_value(lines[2], "f"), names)
        slice_value = _ratfun(_value(lines[3], "slice"), names)
        if not _eq_mod(d, slice_value, (f, h_power)):
            return "slice is not f/h^n"
        for name, line in zip(names, lines[4:]):
            image = _ratfun(_value(line, f"dixmier({name})"), names)
            if not _is_zero_mod(d, _derivative(d, image)):
                return f"dixmier({name}) is not a constant"
        return None

    def _plinth(self, command, code, report):
        (k,) = command.expected
        names, d = self._derivation(command.argv[1])
        lines = report.split("\n")
        if code != 0 or lines[:2] != ["plinth membership of z: yes", f"n = {k}"] \
                or len(lines) != 3:
            return f"want a yes with n = {k}, got exit {code}: {lines[:2]}"
        return self._preimage(d, names, lines[2], self._var(d, "z", names) ** k)

    def _trivialize(self, command, code, report):
        (element,) = command.expected
        names, d = self._derivation(command.argv[1])
        lines = report.split("\n")
        if code != 0 or len(lines) < 2:
            return f"want a trivialization, got exit {code}"
        s = _ratfun(_value(lines[0], "slice"), names)
        one = Polynomial.constant(len(names), 1)
        if not _eq_mod(d, _derivative(d, s), (one, one)):
            return "slice does not have derivative one"
        total, power = (Polynomial.zero(len(names)), one), (one, one)
        for index, line in enumerate(lines[1:]):
            c = _ratfun(_value(line, f"c{index}"), names)
            if not _is_zero_mod(d, _derivative(d, c)):
                return f"c{index} is not a constant"
            total = _add(d, total, _mul(d, c, power))
            power = _mul(d, power, s)
        target = parse_polynomial(element, names)
        if not _eq_mod(d, total, (target, one)):
            return "coefficients do not reconstruct the element"
        return None

    def _slice_none(self, command, code, report):
        (bound,) = command.expected
        names, d = self._derivation(command.argv[1])
        lines = report.split("\n")
        if code != 1 or len(lines) != 4 or lines[0] != f"no slice of degree <= {bound}":
            return f"want no slice of degree <= {bound}, got exit {code}: {lines[:1]}"
        system = re.fullmatch(r"system: (\d+) equations, (\d+) unknowns", lines[1])
        multipliers = re.fullmatch(r"certificate multipliers: \{(.*)\}", lines[2])
        if not system or not multipliers:
            return "malformed certificate"
        phi = {}
        for item in multipliers.group(1).split(", "):
            mono, value = item.split(": ")
            (m,) = parse_polynomial(mono, names).terms
            phi[m] = Fraction(value)
        # phi must vanish on d(g) for every standard monomial g of degree
        # <= bound and be nonzero on the right-hand side 1.
        unit = (0,) * len(names)
        rows, unknowns = {unit}, 0
        for m in monomials(len(names), bound):
            g = Polynomial.monomial(len(names), m)
            if d.ring.normal_form(g) != g:
                continue
            unknowns += 1
            image = d.apply(g)
            rows.update(image.terms)
            if sum((c * phi.get(t, 0) for t, c in image.terms.items()), Fraction(0)):
                return f"multipliers do not cancel the column of {m}"
        value = phi.get(unit, Fraction(0))
        if not value or lines[3] != f"certificate value: {value}":
            return "certificate value is zero or misreported"
        if (int(system.group(1)), int(system.group(2))) != (len(rows), unknowns):
            return f"want {len(rows)} equations and {unknowns} unknowns"
        return None

    def _gb(self, command, code, report):
        key, order = command.expected
        if (code, report) != (0, f"order: {order}\nbasis: {self.bases[key]}"):
            return f"basis of {key} differs from the pinned one"
        return None

    @staticmethod
    def _member(command, code, report):
        (residue,) = command.expected
        verdict = "yes" if residue == "0" else "no"
        want = (int(residue != "0"), f"normal form = {residue}\nmember: {verdict}")
        if (code, report) != want:
            return f"want normal form {residue}"
        return None

    @staticmethod
    def _radmember(command, code, report):
        (member,) = command.expected
        want = (0, "radical member: yes") if member else (1, "radical member: no")
        if (code, report) != want:
            return f"want radical member: {'yes' if member else 'no'}"
        return None

    def _gcd(self, command, code, report):
        (planted,) = command.expected
        names, _ = self._derivation(command.argv[1])
        if code != 0 or not _associates(_value(report, "gcd"), planted, names):
            return "gcd is not the planted factor"
        return None

    def _principal(self, command, code, report):
        gens, planted, principal = command.expected
        names, _ = self._derivation(command.argv[1])
        lines = report.split("\n")
        shown = [parse_polynomial(g, names)
                 for g in _value(lines[0], "generators", ": ").split("; ")]
        if shown != [parse_polynomial(g, names) for g in gens]:
            return "generators misreported"
        if not _associates(_value(lines[1], "gcd"), planted, names):
            return "gcd is not the planted factor"
        if principal:
            if code != 0 or lines[2:3] != ["principal: yes"] \
                    or not _associates(_value(lines[3], "generator"), planted, names):
                return "want principal: yes with the planted generator"
        elif code != 1 or lines[2:] != ["principal: no (gcd is not in the ideal)"]:
            return "want principal: no"
        return None

    # ------------------------------------------------------------------

    @staticmethod
    def _var(d, name, names):
        return Polynomial.variable(d.ring.nvars, names.index(name))

    @staticmethod
    def _preimage(d, names, line, target):
        """d(f) = target modulo the relations, for the printed f."""
        f = parse_polynomial(_value(line, "f"), names)
        if d.apply(f) != d.ring.normal_form(target):
            return "printed f is not a preimage of h^n"
        return None


def _value(line, label, sep=" = "):
    prefix = label + sep
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}")
    return line[len(prefix):]


def _ratfun(text, names):
    """(numerator, denominator) of a printed rational function."""
    match = _RATFUN.fullmatch(text)
    if not match:
        return parse_polynomial(text, names), Polynomial.constant(len(names), 1)
    num, den = (side[1:-1] if side.startswith("(") else side
                for side in match.groups())
    return parse_polynomial(num, names), parse_polynomial(den, names)


# Fractions (num, den) of the quotient ring; every denominator is checked
# to be nonzero there, and the ring is a domain.

def _is_zero_mod(d, value):
    num, den = value
    if d.ring.normal_form(den).is_zero:
        raise ZeroDivisionError("denominator vanishes modulo the relations")
    return d.ring.normal_form(num).is_zero


def _eq_mod(d, a, b):
    return _is_zero_mod(d, _sub(d, a, b))


def _add(d, a, b):
    nf = d.ring.normal_form
    return nf(a[0] * b[1] + b[0] * a[1]), nf(a[1] * b[1])


def _sub(d, a, b):
    return _add(d, a, (-b[0], b[1]))


def _mul(d, a, b):
    nf = d.ring.normal_form
    return nf(a[0] * b[0]), nf(a[1] * b[1])


def _derivative(d, value):
    num, den = value
    return d.apply(num) * den - num * d.apply(den), den * den


def _associates(text, planted, names):
    got = parse_polynomial(text, names)
    want = parse_polynomial(planted, names)
    if got.is_zero:
        return False
    ratio = want.leading_term(DEGREVLEX)[1] / got.leading_term(DEGREVLEX)[1]
    return got * ratio == want

