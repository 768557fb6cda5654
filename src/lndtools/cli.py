"""Command-line front end.

Every command takes a derivation file and reports plain text on stdout.
Exit codes encode the verdict: 0 for yes/success, 1 for a definite no,
2 when the bounded search was inconclusive, 64 for input errors, and 70
for an internal failure, such as a certificate that does not verify.

The commands live in one table, :data:`COMMANDS`.  An entry names the
command, its help line and its options, says whether it is gated, and
points to a handler ``(args, names, derivation) -> (exit code, lines)``.
:func:`run_command` reads the derivation file and, for gated commands,
refuses a derivation that does not preserve the relations: only then is
there an additive group action for the handler to reason about.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, reduce
from typing import Callable, NamedTuple

from .cylinder import (
    Outcome,
    SearchBounds,
    cylinder_decision,
    dixmier_reduce,
    maximal_cylinder,
    plinth_claim_verify,
    plinth_membership,
    principality_check,
    slice_nonexistence,
)
from .derivation import DEFAULT_NILPOTENCY_CAP, CapExceededError, Derivation
from .groebner import Ideal, gcd_via_lcm, radical_membership
from .parsing import (
    DerivationSpec,
    ParseError,
    parse_fraction,
    parse_point,
    parse_polynomial,
    parse_polynomial_list,
    parse_spec,
    spec_derivation,
)
from .poly import DEGREVLEX, LEX
from .printing import (
    format_exp_action,
    format_ideal,
    format_monomial,
    format_number,
    format_point,
    format_polynomial,
    format_ratfun,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

_EXIT_FOR_OUTCOME = {Outcome.YES: EXIT_YES, Outcome.NO: EXIT_NO,
                     Outcome.UNKNOWN: EXIT_UNKNOWN}


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(args) -> tuple[DerivationSpec, Derivation]:
    try:
        with open(args.spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.spec}: {exc.strerror}") from exc
    spec = parse_spec(text)
    return spec, spec_derivation(spec)


def _image(f, image, names) -> str:
    return f"d({format_polynomial(f, names)}) = {format_polynomial(image, names)}"


def _require_preserved(derivation: Derivation, names):
    offence = derivation.check_preserves_relations()
    if offence is not None:
        raise UsageError("derivation does not preserve the relations: "
                         + _image(*offence, names))


def _bounds(args) -> SearchBounds:
    return SearchBounds(args.max_power, args.max_deg)


def _verdict(subject, result) -> str:
    """``subject: yes``, ``subject: no`` or ``subject: unknown at bounds
    (...)`` for a plinth or cylinder search result."""
    if result.outcome is not Outcome.UNKNOWN:
        return f"{subject}: {result.outcome.value}"
    bounds = result.bounds
    return (f"{subject}: unknown at bounds (max power {bounds.max_power}, "
            f"max degree {bounds.max_degree})")


def _search_lines(subject, result, names):
    """Verdict of a search, then the power and preimage of its certificate
    or the derivative that rules the element out."""
    lines = [_verdict(subject, result)]
    if result.outcome is Outcome.YES:
        cert = result.certificate
        lines.append(f"n = {cert.power}")
        lines.append(f"f = {format_polynomial(cert.preimage, names)}")
    elif result.outcome is Outcome.NO:
        lines.append(_image(result.element, result.obstruction, names))
    return lines


def _cylinder_lines(result, names):
    """Lines of a cylinder decision, or of a plinth search that is not a yes."""
    h = format_polynomial(result.element, names)
    cert = result.certificate
    lines = _search_lines(f"cylinder D({h})", result, names)
    if cert is not None:
        lines.append(f"slice = {format_ratfun(cert.slice_value, names)}")
        for name, image in zip(names, cert.dixmier_images):
            lines.append(f"dixmier({name}) = {format_ratfun(image, names)}")
    return lines


def _claim_lines(report, names):
    lines = []
    for entry in report.entries:
        h = format_polynomial(entry.element, names)
        if entry.outcome is Outcome.YES:
            cert = entry.certificate
            lines.append(f"{h}: verified (n = {cert.power}, "
                         f"f = {format_polynomial(cert.preimage, names)})")
        elif entry.outcome is Outcome.NO:
            lines.append(f"{h}: rejected, "
                         + _image(entry.element, entry.obstruction, names))
        else:
            lines.append(_verdict(h, entry))
    lines.append(f"claim verified: {report.outcome.value}")
    return lines


# a gcd outside the ideal: verdict lines, and what that leaves of the cylinder
_NOT_PRINCIPAL = {
    Outcome.NO: (["principal: no (gcd is not in the ideal)"], "none"),
    Outcome.UNKNOWN: (
        ["principal: unknown (gcd is not in the ideal of the free ring)",
         "principality was decided in the free ring only, without the relations"],
        "unknown"),
}


# ----------------------------------------------------------------------
# command handlers; each returns (exit code, report lines)


def _cmd_check(args, names, derivation):
    offence = derivation.check_preserves_relations()
    if offence is not None:
        return EXIT_NO, [
            "relations preserved: no",
            f"offending relation: {format_polynomial(offence[0], names)}",
            _image(*offence, names)]
    lines = ["relations preserved: yes"]
    orders = derivation.nilpotency_orders(args.cap)
    for name, order in zip(names, orders):
        if order is None:
            lines.append(f"order({name}) > {args.cap}")
        else:
            lines.append(f"order({name}) = {order}")
    if None not in orders:
        lines.append(f"locally nilpotent on generators: yes (cap {args.cap})")
        return EXIT_YES, lines
    lines.append(f"locally nilpotent on generators: unknown (cap {args.cap} exceeded)")
    return EXIT_UNKNOWN, lines


def _cmd_exp(args, names, derivation):
    lines = []
    for element in parse_polynomial_list(args.elem, names):
        action = derivation.exp_action(element)
        lines.append(f"exp(s*d)({format_polynomial(element, names)}) = "
                     f"{format_exp_action(action, names)}")
    return EXIT_YES, lines


def _cmd_orbit(args, names, derivation):
    point = parse_point(args.point)
    time = parse_fraction(args.time)
    moved = derivation.orbit_point(point, time)
    return EXIT_YES, [f"orbit{format_point(point)} at time "
                      f"{format_number(time)} = {format_point(moved)}"]


def _cmd_fixed(args, names, derivation):
    locus = derivation.fixed_locus()
    return EXIT_YES, [f"fixed locus: {format_ideal(locus, names)}"]


def _cmd_kernel(args, names, derivation):
    lines = []
    all_kernel = True
    for element in parse_polynomial_list(args.elem, names):
        image = derivation.apply(element)
        lines.append(_image(element, image, names))
        all_kernel = all_kernel and image.is_zero
    lines.append("kernel member: " + ("yes" if all_kernel else "no"))
    return (EXIT_YES if all_kernel else EXIT_NO), lines


def _cmd_plinth(args, names, derivation):
    element = parse_polynomial(args.elem, names)
    result = plinth_membership(derivation, element, _bounds(args))
    h = format_polynomial(result.element, names)
    lines = _search_lines(f"plinth membership of {h}", result, names)
    return _EXIT_FOR_OUTCOME[result.outcome], lines


def _cmd_cylinder(args, names, derivation):
    element = parse_polynomial(args.elem, names)
    result = cylinder_decision(derivation, element, _bounds(args))
    return _EXIT_FOR_OUTCOME[result.outcome], _cylinder_lines(result, names)


def _cmd_trivialize(args, names, derivation):
    localizer = parse_polynomial(args.h, names)
    element = parse_polynomial(args.elem, names)
    plinth = plinth_membership(derivation, localizer, _bounds(args))
    if plinth.outcome is not Outcome.YES:
        return _EXIT_FOR_OUTCOME[plinth.outcome], _cylinder_lines(plinth, names)
    slice_value = plinth.certificate.slice_value
    coefficients = dixmier_reduce(derivation, slice_value, element)
    return EXIT_YES, [f"slice = {format_ratfun(slice_value, names)}",
                      *(f"c{k} = {format_ratfun(c, names)}"
                        for k, c in enumerate(coefficients))]


def _cmd_slice_none(args, names, derivation):
    result = slice_nonexistence(derivation, args.max_deg)
    if result.found:
        return EXIT_YES, [f"slice found of degree <= {args.max_deg}",
                          f"slice = {format_polynomial(result.preimage, names)}"]
    multipliers = ", ".join(
        f"{format_monomial(mono, names)}: {format_number(value)}"
        for mono, value in result.nonzero_multipliers())
    return EXIT_NO, [
        f"no slice of degree <= {args.max_deg}",
        f"system: {len(result.row_monomials)} equations, "
        f"{len(result.column_monomials)} unknowns",
        f"certificate multipliers: {{{multipliers}}}",
        f"certificate value: {format_number(result.certificate.value)}",
    ]


def _cmd_plinth_verify(args, names, derivation):
    generators = parse_polynomial_list(args.gens, names)
    report = plinth_claim_verify(derivation, generators, _bounds(args))
    lines = _claim_lines(report, names)
    if report.outcome is Outcome.YES:
        lines.append(f"complement ideal: {format_ideal(report.complement, names)}")
    return _EXIT_FOR_OUTCOME[report.outcome], lines


def _cmd_principal(args, names, derivation):
    generators = parse_polynomial_list(args.gens, names)
    result = principality_check(Ideal(len(names), generators), derivation.ring)
    lines = ["generators: "
             + "; ".join(format_polynomial(g, names) for g in generators),
             f"gcd = {format_polynomial(result.gcd, names)}"]
    if result.outcome is Outcome.YES:
        lines.append("principal: yes")
        lines.append(f"generator = {format_polynomial(result.gcd, names)}")
    else:
        lines.extend(_NOT_PRINCIPAL[result.outcome][0])
    return _EXIT_FOR_OUTCOME[result.outcome], lines


def _cmd_maximal_cylinder(args, names, derivation):
    generators = parse_polynomial_list(args.gens, names)
    report = maximal_cylinder(derivation, generators, _bounds(args))
    lines = _claim_lines(report.claim, names)
    if report.claim.outcome is not Outcome.YES:
        return _EXIT_FOR_OUTCOME[report.claim.outcome], lines
    principality = report.principality
    lines.append(f"gcd = {format_polynomial(principality.gcd, names)}")
    if principality.outcome is not Outcome.YES:
        verdict, found = _NOT_PRINCIPAL[principality.outcome]
        lines += [*verdict, f"maximal principal cylinder: {found}"]
        return _EXIT_FOR_OUTCOME[principality.outcome], lines
    lines.append(f"principal: yes, generator = "
                 f"{format_polynomial(principality.gcd, names)}")
    decision = report.cylinder
    cylinder = _cylinder_lines(decision, names)
    if decision.outcome is Outcome.YES:
        h = format_polynomial(decision.element, names)
        cylinder[0] = f"maximal principal cylinder: D({h})"
    lines.extend(cylinder)
    return _EXIT_FOR_OUTCOME[decision.outcome], lines


_ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX}


def _cmd_gb(args, names, derivation):
    generators = parse_polynomial_list(args.ideal, names)
    ideal = Ideal(len(names), generators, _ORDERS[args.order])
    return EXIT_YES, [f"order: {args.order}",
                      f"basis: {format_ideal(ideal, names)}"]


def _cmd_member(args, names, derivation):
    element = parse_polynomial(args.elem, names)
    ideal = Ideal(len(names), parse_polynomial_list(args.ideal, names))
    residue = ideal.normal_form(element)
    member = residue.is_zero
    return (EXIT_YES if member else EXIT_NO), [
        f"normal form = {format_polynomial(residue, names)}",
        "member: " + ("yes" if member else "no")]


def _cmd_radmember(args, names, derivation):
    element = parse_polynomial(args.elem, names)
    ideal = Ideal(len(names), parse_polynomial_list(args.ideal, names))
    if radical_membership(element, ideal):
        return EXIT_YES, ["radical member: yes"]
    return EXIT_NO, ["radical member: no"]


def _cmd_gcd(args, names, derivation):
    polys = parse_polynomial_list(args.elems, names)
    if len(polys) < 2:
        raise UsageError("gcd needs at least two polynomials")
    result = reduce(gcd_via_lcm, polys)
    return EXIT_YES, [f"gcd = {format_polynomial(result, names)}"]


# ----------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    """One ``lnd`` subcommand.  A gated command runs only on derivations
    that preserve the relations."""

    name: str
    help: str
    handler: Callable
    options: tuple = ()
    gated: bool = True


def _option(flag, **kwargs):
    return flag, kwargs


def _with_help(option, text):
    flag, kwargs = option
    return flag, {**kwargs, "help": text}


_LIST_HELP = "';'-separated polynomial expressions"
_ELEM = _option("--elem", required=True)
_GENS = _option("--gens", required=True)
_IDEAL = _option("--ideal", required=True)
_MAX_DEG = _option("--max-deg", type=int, default=SearchBounds().max_degree,
                   help="largest preimage degree to try (default %(default)s)")
_BOUNDS = (_option("--max-power", type=int, default=SearchBounds().max_power,
                   help="largest power of the element to try (default %(default)s)"),
           _MAX_DEG)

COMMANDS = (
    Command("check",
            "verify the relations are preserved and the generators are nilpotent",
            _cmd_check,
            (_option("--cap", type=int, default=DEFAULT_NILPOTENCY_CAP,
                     help="iteration cap for the nilpotency search "
                          "(default %(default)s)"),),
            gated=False),
    Command("exp", "exponentiate the derivation on elements", _cmd_exp,
            (_with_help(_ELEM, _LIST_HELP),)),
    Command("orbit", "move a rational point along the action", _cmd_orbit,
            (_option("--point", required=True,
                     help="';'-separated variable-free expressions"),
             _option("--time", required=True, help="variable-free expression"))),
    Command("fixed", "ideal of the fixed locus of the action", _cmd_fixed),
    Command("kernel", "test kernel membership of elements", _cmd_kernel,
            (_with_help(_ELEM, _LIST_HELP),)),
    Command("plinth", "bounded search for a power of the element that is an image",
            _cmd_plinth, (_ELEM, *_BOUNDS)),
    Command("cylinder", "decide whether D(elem) is an invariant cylinder",
            _cmd_cylinder, (_ELEM, *_BOUNDS)),
    Command("trivialize", "express an element in slice coordinates over D(h)",
            _cmd_trivialize,
            (_option("--h", required=True, help="localizing kernel element"),
             _ELEM, *_BOUNDS)),
    Command("slice-none", "certify that no global slice of bounded degree exists",
            _cmd_slice_none,
            (_with_help(_MAX_DEG,
                        "largest slice degree to rule out (default %(default)s)"),)),
    Command("plinth-verify", "verify a claimed plinth generating set",
            _cmd_plinth_verify,
            (_with_help(_GENS, "';'-separated claimed generators"), *_BOUNDS)),
    Command("principal", "test whether generators span a principal ideal (free ring)",
            _cmd_principal, (_GENS,), gated=False),
    Command("maximal-cylinder", "certificate for the maximal principal invariant cylinder",
            _cmd_maximal_cylinder,
            (_with_help(_GENS, "';'-separated verified plinth generators"), *_BOUNDS)),
    Command("gb", "reduced Groebner basis of an ideal", _cmd_gb,
            (_with_help(_IDEAL, "';'-separated generators"),
             _option("--order", choices=sorted(_ORDERS), default="degrevlex")),
            gated=False),
    Command("member", "ideal membership via normal form", _cmd_member,
            (_ELEM, _IDEAL), gated=False),
    Command("radmember", "radical membership test", _cmd_radmember,
            (_ELEM, _IDEAL), gated=False),
    Command("gcd", "gcd of polynomials (free ring)", _cmd_gcd,
            (_option("--elems", required=True,
                     help="';'-separated polynomials, at least two"),),
            gated=False),
)

_BY_NAME = {command.name: command for command in COMMANDS}


@cache
def build_parser() -> _ArgumentParser:
    """The ``lnd`` argument parser, built once per process; parsing leaves
    it unchanged, so every call of :func:`run_command` shares it."""
    parser = _ArgumentParser(
        prog="lnd",
        description="Exact computations with locally nilpotent derivations: "
                    "actions, kernels, plinth membership, and cylinder "
                    "certificates.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        sub.add_argument("spec", help="derivation file")
        for flag, kwargs in command.options:
            sub.add_argument(flag, **kwargs)
    return parser


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns the exit code and the report text.

    Errors come in a fixed order: reading the file, then the relation
    gate, then the handler's own parsing and bounds."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return EXIT_USAGE, f"error: {exc}"
    command = _BY_NAME[args.command]
    try:
        spec, derivation = _load(args)
        if command.gated:
            _require_preserved(derivation, spec.variables)
        code, lines = command.handler(args, spec.variables, derivation)
    except (ParseError, UsageError, ValueError, ZeroDivisionError) as exc:
        return EXIT_USAGE, f"error: {exc}"
    except CapExceededError as exc:
        return EXIT_UNKNOWN, f"unknown at bounds: {exc}"
    except Exception as exc:  # a fault of the program, never a verdict
        return EXIT_SOFTWARE, f"internal error: {type(exc).__name__}: {exc}"
    return code, "\n".join(lines)


def main(argv=None) -> int:
    try:
        code, report = run_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help
        return exc.code or 0
    if report:
        stream = sys.stderr if code in (EXIT_USAGE, EXIT_SOFTWARE) else sys.stdout
        try:
            print(report, file=stream, flush=True)
        except BrokenPipeError:
            # the reader has gone; send the exit-time flush to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
