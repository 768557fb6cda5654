"""Rational-function checks for the punctured-cone action in ex_p2.lnd.

The ring of invariant-theoretic interest here is not polynomial: it is
the algebra of fractions f/h^n with h = y^2 - 2*x*z and f homogeneous
of degree 2n.  The expression grammar has no division, so these checks
run through apply_rational instead of the command line, and each value
printed is simplified first, since apply_rational leaves its quotient
rule over den^2.  The kernel is generated by z^2/h and that same element
generates the plinth ideal.
"""

import sys
from pathlib import Path

from lndtools import (
    RationalFunction,
    format_polynomial,
    format_ratfun,
    parse_polynomial,
    parse_spec,
    spec_derivation,
)


def run() -> tuple[int, str]:
    source = Path(__file__).with_name("ex_p2.lnd").read_text(encoding="utf-8")
    spec = parse_spec(source)
    derivation = spec_derivation(spec)
    names = spec.variables

    def poly(text):
        return parse_polynomial(text, names)

    h = poly("y^2 - 2*x*z")
    level = RationalFunction(poly("z^2"), h)
    lifted = RationalFunction(poly("y*z"), h)

    lines = [f"h = {format_polynomial(h, names)}"]
    failures = 0

    def check(label, got, expected):
        nonlocal failures
        got = got.simplify()
        ok = got == expected
        lines.append(f"{label} = {format_ratfun(got, names)}"
                     + ("" if ok else "  MISMATCH"))
        failures += not ok

    check("d(h)", derivation.apply_rational(RationalFunction(h)),
          RationalFunction.zero(len(names)))
    check("d(z^2/h)", derivation.apply_rational(level),
          RationalFunction.zero(len(names)))
    check("d(y*z/h)", derivation.apply_rational(lifted), level)

    lines.append("kernel checks pass" if failures == 0
                 else f"{failures} checks failed")
    return (0 if failures == 0 else 1), "\n".join(lines)


def main() -> int:
    code, report = run()
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
