"""Differential test of the text parsers of a parent commit and this checkout.

    python3 tools/parser_diff.py --parent COMMIT [--cases N] [--seed S]

The parent's ``src/lndtools`` is loaded beside this checkout's as a second
package, as ``ab_commands.py`` does.  Both sides run ``parse_polynomial``,
``parse_polynomial_list``, ``parse_point``, ``parse_fraction`` and
``parse_spec`` on every input: N seeded random texts (half of them strings
over ``tests/test_parsing.py``'s fuzz alphabet, half random expressions of
its grammar; ``parse_spec`` reads each after one of its spec prefixes), and
every argument text and spec file of the benchmark's three workloads at
seed 13.  An expression is read with the variables of the command's spec,
a random text with x, y and z.  A result is compared by its terms, their
order and the type of each coefficient; a ``ParseError`` by its reason,
line and column; any other exception by its type and message.  Standard
output gets the number of inputs and of differences and the first
differences; the exit code is 1 when any input differs.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab_commands  # noqa: E402
import workloads  # noqa: E402  (on the path through ab_commands)
from lndtools import parsing  # noqa: E402
from test_parsing import FUZZ_ALPHABET, FUZZ_PREFIXES, random_expression  # noqa: E402

XYZ = ("x", "y", "z")
SHOWN = 10


def random_inputs(cases: int, seed: int) -> list[tuple[str, tuple[str, ...], str]]:
    """``cases`` (text, names, spec prefix) triples."""
    rng = random.Random(seed)
    inputs = []
    for n in range(cases):
        if n % 2:
            text = random_expression(rng, 2)[0]
        else:
            text = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 16)))
        inputs.append((text, XYZ, rng.choice(FUZZ_PREFIXES)))
    return inputs


def workload_inputs() -> list[tuple[str, tuple[str, ...], str]]:
    """Every spec file and every option value of the seed-13 workloads,
    a value with the variables of its command's spec."""
    inputs, specs = [], {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 13, ROOT)
        files = dict(workload.files)
        for command in workload.commands:
            argv = command.argv
            if argv[0] == "python3" or len(argv) < 2 or not argv[1].endswith(".lnd"):
                continue
            if argv[1] not in files:
                files[argv[1]] = (ROOT / "corpus" / argv[1]).read_text(encoding="utf-8")
            if argv[1] not in specs:
                specs[argv[1]] = parsing.parse_spec(files[argv[1]]).variables
            inputs += [(value, specs[argv[1]], "") for flag, value in zip(argv, argv[1:])
                       if flag.startswith("--")]
        inputs += [(text, (), "") for text in files.values()]
    return inputs


def outcome(module, parse: str, text: str, names: tuple[str, ...], prefix: str):
    """What ``module``'s parser ``parse`` makes of the input, in plain
    values: terms with their coefficient types, or the error."""
    def terms(poly):
        return [(mono, c, type(c).__name__) for mono, c in poly.terms.items()]

    try:
        if parse == "parse_polynomial":
            return terms(module.parse_polynomial(text, names))
        if parse == "parse_polynomial_list":
            return [terms(p) for p in module.parse_polynomial_list(text, names)]
        if parse == "parse_point":
            return [(c, type(c).__name__) for c in module.parse_point(text)]
        if parse == "parse_fraction":
            c = module.parse_fraction(text)
            return c, type(c).__name__
        spec = module.parse_spec(prefix + text)
        return (spec.name, spec.variables, [terms(p) for p in spec.relations],
                [terms(p) for p in spec.images])
    except module.ParseError as error:
        return "ParseError", error.reason, error.line, error.column
    except Exception as error:  # a crash is an outcome to compare as well
        return type(error).__name__, str(error)


PARSERS = ("parse_polynomial", "parse_polynomial_list", "parse_point",
           "parse_fraction", "parse_spec")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--cases", type=int, default=10_000, metavar="N",
                        help="random texts (default 10000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error("--cases must be at least 0")
    inputs = random_inputs(args.cases, args.seed) + workload_inputs()
    differ = []
    with tempfile.TemporaryDirectory() as scratch:
        ab_commands.load_parent(args.parent, Path(scratch))
        parent = importlib.import_module(f"{ab_commands.PARENT_PACKAGE}.parsing")
        for text, names, prefix in inputs:
            for parse in PARSERS:
                before = outcome(parent, parse, text, names, prefix)
                after = outcome(parsing, parse, text, names, prefix)
                if before != after:
                    differ.append((parse, prefix + text if parse == "parse_spec" else text,
                                   before, after))
    print(f"{len(inputs)} inputs ({args.cases} random, seed {args.seed}), "
          f"{len(inputs) * len(PARSERS)} parses, {len(differ)} differ")
    for parse, text, before, after in differ[:SHOWN]:
        print(f"{parse} {text[:60]!r}\n  parent {str(before)[:200]}\n  change {str(after)[:200]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
