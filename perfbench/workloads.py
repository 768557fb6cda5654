"""Inputs of the benchmark's three workloads.

Each workload is a list of ``lnd`` invocations (one *pass*) plus the files
they read.  ``corpus`` is read from ``corpus/golden/*.txt``; ``search`` and
``ideals`` are generated from the seed with verdicts known by construction.
This module uses only the standard library: the program under test sees
the generated text and nothing else.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("corpus", "search", "ideals")


@dataclass(frozen=True)
class Command:
    """One invocation and what a correct run of it prints.

    ``argv`` is what follows ``lnd`` on the command line, or
    ``("python3", script)`` for a corpus script.  ``kind`` names the check
    in :mod:`checks`; ``expected`` is that check's data."""

    argv: tuple[str, ...]
    kind: str
    expected: tuple


@dataclass(frozen=True)
class Workload:
    """A pass of ``commands``, made of rounds of ``round_size`` commands
    that each hold the same mix; rates are medians over rounds."""

    name: str
    files: dict[str, str]       # file name -> text, written to the run directory
    commands: tuple[Command, ...]
    round_size: int


# ----------------------------------------------------------------------
# corpus: the golden transcripts


def parse_golden(text: str) -> list[tuple[list[str], int, str]]:
    """Split a golden transcript into (argv, exit code, report) blocks.

    A block is ``$ <command line>``, ``exit N`` and the report, and blocks
    are separated by one blank line.  Raises ValueError when the blocks do
    not render back to ``text`` byte for byte."""
    blocks = []
    for chunk in ("\n" + text).split("\n$ ")[1:]:
        command_line, exit_line, *report = chunk.split("\n")
        if not exit_line.startswith("exit "):
            raise ValueError(f"no exit line after $ {command_line}")
        blocks.append([shlex.split(command_line), int(exit_line[5:]), report])
    for block in blocks[:-1]:
        if block[2][-1:] != [""]:
            raise ValueError("blocks must be separated by a blank line")
        block[2] = block[2][:-1]
    if blocks and blocks[-1][2][-1:] == [""]:
        blocks[-1][2] = blocks[-1][2][:-1]
    parsed = [(argv, code, "\n".join(report)) for argv, code, report in blocks]
    rendered = "\n".join(f"$ {shlex.join(argv)}\nexit {code}\n{report}\n"
                         for argv, code, report in parsed)
    if rendered != text:
        raise ValueError("golden transcript does not round-trip")
    return parsed


def corpus_workload(seed: int, corpus_dir: Path) -> Workload:
    """Every golden invocation, compared byte for byte; the seed only
    shuffles the order.  Runs inside ``corpus_dir``, so the spec paths
    are the ones the goldens print."""
    commands = []
    for golden in sorted((corpus_dir / "golden").glob("*.txt")):
        for argv, code, report in parse_golden(golden.read_text(encoding="utf-8")):
            if argv[0] == "lnd":
                argv = argv[1:]
            elif argv[0] != "python3":
                raise ValueError(f"{golden.name}: unknown program {argv[0]}")
            commands.append(Command(tuple(argv), "golden", (code, report)))
    random.Random(f"corpus:{seed}").shuffle(commands)
    return Workload("corpus", {}, tuple(commands), len(commands))


# ----------------------------------------------------------------------
# sparse polynomials as {exponent tuple: Fraction}, for building inputs


def _add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _scale(p, c):
    return {m: c * v for m, v in p.items()}


def _const(n, c):
    return {(0,) * n: Fraction(c)}


def _var(n, i):
    return {tuple(int(j == i) for j in range(n)): Fraction(1)}


def poly_text(p, names) -> str:
    """Expression text in the ``lnd`` grammar, terms by descending degree."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=lambda m: (-sum(m), [-e for e in m])):
        c = Fraction(p[m])
        factors = [f"{x}^{e}" if e > 1 else x for x, e in zip(names, m) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if pieces:
            pieces.append((" - " if c < 0 else " + ") + body)
        else:
            pieces.append("-" + body if c < 0 else body)
    return "".join(pieces)


def _spec(name, names, images, relations=()):
    lines = [f"ring {name}", "vars " + " ".join(names)]
    lines += [f"rel {poly_text(r, names)}" for r in relations]
    lines += [f"der {x} = {poly_text(d, names)}" for x, d in zip(names, images)]
    return "\n".join(lines) + "\n"


_SMALL = (-3, -2, -1, 1, 2, 3)


# ----------------------------------------------------------------------
# search: Danielewski surfaces x*z^k = p(y)


# (k, deg p) pairs with k + deg p <= 5: systems of 81 to 130 unknowns at
# degree 8, and up to two inconsistent solves before the power n = k.
_SURFACES = tuple((k, deg) for k in (1, 2, 3) for deg in (2, 3, 4) if k + deg <= 5)


def search_workload(seed: int, rounds: int = 5) -> Workload:
    """``rounds`` surfaces for every (k, deg p) in ``_SURFACES``.

    The ring is K[x, y, z]/(x*z^k - p(y)) with d(x) = p'(y), d(y) = z^k,
    d(z) = 0.  The relation has degree 1 in x and coprime coefficients
    z^k and p(y), so it is irreducible and the ring is a domain.  D(z) is
    a cylinder with f = y at power n = k and at no lower power; with
    deg p >= 2 there is no global slice.  The seed draws the nonzero
    coefficients of p; the degrees and bounds are stratified so that the
    work per pass hardly depends on the seed."""
    rng = random.Random(f"search:{seed}")
    names = ("x", "y", "z")
    files, commands = {}, []
    for r in range(rounds):
        for k, deg in _SURFACES:
            coeffs = [rng.choice(_SMALL) for _ in range(deg + 1)]
            p = {(0, i, 0): Fraction(c) for i, c in enumerate(coeffs)}
            dp = {(0, i - 1, 0): Fraction(i * c)
                  for i, c in enumerate(coeffs) if i}
            zk = {(0, 0, k): Fraction(1)}
            relation = _add({(1, 0, k): Fraction(1)}, _scale(p, -1))
            spec = f"dan{r}{k}{deg}.lnd"
            files[spec] = _spec(f"D{r}{k}{deg}", names, (dp, zk, {}),
                                (relation,))
            slice_degree = 8 + (k + deg + r) % 3
            commands += [
                Command(("cylinder", spec, "--elem", "z"), "cylinder", (k,)),
                Command(("trivialize", spec, "--h", "z", "--elem", "x"),
                        "trivialize", ("x",)),
                Command(("plinth", spec, "--elem", "z", "--max-power", "3"),
                        "plinth", (k,)),
                Command(("slice-none", spec, "--max-deg", str(slice_degree)),
                        "slice_none", (slice_degree,)),
            ]
    return Workload("search", files, tuple(commands), 4 * len(_SURFACES))


# ----------------------------------------------------------------------
# ideals: Groebner bases, membership, radicals, gcds, principality


def katsura(n):
    """Katsura-n in n+1 variables u0..un."""
    nv = n + 1

    def u(i):
        i = abs(i)
        return _var(nv, i) if i <= n else {}

    eqs = []
    for m in range(n):
        terms = [_mul(u(l), u(m - l)) for l in range(-n, n + 1)]
        eqs.append(_add(*terms, _scale(u(m), -1)))
    eqs.append(_add(*[u(l) for l in range(-n, n + 1)], _const(nv, -1)))
    return eqs


def cyclic(n):
    """Cyclic-n in n variables."""
    eqs = []
    for d in range(1, n):
        terms = []
        for i in range(n):
            term = _const(n, 1)
            for j in range(d):
                term = _mul(term, _var(n, (i + j) % n))
            terms.append(term)
        eqs.append(_add(*terms))
    top = _const(n, 1)
    for i in range(n):
        top = _mul(top, _var(n, i))
    eqs.append(_add(top, _const(n, -1)))
    return eqs


# (key of the pinned basis, generators, variable count, order option)
IDEALS = (
    ("katsura4-degrevlex", katsura(4), 5, "degrevlex"),
    ("cyclic4-degrevlex", cyclic(4), 4, "degrevlex"),
    ("katsura3-lex", katsura(3), 4, "lex"),
)
_NAMES = ("a", "b", "c", "d", "e")
_XYZ = ("x", "y", "z")


def _disguise(rng, gens):
    """Same ideal, other generators: permute, rescale, and add a multiple
    of one generator to another."""
    gens = list(gens)
    rng.shuffle(gens)
    gens = [_scale(g, Fraction(rng.choice(_SMALL), rng.choice((1, 2))))
            for g in gens]
    i, j = rng.sample(range(len(gens)), 2)
    gens[i] = _add(gens[i], _scale(gens[j], rng.choice(_SMALL)))
    return gens


def _random_poly(rng, nvars, degree, terms):
    """``terms`` distinct random monomials of degree <= ``degree``, with at
    least one of degree exactly ``degree``."""
    monos = monomials(nvars, degree)
    while True:
        p = {m: Fraction(rng.choice(_SMALL)) for m in rng.sample(monos, terms)}
        if any(sum(m) == degree for m in p):
            return p


def monomials(nvars, degree):
    """Exponent tuples in ``nvars`` variables of total degree <= ``degree``."""
    if nvars == 0:
        return [()]
    return [(e,) + rest for e in range(degree + 1)
            for rest in monomials(nvars - 1, degree - e)]


def _linear_factors(rng, count):
    """``count`` pairwise non-associate linear forms v + c1*u + c2*w with
    v, u, w the three variables: irreducible, vanishing at 0."""
    out = []
    while len(out) < count:
        var = rng.randrange(3)
        f = _var(3, var)
        for other in range(3):
            if other != var:
                f[_var(3, other).popitem()[0]] = Fraction(rng.choice(_SMALL))
        if all(_monic_key(f) != _monic_key(h) for h in out):
            out.append(f)
    return out


def _monic_key(p):
    lead = max(p, key=lambda m: (sum(m), m))
    return tuple(sorted((m, c / p[lead]) for m, c in p.items()))


def _product(polys):
    out = _const(3, 1)
    for p in polys:
        out = _mul(out, p)
    return out


def _det3(r):
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


# (degree of the planted factor, factors in the first and second cofactor):
# inputs of degree 6 to 8.
_GCD_SHAPES = ((4, 2, 2), (5, 2, 2), (6, 2, 2), (4, 2, 3))


def ideals_workload(seed: int, rounds: int = 6) -> Workload:
    """``rounds`` rounds of gb, member, radmember, gcd and principal
    commands, verdicts known by construction:

    - gb prints the reduced basis pinned in ``data/bases.json``, whatever
      disguise the seed puts on the generators;
    - member: a combination of the generators is a member, and that
      combination plus 1 has normal form 1 (the ideals are proper);
    - radmember over I = (a^2*b^3, a^3*c^2) with a, b, c independent
      linear forms: rad I = (a) ∩ (b, c), so a*b and a*c are members
      and a is not;
    - gcd(g*A, g*B) = g when A and B are products of pairwise
      non-associate linear forms;
    - principal: (g*f, g*(1 + f*w)) = (g) since (f, 1 + f*w) = (1), while
      (g*f1, g*f2) with f1(0) = f2(0) = 0 is not principal."""
    rng = random.Random(f"ideals:{seed}")
    files = {
        "ring5.lnd": _spec("R5", _NAMES, [{}] * 5),
        "ring4.lnd": _spec("R4", _NAMES[:4], [{}] * 4),
        "ring3.lnd": _spec("R3", _XYZ, [{}] * 3),
    }
    commands = []
    for _ in range(rounds):
        start = len(commands)
        for key, gens, nvars, order in IDEALS:
            spec = f"ring{nvars}.lnd"
            names = _NAMES[:nvars]
            text = "; ".join(poly_text(g, names) for g in _disguise(rng, gens))
            argv = ("gb", spec, "--ideal", text)
            if order != "degrevlex":
                argv += ("--order", order)
                commands.append(Command(argv, "gb", (key, order)))
                continue
            commands.append(Command(argv, "gb", (key, order)))
            combo = _add(*[_mul(_random_poly(rng, nvars, 1, 2), g) for g in gens])
            for elem, residue in ((combo, "0"), (_add(combo, _const(nvars, 1)), "1")):
                commands.append(Command(("member", spec, "--elem",
                                         poly_text(elem, names), "--ideal", text),
                                        "member", (residue,)))
        rows = [[0] * 3] * 3
        while not _det3(rows):
            rows = [[rng.choice(_SMALL) for _ in range(3)] for _ in range(3)]
        a, b, c = ({_var(3, i).popitem()[0]: Fraction(v) for i, v in enumerate(row)}
                   for row in rows)
        ideal = "; ".join(poly_text(_product(fs), _XYZ)
                          for fs in ((a, a, b, b, b), (a, a, a, c, c)))
        for elem, member in ((_mul(a, b), True), (_mul(a, c), True), (a, False)):
            commands.append(Command(("radmember", "ring3.lnd", "--elem",
                                     poly_text(elem, _XYZ), "--ideal", ideal),
                                    "radmember", (member,)))
        for degree, left, right in _GCD_SHAPES:
            g = _random_poly(rng, 3, degree, 3)
            fs = _linear_factors(rng, left + right)
            elems = "; ".join(poly_text(_mul(g, _product(part)), _XYZ)
                              for part in (fs[:left], fs[left:]))
            commands.append(Command(("gcd", "ring3.lnd", "--elems", elems),
                                    "gcd", (poly_text(g, _XYZ),)))
        for principal in (True, False, True, False):
            g = _random_poly(rng, 3, 2, 3)
            f1, f2 = _linear_factors(rng, 2)
            if principal:
                f2 = _add(_const(3, 1), _mul(f1, _random_poly(rng, 3, 1, 2)))
            gens = (poly_text(_mul(g, f1), _XYZ), poly_text(_mul(g, f2), _XYZ))
            commands.append(Command(("principal", "ring3.lnd", "--gens",
                                     "; ".join(gens)),
                                    "principal", (gens, poly_text(g, _XYZ),
                                                  principal)))
        round_ = commands[start:]
        rng.shuffle(round_)
        commands[start:] = round_
    return Workload("ideals", files, tuple(commands), len(commands) // rounds)


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "corpus":
        return corpus_workload(seed, root / "corpus")
    if name == "search":
        return search_workload(seed)
    if name == "ideals":
        return ideals_workload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
