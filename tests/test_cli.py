import ast
import hashlib
import importlib
import importlib.util
import os
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import lndtools.cylinder
import lndtools.groebner
from lndtools import (
    Ideal,
    Inconsistency,
    Outcome,
    Polynomial,
    QMatrix,
    RationalFunction,
    SearchBounds,
    format_polynomial,
    parse_polynomial,
    parse_polynomial_list,
    parse_spec,
    principality_check,
    spec_derivation,
    standard_monomials,
)
from lndtools.cli import (
    COMMANDS,
    EXIT_NO,
    EXIT_SOFTWARE,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_YES,
    build_parser,
    main,
    run_command,
)
from lndtools.derivation import DEFAULT_NILPOTENCY_CAP, Derivation
from lndtools.parsing import MAX_NESTING
from helpers import leibniz_oracle, monomials_up_to

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FP = str(CORPUS / "ex_fp.lnd")
A4 = str(CORPUS / "ex_a4.lnd")
SURFACE = str(CORPUS / "ex_danielewski.lnd")
PLANE = str(CORPUS / "ex_plane.lnd")


def test_check_reports_orders():
    code, report = run_command(["check", FP])
    assert code == EXIT_YES
    assert "order(x) = 3" in report
    assert report.splitlines()[0] == "relations preserved: yes"


@pytest.mark.parametrize("cap, orders, code", [
    (2, ("order(x) > 2", "order(y) = 2", "order(z) = 1"), EXIT_UNKNOWN),
    (3, ("order(x) = 3", "order(y) = 2", "order(z) = 1"), EXIT_YES),
    (0, ("order(x) > 0", "order(y) > 0", "order(z) > 0"), EXIT_UNKNOWN),
])
def test_check_cap_bounds_the_order(cap, orders, code):
    # an order is confirmed only when it is at most the cap
    result, report = run_command(["check", FP, "--cap", str(cap)])
    assert result == code
    assert tuple(report.splitlines()[1:4]) == orders


@pytest.mark.parametrize("argv, message", [
    (["slice-none", FP, "--max-deg", "-1"], "max_degree must be non-negative"),
    (["cylinder", FP, "--elem", "z", "--max-deg", "-1"],
     "max_degree must be non-negative"),
    (["check", FP, "--cap", "-1"], "cap must be non-negative"),
], ids=["slice-none", "cylinder", "check"])
def test_negative_bounds_are_input_errors(argv, message):
    assert run_command(argv) == (EXIT_USAGE, f"error: {message}")


@pytest.mark.parametrize("text, code, report", [
    ("(" * 50 + "x" + ")" * 50, EXIT_NO, "d(x) = y\nkernel member: no"),
    ("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, EXIT_NO,
     "d(x) = y\nkernel member: no"),
    ("-" * 3000 + "x", EXIT_NO, "d(x) = y\nkernel member: no"),
    ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), EXIT_USAGE,
     f"error: line 1, column {MAX_NESTING + 1}: expression nested too deeply"),
    ("(" * 3000 + "x" + ")" * 3000, EXIT_USAGE,
     "error: line 1, column 101: expression nested too deeply"),
    ("-(" * 3000 + "x" + ")" * 3000, EXIT_USAGE,
     "error: line 1, column 202: expression nested too deeply"),
    ("x^²", EXIT_USAGE, "error: line 1, column 3: unexpected character '²'"),
    ("x + " + "1" * 5000, EXIT_USAGE,
     "error: line 1, column 5: integer literal too long"),
], ids=["50 parens", "limit parens", "3000 minus", "limit+1 parens",
        "3000 parens", "3000 minus-parens", "superscript digit", "5000 digits"])
def test_deep_expressions_end_cleanly(text, code, report):
    assert run_command(["kernel", FP, f"--elem={text}"]) == (code, report)


NILPOTENT = "ring N\nvars x y\nrel x^2\nder x = 0\nder y = x\n"
ZERO_RING = "ring Z\nvars x\nrel x\nrel x - 1\nder x = 0\n"
TEN_5000 = "1" + "0" * 5000
# 20,000 distinct terms, each a multiple of x
LONG_SUM = " + ".join(f"x*y^{i % 200}*z^{i // 200}" for i in range(20_000))
# a planted factor of degree 6 under coprime cofactors of degree 24; the
# gcd through the ideal intersection alone takes over 2 s
PLANTED = "(3*x^2*y - x*z + 7)^2"
PLANTED_PAIR = (f"{PLANTED}*(12*x^3 - 7*y^2*z + 5*x*z - 11)^8; "
                f"{PLANTED}*(9*y^3 + 4*x*z^2 - 13*y + 2)^8")


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["exp", FP, "--elem", "10^5000*x"], EXIT_YES,
     f"exp(s*d)({TEN_5000}*x) = {TEN_5000}*x + {TEN_5000}*s*y + 5{'0' * 4999}*s^2*z",
     ""),
    (["kernel", FP, "--elem", "10^5000*x"], EXIT_NO,
     f"d({TEN_5000}*x) = {TEN_5000}*y\nkernel member: no", ""),
    (["gb", FP, "--ideal", "10^5000*x - 1"], EXIT_YES,
     f"order: degrevlex\nbasis: (x - 1/{TEN_5000})", ""),
    (["kernel", FP, "--elem", "(x+y+z)^300"], EXIT_USAGE, "",
     "error: line 1, column 9: power may have more than 1000 terms"),
    (["kernel", FP, "--elem", "3^1000000000"], EXIT_USAGE, "",
     "error: line 1, column 3: exponent above 10000"),
    (["kernel", FP, "--elem", "(10^1000*x)^300"], EXIT_NO,
     f"d(1{'0' * 300000}*x^300) = 3{'0' * 300002}*x^299*y\nkernel member: no", ""),
    (["kernel", FP, "--elem", "(10^10*x+y)^999"], EXIT_USAGE, "",
     "error: line 1, column 13: power may have more than 4000000 coefficient bits"),
    (["kernel", FP, "--elem", "(10^100*x+y)^999"], EXIT_USAGE, "",
     "error: line 1, column 14: power may have more than 4000000 coefficient bits"),
    # argparse reads a separate "-x" as an option; "--elem=-x" passes it
    (["kernel", FP, "--elem", "-x"], EXIT_USAGE, "",
     "error: argument --elem: expected one argument"),
    (["kernel", FP, "--elem=-x"], EXIT_NO, "d(-x) = -y\nkernel member: no", ""),
    (["slice-none", FP], EXIT_SOFTWARE, "", "internal error: CertificateError: "
     "inconsistency certificate does not verify"),
    (["cylinder", "nilpotent.lnd", "--elem", "x"], EXIT_USAGE, "",
     "error: element vanishes on the variety; its open set is empty"),
    (["check", "zero.lnd"], EXIT_USAGE, "",
     "error: relations generate the unit ideal; the presented ring is zero"),
    (["member", FP, "--elem", LONG_SUM, "--ideal", "x"], EXIT_YES,
     "normal form = 0\nmember: yes", ""),
    # the product bound refuses at the 10th '*': 286 terms times 4
    (["kernel", FP, "--elem", "*".join(["(x+y+z+1)"] * 60)], EXIT_USAGE, "",
     "error: line 1, column 100: product may have more than 1000 terms"),
    # and the coefficient bound at the 12th '*', where 100 factors once took 13 s
    (["kernel", FP, "--elem", "*".join(["(10^4000*x+y)"] * 100)], EXIT_USAGE, "",
     "error: line 1, column 168: product may have more than 4000000 coefficient bits"),
    (["gcd", FP, "--elems", PLANTED_PAIR], EXIT_YES,
     "gcd = 9*x^4*y^2 - 6*x^3*y*z + x^2*z^2 + 42*x^2*y - 14*x*z + 49", ""),
    # exponents past 2^16 widen the packed monomials of the division
    (["member", FP, "--elem", "(x^10000)^7", "--ideal", "(x^8192)^8 - y"], EXIT_NO,
     "normal form = x^4464*y\nmember: no", ""),
    (["member", FP, "--elem", "(x^10000)^7 - x^4464*y", "--ideal", "(x^8192)^8 - y"],
     EXIT_YES, "normal form = 0\nmember: yes", ""),
], ids=["huge integer", "huge integer, kernel", "huge fraction", "huge power",
        "huge exponent", "huge printed coefficients", "huge coefficients",
        "huger coefficients", "value with minus", "value with minus after =",
        "doctored certificate", "nilpotent element", "zero ring", "long sum",
        "long product", "long product, big coefficients", "large planted gcd",
        "exponents past 2^16", "exponents past 2^16, member"])
def test_hostile_inputs_end_with_their_exit_code(argv, code, stdout, stderr,
                                                 tmp_path, monkeypatch, capsys):
    if "slice-none" in argv:
        # a solver whose certificate does not verify on any system, as a
        # fault would give: all ones combine b = 1 to 1, not to 2
        monkeypatch.setattr(QMatrix, "_solve", lambda self, rhs:
                            Inconsistency((Fraction(1),) * len(rhs), Fraction(2)))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nilpotent.lnd").write_text(NILPOTENT, encoding="utf-8")
    (tmp_path / "zero.lnd").write_text(ZERO_RING, encoding="utf-8")
    begin = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - begin < 2.0
    out, err = capsys.readouterr()
    assert (out, err) == (stdout + "\n" * bool(stdout), stderr + "\n" * bool(stderr))


# x*y = 1 with d(x) = x*y^400: the image of x^k reduces one step per
# factor x*y, so the systems need reductions of up to 400 steps
RECIPROCAL = "ring R\nvars x y\nrel x*y - 1\nder x = x*y^400\nder y = -y^401\n"


@pytest.mark.parametrize("argv, code, lines", [
    (["plinth", "--elem", "1", "--max-deg", "400", "--max-power", "1"], EXIT_YES,
     ["plinth membership of 1: yes", "n = 1", "f = 1/400*x^400"]),
    (["slice-none", "--max-deg", "399"], EXIT_NO,
     ["no slice of degree <= 399", "system: 799 equations, 799 unknowns",
      "certificate multipliers: {1: 1}", "certificate value: 1"]),
], ids=["plinth", "slice-none"])
def test_deep_reductions_end_with_their_verdict(argv, code, lines, tmp_path):
    spec = tmp_path / "reciprocal.lnd"
    spec.write_text(RECIPROCAL, encoding="utf-8")
    begin = time.perf_counter()
    result, report = run_command([argv[0], str(spec), *argv[1:]])
    assert time.perf_counter() - begin < 2.0
    assert (result, report.splitlines()) == (code, lines)


def test_large_degree_lists_only_the_reached_classes():
    # of the 635,376 monomials of degree <= 60 in four variables, only x
    # lies in the class that u reaches; listing and weighing them all took
    # seconds
    begin = time.perf_counter()
    code, report = run_command(["cylinder", A4, "--elem", "u", "--max-deg", "60"])
    assert time.perf_counter() - begin < 1.0
    assert code == EXIT_YES
    assert report.splitlines()[:3] == ["cylinder D(u): yes", "n = 1", "f = x"]


def test_exp_canonical_output():
    code, report = run_command(["exp", FP, "--elem", "x;y;z"])
    assert code == EXIT_YES
    assert report == ("exp(s*d)(x) = x + s*y + 1/2*s^2*z\n"
                      "exp(s*d)(y) = y + s*z\n"
                      "exp(s*d)(z) = z")


@pytest.mark.parametrize("variables, source, parameter", [
    ("s t", "s", "s1"), ("s1 t s", "s", "s2"), ("r t", "r", "s")])
def test_exp_names_its_parameter_apart_from_the_variables(tmp_path, variables, source,
                                                          parameter):
    # with a variable s, the action's t + s*s would read as t + s^2
    spec = tmp_path / "param.lnd"
    ders = "".join(f"der {v} = {source if v == 't' else 0}\n" for v in variables.split())
    spec.write_text(f"ring P\nvars {variables}\n{ders}", encoding="utf-8")
    code, report = run_command(["exp", str(spec), "--elem", "t"])
    assert code == EXIT_YES
    assert report == f"exp({parameter}*d)(t) = t + {parameter}*{source}"


def test_orbit_and_fixed():
    code, report = run_command(["orbit", FP, "--point", "0;0;1", "--time", "2"])
    assert code == EXIT_YES
    assert report == "orbit(0, 0, 1) at time 2 = (2, 2, 1)"
    code, report = run_command(["fixed", FP])
    assert code == EXIT_YES
    assert report == "fixed locus: (y, z)"


def test_kernel_exit_codes():
    code, report = run_command(["kernel", FP, "--elem", "z;y^2 - 2*x*z"])
    assert code == EXIT_YES
    assert report.endswith("kernel member: yes")
    code, report = run_command(["kernel", FP, "--elem", "x"])
    assert code == EXIT_NO
    assert report.endswith("kernel member: no")


def test_plinth_verdict_exit_codes():
    assert run_command(["plinth", FP, "--elem", "z"])[0] == EXIT_YES
    assert run_command(["plinth", FP, "--elem", "x"])[0] == EXIT_NO
    code, report = run_command(["plinth", A4, "--elem", "x*v - y*u",
                                "--max-power", "2", "--max-deg", "6"])
    assert code == EXIT_UNKNOWN
    assert "unknown at bounds" in report


def test_cylinder_yes_prints_slice_and_certificate():
    code, report = run_command(["cylinder", FP, "--elem", "z"])
    assert code == EXIT_YES
    lines = report.splitlines()
    assert lines[0] == "cylinder D(z): yes"
    assert "n = 1" in lines
    assert "f = y" in lines
    assert "slice = y/z" in lines
    assert "dixmier(y) = 0" in lines


def test_cylinder_no_for_non_kernel_element():
    code, report = run_command(["cylinder", FP, "--elem", "x"])
    assert code == EXIT_NO
    assert report == "cylinder D(x): no\nd(x) = y"


def test_trivialize():
    code, report = run_command(["trivialize", FP, "--h", "z", "--elem", "x"])
    assert code == EXIT_YES
    assert report == ("slice = y/z\n"
                      "c0 = (-1/2*y^2 + x*z)/z\n"
                      "c1 = 0\n"
                      "c2 = 1/2*z")
    # localizer without verified plinth membership propagates the verdict
    code, _ = run_command(["trivialize", FP, "--h", "y^2 - 2*x*z",
                           "--elem", "x"])
    assert code == EXIT_UNKNOWN


def test_slice_none():
    code, report = run_command(["slice-none", FP, "--max-deg", "6"])
    assert code == EXIT_NO
    assert report.splitlines()[0] == "no slice of degree <= 6"
    assert "certificate multipliers" in report


# d(x) = 1, so x is a slice at every degree bound from 1 on
SLICE = "ring S\nvars x y z\nder x = 1\nder y = x\nder z = y\n"
KERNEL_PAIR = ["--gens", "z;y^2 - 2*x*z", "--max-deg", "3", "--max-power", "2"]
UNKNOWN_CLAIM = ("z: verified (n = 1, f = y)\n"
                 "y^2 - 2*x*z: unknown at bounds (max power 2, max degree 3)\n"
                 "claim verified: unknown at bounds")


@pytest.mark.parametrize("argv, code, report", [
    (["slice-none", "slice.lnd"], EXIT_YES, "slice found of degree <= 8\nslice = x"),
    (["slice-none", "slice.lnd", "--max-deg", "0"], EXIT_NO,
     "no slice of degree <= 0\nsystem: 1 equations, 1 unknowns\n"
     "certificate multipliers: {1: 1}\ncertificate value: 1"),
    (["exp", FP, "--elem", "x*y;0;-x*y"], EXIT_YES,
     "exp(s*d)(x*y) = x*y + s*(y^2 + x*z) + 3/2*s^2*y*z + 1/2*s^3*z^2\n"
     "exp(s*d)(0) = 0\n"
     "exp(s*d)(-x*y) = -x*y + s*(-y^2 - x*z) - 3/2*s^2*y*z - 1/2*s^3*z^2"),
    (["plinth-verify", FP, *KERNEL_PAIR], EXIT_UNKNOWN, UNKNOWN_CLAIM),
    (["maximal-cylinder", FP, *KERNEL_PAIR], EXIT_UNKNOWN, UNKNOWN_CLAIM),
    (["maximal-cylinder", FP, "--gens", "z;x"], EXIT_NO,
     "z: verified (n = 1, f = y)\nx: rejected, d(x) = y\nclaim verified: no"),
    (["gb", FP, "--ideal", "0"], EXIT_YES, "order: degrevlex\nbasis: (0)"),
], ids=["slice found", "no slice at degree 0", "exp of several terms and of 0",
        "claim unknown at bounds", "maximal claim unknown at bounds",
        "maximal claim rejected", "basis of the zero ideal"])
def test_reports_that_no_golden_reaches(argv, code, report, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "slice.lnd").write_text(SLICE, encoding="utf-8")
    assert run_command(argv) == (code, report)


def test_plinth_verify_and_principal():
    code, report = run_command(["plinth-verify", A4, "--gens", "u;v"])
    assert code == EXIT_YES
    assert report.splitlines()[-1] == "complement ideal: (u, v)"
    code, report = run_command(["principal", A4, "--gens", "u;v"])
    assert code == EXIT_NO
    assert "gcd = 1" in report


def test_maximal_cylinder_outcomes():
    code, report = run_command(["maximal-cylinder", FP, "--gens", "z"])
    assert code == EXIT_YES
    assert "maximal principal cylinder: D(z)" in report
    code, report = run_command(["maximal-cylinder", A4, "--gens", "u;v"])
    assert code == EXIT_NO
    assert report.splitlines()[-1] == "maximal principal cylinder: none"


def test_principality_with_relations_is_unknown_when_not_principal(tmp_path):
    # k[x,y,z,w]/(w - z^2) is k[x,y,z], where (z, w) = (z); the free-ring
    # gcd of z and w is 1, which is not in (z, w) there
    spec = tmp_path / "graph.lnd"
    spec.write_text("ring G\nvars x y z w\nrel w - z^2\n"
                    "der x = y\nder y = z\nder z = 0\nder w = 0\n",
                    encoding="utf-8")
    verdict = ["principal: unknown (gcd is not in the ideal of the free ring)",
               "principality was decided in the free ring only, without the relations"]
    code, report = run_command(["principal", str(spec), "--gens", "z;w"])
    assert code == EXIT_UNKNOWN
    assert report.splitlines() == ["generators: z; w", "gcd = 1", *verdict]
    code, report = run_command(["maximal-cylinder", str(spec), "--gens", "z;w"])
    assert code == EXIT_UNKNOWN
    assert report.splitlines()[-4:] == ["gcd = 1", *verdict,
                                        "maximal principal cylinder: unknown"]
    # a yes still holds modulo the relations
    code, report = run_command(["principal", str(spec), "--gens", "z;z^2"])
    assert code == EXIT_YES
    assert "generator = z" in report


def counted_builds(monkeypatch):
    """The gradings a command makes, and every (args, system) that
    ``build_preimage_system`` is called with and returns, through the
    bindings the searches use."""
    gradings, builds = [], []
    build = lndtools.cylinder.build_preimage_system

    class CountedGrading(lndtools.cylinder.Grading):
        def __init__(self, *args):
            super().__init__(*args)
            gradings.append(self)

    def counted_build(*args):
        builds.append((args, build(*args)))
        return builds[-1][1]

    monkeypatch.setattr(lndtools.cylinder, "Grading", CountedGrading)
    monkeypatch.setattr(lndtools.cylinder, "build_preimage_system", counted_build)
    return gradings, builds


def assert_reached_classes_only(gradings, builds):
    """Each system of each grading the command made was built once, from
    every monomial of the classes it was asked for, standard or not, with
    their standard monomials as columns, in order."""
    grading_of = {id(system): (grading, classes) for grading in gradings
                  for classes, system in grading.systems.items()}
    assert len(builds) == len(grading_of)
    for (derivation, monomials), system in builds:
        grading, classes = grading_of[id(system)]
        assert derivation is grading.derivation
        assert sorted(monomials) == [m for m in monomials_up_to(derivation.ring.nvars,
                                                                grading.max_degree)
                                     if grading.weigh(m) in classes]
        want = [m for m in standard_monomials(derivation.ring, grading.max_degree)
                if grading.weigh(m) in classes]
        assert list(system.columns) == want


# The two tests below keep their names, so their ids stay as they were;
# they check one grading per search, whose systems are built only on the
# classes that the search's powers reach.
def test_plinth_builds_one_system_for_every_power(monkeypatch):
    counts = {"apply": 0}
    gradings, builds = counted_builds(monkeypatch)
    apply = Derivation.apply

    def counted_apply(self, f):
        counts["apply"] += 1
        return apply(self, f)

    monkeypatch.setattr(Derivation, "apply", counted_apply)
    listed = []
    members = lndtools.cylinder.Grading.members

    def counted_members(self, weight):
        listed.append(members(self, weight))
        return listed[-1]

    def refuse(*args):
        raise AssertionError("a graded search listed every standard monomial")

    monkeypatch.setattr(lndtools.cylinder.Grading, "members", counted_members)
    monkeypatch.setattr(lndtools.cylinder, "standard_monomials", refuse)
    code, _ = run_command(["plinth", FP, "--elem", "y^2 - 2*x*z"])
    assert code == EXIT_UNKNOWN
    # powers 1 to 4 of h each reach one class, w(h^n) - shift, of the 165
    # monomials of degree <= 8, and each class its own system: 10 columns
    # in all, the only monomials the grading lists;
    # d is applied once, in the kernel test d(h) = 0
    assert_reached_classes_only(gradings, builds)
    (grading,) = gradings
    assert sum(map(len, listed)) == 10
    assert [len(classes) for classes in grading.systems] == [1, 1, 1, 1]
    assert [len(system.columns) for _, system in builds] == [1, 2, 3, 4]
    assert counts == {"apply": 1}
    # every column has its image: zero exactly on the powers of z
    for _, system in builds:
        images = {col for row in system.image_rows.values() for col, _ in row}
        assert images == {j for j, (a, b, _) in enumerate(system.columns) if a or b}


@pytest.mark.parametrize("command, gens, code", [
    ("plinth-verify", "u;v", EXIT_YES),
    ("maximal-cylinder", "u;v", EXIT_NO),
    # the principal generator u is not a claimed one, so it is searched
    # again, after 2*u and 3*u
    ("maximal-cylinder", "2*u;3*u", EXIT_YES),
])
def test_claim_builds_one_system_for_every_generator(monkeypatch, command,
                                                     gens, code):
    gradings, builds = counted_builds(monkeypatch)
    result, report = run_command([command, A4, "--gens", gens])
    assert result == code, report
    assert "claim verified: yes" in report
    # each generator's search makes its own grading, whose one system is
    # the class that its first power reaches: u or v
    assert_reached_classes_only(gradings, builds)
    assert len(gradings) == len(builds) == {"u;v": 2, "2*u;3*u": 3}[gens]
    assert [len(g.systems) for g in gradings] == [1] * len(gradings)


def test_a_grading_is_made_for_its_search(monkeypatch):
    # a search that fails the kernel test makes no grading
    gradings, builds = counted_builds(monkeypatch)
    code, _ = run_command(["plinth-verify", FP, "--gens", "x"])
    assert code == EXIT_NO
    assert gradings == [] and builds == []


def test_one_system_serves_every_power_that_reaches_its_classes(monkeypatch):
    # rank0.lnd has one class, so every power of x reaches it: the search
    # makes one grading and builds one system, whose matrix is eliminated
    # once for the four solves
    gradings, builds = counted_builds(monkeypatch)
    eliminated, solved = [], []
    eliminate, solve = QMatrix._eliminate, QMatrix._solve
    monkeypatch.setattr(QMatrix, "_eliminate",
                        lambda self: eliminated.append(self) or eliminate(self))
    monkeypatch.setattr(QMatrix, "_solve",
                        lambda self, rhs: solved.append(self) or solve(self, rhs))
    code, _ = run_command(["plinth", str(ROOT / "tests" / "data" / "rank0.lnd"),
                           "--elem", "x", "--max-deg", "6"])
    assert code == EXIT_UNKNOWN
    assert_reached_classes_only(gradings, builds)
    (grading,), ((_, system),) = gradings, builds
    assert [len(classes) for classes in grading.systems] == [1]
    assert solved == [system.matrix] * 4
    assert eliminated.count(system.matrix) == 1


@pytest.mark.parametrize("argv", [
    ["plinth", FP, "--elem", "z"],
    ["cylinder", FP, "--elem", "z"],
    ["maximal-cylinder", A4, "--gens", "u;v"],
])
def test_a_wrong_grading_is_refused(monkeypatch, argv):
    # one weight off by one: some d(x_i) is no longer homogeneous, and a
    # class system could miss a preimage, so the search must not start
    null_space = lndtools.cylinder.null_space

    def wrong(matrix):
        first, *rest = null_space(matrix)
        return [(first[0] + 1, *first[1:]), *rest]

    monkeypatch.setattr(lndtools.cylinder, "null_space", wrong)
    code, report = run_command(argv)
    assert code == EXIT_SOFTWARE
    assert report == ("internal error: CertificateError: "
                      "the grading leaves d or the relations inhomogeneous")


def test_trivialize_builds_no_dixmier_images(monkeypatch):
    calls = []
    image = lndtools.cylinder.dixmier_image

    def counted(*args):
        calls.append(args)
        return image(*args)

    monkeypatch.setattr(lndtools.cylinder, "dixmier_image", counted)
    code, report = run_command(["trivialize", FP, "--h", "z", "--elem", "x"])
    assert code == EXIT_YES
    assert report == ("slice = y/z\n"
                      "c0 = (-1/2*y^2 + x*z)/z\n"
                      "c1 = 0\n"
                      "c2 = 1/2*z")
    # the slice comes from the plinth certificate; the coordinates of the
    # cylinder are never printed, so none is built
    assert calls == []


@pytest.mark.parametrize("spec, gens, code", [
    (A4, "u;v", EXIT_NO),
    (FP, "z", EXIT_YES),
])
def test_maximal_cylinder_builds_the_claimed_ideal_once(monkeypatch, spec,
                                                        gens, code):
    ideals = []
    ideal = lndtools.cylinder.Ideal

    def counted(*args, **kwargs):
        ideals.append(args)
        return ideal(*args, **kwargs)

    monkeypatch.setattr(lndtools.cylinder, "Ideal", counted)
    result, report = run_command(["maximal-cylinder", spec, "--gens", gens])
    assert result == code, report
    # principality is decided on the ideal the claim verification built
    assert len(ideals) == 1


def test_principal_agrees_with_the_library(tmp_path):
    graph = tmp_path / "graph.lnd"
    graph.write_text("ring G\nvars x y z w\nrel w - z^2\n"
                     "der x = y\nder y = z\nder z = 0\nder w = 0\n",
                     encoding="utf-8")
    exits = {Outcome.YES: EXIT_YES, Outcome.NO: EXIT_NO,
             Outcome.UNKNOWN: EXIT_UNKNOWN}
    seen = set()
    for path, gens in ((A4, "u;v"), (A4, "u;2*u"), (FP, "x*y;x^2"),
                       (FP, "z;z^2"), (str(graph), "z;w"), (str(graph), "z;z^2")):
        text = Path(path).read_text(encoding="utf-8")
        spec = parse_spec(text)
        ideal = Ideal(len(spec.variables), parse_polynomial_list(gens, spec.variables))
        outcome = principality_check(ideal, spec_derivation(spec).ring).outcome
        code, report = run_command(["principal", path, "--gens", gens])
        assert code == exits[outcome], (path, gens, report)
        seen.add(outcome)
    assert seen == set(Outcome)


# sigma(x_i) = sum_j A[i][j] x_j for a fixed unimodular integer A, and the
# rows of its inverse
UNIMODULAR = ((1, 1, 0), (0, 1, 1), (1, 1, 1))
UNIMODULAR_INVERSE = ((0, -1, 1), (1, 1, -1), (-1, 0, 1))


def test_verdicts_agree_under_a_linear_change_of_coordinates(tmp_path):
    # sigma(p) = p(A x) is an automorphism of A^3 that keeps degrees, so
    # d' = sigma d sigma^-1 has d'(sigma f) = sigma(h)^n exactly when
    # d(f) = h^n, at the same degrees: plinth and cylinder agree on h and
    # sigma(h) in exit code and n, and slice-none in exit code and
    # unknowns.  A generic A mixes the weights, so a system split into
    # classes on one side is split less, or not at all, on the other.
    # Every printed slice and Dixmier image of a cylinder is in lowest
    # terms, and d(slice) = 1 and d(dixmier) = 0 by the quotient rule on
    # the Leibniz oracle, in plain polynomial arithmetic
    names = ["x", "y", "z"]
    x, y, z = variables = [Polynomial.variable(3, i) for i in range(3)]

    def substitute(p, images):
        total = Polynomial.zero(3)
        for mono, c in p.terms.items():
            term = Polynomial.constant(3, c)
            for image, e in zip(images, mono):
                term = term * image ** e
            total = total + term
        return total

    def combine(row, polys):
        return sum((p * a for p, a in zip(polys, row)), Polynomial.zero(3))

    sigma = [combine(row, variables) for row in UNIMODULAR]
    assert [combine(row, sigma) for row in UNIMODULAR_INVERSE] == variables

    def spec(images, name):
        path = tmp_path / f"{name}.lnd"
        path.write_text("ring A3\nvars x y z\n" + "".join(
            f"der {v} = {format_polynomial(g, names)}\n" for v, g in zip(names, images)),
            encoding="utf-8")
        return str(path)

    def fraction(text):
        # a side with a space, *, / or a leading minus is wrapped, so the
        # bar is the / at depth 0 before a parenthesis or a name
        depth = 0
        for i, ch in enumerate(text):
            depth += (ch == "(") - (ch == ")")
            if ch == "/" and not depth and (text[i + 1] == "(" or text[i + 1].isalpha()):
                return parse_polynomial(text[:i], names), parse_polynomial(text[i + 1:], names)
        return parse_polynomial(text, names), Polynomial.constant(3, 1)

    def check_fractions(path, report):
        d = spec_derivation(parse_spec(Path(path).read_text(encoding="utf-8")))
        printed = re.findall(r"^(slice|dixmier\(\w\)) = (.*)$", report, re.M)
        assert [label for label, _ in printed] == ["slice", "dixmier(x)", "dixmier(y)",
                                                   "dixmier(z)"], report
        for label, text in printed:
            num, den = fraction(text)
            simplified = RationalFunction(num, den).simplify()
            assert (simplified.num, simplified.den) == (num, den), text
            derivative = den * leibniz_oracle(d, num) - num * leibniz_oracle(d, den)
            assert derivative == (den * den if label == "slice" else Polynomial.zero(3)), text

    def verdict(argv):
        code, report = run_command(argv)
        assert code in (EXIT_YES, EXIT_NO, EXIT_UNKNOWN), (argv, report)
        if argv[0] == "cylinder" and code == EXIT_YES:
            check_fractions(argv[1], report)
        system = re.search(r"(\d+) unknowns", report)
        n = [line for line in report.splitlines() if line.startswith("n = ")]
        return code, n, system and system.group(1)

    rng = random.Random(5)
    seen = set()
    for index in range(40):
        def in_z():
            return sum((z ** k * rng.randint(-2, 2) for k in range(3)), Polynomial.zero(3))
        a, b, q = rng.randint(0, 2), in_z(), in_z()
        images = [y * a + b + y * z * rng.choice((0, 0, 1)), q,
                  Polynomial.constant(3, rng.choice((0, 0, 1)))]
        # conjugated: d'(x_i) = sum_j Ainv[i][j] sigma(d(x_j))
        moved = [combine(row, [substitute(g, sigma) for g in images])
                 for row in UNIMODULAR_INVERSE]
        here, there = spec(images, f"d{index}"), spec(moved, f"e{index}")
        assert verdict(["slice-none", here, "--max-deg", "3"]) \
            == verdict(["slice-none", there, "--max-deg", "3"]), (images, moved)
        # z, z^2 + z and q are in the kernel when d(z) = 0, and so is
        # 2*q*x - a*y^2 - 2*b*y when also d(x) = a*y + b; y is not unless q = 0
        for h in (z, z * (z + 1), y, q, q * x * 2 - y * y * a - y * b * 2):
            if h.total_degree() < 1:
                continue
            for command in ("plinth", "cylinder"):
                bounds = ["--max-power", "3", "--max-deg", "4"]
                got = verdict([command, here, f"--elem={format_polynomial(h, names)}", *bounds])
                conjugated = format_polynomial(substitute(h, sigma), names)
                assert verdict([command, there, f"--elem={conjugated}", *bounds]) == got, \
                    (command, images, h)
                seen.add(got[0])
    assert seen == {EXIT_YES, EXIT_NO, EXIT_UNKNOWN}


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these by name and reports a missing one
    # only as a zero per-layer metric
    source = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(source).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    for module_name, path in targets.values():
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, path)


def test_goldens_run_every_command(monkeypatch):
    # the golden transcripts are the list of pinned invocations: each
    # command is run by at least one, and the only other block is the script
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    argvs = [argv for golden in (CORPUS / "golden").glob("*.txt")
             for argv, _, _ in workloads.parse_golden(golden.read_text(encoding="utf-8"))]
    assert {argv[1] for argv in argvs if argv[0] == "lnd"} == {c.name for c in COMMANDS}
    assert [argv for argv in argvs if argv[0] != "lnd"] == [["python3", "check_p2.py"]]


@pytest.mark.parametrize("workload", ["search", "ideals"])
def test_benchmark_round_passes_its_checks(workload, tmp_path, monkeypatch):
    # one round of a benchmark workload, as its worker runs it, read by the
    # benchmark's own checker: a report it cannot read, or a checker that
    # trips over the program's values, fails here and not only at bench time
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    built = workloads.build(workload, 7, ROOT)
    for name, text in built.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    checker = checks.Checker(built)
    failures = []
    for command in built.commands[:built.round_size]:
        code, report = run_command(list(command.argv))
        reason = checker(command, code, report)
        if reason:
            failures.append(f"{' '.join(command.argv)}: {reason}")
    assert not failures


def test_algebra_commands():
    code, report = run_command(["gb", FP, "--ideal", "x^2 + y; x*y - 1"])
    assert code == EXIT_YES
    assert report == "order: degrevlex\nbasis: (x^2 + y, x*y - 1, y^2 + x)"
    code, report = run_command(["member", FP, "--elem", "x^3",
                                "--ideal", "x^2 + y; x*y - 1"])
    assert code == EXIT_NO
    assert report == "normal form = -1\nmember: no"
    assert run_command(["radmember", FP, "--elem", "x*y",
                        "--ideal", "x^2*y^3"])[0] == EXIT_YES
    code, report = run_command(["gcd", FP, "--elems",
                                "x^2 - y^2; x^2 + 2*x*y + y^2"])
    assert code == EXIT_YES
    assert report == "gcd = x + y"


def test_a_wrong_lcm_is_an_internal_error(monkeypatch, capsys):
    # when the heuristic gives up, gcd divides the product of its arguments
    # by their lcm, which must divide it; a division that fails there is a
    # fault of the program
    monkeypatch.setattr(lndtools.groebner, "_HEU_TRIES", 0)
    monkeypatch.setattr(lndtools.groebner, "lcm_via_intersection",
                        lambda f, g: f + 1)
    assert main(["gcd", FP, "--elems", "x^2 - 1; x - 1"]) == EXIT_SOFTWARE
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal error: ArithmeticError: division is not exact\n")


def test_usage_errors(tmp_path):
    code, report = run_command(["cylinder", str(tmp_path / "missing.lnd"),
                                "--elem", "z"])
    assert code == EXIT_USAGE
    assert report.startswith("error:")

    bad = tmp_path / "bad.lnd"
    bad.write_text("ring R\nvars x y\nder x = \nder y = 0\n", encoding="utf-8")
    code, report = run_command(["check", str(bad)])
    assert code == EXIT_USAGE
    assert "line 3" in report

    code, _ = run_command(["exp", FP, "--elem", "x + w"])
    assert code == EXIT_USAGE
    code, _ = run_command(["plinth", FP, "--elem", "z", "--max-power", "0"])
    assert code == EXIT_USAGE
    code, _ = run_command(["orbit", FP, "--point", "1;2", "--time", "1"])
    assert code == EXIT_USAGE
    code, _ = run_command(["gcd", FP, "--elems", "x"])
    assert code == EXIT_USAGE
    code, _ = run_command(["nonsense", FP])
    assert code == EXIT_USAGE
    code, _ = run_command(["exp", FP])
    assert code == EXIT_USAGE


def test_non_preserving_derivation_gating(tmp_path):
    spec = tmp_path / "hyperbola.lnd"
    spec.write_text("ring H\nvars x y\nrel x*y - 1\nder x = 1\nder y = 0\n",
                    encoding="utf-8")
    code, report = run_command(["check", str(spec)])
    assert code == EXIT_NO
    assert report.splitlines()[0] == "relations preserved: no"
    code, report = run_command(["exp", str(spec), "--elem", "x"])
    assert code == EXIT_USAGE
    assert "does not preserve" in report


# options that make each command runnable on the hyperbola x*y = 1
GATE_ARGS = {
    "check": [],
    "exp": ["--elem", "x"],
    "orbit": ["--point", "1;1", "--time", "1"],
    "fixed": [],
    "kernel": ["--elem", "x"],
    "plinth": ["--elem", "y"],
    "cylinder": ["--elem", "y"],
    "trivialize": ["--h", "y", "--elem", "x"],
    "slice-none": ["--max-deg", "2"],
    "plinth-verify": ["--gens", "y"],
    "principal": ["--gens", "x;y"],
    "maximal-cylinder": ["--gens", "y"],
    "gb": ["--ideal", "x*y - 1"],
    "member": ["--elem", "x", "--ideal", "x*y - 1"],
    "radmember": ["--elem", "x", "--ideal", "x*y - 1"],
    "gcd": ["--elems", "x^2 - 1; x - 1"],
}
PURE_ALGEBRA = {"principal", "gb", "member", "radmember", "gcd"}


@pytest.mark.parametrize("name", [c.name for c in COMMANDS])
def test_relation_gate_for_every_command(tmp_path, name):
    spec = tmp_path / "hyperbola.lnd"
    spec.write_text("ring H\nvars x y\nrel x*y - 1\nder x = 1\nder y = 0\n",
                    encoding="utf-8")
    code, report = run_command([name, str(spec)] + GATE_ARGS[name])
    if name == "check":
        assert code == EXIT_NO
        assert report.splitlines()[0] == "relations preserved: no"
    elif name in PURE_ALGEBRA:
        assert code != EXIT_USAGE, report
    else:
        assert code == EXIT_USAGE
        assert report == ("error: derivation does not preserve the relations: "
                          "d(x*y - 1) = y")


# argvs for the two parse routes: every command with its options, then
# what the command's parser or the whole parser must refuse
ROUTE_ARGVS = [
    *([name, FP, *args] for name, args in GATE_ARGS.items()),
    ["cylinder", FP, "--elem", "z", "--max-power", "2"],
    ["orbit", FP, "--point", "1;2;3", "--time", "1/2"],
    ["plinth", FP, "--max-power", "2"],              # a required option missing
    ["kernel", FP, "--elem", "x", "--colour", "red"],  # an unknown option
    ["plinth", FP, "--elem", "z", "--max-deg", "abc"],
    ["kernel", "--elem", "x", FP],                   # an option before the spec
    ["kernel", "--elem", "x", "--", FP],             # '--' before the spec
    ["kernel", "--", FP, "--elem", "x"],             # an option after '--'
    ["kernel"],
    ["nonsense", FP],
    [],
    ["--elem", "x", "kernel", FP],                   # an option before the command
]


@pytest.mark.parametrize("argv", ROUTE_ARGVS,
                         ids=lambda argv: " ".join(argv).replace(FP, "ex_fp.lnd") or "empty")
def test_both_parse_routes_agree(monkeypatch, argv):
    # run_command hands the rest of an argv that starts with a command to
    # that command's parser; the whole parser must read it alike
    parser = build_parser()
    whole = []

    def counted(*args):
        whole.append(args)
        return type(parser).parse_args(parser, *args)

    monkeypatch.setattr(parser, "parse_args", counted)
    direct = run_command(argv)
    assert bool(whole) == (not argv or argv[0] not in parser.commands)
    monkeypatch.setattr(parser, "commands", {})
    assert run_command(argv) == direct


def test_both_parse_routes_print_the_same_help(monkeypatch, capsys):
    with pytest.raises(SystemExit):
        run_command(["kernel", FP, "--help"])
    direct = capsys.readouterr().out
    monkeypatch.setattr(build_parser(), "commands", {})
    with pytest.raises(SystemExit):
        run_command(["kernel", FP, "--help"])
    assert capsys.readouterr().out == direct
    assert direct.startswith("usage: lnd kernel ")


def test_maximal_cylinder_reuses_the_claimed_certificate(monkeypatch):
    calls = []
    search = lndtools.cylinder.plinth_membership

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(lndtools.cylinder, "plinth_membership", counted)
    code, report = run_command(["maximal-cylinder", FP, "--gens", "z"])
    assert code == EXIT_YES
    assert "maximal principal cylinder: D(z)" in report
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["cylinder", FP, "--elem", "z"],
                                  ["cylinder", A4, "--elem", "u"],
                                  ["maximal-cylinder", FP, "--gens", "z"]])
def test_a_cylinder_simplifies_its_slice_once(monkeypatch, argv):
    # one simplify for the slice, shared by the Dixmier images and the
    # printed slice, and one for each Dixmier image
    calls = []
    simplify = RationalFunction.simplify

    def counted(self):
        calls.append((self.num, self.den))
        return simplify(self)

    monkeypatch.setattr(RationalFunction, "simplify", counted)
    code, report = run_command(argv)
    assert code == EXIT_YES
    names = parse_spec(Path(argv[1]).read_text(encoding="utf-8")).variables
    assert len(calls) == 1 + len(names)
    lines = report.splitlines()
    n = int(next(line for line in lines if line.startswith("n = "))[4:])
    f = next(line for line in lines if line.startswith("f = "))[4:]
    h = parse_polynomial(argv[3], names)
    assert calls[0] == (parse_polynomial(f, names), h ** n)


def test_readme_lists_exactly_the_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Commands", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in section.splitlines()[2:]]
    listed = {cell.strip().strip("`"): gate.strip() for cell, gate in rows}
    assert listed == {c.name: "yes" if c.gated else "no" for c in COMMANDS}


def test_exports_are_exactly_the_package_names():
    public = {name for name, value in vars(lndtools).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(lndtools.__all__) == sorted(public)
    for name in lndtools.__all__:
        assert getattr(lndtools, name) is not None


def test_bound_defaults_come_from_the_library(capsys):
    parser = build_parser()
    bounds = SearchBounds()
    args = parser.parse_args(["plinth", FP, "--elem", "z"])
    assert (args.max_power, args.max_deg) == (bounds.max_power, bounds.max_degree)
    assert parser.parse_args(["slice-none", FP]).max_deg == bounds.max_degree
    assert parser.parse_args(["check", FP]).cap == DEFAULT_NILPOTENCY_CAP
    assert main(["check", "--help"]) == 0
    assert f"(default {DEFAULT_NILPOTENCY_CAP})" in capsys.readouterr().out


def test_shared_parser_keeps_no_option_values():
    assert build_parser() is build_parser()
    command = ["plinth", FP, "--elem", "y^2 - 2*x*z"]
    code, report = run_command(command + ["--max-deg", "3"])
    assert code == EXIT_UNKNOWN
    assert report.endswith("(max power 4, max degree 3)")
    code, report = run_command(command)
    assert code == EXIT_UNKNOWN
    assert report.endswith("(max power 4, max degree 8)")


def test_non_nilpotent_check_is_inconclusive(tmp_path):
    spec = tmp_path / "euler.lnd"
    spec.write_text("ring E\nvars x\nder x = x\n", encoding="utf-8")
    code, report = run_command(["check", str(spec), "--cap", "12"])
    assert code == EXIT_UNKNOWN
    assert "order(x) > 12" in report
    code, report = run_command(["exp", str(spec), "--elem", "x"])
    assert code == EXIT_UNKNOWN
    assert report.startswith("unknown at bounds:")


def test_installed_entry_point_streams():
    script = [sys.executable, "-m", "lndtools.cli"]
    done = subprocess.run(script + ["fixed", FP], capture_output=True,
                          text=True)
    assert done.returncode == 0
    assert done.stdout == "fixed locus: (y, z)\n"
    assert done.stderr == ""
    done = subprocess.run(script + ["fixed", "definitely-missing.lnd"],
                          capture_output=True, text=True)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
    done = subprocess.run(script + ["--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "locally nilpotent" in done.stdout


def test_closed_stdout_keeps_the_verdict():
    # the reader of stdout is gone before the verdict is printed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lndtools.cli", "cylinder", PLANE,
             "--elem", "y"], stdout=write_end, stderr=subprocess.PIPE,
            text=True)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_YES
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("spec, lines", [
    (A4, ["no slice of degree <= 12",
          "system: 1730 equations, 1820 unknowns",
          "certificate multipliers: {1: 1}",
          "certificate value: 1"]),
    (SURFACE, ["no slice of degree <= 12",
               "system: 167 equations, 169 unknowns",
               "certificate multipliers: {x^6*z^6: 1, x^5*z^5: -13/6, "
               "x^4*z^4: 143/30, x^3*z^3: -429/40, x^2*z^2: 1001/40, "
               "x*z: -1001/16, 1: 3003/16}",
               "certificate value: 3003/16"]),
], ids=["a4", "danielewski"])
def test_slice_none_certificates_at_degree_12(spec, lines):
    # pins the pivot order on systems larger than the goldens' degree 6
    code, report = run_command(["slice-none", spec, "--max-deg", "12"])
    assert code == EXIT_NO
    assert report.splitlines() == lines


def test_output_digest_exit_code_says_whether_the_digest_matches(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool extends it
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool.workloads, "WORKLOADS", ())
    empty, other = hashlib.sha256().hexdigest(), "0" * 64
    assert tool.main([]) == 0
    assert tool.main(["--expect", empty]) == 0
    assert tool.main(["--expect", other]) == 1
    out = capsys.readouterr().out
    assert out.count(f"0 commands\nsha256 {empty}\n") == 3
    assert out.endswith(f"expected {other}: the outputs differ\n")
    # a prefix of 8 or more hex digits, as the documents write a digest
    assert tool.main(["--expect", empty[:8]]) == 0
    assert tool.main(["--expect", empty[:12].upper()]) == 0
    assert tool.main(["--expect", other[:8]]) == 1
    assert capsys.readouterr().out.endswith(f"expected {other[:8]}: the outputs differ\n")
    for bad in (empty[:7], empty[:8] + "g", empty + "0", ""):
        with pytest.raises(SystemExit) as exc:
            tool.main(["--expect", bad])
        assert exc.value.code == 2
        assert "prefix of 8 or more hex digits" in capsys.readouterr().err


def test_ab_commands_times_both_sides_and_compares_their_outputs(monkeypatch, capsys):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout to read the parent from")
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool extends it
    spec = importlib.util.spec_from_file_location(
        "ab_commands", ROOT / "tools" / "ab_commands.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    try:
        assert tool.main(["--parent", "HEAD", "--workload", "corpus", "--reps", "1",
                          "--commands", "4"]) == 0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == tool.PARENT_PACKAGE]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("corpus seed 13, 1 reps")
    rows = [line.split() for line in lines[1:]]
    assert rows[-2][:2] == ["total", "4"]
    assert rows[-1][:2] == ["median", "4"]
    assert sum(int(row[1]) for row in rows[:-2]) == 4
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows)
    # the median of four positive minima is below half their sum
    assert all(float(rows[-1][i]) <= float(rows[-2][i]) / 2 for i in (2, 3))


def test_parser_diff_finds_no_difference_against_head(monkeypatch, capsys):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout to read the parent from")
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool extends it
    spec = importlib.util.spec_from_file_location(
        "parser_diff", ROOT / "tools" / "parser_diff.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    try:
        assert tool.main(["--parent", "HEAD", "--cases", "200"]) == 0
    finally:
        for name in [m for m in sys.modules
                     if m.split(".")[0] == tool.ab_commands.PARENT_PACKAGE]:
            del sys.modules[name]
    first = capsys.readouterr().out.splitlines()[0]
    assert first.endswith(", 0 differ")
    assert int(first.split()[0]) > 200    # the workloads' texts come on top
