"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q

They trace one pass of each workload (smaller passes for the generated
ones), so they take a minute or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import lndtools.cli  # noqa: E402
import lndtools.cylinder  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tracing import Tracer, binding_sites, traced_targets  # noqa: E402
from worker import traced_run  # noqa: E402

LAYER_METRICS = {m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}

# the layer metrics each workload must exercise; together, all of them
EXERCISED = {
    "corpus": (
        "cli.run_command.calls", "cli.self_s", "parsing.self_s", "printing.self_s",
        "derivation.apply.calls", "derivation.apply.self_s",
        "derivation.apply_rational.self_s", "cylinder.build_preimage_system.calls",
        "cylinder.build_preimage_system.self_s", "linalg.solve_exact.calls",
        "linalg.solve_exact.self_s", "groebner.standard_monomials.self_s",
        "ratfun.ratfun_eq_mod.self_s",
    ),
    "search": (
        "cylinder.build_preimage_system.calls", "cylinder.dixmier_image.self_s",
        "cylinder.powers_per_search", "cylinder.found_ratio",
        "linalg.solve_exact.calls", "linalg.cells", "linalg.nnz", "linalg.density",
        "linalg.certificate_ratio", "linalg.rhs_per_columns",
        "ratfun.simplify.calls", "ratfun.simplify.self_s",
    ),
    "ideals": (
        "groebner.buchberger.calls", "groebner.buchberger.self_s",
        "groebner.reduce_poly.calls", "groebner.reduce_poly.self_s",
        "groebner.gcd_via_lcm.calls", "groebner.gcd_via_lcm.self_s",
        "poly.mul.calls", "poly.mul.self_s",
    ),
}


def small(name, seed):
    if name == "search":
        return workloads.search_workload(seed, rounds=1)
    if name == "ideals":
        return workloads.ideals_workload(seed, rounds=1)
    return workloads.build(name, seed, ROOT)


def program_inputs(name, seed):
    """Everything the program reads: the files and the command lines."""
    workload = workloads.build(name, seed, ROOT)
    return sorted(workload.files.items()), [c.argv for c in workload.commands]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    first = program_inputs(name, 7)
    assert program_inputs(name, 7) == first
    assert program_inputs(name, 8) != first


def test_corpus_is_every_golden_invocation():
    commands = workloads.build("corpus", 0, ROOT).commands
    dollar_lines = sum(p.read_text(encoding="utf-8").count("\n$ ") + 1
                       for p in (ROOT / "corpus" / "golden").glob("*.txt"))
    assert len(commands) == dollar_lines == 54
    assert sum(c.argv[0] == "python3" for c in commands) == 1
    with pytest.raises(ValueError):
        workloads.parse_golden("$ lnd check a.lnd\nexit 0\nok\n$ lnd fixed a.lnd\nexit 0\n")


def test_every_binding_site_is_wrapped_and_restored():
    targets = traced_targets()
    before = {name: binding_sites(fn) for name, fn in targets.items()}
    # names bound by ``from ... import`` elsewhere than where defined
    for name, owner, attr in (("linalg.solve_exact", lndtools.cylinder, "solve_exact"),
                              ("groebner.gcd_via_lcm", lndtools.cylinder, "gcd_via_lcm"),
                              ("groebner.standard_monomials", lndtools.cylinder,
                               "standard_monomials"),
                              ("cylinder.plinth_membership", lndtools.cli,
                               "plinth_membership"),
                              ("groebner.gcd_via_lcm", lndtools.cli, "gcd_via_lcm")):
        assert (owner, attr) in before[name]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(binding_sites(fn) == [] for fn in targets.values())
    finally:
        tracer.uninstall()
    for name, fn in targets.items():
        assert all(vars(owner)[attr] is fn for owner, attr in before[name])


def test_exercised_covers_every_layer_metric():
    assert set().union(*EXERCISED.values()) == LAYER_METRICS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass(name, tmp_path, monkeypatch):
    workload = small(name, 3)
    for file, text in workload.files.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    monkeypatch.chdir(ROOT / "corpus" if name == "corpus" else tmp_path)
    _, traced, tracer, failures = traced_run(workload, 0)
    # outputs are right, and tracing did not change them
    assert failures == []
    metrics = tracer.metrics(traced.passes)
    assert set(metrics) == LAYER_METRICS
    assert [m for m in EXERCISED[name] if not metrics[m] > 0] == []
    if name == "ideals":
        assert metrics["linalg.solve_exact.calls"] == 0
        assert metrics["cylinder.build_preimage_system.calls"] == 0


def test_preimages_are_checked_by_their_identity():
    workload = workloads.search_workload(0, rounds=1)
    command = next(c for c in workload.commands
                   if c.kind == "plinth" and c.expected == (2,))
    check = Checker(workload)
    assert check(command, 0, "plinth membership of z: yes\nn = 2\nf = y") is None
    # another valid preimage passes, a wrong one fails
    assert check(command, 0, "plinth membership of z: yes\nn = 2\nf = y + 3") is None
    assert check(command, 0, "plinth membership of z: yes\nn = 2\nf = 2*y") is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
