"""Golden tests pinning the command-line reports for the bundled examples.

The golden files are the list of commands.  Each block, read with the
benchmark's ``parse_golden``, is run again from inside ``corpus/``: an
``lnd`` block through ``run_command``, ``python3 check_p2.py`` through
the script's ``run()``.  To add a command, append a block of ``$ lnd …``,
``exit 0`` and one placeholder line (a block with an empty report does
not round-trip), regenerate with ``REGENERATE_GOLDEN=1 python3 -m pytest
tests/test_corpus.py``, and review the diff before committing it.  The
regenerate run also rewrites the rank-0 transcript ``tests/data/rank0.txt``.
"""

import importlib.util
import os
import shlex
from pathlib import Path

import pytest

from lndtools.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = CORPUS / "golden"


def run_script(name):
    loader = importlib.util.spec_from_file_location(Path(name).stem, CORPUS / name)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.run()


def run_block(argv):
    """(exit code, report) of a golden block's command, run again."""
    return run_command(argv[1:]) if argv[0] == "lnd" else run_script(argv[1])


def check_transcript(path, monkeypatch):
    """Run a transcript's commands again from inside ``corpus/`` and compare
    the whole text, or rewrite it under ``REGENERATE_GOLDEN``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(CORPUS)
    rerun = [(argv, *run_block(argv)) for argv, _, _ in
             workloads.parse_golden(path.read_text(encoding="utf-8"))]
    text = "\n".join(f"$ {shlex.join(argv)}\nexit {code}\n{report}\n"
                     for argv, code, report in rerun)
    if os.environ.get("REGENERATE_GOLDEN"):
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("stem", sorted(p.stem for p in GOLDEN.glob("*.txt")))
def test_golden_reports(stem, monkeypatch):
    check_transcript(GOLDEN / f"{stem}.txt", monkeypatch)


def test_rank0_reports(monkeypatch):
    # a derivation with one class: each system is the whole of its degree
    # bound, and x^2 + x solves all its powers on one system; the benchmark
    # does not run these, so they sit apart from the goldens
    check_transcript(ROOT / "tests" / "data" / "rank0.txt", monkeypatch)


def test_p2_script_passes():
    code, report = run_script("check_p2.py")
    assert code == 0
    assert report.splitlines()[-1] == "kernel checks pass"
    assert "d(z^2/h) = 0" in report
