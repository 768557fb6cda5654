"""Per-command A/B timings of a parent commit and this checkout, in one process.

    python3 tools/ab_commands.py --parent COMMIT --workload W \
        [--seed S] [--reps N] [--commands K]

The parent's ``src/lndtools``, read from git, is loaded beside this
checkout's ``lndtools`` as a second package; the package imports itself
only by relative imports, so it loads under another name.  Every ``lnd``
command of the workload's pass (the first K with ``--commands``) runs
through both ``run_command``s ``--reps`` times, the side that goes first
alternating from command to command and from rep to rep, so that slow
spells of a shared machine fall on both.  Each command keeps its minimum
time per side.  Standard output gets, per command kind (its subcommand)
and in total, the number of commands, the sums of those minima in
milliseconds and their ratio, change over parent.  Timings of whole
passes in separate processes can swing by ten per cent on a small shared
machine; alternating per command in one process resolves differences of
about one per cent.  A command whose exit code or report differs between
the sides is printed, and ends the tool with exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from lndtools.cli import run_command  # noqa: E402

PARENT_PACKAGE = "lndtools_parent"


def git(*argv: str) -> str:
    done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"git {' '.join(argv)}: {done.stderr.strip()}")
    return done.stdout


def load_parent(commit: str, scratch: Path):
    """The parent's ``run_command``, from its ``src/lndtools`` written into
    ``scratch`` as the package ``lndtools_parent``."""
    package = scratch / PARENT_PACKAGE
    package.mkdir(parents=True)
    for path in git("ls-tree", "--name-only", commit, "src/lndtools/").split():
        if path.endswith(".py"):
            (package / Path(path).name).write_text(git("show", f"{commit}:{path}"),
                                                   encoding="utf-8")
    sys.path.insert(0, str(scratch))
    return importlib.import_module(f"{PARENT_PACKAGE}.cli").run_command


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--reps", type=int, default=5, help="runs of each command per side")
    parser.add_argument("--commands", type=int, metavar="K",
                        help="time only the first K commands of the pass")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    workload = workloads.build(args.workload, args.seed, ROOT)
    commands = [list(c.argv) for c in workload.commands if c.argv[0] != "python3"]
    commands = commands[:args.commands]
    best = {side: [float("inf")] * len(commands) for side in ("parent", "change")}
    differ = set()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        sides = {"parent": load_parent(args.parent, scratch / "parent"),
                 "change": run_command}
        (scratch / "run").mkdir()
        for file_name, text in workload.files.items():
            (scratch / "run" / file_name).write_text(text, encoding="utf-8")
        os.chdir(ROOT / "corpus" if args.workload == "corpus" else scratch / "run")
        try:
            for rep in range(args.reps):
                for n, command in enumerate(commands):
                    order = ("parent", "change") if (n + rep) % 2 == 0 else ("change", "parent")
                    results = {}
                    for side in order:
                        begin = time.perf_counter()
                        results[side] = sides[side](command)
                        best[side][n] = min(best[side][n], time.perf_counter() - begin)
                    if results["parent"] != results["change"]:
                        differ.add(n)
        finally:
            os.chdir(start)
    kinds: dict[str, list[int]] = defaultdict(list)
    for n, command in enumerate(commands):
        kinds[command[0]].append(n)
    rows = [*sorted(kinds.items()), ("total", range(len(commands)))]
    print(f"{args.workload} seed {args.seed}, {args.reps} reps, minimum per command "
          f"(ms): kind, commands, parent, change, change/parent")
    for kind, indices in rows:
        parent = sum(best["parent"][n] for n in indices) * 1000
        change = sum(best["change"][n] for n in indices) * 1000
        ratio = f"{change / parent:.3f}" if parent else "-"
        print(f"{kind:<16} {len(indices):>4} {parent:>10.2f} {change:>10.2f} {ratio:>7}")
    for n in sorted(differ):
        print(f"outputs differ: {' '.join(commands[n])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
