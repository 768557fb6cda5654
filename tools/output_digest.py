"""One sha256 over the outputs of the benchmark's commands.

Builds the ``corpus``, ``search`` and ``ideals`` workloads of
``perfbench/workloads.py`` at seeds 3 and 7, runs every ``lnd`` command
of each pass once through ``lndtools.cli.run_command``, and prints the
number of commands and one digest over their ``(exit code, report)``
pairs.  The corpus scripts are skipped: the golden transcripts cover
them.  Two checkouts that print the same digest give the same outputs
on all of these commands.  With ``--expect`` the exit code says whether
the digest is the given one: 0 when it is, and 1, with the expected
digest printed under the computed one, when it is not.  With ``--dump``
each command is also written to PATH as one JSON line with its workload,
seed, argv, exit code and report, so two dumps show which commands differ.

    python3 tools/output_digest.py [--expect SHA256] [--dump PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from lndtools.cli import run_command  # noqa: E402

SEEDS = (3, 7)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit 1 unless the digest is this one")
    parser.add_argument("--dump", metavar="PATH", type=Path,
                        help="write one JSON line per command to PATH")
    args = parser.parse_args(argv)
    expect = args.expect
    digest = hashlib.sha256()
    lines = []
    count = 0
    start = os.getcwd()
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, seed, ROOT)
            with tempfile.TemporaryDirectory() as scratch:
                for file_name, text in workload.files.items():
                    (Path(scratch) / file_name).write_text(text, encoding="utf-8")
                os.chdir(ROOT / "corpus" if name == "corpus" else scratch)
                try:
                    for command in workload.commands:
                        if command.argv[0] == "python3":
                            continue
                        code, report = run_command(list(command.argv))
                        digest.update(json.dumps([code, report]).encode() + b"\n")
                        count += 1
                        lines.append(json.dumps({
                            "workload": name, "seed": seed, "argv": command.argv,
                            "code": code, "report": report}) + "\n")
                finally:
                    os.chdir(start)
    if args.dump:
        args.dump.write_text("".join(lines), encoding="utf-8")
    print(f"{count} commands")
    print(f"sha256 {digest.hexdigest()}")
    if expect is not None and expect.lower() != digest.hexdigest():
        print(f"expected {expect}: the outputs differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
