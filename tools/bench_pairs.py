"""Alternating parent/change pairs of benchmark runs, in one JSON file.

    python3 tools/bench_pairs.py --parent COMMIT --out BENCH_<n>.json [--note TEXT]

The change is this checkout's working tree, which must differ from the
parent, the commit ``--parent`` names, cloned into a temporary directory
that is removed afterwards.  For every workload of ``BENCHMARK.json``,
``perfbench/run.py --trace 0`` runs once in each checkout per pair, ten
pairs at seed 13 and the benchmark's run length, the parent first in odd
pairs, so that slow spells of a shared machine fall on both sides.  Then
two traced ``search`` passes per side, alternating, give the per-layer
figures.  The file holds, per workload and side, the first pair's result
line, every run, and the median and quartiles of each end-to-end metric;
per metric, the pairs the change won, the relative change of the median,
whether that is within the bound of ``BENCHMARK.json``, and the parent's
interquartile range over its median; and the ``src/lndtools`` line count
of each side.  A run that fails ends the tool with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SIDES = ("parent", "change")
PAIRS, SEED, TRACE_RUNS = 10, 13, 2


def run(checkout: Path, workload: str, trace: int) -> tuple[dict, dict]:
    """(context, result) of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(BENCHMARK["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited with "
                         f"{done.returncode}: {done.stderr.strip()}")
    context = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("context "))
    return context, json.loads(lines[-1])


def summary(results: list[dict]) -> dict:
    """One side of a workload: the first run, every run, and the spread."""
    runs = {name: [round(r["metrics"][name]["value"], 4) for r in results]
            for name in END_TO_END}
    return {
        "first_pair": results[0],
        "median": {name: round(statistics.median(v), 4) for name, v in runs.items()},
        "quartiles": {name: [round(q, 4) for q in _quartiles(v)]
                      for name, v in runs.items()},
        "runs": runs,
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "correct": all(r["correct"] for r in results),
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def comparison(parent: dict, change: dict) -> dict:
    """Per end-to-end metric: the change against the parent, pair by pair
    and in the median."""
    out = {}
    for name, metric in END_TO_END.items():
        higher = metric["better"] == "higher"
        pairs = zip(parent["runs"][name], change["runs"][name])
        wins = sum(c > p if higher else c < p for p, c in pairs)
        base = parent["median"][name]
        relative = (change["median"][name] - base) / base if base else 0.0
        q1, q3 = parent["quartiles"][name]
        out[name] = {
            "change_wins": wins,
            "relative_change_of_median": round(relative, 4),
            "within_bound": (relative >= -metric["bound"] if higher
                             else relative <= metric["bound"]),
            "parent_iqr_over_median": round((q3 - q1) / base, 4) if base else 0.0,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--note", default="", help="what the change is")
    args = parser.parse_args(argv)
    found = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                           cwd=ROOT, capture_output=True, text=True)
    if found.returncode != 0:
        raise SystemExit(f"{args.parent} names no commit")
    commit = found.stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", commit, "--"], cwd=ROOT).returncode == 0:
        raise SystemExit(f"the working tree does not differ from {args.parent}: "
                         "there is no change to compare")
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent = scratch / "parent"
    try:
        subprocess.run(["git", "clone", "--quiet", "--shared", "--no-checkout",
                        str(ROOT), str(parent)], check=True)
        subprocess.run(["git", "checkout", "--quiet", "--detach", commit],
                       cwd=parent, check=True)
        checkouts = {"parent": parent, "change": ROOT}
        contexts: dict[str, dict] = {}
        workloads = {}
        for workload in WORKLOADS:
            results: dict[str, list] = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    context, result = run(checkouts[side], workload, 0)
                    contexts[side] = context
                    results[side].append(result)
                    print(f"{workload} pair {pair + 1} {side}: verdicts_per_s "
                          f"{result['metrics']['verdicts_per_s']['value']:.2f}",
                          file=sys.stderr)
            sides = {side: summary(results[side]) for side in SIDES}
            workloads[workload] = {"pairs": PAIRS, **sides,
                                   "comparison": comparison(*sides.values())}
        trace: dict = {side: {} for side in SIDES}
        for n in range(TRACE_RUNS):
            for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                _, result = run(checkouts[side], "search", 1)
                for name, metric in result["metrics"].items():
                    trace[side].setdefault(name, []).append(round(metric["value"], 4))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    context = contexts.get("change", {})
    report = {
        "description": (
            f"perfbench result lines (python3 perfbench/run.py --workload W --seed "
            f"{SEED} --seconds {BENCHMARK['run_seconds']} --trace 0) for the parent "
            f"commit and for this change, run by tools/bench_pairs.py as {PAIRS} "
            "alternating pairs per workload on one machine, the parent first in odd "
            "pairs; 'first_pair' holds the result line of the first pair, 'median' "
            "and 'quartiles' the per-metric median and first and third quartiles "
            "over all pairs, 'runs' every run in pair order, and 'comparison' the "
            "number of pairs the change won, the relative change of the median, "
            "whether it is within the benchmark's bound, and the parent's "
            "interquartile range over its median.  'trace' holds the per-layer "
            f"figures of {TRACE_RUNS} traced search passes per side (--trace 1),"
            " alternating, one value per pass." + (args.note and f"  {args.note}")),
        "parent_commit": commit,
        "machine": f"{context.get('cpu_model')}, {context.get('nproc')} cores",
        "python": context.get("python"),
        "src_lines": {side: contexts[side]["src_lines"] for side in SIDES
                      if side in contexts},
        "trace": trace,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, entry in workloads.items():
        c = entry["comparison"]["verdicts_per_s"]
        print(f"{name}: verdicts_per_s {entry['parent']['median']['verdicts_per_s']}"
              f" -> {entry['change']['median']['verdicts_per_s']}, change won "
              f"{c['change_wins']} of {PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
