"""Alternating parent/change pairs of benchmark runs, in one JSON file.

    python3 tools/bench_pairs.py --parent COMMIT --out BENCH_<n>.json \
        [--held-out SEED] [--note TEXT]

The change is this checkout's working tree, which must differ from the
parent, the commit ``--parent`` names, cloned into a temporary directory
that is removed afterwards.  For every workload of ``BENCHMARK.json``,
``perfbench/run.py --trace 0`` runs once in each checkout per pair, ten
pairs at seed 13 and the benchmark's run length, the parent first in odd
pairs, so that slow spells of a shared machine fall on both sides.  Then
two traced ``search`` passes per side, alternating, give the per-layer
figures, and two processes per side and workload, alternating, each run
one warm-up pass and three passes through ``run_command`` and report their
peak RSS and the CPU time of each pass.  The file holds, per workload and
side, the first pair's result line, every run, with the number of samples
each kept (the worker holds every report until it ends, so its
``peak_rss_mb`` grows with them), and the median and quartiles of each
end-to-end metric; per metric, the pairs the change won, the relative
change of the median, whether that is within the bound of
``BENCHMARK.json``, and the parent's interquartile range over its median;
and the ``src/lndtools`` line count of each side.  With ``--held-out``,
three more pairs per workload at that seed, one not used while the change
was written, are kept in the same shape under ``held_out``.  A run that
fails ends the tool with exit code 1.

Standard output gets one line per end-to-end metric of every workload
(and of every held-out workload): the parent's and the change's medians,
the relative change of the median against the metric's bound, the pairs
the change won, and a flag when the change is past its bound or within 2
points of it, with the median samples of each side beside ``peak_rss_mb``.
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
PAIRS, SEED, HELD_OUT_PAIRS, TRACE_RUNS, PASS_RUNS = 10, 13, 3, 2, 2
NEAR = 0.02   # a relative change this close to its bound is flagged

# argv: checkout, workload, seed; one warm-up pass and three passes of the
# workload's lnd commands in this process, then one JSON line
PASSES = """
import json, os, resource, sys, tempfile, time
from pathlib import Path
root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
from lndtools.cli import run_command
workload = workloads.build(name, seed, root)
commands = [list(c.argv) for c in workload.commands if c.argv[0] != "python3"]
cpu = []
with tempfile.TemporaryDirectory() as scratch:
    for file_name, text in workload.files.items():
        (Path(scratch) / file_name).write_text(text, encoding="utf-8")
    os.chdir(root / "corpus" if name == "corpus" else scratch)
    for _ in range(4):
        start = time.process_time()
        for argv in commands:
            run_command(argv)
        cpu.append(round(time.process_time() - start, 4))
    os.chdir(root)
print(json.dumps({"maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF)
                                     .ru_maxrss / 1024, 2), "pass_cpu_s": cpu[1:]}))
"""


def run(checkout: Path, workload: str, trace: int, seed: int = SEED) -> tuple[dict, dict]:
    """(context, result) of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited with "
                         f"{done.returncode}: {done.stderr.strip()}")
    context = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("context "))
    return context, json.loads(lines[-1])


def passes(checkout: Path, workload: str) -> dict:
    """Peak RSS and per-pass CPU of one warm-up and three passes in one
    process, as ``PASSES`` reports them."""
    argv = [sys.executable, "-c", PASSES, str(checkout), workload, str(SEED)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"passes of {workload} in {checkout} exited with "
                         f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(results: list[dict], samples: list[int]) -> dict:
    """One side of a workload: the first run, every run with the samples
    it kept, and the spread."""
    runs = {name: [round(r["metrics"][name]["value"], 4) for r in results]
            for name in END_TO_END}
    runs["samples"] = samples
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


def pairs(checkouts: dict[str, Path], workload: str, seed: int, count: int,
          contexts: dict[str, dict]) -> dict:
    """``count`` alternating pairs of one workload at ``seed``, the parent
    first in odd pairs: each side's summary and their comparison."""
    results: dict[str, list] = {side: [] for side in SIDES}
    samples: dict[str, list] = {side: [] for side in SIDES}
    for pair in range(count):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            context, result = run(checkouts[side], workload, 0, seed)
            contexts[side] = context
            results[side].append(result)
            samples[side].append(context["samples"])
            print(f"{workload} seed {seed} pair {pair + 1} {side}: verdicts_per_s "
                  f"{result['metrics']['verdicts_per_s']['value']:.2f}", file=sys.stderr)
    sides = {side: summary(results[side], samples[side]) for side in SIDES}
    return {"pairs": count, "seed": seed, **sides, "comparison": comparison(*sides.values())}


def metric_lines(name: str, entry: dict) -> list[str]:
    """One line per end-to-end metric of a workload's pairs."""
    lines = []
    for metric, c in entry["comparison"].items():
        bound = END_TO_END[metric]["bound"]
        relative = c["relative_change_of_median"]
        margin = bound + (relative if END_TO_END[metric]["better"] == "higher" else -relative)
        flag = ("  PAST BOUND" if not c["within_bound"]
                else "  NEAR BOUND" if margin <= NEAR else "")
        line = (f"{name} seed {entry['seed']} {metric}: {entry['parent']['median'][metric]} -> "
                f"{entry['change']['median'][metric]} ({relative:+.1%}, bound "
                f"{bound:.0%}), change won {c['change_wins']} of {entry['pairs']}{flag}")
        if metric == "peak_rss_mb":
            line += (f"; samples {entry['parent']['median']['samples']:.0f} -> "
                     f"{entry['change']['median']['samples']:.0f}")
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--held-out", type=int, metavar="SEED",
                        help=f"also run {HELD_OUT_PAIRS} pairs per workload at this seed")
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
        workloads = {w: pairs(checkouts, w, SEED, PAIRS, contexts) for w in WORKLOADS}
        held_out = {w: pairs(checkouts, w, args.held_out, HELD_OUT_PAIRS, contexts)
                    for w in WORKLOADS} if args.held_out is not None else {}
        trace: dict = {side: {} for side in SIDES}
        for n in range(TRACE_RUNS):
            for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                _, result = run(checkouts[side], "search", 1)
                for name, metric in result["metrics"].items():
                    trace[side].setdefault(name, []).append(round(metric["value"], 4))
        in_process: dict = {side: {} for side in SIDES}
        for workload in WORKLOADS:
            for n in range(PASS_RUNS):
                for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                    in_process[side].setdefault(workload, []).append(
                        passes(checkouts[side], workload))
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
            " alternating, one value per pass.  'runs' also holds the samples of "
            "each run, since the worker's peak_rss_mb grows with them.  "
            f"'in_process' holds, per side and workload, {PASS_RUNS} processes, "
            "alternating, each with its peak RSS after one warm-up pass and three "
            "passes through run_command, and the CPU seconds of those three.  "
            f"'held_out' holds {HELD_OUT_PAIRS} more pairs per workload in the same "
            "shape at the seed that 'seed' names, when one was given."
            + (args.note and f"  {args.note}")),
        "parent_commit": commit,
        "machine": f"{context.get('cpu_model')}, {context.get('nproc')} cores",
        "python": context.get("python"),
        "src_lines": {side: contexts[side]["src_lines"] for side in SIDES
                      if side in contexts},
        "trace": trace,
        "in_process": in_process,
        "workloads": workloads,
        "held_out": held_out,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, entry in [*workloads.items(), *held_out.items()]:
        print("\n".join(metric_lines(name, entry)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
