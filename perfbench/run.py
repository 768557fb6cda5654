"""Benchmark of the ``lnd`` command line: one workload, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it measures the set-up time (a fresh interpreter
importing ``lndtools.cli``) and then the workload in a fresh worker
process, and reports the end-to-end metrics.  With ``--trace 1`` it
reports the per-layer metrics of a traced run instead.  A line starting
with ``context`` gives the machine, the code and the sample counts; the
last line is the result as JSON.  Exits with 2, printing no result, when
the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170


def setup_seconds() -> tuple[float, float]:
    """Median, over fresh interpreters, of the time from their first
    statement until ``lndtools.cli`` is imported and its parser built, so
    the first command could run: scaled to the reference speed (see
    ``reference.py``) by the reference loop run right after, and unscaled.
    One untimed start before them fills the bytecode cache."""
    code = ("import time; start = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(SRC)!r}); import lndtools.cli; "
            "lndtools.cli.build_parser(); elapsed = time.perf_counter() - start; "
            f"sys.path.insert(0, {str(HERE)!r}); import reference, statistics; "
            "ref = statistics.median(reference.reference_time()[0] for _ in range(5)); "
            "print(elapsed, elapsed * reference.NOMINAL_S / ref)")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append([float(v) for v in done.stdout.split()])
    return (statistics.median(scaled for _, scaled in times[1:]),
            statistics.median(raw for raw, _ in times[1:]))


def context(args, worker, unscaled) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "cpu_model": cpu,
        "nproc": os.cpu_count(), "commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "lndtools").glob("*.py"))),
        "reference_ms": worker["reference_ms"],
        "passes": worker["passes"], "samples": worker["samples"],
        "fail_ratio": worker["failed"] / worker["attempted"],
        "failures": worker["failures"],
    }
    if args.trace:
        out["tracing"] = {
            "untraced_verdicts_per_s": worker["untraced_verdicts_per_s"],
            "traced_verdicts_per_s": worker["traced_verdicts_per_s"],
            "slowdown": worker["untraced_verdicts_per_s"]
            / worker["traced_verdicts_per_s"],
            "missing_spans": worker["missing_spans"],
        }
    else:
        out["beyond_p90"] = worker["beyond_p90"]
        out["unscaled"] = unscaled
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "lndtools" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no lndtools checkout at {ROOT}", file=sys.stderr)
        return 2

    metrics, unscaled = {}, {}
    if not args.trace:
        metrics["setup_s"], unscaled["setup_s"] = setup_seconds()
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--dir", work],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    metrics.update(worker["metrics"])
    unscaled.update(worker.get("unscaled", {}))
    print("context " + json.dumps(context(args, worker, unscaled)))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
