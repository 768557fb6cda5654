"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line.  The
commands run as a closed loop with one client: each ``lnd`` invocation
goes through ``lndtools.cli.run_command`` only after the previous one
returned.  Whole passes over the workload's command list repeat until
``--seconds`` have gone by and at least ``MIN_SAMPLES`` commands ran.
Command times are scaled to the reference speed (see ``reference.py``);
rates are medians over the workload's rounds.

With ``--trace 1`` it runs one untraced pass, then traced passes for
``--seconds``, and reports the per-layer metrics of the traced passes.
Every output is checked after the timed loops.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.util
import json
import os
import resource
import shlex
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lndtools.cli  # noqa: E402

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from reference import NOMINAL_S, reference_time  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_SAMPLES = 100     # so that ten samples lie beyond the 90th percentile
DEADLINE_S = 120      # no new pass starts after this
REFERENCE_EVERY_S = 0.02   # of command time between two reference samples


def execute(command):
    """(exit code, report) of one invocation."""
    if command.argv[0] == "python3":
        path = Path(command.argv[1]).resolve()
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.run()
    return lndtools.cli.run_command(list(command.argv))


class Run:
    """Samples of a closed loop over whole passes, with the reference loop
    timed between commands (see :mod:`reference`)."""

    def __init__(self):
        self.samples = []     # (command index, wall s, cpu s, code, report, error)
        self.rounds = []      # number of samples after each round
        self.passes = 0
        self.marks = []       # (samples before it, wall s, cpu s) of each reference run

    def loop(self, workload, seconds, min_samples, tracer=None):
        start = time.perf_counter()
        since = 0.0
        self.marks.append((len(self.samples), *reference_time()))
        while True:
            for index, command in enumerate(workload.commands):
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    code, report = execute(command)
                    error = None
                except (Exception, SystemExit):
                    code, report, error = None, None, traceback.format_exc(limit=3)
                cpu = time.process_time() - cpu
                wall = time.perf_counter() - wall
                self.samples.append((index, wall, cpu, code, report, error))
                if tracer is not None:
                    tracer.end_command()
                since += wall
                if since >= REFERENCE_EVERY_S or index == len(workload.commands) - 1:
                    self.marks.append((len(self.samples), *reference_time()))
                    since = 0.0
                if (index + 1) % workload.round_size == 0:
                    self.rounds.append(len(self.samples))
            self.passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= DEADLINE_S or (elapsed >= seconds
                                         and len(self.samples) >= min_samples):
                return

    def scaled(self):
        """(wall s, cpu s) of each sample at the reference speed: scaled by
        the reference loop's times just before and just after it."""
        ran_before = [m[0] for m in self.marks]
        out = []
        for i, sample in enumerate(self.samples):
            j = bisect.bisect_left(ran_before, i + 1)
            before, after = self.marks[j - 1], self.marks[j]
            out.append((sample[1] * 2 * NOMINAL_S / (before[1] + after[1]),
                        sample[2] * 2 * NOMINAL_S / (before[2] + after[2])))
        return out

    def end_to_end(self, times):
        """The end-to-end metrics of (wall s, cpu s) per sample."""
        walls = [1000 * wall for wall, _ in times]
        per_round = [(end - start, sum(w for w, _ in times[start:end]),
                      sum(c for _, c in times[start:end]))
                     for start, end in zip([0] + self.rounds, self.rounds)]
        p90 = statistics.quantiles(walls, n=10)[-1]
        return {
            "verdicts_per_s": statistics.median(n / wall for n, wall, _ in per_round),
            "lat_p50_ms": statistics.median(walls),
            "lat_p90_ms": p90,
            "cpu_per_verdict_ms": statistics.median(1000 * cpu / n
                                                    for n, _, cpu in per_round),
        }, sum(w > p90 for w in walls)

    def unscaled(self):
        """(wall s, cpu s) of each sample as measured."""
        return [sample[1:3] for sample in self.samples]


def check(workload, samples, reference=None):
    """One reason per failed sample; each distinct output is checked once.
    With ``reference`` (command index -> (code, report)), an output that
    differs from it fails too."""
    checker = Checker(workload)
    verdicts = {}
    reasons = []
    for index, _, _, code, report, error in samples:
        command = workload.commands[index]
        key = (index, code, report)
        if error is not None:
            reason = f"raised\n{error}"
        elif reference is not None and reference[index] != (code, report):
            reason = "traced output differs from untraced"
        else:
            if key not in verdicts:
                verdicts[key] = checker(command, code, report)
            reason = verdicts[key]
        if reason:
            reasons.append(f"{shlex.join(command.argv)[:200]}: {reason}")
    return reasons


def traced_run(workload, seconds):
    """One untraced pass, then traced passes for ``seconds``; every output
    is checked, and each traced one must equal its untraced one."""
    plain, traced, tracer = Run(), Run(), Tracer()
    plain.loop(workload, 0, 1)
    tracer.install()
    try:
        traced.loop(workload, seconds, 1, tracer)
    finally:
        tracer.uninstall()
    reference = {s[0]: s[3:5] for s in plain.samples}
    failures = check(workload, plain.samples) \
        + check(workload, traced.samples, reference)
    return plain, traced, tracer, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True,
                        help="empty directory for the generated input files")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, ROOT)
    for name, text in workload.files.items():
        (Path(args.dir) / name).write_text(text, encoding="utf-8")
    os.chdir(ROOT / "corpus" if args.workload == "corpus" else args.dir)

    out = {}
    if not args.trace:
        run = Run()
        run.loop(workload, args.seconds, MIN_SAMPLES)
        out["metrics"], out["beyond_p90"] = run.end_to_end(run.scaled())
        out["unscaled"], _ = run.end_to_end(run.unscaled())
        # before the checks, which allocate too
        out["metrics"]["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check(workload, run.samples)
    else:
        plain, traced, tracer, failures = traced_run(workload, args.seconds)
        run = traced
        out["metrics"] = tracer.metrics(traced.passes)
        out["untraced_verdicts_per_s"] = plain.end_to_end(plain.scaled())[0]["verdicts_per_s"]
        out["traced_verdicts_per_s"] = traced.end_to_end(traced.scaled())[0]["verdicts_per_s"]
        out["missing_spans"] = tracer.missing
    out["reference_ms"] = 1000 * statistics.median(m[1] for m in run.marks)
    out["attempted"] = len(run.samples) + (len(plain.samples) if args.trace else 0)
    out["failed"] = len(failures)
    out["failures"] = failures[:5]
    out["passes"] = run.passes
    out["samples"] = len(run.samples)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
