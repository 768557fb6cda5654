"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces each traced function with a timing wrapper at
every place it is bound: the defining module, every ``lndtools`` module
that imported it by name, and every class attribute that holds it (such
as ``Polynomial.__rmul__``, an alias of ``__mul__``).  Spans nest on one
stack, and a span's self time is its duration minus that of its child
spans.  Counts and times are summed in memory; :meth:`Tracer.metrics`
reports them per pass of the workload.  :meth:`Tracer.uninstall` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# span name -> (module, attribute path)
TARGETS = {
    "cli.run_command": ("lndtools.cli", "run_command"),
    "parsing.parse_spec": ("lndtools.parsing", "parse_spec"),
    "parsing.parse_polynomial": ("lndtools.parsing", "parse_polynomial"),
    "parsing.parse_polynomial_list": ("lndtools.parsing", "parse_polynomial_list"),
    "parsing.spec_derivation": ("lndtools.parsing", "spec_derivation"),
    "derivation.apply": ("lndtools.derivation", "Derivation.apply"),
    "derivation.apply_rational": ("lndtools.derivation", "Derivation.apply_rational"),
    "cylinder.plinth_membership": ("lndtools.cylinder", "plinth_membership"),
    "cylinder.preimage_search": ("lndtools.cylinder", "preimage_search"),
    "cylinder.build_preimage_system": ("lndtools.cylinder", "build_preimage_system"),
    "cylinder.dixmier_image": ("lndtools.cylinder", "dixmier_image"),
    "linalg.solve_exact": ("lndtools.linalg", "solve_exact"),
    "groebner.buchberger": ("lndtools.groebner", "buchberger"),
    "groebner.reduce_poly": ("lndtools.groebner", "reduce_poly"),
    "groebner.gcd_via_lcm": ("lndtools.groebner", "gcd_via_lcm"),
    "groebner.standard_monomials": ("lndtools.groebner", "standard_monomials"),
    "ratfun.simplify": ("lndtools.ratfun", "RationalFunction.simplify"),
    "ratfun.ratfun_eq_mod": ("lndtools.ratfun", "ratfun_eq_mod"),
    "poly.mul": ("lndtools.poly", "Polynomial.__mul__"),
}

# spans whose calls, and whose self times, are per-layer metrics
CALLS = ("cli.run_command", "derivation.apply", "cylinder.build_preimage_system",
         "linalg.solve_exact", "groebner.buchberger", "groebner.reduce_poly",
         "groebner.gcd_via_lcm", "ratfun.simplify", "poly.mul")
SELF_TIMES = ("derivation.apply", "derivation.apply_rational",
              "cylinder.build_preimage_system", "cylinder.dixmier_image",
              "linalg.solve_exact", "groebner.buchberger", "groebner.reduce_poly",
              "groebner.gcd_via_lcm", "groebner.standard_monomials",
              "ratfun.simplify", "ratfun.ratfun_eq_mod", "poly.mul")


def _resolve(module_name, path):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def binding_sites(original):
    """Every (owner, attribute) in the ``lndtools`` modules, and in the
    classes they define, whose value is ``original``."""
    sites, seen = [], set()
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "lndtools":
            continue
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__.startswith("lndtools")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original and (id(owner), attr) not in seen:
                    seen.add((id(owner), attr))
                    sites.append((owner, attr))
    return sites


def traced_targets():
    """Span name -> original function, for every target that exists, with
    each ``format_*`` function of ``lndtools.printing`` added."""
    printing = importlib.import_module("lndtools.printing")
    targets = {name: _resolve(*where) for name, where in TARGETS.items()}
    for attr, value in vars(printing).items():
        if attr.startswith("format_") and getattr(value, "__module__", None) == printing.__name__:
            targets[f"printing.{attr}"] = value
    return {name: fn for name, fn in targets.items() if fn is not None}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.missing = []
        self._stack = []          # child time of each open span
        self._open = Counter()    # open spans per name
        self._patches = []
        self._solves = []         # (matrix, result) of the current command
        self._columns = set()     # column sets built in the current command

    # ------------------------------------------------------------------

    def install(self):
        hooks = {
            "linalg.solve_exact": self._after_solve,
            "cylinder.build_preimage_system": self._after_build,
            "cylinder.preimage_search": self._after_search,
        }
        targets = traced_targets()
        self.missing = sorted(set(TARGETS) - set(targets))
        for name, original in targets.items():
            wrapper = self._wrap(name, original, hooks.get(name))
            for owner, attr in binding_sites(original):
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, after):
        calls, self_s, stack, open_ = self.calls, self.self_s, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            open_[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                open_[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # hooks run after the span closes and only keep references; the
    # counting happens in end_command, outside every span

    def _after_solve(self, args, result):
        self._solves.append((args[0] if args else None, result))

    def _after_build(self, args, result):
        if isinstance(result, tuple) and result:
            self._columns.add(result[0])

    def _after_search(self, args, result):
        self.counts["searches"] += 1
        self.counts["searches_in_plinth"] += bool(self._open["cylinder.plinth_membership"])
        self.counts["found"] += bool(getattr(result, "found", False))

    def end_command(self):
        """Fold the current command's systems into the counts."""
        for matrix, result in self._solves:
            self.counts["cells"] += getattr(matrix, "rows", 0) * getattr(matrix, "cols", 0)
            self.counts["nnz"] += sum(1 for row in getattr(matrix, "entries", ())
                                      for v in row if v)
            self.counts["inconsistent"] += type(result).__name__ == "Inconsistency"
        self.counts["distinct_columns"] += len(self._columns)
        self._solves.clear()
        self._columns.clear()

    # ------------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Counts and self times per pass, and the ratios."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def layer(prefix):
            return sum(t for name, t in self_s.items() if name.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        totals = {
            "cli.self_s": layer("cli."),
            "parsing.self_s": layer("parsing."),
            "printing.self_s": layer("printing."),
            "linalg.cells": counts["cells"],
            "linalg.nnz": counts["nnz"],
        }
        totals.update({f"{span}.calls": calls[span] for span in CALLS})
        totals.update({f"{span}.self_s": self_s[span] for span in SELF_TIMES})
        values = {name: total / passes for name, total in totals.items()}
        values.update({
            "cylinder.powers_per_search": ratio(counts["searches_in_plinth"],
                                                calls["cylinder.plinth_membership"]),
            "cylinder.found_ratio": ratio(counts["found"], counts["searches"]),
            "linalg.density": ratio(counts["nnz"], counts["cells"]),
            "linalg.certificate_ratio": ratio(counts["inconsistent"],
                                              calls["linalg.solve_exact"]),
            "linalg.rhs_per_columns": ratio(calls["linalg.solve_exact"],
                                            counts["distinct_columns"]),
        })
        return values
