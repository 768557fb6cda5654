"""Exact linear algebra over the rationals.

Sparse Gaussian elimination on row dicts with fraction-free-ish pivoting:
the pivot in each column is the candidate with the smallest numerator
(then smallest denominator, then row), which keeps intermediate fractions
modest.  Infeasible systems come back with a checkable certificate: a row
vector y with y*A = 0 and y*b != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)


class QMatrix:
    """Immutable sparse matrix of Fractions: ``entries[i]`` holds the
    nonzero ``(column, value)`` pairs of row i in column order, the values
    given for one column summed."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, cols: int, rows: Iterable[Iterable[tuple[int, object]]]):
        data = []
        for row in rows:
            merged: dict[int, Fraction] = {}
            for col, value in row:
                if not 0 <= col < cols:
                    raise ValueError(f"column {col} outside range({cols})")
                merged[col] = merged.get(col, _ZERO) + Fraction(value)
            data.append(tuple(sorted((c, v) for c, v in merged.items() if v)))
        self.entries = tuple(data)
        self.rows = len(data)
        self.cols = cols


@dataclass(frozen=True)
class Inconsistency:
    """Proof that A*x = b has no solution: multipliers combining the rows
    of A to zero while combining b to a nonzero value."""

    multipliers: tuple[Fraction, ...]
    value: Fraction

    def verify(self, matrix: QMatrix, rhs: Sequence) -> bool:
        ys = self.multipliers
        if len(ys) != matrix.rows or len(rhs) != matrix.rows:
            return False
        combined: dict[int, Fraction] = {}
        for y, row in zip(ys, matrix.entries):
            for col, value in row:
                combined[col] = combined.get(col, _ZERO) + y * value
        if any(combined.values()):
            return False
        total = sum((y * Fraction(v) for y, v in zip(ys, rhs)), _ZERO)
        return total == self.value and self.value != 0


def _subtract(target: dict, factor: Fraction, source: dict) -> None:
    """target -= factor * source, dropping the entries that cancel."""
    for key, value in source.items():
        updated = target.get(key, _ZERO) - factor * value
        if updated:
            target[key] = updated
        else:
            del target[key]


def solve_exact(matrix: QMatrix, rhs: Sequence):
    """Solve A*x = b exactly.

    Returns a tuple of Fractions (free variables pinned to zero) or an
    :class:`Inconsistency` certificate.
    """
    m, n = matrix.rows, matrix.cols
    b = [Fraction(v) for v in rhs]
    if len(b) != m:
        raise ValueError("right-hand side length does not match row count")
    a = [dict(row) for row in matrix.entries]
    # Trace row operations so an inconsistent row yields its multipliers:
    # trace[i] maps original rows to their multiplier in current row i.
    trace = [{i: Fraction(1)} for i in range(m)]

    def certificate(row: int) -> Inconsistency:
        return Inconsistency(tuple(trace[row].get(i, _ZERO) for i in range(m)),
                             b[row])

    for i in range(m):
        if not a[i] and b[i]:
            return certificate(i)

    pivots: list[tuple[int, int]] = []
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        candidates = [r for r in range(pivot_row, m) if col in a[r]]
        if not candidates:
            continue
        best = min(candidates, key=lambda r: (abs(a[r][col].numerator),
                                              a[r][col].denominator, r))
        a[best], a[pivot_row] = a[pivot_row], a[best]
        b[best], b[pivot_row] = b[pivot_row], b[best]
        trace[best], trace[pivot_row] = trace[pivot_row], trace[best]
        pivot, inv = a[pivot_row], 1 / a[pivot_row][col]
        # after the swap the old pivot row, if it was a candidate, sits at best
        for r in sorted(best if r == pivot_row else r
                        for r in candidates if r != best):
            factor = a[r][col] * inv
            _subtract(a[r], factor, pivot)
            b[r] -= factor * b[pivot_row]
            _subtract(trace[r], factor, trace[pivot_row])
            if not a[r] and b[r]:
                return certificate(r)
        pivots.append((pivot_row, col))
        pivot_row += 1

    # Every row below the pivots is now empty with b[r] = 0: an empty row
    # is never updated, and the checks above return on any other one.
    # solution[col] is still zero when its own row is summed.
    solution = [_ZERO] * n
    for row, col in reversed(pivots):
        known = sum((v * solution[c] for c, v in a[row].items()), _ZERO)
        solution[col] = (b[row] - known) / a[row][col]
    return tuple(solution)
