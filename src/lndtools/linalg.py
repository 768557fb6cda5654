"""Exact linear algebra over the rationals.

Sparse Gaussian elimination on row dicts with fraction-free-ish pivoting:
the pivot in each column is the candidate with the smallest numerator
(then smallest denominator, then earliest in the elimination order), which
keeps intermediate fractions modest.  Infeasible systems come back with a
checkable certificate: a row vector y with y*A = 0 and y*b != 0.

Entries follow the coefficient rule of :mod:`lndtools.poly`: a plain
``int`` when integral, otherwise a ``Fraction`` whose denominator is not
1, and two ``int``s are divided only through ``_divide``.  Solutions and
certificates are handed out as ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Scalar, _divide, _exact, _integral


class QMatrix:
    """Immutable sparse matrix of rationals: ``entries[i]`` holds the
    nonzero ``(column, value)`` pairs of row i in column order, the values
    given for one column summed."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, cols: int, rows: Iterable[Iterable[tuple[int, object]]]):
        data = []
        for row in rows:
            merged: dict[int, Scalar] = {}
            for col, value in row:
                if not 0 <= col < cols:
                    raise ValueError(f"column {col} outside range({cols})")
                merged[col] = _integral(merged.get(col, 0) + _exact(value))
            data.append(tuple(sorted((c, v) for c, v in merged.items() if v)))
        self.entries = tuple(data)
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def _from_clean(cls, cols: int,
                    rows: Iterable[tuple[tuple[int, Scalar], ...]]) -> "QMatrix":
        """Wrap rows that are clean by construction, without merging or
        sorting: each is a tuple of ``(column, value)`` pairs in strictly
        increasing column order, every value a nonzero entry as the module
        docstring states.  Columns are still checked against ``cols``."""
        out = cls.__new__(cls)
        out.entries = tuple(rows)
        for row in out.entries:
            # pairs come in column order, so the ends bound every column
            if row and not (0 <= row[0][0] and row[-1][0] < cols):
                raise ValueError(f"a column of {row} is outside range({cols})")
        out.rows = len(out.entries)
        out.cols = cols
        return out


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
        combined: dict[int, Scalar] = {}
        total: Scalar = 0
        for y, row, v in zip(ys, matrix.entries, rhs):
            if y:
                for col, value in row:
                    combined[col] = combined.get(col, 0) + y * value
                total += y * _exact(v)
        return not any(combined.values()) and total == self.value != 0


def _subtract(target: dict, factor: Scalar, source: dict) -> None:
    """target -= factor * source, dropping the entries that cancel."""
    for key, value in source.items():
        updated = _integral(target.get(key, 0) - factor * value)
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
    b = [_exact(v) for v in rhs]
    if len(b) != m:
        raise ValueError("right-hand side length does not match row count")
    a = [dict(row) for row in matrix.entries]
    # where[col] holds every row with an entry in col, and perhaps rows
    # whose entry there has cancelled since
    where: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for col in row:
            where[col].add(i)
    # Trace row operations so an inconsistent row yields its multipliers:
    # trace[i] maps original rows to their multiplier in row i as it is now.
    trace = [{i: 1} for i in range(m)]

    def certificate(row: int) -> Inconsistency:
        return Inconsistency(tuple(Fraction(trace[row].get(i, 0)) for i in range(m)),
                             Fraction(b[row]))

    for i in range(m):
        if not a[i] and b[i]:
            return certificate(i)

    # Rows keep their index: at[p] is the row in place p of the elimination
    # order and place[r] the place of row r; the pivots take the first places.
    at = list(range(m))
    place = list(range(m))
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        done = len(pivots)
        if done == m:
            break
        candidates = [r for r in where[col] if place[r] >= done and col in a[r]]
        if not candidates:
            continue
        best = min(candidates, key=lambda r: (abs(a[r][col].numerator),
                                              a[r][col].denominator, place[r]))
        other = at[done]
        at[done], at[place[best]] = best, other
        place[best], place[other] = done, place[best]
        pivot, value = a[best], a[best][col]
        for r in sorted((r for r in candidates if r != best), key=place.__getitem__):
            factor = _divide(a[r][col], value)
            _subtract(a[r], factor, pivot)
            for c in pivot:
                where[c].add(r)
            b[r] = _integral(b[r] - factor * b[best])
            _subtract(trace[r], factor, trace[best])
            if not a[r] and b[r]:
                return certificate(r)
        pivots.append((best, col))

    # Every row but the pivots is now empty with b[r] = 0: an empty row
    # is never updated, and the checks above return on any other one.
    # solution[col] is still zero when its own row is summed.
    solution: list[Scalar] = [0] * n
    for row, col in reversed(pivots):
        known = sum(v * solution[c] for c, v in a[row].items())
        solution[col] = _divide(b[row] - known, a[row][col])
    return tuple(Fraction(v) for v in solution)
