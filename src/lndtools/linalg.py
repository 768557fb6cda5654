"""Exact linear algebra over the rationals.

Sparse Gaussian elimination on integer rows, each with one positive
denominator: row r stands for ``a[r]/den[r] = b[r]/den[r]``, and its trace
of multipliers shares ``den[r]``.  A row is cleared of the pivot column by
integer multiples of itself and the pivot row, then divided by the gcd of
all its integers, since sparse pivoting breaks the exact divisions of
Bareiss (1968).  The pivot in each column is the candidate whose rational
entry has the smallest reduced numerator (then reduced denominator, then
place in the elimination order), which keeps the integers modest.
Infeasible systems come back with a checkable certificate: a row vector y
with y*A = 0 and y*b != 0.  Solutions and certificates are ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import Scalar, _cleared, _divide, _exact, _integral


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
        increasing column order, every value nonzero and clean as in
        :mod:`lndtools.poly`.  Columns are still checked against ``cols``."""
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


def _combine(target: dict, f: int, h: int, source: dict) -> None:
    """target = f*target - h*source, dropping the entries that cancel."""
    if f != 1:
        for key in target:
            target[key] *= f
    for key, value in source.items():
        updated = target.get(key, 0) - h * value
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
    # Row r stands for the equation a[r]/den[r] = b[r]/den[r], all of it
    # integral.  A system that holds a Fraction is cleared row by row, the
    # right-hand side with its row as column -1; an all-int one is kept.
    a = [dict(row) for row in matrix.entries]
    den = [1] * m
    if lcm(*[v.denominator for row in a for v in row.values()],
           *[v.denominator for v in b]) > 1:
        for r, row in enumerate(a):
            row[-1] = b[r]
            a[r], den[r] = _cleared(row)
            b[r] = a[r].pop(-1)
    # where[col] holds every row with an entry in col, and perhaps rows
    # whose entry there has cancelled since
    where: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for col in row:
            where[col].add(i)
    # Trace row operations so an inconsistent row yields its multipliers:
    # trace[i]/den[i] maps original rows to their multiplier in row i now.
    trace = [{i: d} for i, d in enumerate(den)]

    def certificate(row: int) -> Inconsistency:
        t, d = trace[row], den[row]
        return Inconsistency(tuple(Fraction(t.get(i, 0), d) for i in range(m)),
                             Fraction(b[row], d))

    for i in range(m):
        if not a[i] and b[i]:
            return certificate(i)

    # Rows keep their index: at[p] is the row in place p of the elimination
    # order and place[r] the place of row r; the pivots take the first places.
    at = list(range(m))
    place = list(range(m))
    pivots: list[tuple[int, int]] = []

    def key(r: int) -> tuple[int, int, int]:
        # the reduced numerator and denominator of the entry a[r][col]/den[r]
        g = gcd(a[r][col], den[r])
        return abs(a[r][col]) // g, den[r] // g, place[r]

    for col in range(n):
        done = len(pivots)
        if done == m:
            break
        candidates = [r for r in where[col] if place[r] >= done and col in a[r]]
        if not candidates:
            continue
        best = min(candidates, key=key)
        other = at[done]
        at[done], at[place[best]] = best, other
        place[best], place[other] = done, place[best]
        pivot, value = a[best], a[best][col]
        for r in sorted((r for r in candidates if r != best), key=place.__getitem__):
            # row r becomes f*row r - h*pivot over f*den[r], with f > 0 and
            # f/h = value/a[r][col] in lowest terms: the pivot's den cancels
            g = gcd(a[r][col], value) * (1 if value > 0 else -1)
            f, h = value // g, a[r][col] // g
            _combine(a[r], f, h, pivot)
            _combine(trace[r], f, h, trace[best])
            for c in pivot:
                where[c].add(r)
            b[r] = f * b[r] - h * b[best]
            den[r] *= f
            content = gcd(den[r], b[r], *a[r].values(), *trace[r].values())
            if content > 1:
                den[r] //= content
                b[r] //= content
                for entries in (a[r], trace[r]):
                    for c in entries:
                        entries[c] //= content
            if not a[r] and b[r]:
                return certificate(r)
        pivots.append((best, col))

    # Every row but the pivots is now empty with b[r] = 0: an empty row
    # is never updated, and the checks above return on any other one.
    # den[row] cancels, so the pivot rows are solved on their integers;
    # solution[col] is still zero when its own row is summed.
    solution: list[Scalar] = [0] * n
    for row, col in reversed(pivots):
        known = sum(v * solution[c] for c, v in a[row].items())
        solution[col] = _divide(b[row] - known, a[row][col])
    return tuple(Fraction(v) for v in solution)
