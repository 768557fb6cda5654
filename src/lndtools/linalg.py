"""Exact linear algebra over the rationals.

Sparse Gaussian elimination on integer rows, each with one positive
denominator: row r stands for ``a[r]/den[r]``, and its trace of
multipliers shares ``den[r]``.  A row is cleared of the pivot column by
integer multiples of itself and the pivot row, then divided by the gcd of
all its integers, since sparse pivoting breaks the exact divisions of
Bareiss (1968).  The pivot in each column is the candidate whose rational
entry has the smallest reduced numerator (then reduced denominator, then
row index), which keeps the integers modest.  A matrix eliminates every
column once, at its first solve, with no right-hand side taking part, and
keeps that elimination: each b is replayed through the traces, giving a
checkable certificate y with y*A = 0 and y*b != 0, or a solution with its
free variables zero, all of it ``Fraction``s.  Entries of b past the rows
of A stand for empty rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import _ZERO, Scalar, _cleared, _divide, _exact, _integral


@dataclass(frozen=True)
class Inconsistency:
    """Proof that A*x = b has no solution: multipliers, one per entry of b,
    combining the rows of A to zero while combining b to a nonzero value;
    entries of b past the rows of A stand for empty rows."""

    multipliers: tuple[Fraction, ...]
    value: Fraction

    def verify(self, matrix: QMatrix, rhs: Sequence) -> bool:
        """Whether y*A = 0 and y*b = ``value`` != 0, checked on Y = L*y, the
        multipliers cleared of denominators once: Y*A = L*(y*A), Y*b = L*(y*b)."""
        ys = self.multipliers
        if len(ys) != len(rhs) or len(rhs) < matrix.rows:
            return False
        scale = lcm(*[y.denominator for y in ys if y])
        combined: dict[int, Scalar] = {}
        total: Scalar = 0
        for y, row, v in zip(ys, chain(matrix.entries, repeat(())), rhs):
            if y:
                y = y.numerator * (scale // y.denominator)
                for col, value in row:
                    combined[col] = combined.get(col, 0) + y * value
                total += y * _exact(v)
        return not any(combined.values()) and total == self.value * scale != 0


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


class QMatrix:
    """Sparse matrix of rationals, whose entries never change: ``entries[i]``
    holds the nonzero ``(column, value)`` pairs of row i in column order, the
    values given for one column summed; its first solve eliminates it, and
    later solves replay that elimination."""

    __slots__ = ("rows", "cols", "entries", "a", "den", "trace", "emptied", "pivots")

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
        # Made by the elimination, for each nonempty row r: a[r]/den[r], row r
        # after it, and trace[r]/den[r], its multipliers of the original rows;
        # then the (column, row) of each row that emptied, sorted, and the
        # (row, column) of each pivot, in order.  pivots is None until then.
        self.a, self.den, self.trace, self.emptied = {}, {}, {}, []
        self.pivots: list[tuple[int, int]] | None = None

    @classmethod
    def _from_clean(cls, cols: int,
                    rows: Iterable[tuple[tuple[int, Scalar], ...]]) -> "QMatrix":
        """Wrap rows that are clean by construction, without merging or
        sorting: each is a tuple of ``(column, value)`` pairs in strictly
        increasing column order, every value nonzero and clean as in
        :mod:`lndtools.poly`.  Columns are still checked against ``cols``."""
        out = cls(cols, ())
        out.entries = tuple(rows)
        for row in out.entries:
            # pairs come in column order, so the ends bound every column
            if row and not (0 <= row[0][0] and row[-1][0] < cols):
                raise ValueError(f"a column of {row} is outside range({cols})")
        out.rows = len(out.entries)
        return out

    def _eliminate(self) -> None:
        """Eliminate every column in order: no right-hand side takes part in
        the pivots, the traces or the order rows empty in, so every b is
        replayed through one elimination."""
        entries, a, den, trace = self.entries, self.a, self.den, self.trace
        # where[col] holds every row with an entry in col, and perhaps rows
        # whose entry there has cancelled since
        where: list[set[int]] = [set() for _ in range(self.cols)]
        for r, row in enumerate(entries):
            if row:
                for col, _ in row:
                    where[col].add(r)
                a[r], den[r] = _cleared(dict(row))
                trace[r] = {r: den[r]}
        emptied, pivots, pivoted = self.emptied, [], set()
        for col in range(self.cols):
            candidates = [r for r in where[col] if r not in pivoted and col in a[r]]
            if not candidates:
                continue
            best = min(candidates, key=lambda r: (
                abs(a[r][col]) // (g := gcd(a[r][col], den[r])), den[r] // g, r))
            candidates.remove(best)
            pivot, value = a[best], a[best][col]
            for r in candidates:
                # row r becomes f*row r - h*pivot over f*den[r], with f > 0 and
                # f/h = value/a[r][col] in lowest terms: the pivot's den cancels
                g = gcd(a[r][col], value) * (1 if value > 0 else -1)
                f, h = value // g, a[r][col] // g
                _combine(a[r], f, h, pivot)
                _combine(trace[r], f, h, trace[best])
                for c in pivot:
                    where[c].add(r)
                den[r] *= f
                content = gcd(den[r], *a[r].values(), *trace[r].values())
                if content > 1:
                    den[r] //= content
                    for row in (a[r], trace[r]):
                        for c in row:
                            row[c] //= content
                if not a[r]:
                    emptied.append((col, r))
            pivoted.add(best)
            pivots.append((best, col))
        emptied.sort()
        self.pivots = pivots

    def _solve(self, rhs: Sequence):
        """A tuple of Fractions x with A*x = b, or an :class:`Inconsistency`;
        entries of ``rhs`` past the rows of A are those of empty rows after A."""
        entries, m, size = self.entries, self.rows, len(rhs)
        if size < m:
            raise ValueError("right-hand side shorter than the row count")
        given = [(i, v) for i, v in enumerate(map(_exact, rhs)) if v]
        # The first empty row where b is nonzero certifies: one empty from the
        # start, then one appended, then one that emptied, by its column.
        for i, v in given:
            if i >= m or not entries[i]:
                return Inconsistency(tuple(Fraction(1) if j == i else _ZERO
                                           for j in range(size)), Fraction(v))
        if self.pivots is None:
            self._eliminate()
        trace, den, a = self.trace, self.den, self.a

        def replayed(ys: dict) -> Scalar:
            return sum(ys[i] * v for i, v in given if i in ys)

        for _, r in self.emptied:
            if value := replayed(ys := trace[r]):
                return Inconsistency(tuple(Fraction(ys[i], den[r]) if i in ys else _ZERO
                                           for i in range(size)), Fraction(value, den[r]))
        # A pivot row is never updated once chosen, and den[row] cancels, so
        # the pivot rows are solved on their integers; solution[col] is still
        # zero when its own row is summed.
        solution: list[Scalar] = [0] * self.cols
        for row, col in reversed(self.pivots):
            known = sum(v * solution[c] for c, v in a[row].items())
            solution[col] = _divide(replayed(trace[row]) - known, a[row][col])
        return tuple(Fraction(v) if v else _ZERO for v in solution)


def null_space(matrix: QMatrix) -> list[tuple[int, ...]]:
    """A basis of A's rational null space in primitive integer vectors: one
    per column with no pivot in A's elimination, 0 at the others of those."""
    if matrix.pivots is None:
        matrix._eliminate()
    basis = []
    for free in sorted(set(range(matrix.cols)) - {col for _, col in matrix.pivots}):
        x: list[Scalar] = [int(c == free) for c in range(matrix.cols)]
        # as in _solve with b = 0: x[col] is still 0 when its row is summed
        for row, col in reversed(matrix.pivots):
            x[col] = _divide(-sum(v * x[c] for c, v in matrix.a[row].items()),
                             matrix.a[row][col])
        scale = lcm(*(Fraction(v).denominator for v in x))
        basis.append(tuple(int(v * scale) for v in x))
    return basis


def solve_exact(matrix: QMatrix, rhs: Sequence):
    """Solve A*x = b exactly: a tuple of Fractions x, or an
    :class:`Inconsistency`.  b has an entry for each row of A, then one for
    each empty row appended to A.  The first solve eliminates A, and every
    solve replays that elimination."""
    return matrix._solve(rhs)
