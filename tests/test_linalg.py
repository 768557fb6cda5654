import gc
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import full_system, random_fraction
from lndtools import (
    Derivation,
    Ideal,
    Inconsistency,
    Polynomial,
    QMatrix,
    parse_spec,
    preimage_search,
    solve_exact,
    spec_derivation,
)

from lndtools.linalg import null_space

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# (largest row and column count, density, number of cases)
SHAPES = [(5, 0.7, 200), (40, 0.05, 1000)]


def random_matrix(rng, m, n, density=0.7, bound=5):
    return QMatrix(n, [[(j, random_fraction(rng, bound))
                        for j in range(n) if rng.random() < density]
                       for _ in range(m)])


def identity(n):
    return QMatrix(n, [[(i, 1)] for i in range(n)])


def product(matrix, vector):
    """A*x, straight from the sparse rows."""
    return tuple(sum((value * Fraction(vector[col]) for col, value in row),
                     Fraction(0)) for row in matrix.entries)


def test_identity_solves_exactly():
    b = [Fraction(5, 3), Fraction(-2), Fraction(0)]
    assert solve_exact(identity(3), b) == tuple(b)


def test_free_variables_are_pinned_to_zero():
    solution = solve_exact(QMatrix(2, [[(0, 1), (1, 1)]]), [2])
    assert solution == (Fraction(2), Fraction(0))
    solution = solve_exact(QMatrix(2, [[(1, 3)]]), [6])
    assert solution == (Fraction(0), Fraction(2))


def test_rows_keep_nonzero_pairs_in_column_order():
    matrix = QMatrix(4, [[(3, 2), (0, 0), (1, Fraction(1, 2))], []])
    assert matrix.entries == (((1, Fraction(1, 2)), (3, Fraction(2))), ())
    assert (matrix.rows, matrix.cols) == (2, 4)


def test_known_inconsistency_certificate():
    matrix = QMatrix(2, [[(0, 1), (1, 1)], [(0, 1), (1, 1)]])
    rhs = [1, 2]
    outcome = solve_exact(matrix, rhs)
    assert isinstance(outcome, Inconsistency)
    assert outcome.verify(matrix, rhs)
    # the multipliers really combine the rows to zero
    combined = [0, 0]
    for y, row in zip(outcome.multipliers, matrix.entries):
        for col, value in row:
            combined[col] += y * value
    assert combined == [0, 0]
    assert sum(outcome.multipliers[i] * rhs[i] for i in range(2)) != 0


def test_doctored_certificate_fails_verification():
    matrix = QMatrix(2, [[(0, 1), (1, 1)], [(0, 1), (1, 1)]])
    rhs = [1, 2]
    outcome = solve_exact(matrix, rhs)
    bad = Inconsistency((Fraction(1), Fraction(1)), outcome.value)
    assert not bad.verify(matrix, rhs)
    wrong_len = Inconsistency((Fraction(1),), Fraction(1))
    assert not wrong_len.verify(matrix, rhs)


def test_doctored_multipliers_and_values_are_refused():
    # the check clears the multipliers' denominators once and sums integer
    # products; it must refuse a multiplier moved by 1 either way at any
    # place that counts (a nonempty row, or a nonzero entry of b past the
    # rows), and a value that is not the combination of b
    rng = random.Random(209)
    checked = fractional = 0
    while checked < 30:
        # more rows than columns: rows that empty in elimination certify,
        # with multipliers that have denominators
        n = rng.randint(1, 5)
        m = n + rng.randint(1, 3)
        matrix = random_matrix(rng, m, n, 0.8)
        rhs = [random_fraction(rng) for _ in range(m + rng.randint(0, 1))]
        outcome = solve_exact(matrix, rhs)
        if not isinstance(outcome, Inconsistency):
            continue
        checked += 1
        ys, value = outcome.multipliers, outcome.value
        assert outcome.verify(matrix, rhs)
        fractional += any(y.denominator > 1 for y in ys)
        rows = (*matrix.entries, ())
        for i in range(len(ys)):
            if rows[i] or rhs[i]:
                for delta in (1, -1):
                    doctored = (*ys[:i], ys[i] + delta, *ys[i + 1:])
                    assert not Inconsistency(doctored, value).verify(matrix, rhs)
        for wrong in (value + 1, value - 1, -value, value * 2, Fraction(0)):
            assert not Inconsistency(ys, wrong).verify(matrix, rhs)
    # multipliers with denominators, which the check clears
    assert fractional > 10


def test_the_first_inconsistent_row_in_elimination_order_certifies():
    # row 1 is the pivot, before row 2 by its index; rows 0 and 2 both turn
    # inconsistent, and row 0 comes first
    matrix = QMatrix(1, [[(0, 3)], [(0, 1)], [(0, 1)]])
    outcome = solve_exact(matrix, [1, 0, 5])
    assert outcome == Inconsistency((Fraction(1), Fraction(-3), Fraction(0)),
                                    Fraction(1))


def test_zero_multipliers_are_skipped():
    matrix = QMatrix(1, [[(0, 1)], [(0, 1)], [(0, 2)]])
    rhs = [1, 2, 2]
    # rows 2 and 3 alone: 1*(2) - 2*(1) combines the rows to 0 = 2 - 4
    assert Inconsistency((Fraction(0), Fraction(2), Fraction(-1)),
                         Fraction(2)).verify(matrix, rhs)
    assert Inconsistency((Fraction(0), Fraction(2), Fraction(-1)),
                         Fraction(2)).verify(matrix, ["skipped", 2, 2])


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", None])
def test_entries_and_rhs_refuse_floats_and_strings(bad):
    with pytest.raises(TypeError):
        QMatrix(1, [[(0, bad)]])
    with pytest.raises(TypeError):
        solve_exact(identity(1), [bad])


def test_rhs_length_mismatch():
    with pytest.raises(ValueError):
        solve_exact(identity(2), [1])


def test_solution_or_certificate_dichotomy():
    rng = random.Random(201)
    for size, density, cases in SHAPES:
        solved = refuted = 0
        for _ in range(cases):
            m = rng.randint(1, size)
            n = rng.randint(1, size)
            matrix = random_matrix(rng, m, n, density)
            rhs = [random_fraction(rng) for _ in range(m)]
            outcome = solve_exact(matrix, rhs)
            if isinstance(outcome, Inconsistency):
                refuted += 1
                assert outcome.verify(matrix, rhs)
            else:
                solved += 1
                assert product(matrix, outcome) == tuple(Fraction(v) for v in rhs)
        # the sample must exercise both branches
        assert solved > 20 and refuted > 20


def test_consistent_by_construction_always_solves():
    rng = random.Random(202)
    for size, density, cases in SHAPES:
        for _ in range(cases):
            m = rng.randint(1, size)
            n = rng.randint(1, size)
            matrix = random_matrix(rng, m, n, density)
            x0 = [random_fraction(rng) for _ in range(n)]
            rhs = product(matrix, x0)
            outcome = solve_exact(matrix, rhs)
            assert not isinstance(outcome, Inconsistency)
            assert product(matrix, outcome) == rhs


def rank(matrix):
    """The rank of A by Gaussian elimination on Fractions."""
    rows = [[Fraction(dict(row).get(c, 0)) for c in range(matrix.cols)]
            for row in matrix.entries]
    count = 0
    for col in range(matrix.cols):
        pivot = next((r for r in rows[count:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = rows[:count] + [pivot] + [
            [v - r[col] / pivot[col] * p for v, p in zip(r, pivot)] for r in rows[count:]]
        count += 1
    return count


def test_null_space_is_a_primitive_integer_basis():
    rng = random.Random(2512)
    dims = set()
    for _ in range(200):
        matrix = random_matrix(rng, rng.randint(0, 5), rng.randint(1, 6),
                               density=rng.choice([0.2, 0.5, 0.8]))
        basis = null_space(matrix)
        assert len(basis) == matrix.cols - rank(matrix)
        for v in basis:
            assert all(type(e) is int for e in v) and math.gcd(*v) == 1
            assert not any(product(matrix, v))
        assert rank(QMatrix(matrix.cols, [enumerate(v) for v in basis])) == len(basis)
        dims.add(len(basis))
    assert dims == set(range(7))
    # the grading of x*z^2 = y^3 + 1 with d(x) = 3*y^2, d(y) = z^2, on the
    # unknowns (w(x), w(y), w(z), shift): rows w(t) - w(x_i) - shift for the
    # terms t of d(x_i), and the differences of weights in the relation
    system = QMatrix(4, [[(1, 2), (0, -1), (3, -1)], [(2, 2), (1, -1), (3, -1)],
                         [(0, -1), (1, 3), (2, -2)], [(0, -1), (2, -2)]])
    assert null_space(system) == [(-2, 0, 1, 2)]


def test_out_of_range_column_is_rejected():
    with pytest.raises(ValueError):
        QMatrix(2, [[(0, 1)], [(2, 1)]])
    with pytest.raises(ValueError):
        QMatrix(2, [[(-1, 1)]])
    with pytest.raises(ValueError):
        QMatrix._from_clean(2, [((0, 1),), ((1, 1), (2, 1))])
    with pytest.raises(ValueError):
        QMatrix._from_clean(2, [((-1, 1), (0, 1))])


def test_entries_are_ints_when_integral():
    matrix = QMatrix(3, [[(0, Fraction(4, 2)), (2, Fraction(1, 2)),
                          (2, Fraction(1, 2))], [(1, Fraction(2, 3))]])
    assert matrix.entries == (((0, 2), (2, 1)), ((1, Fraction(2, 3)),))
    assert [type(v) for row in matrix.entries for _, v in row] \
        == [int, int, Fraction]
    clean = QMatrix._from_clean(3, matrix.entries)
    assert (clean.rows, clean.cols, clean.entries) \
        == (matrix.rows, matrix.cols, matrix.entries)


def reference_solve(matrix, rhs):
    """The elimination of ``solve_exact`` written out on Fractions alone,
    with candidate rows found by scanning every row: the same columns in
    order, the same pivot rule, candidates updated in row order, and no row
    ever moved."""
    m, n = matrix.rows, matrix.cols
    a = [{c: Fraction(v) for c, v in row} for row in matrix.entries]
    b = [Fraction(v) for v in rhs]
    trace = [{i: Fraction(1)} for i in range(m)]

    def certificate(r):
        return Inconsistency(tuple(trace[r].get(i, Fraction(0)) for i in range(m)),
                             b[r])

    def subtract(target, factor, source):
        for key, value in source.items():
            target[key] = target.get(key, Fraction(0)) - factor * value
            if not target[key]:
                del target[key]

    for i in range(m):
        if not a[i] and b[i]:
            return certificate(i)
    pivots = []
    for col in range(n):
        pivoted = {row for row, _ in pivots}
        candidates = [r for r in range(m) if r not in pivoted and col in a[r]]
        if not candidates:
            continue
        best = min(candidates, key=lambda r: (abs(a[r][col].numerator),
                                              a[r][col].denominator, r))
        for r in candidates:
            if r == best:
                continue
            factor = a[r][col] / a[best][col]
            subtract(a[r], factor, a[best])
            b[r] -= factor * b[best]
            subtract(trace[r], factor, trace[best])
            if not a[r] and b[r]:
                return certificate(r)
        pivots.append((best, col))
    solution = [Fraction(0)] * n
    for row, col in reversed(pivots):
        known = sum((v * solution[c] for c, v in a[row].items()), Fraction(0))
        solution[col] = (b[row] - known) / a[row][col]
    return tuple(solution)


def test_matches_the_fraction_reference():
    # integral and fractional entries, dense and sparse, square and not:
    # the same solution, or the same multipliers and value, every time, and
    # three right-hand sides through one elimination
    rng, others = random.Random(203), random.Random(204)
    solved = refuted = 0
    for case in range(600):
        size, density, _ = SHAPES[case % 2]
        m, n = rng.randint(1, size), rng.randint(1, size)
        if case % 3:
            matrix = QMatrix(n, [[(j, rng.randint(-4, 4)) for j in range(n)
                                  if rng.random() < density] for _ in range(m)])
            rhs = [rng.randint(-3, 3) for _ in range(m)]
        else:
            matrix = random_matrix(rng, m, n, density)
            rhs = [random_fraction(rng) for _ in range(m)]
        assert solve_exact(matrix, rhs) == reference_solve(matrix, rhs)
        # one fresh elimination serves this b, a consistent one and a random one
        fresh = QMatrix._from_clean(matrix.cols, matrix.entries)
        x0 = [random_fraction(others) for _ in range(n)]
        other = [random_fraction(others) for _ in range(m)]
        for b in (rhs, product(matrix, x0), other):
            got, want = solve_exact(fresh, b), reference_solve(matrix, b)
            assert got == want
            if isinstance(got, Inconsistency):
                refuted += 1
                assert all(type(y) is Fraction for y in got.multipliers)
                assert type(got.value) is Fraction
            else:
                solved += 1
                assert all(type(x) is Fraction for x in got)
    assert solved >= 60 and refuted >= 60


def test_rows_with_different_denominators_give_the_pinned_certificate():
    # the rows clear over 6, 30 and 42; rows 0 and 1 become the pivots and
    # row 2 turns inconsistent, with multipliers over the denominator 7
    matrix = QMatrix(2, [[(0, Fraction(1, 2)), (1, Fraction(1, 3))],
                         [(0, Fraction(2, 3)), (1, Fraction(1, 5))],
                         [(0, Fraction(1, 6)), (1, Fraction(2, 7))]])
    rhs = [1, Fraction(1, 2), Fraction(1, 3)]
    outcome = solve_exact(matrix, rhs)
    assert outcome == Inconsistency(
        (Fraction(-9, 7), Fraction(5, 7), Fraction(1)), Fraction(-25, 42))
    assert outcome == reference_solve(matrix, rhs)
    assert outcome.verify(matrix, rhs)


def test_one_elimination_serves_many_right_hand_sides():
    # row 0 is empty from the start, row 2 empties when row 1 clears column 0
    # from it, and row 3 pivots on column 1; a fifth entry of b stands for
    # an empty row past the matrix, as a target monomial outside the image
    # gives, so each answer is that of the matrix with that row appended
    matrix = QMatrix(2, [[], [(0, 1), (1, 1)], [(0, 1), (1, 1)], [(1, 1)]])
    padded = QMatrix(2, [*matrix.entries, []])
    one, zero = Fraction(1), Fraction(0)
    cases = [
        # the row empty from the start comes first
        ([1, 1, 2, 0, 5], Inconsistency((one, zero, zero, zero, zero), one)),
        # then the appended row, although row 2 is inconsistent too
        ([0, 1, 2, 0, 5], Inconsistency((zero, zero, zero, zero, one), Fraction(5))),
        # then the rows that emptied: row 2 minus row 1
        ([0, 1, 3, 0, 0], Inconsistency((zero, -one, one, zero, zero), Fraction(2))),
        # consistent: x1 = 3 from row 3, then x0 = 1 - 3 from row 1
        ([0, 1, 1, 3, 0], (Fraction(-2), Fraction(3))),
    ]
    assert matrix.where is None and not matrix.block and not matrix.blocks
    for rhs, want in cases:
        got = solve_exact(matrix, rhs)
        assert got == want == reference_solve(padded, rhs)
        if isinstance(got, Inconsistency):
            assert got.verify(matrix, rhs) and got.verify(padded, rhs)
            # every zero multiplier is the one shared Fraction(0)
            zeros = [y for y in got.multipliers if not y]
            assert all(type(y) is Fraction for y in got.multipliers)
            assert len({id(y) for y in zeros}) == 1
            # a certificate of another length, or b shorter than the matrix,
            # is refused
            assert not Inconsistency(got.multipliers[:4], got.value).verify(
                matrix, rhs)
            assert not Inconsistency(got.multipliers[:3], got.value).verify(
                matrix, rhs[:3])
    # every solve replayed the elimination the first one made: the first two
    # answers came from empty rows alone; the third eliminated the one block,
    # rows 1 to 3: row 2 emptied at column 0, and rows 1 and 3 pivot, row 1
    # before row 2 by its index
    assert matrix.block == {1: 0, 2: 0, 3: 0}
    assert matrix.blocks == [([(0, 2)], [(1, 0), (3, 1)])]
    assert solve_exact(matrix, [0, 1, 1, 3]) == (Fraction(-2), Fraction(3))
    assert matrix.blocks == [([(0, 2)], [(1, 0), (3, 1)])]
    with pytest.raises(ValueError):
        solve_exact(matrix, [0, 1, 1])


def test_a_dropped_system_leaves_no_matrix():
    # a matrix holds its elimination: once its system is dropped, nothing,
    # not even a reference cycle waiting for the collector, keeps it alive
    d = spec_derivation(parse_spec((CORPUS / "ex_danielewski.lnd").read_text(
        encoding="utf-8")))

    def matrices():
        return sum(isinstance(o, QMatrix) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = matrices()
        system = full_system(d, 6)
        preimage_search(system, Polynomial.constant(d.ring.nvars, 1))
        assert system.matrix.blocks and matrices() == before + 1
        del system
        assert matrices() == before
    finally:
        gc.enable()


def block_diagonal(rng, blocks, size, density):
    """A matrix of ``blocks`` random blocks of up to ``size`` rows and
    columns each, its rows and columns shuffled, and the row sets of the
    blocks."""
    shapes = [(rng.randint(1, size), rng.randint(1, size)) for _ in range(blocks)]
    cols = list(range(sum(n for _, n in shapes)))
    rng.shuffle(cols)
    rows, owners, first = [], [], 0
    for b, (m, n) in enumerate(shapes):
        mine = cols[first:first + n]
        first += n
        for _ in range(m):
            rows.append([(c, random_fraction(rng, 5)) for c in mine
                         if rng.random() < density])
            owners.append(b)
    order = list(range(len(rows)))
    rng.shuffle(order)
    matrix = QMatrix(len(cols), [rows[i] for i in order])
    return matrix, [{r for r, i in enumerate(order) if owners[i] == b}
                    for b in range(blocks)]


def test_blocks_are_eliminated_when_first_reached():
    # several right-hand sides through one matrix, in random order, each
    # touching some blocks: every answer is that of a fresh matrix and of the
    # reference, whichever blocks earlier ones eliminated
    rng = random.Random(205)
    solved = refuted = 0
    for case in range(150):
        matrix, owned = block_diagonal(rng, rng.randint(2, 5), 6,
                                       (0.4, 0.8)[case % 2])
        m = matrix.rows
        targets = []
        for _ in range(6):
            touched = set().union(*rng.sample(owned, rng.randint(1, 2)))
            rhs = [random_fraction(rng) if r in touched and rng.random() < 0.7
                   else 0 for r in range(m)]
            if rng.random() < 0.5:
                # consistent, with x0 on the columns of the touched rows alone
                reached = {c for r in touched for c, _ in matrix.entries[r]}
                rhs = list(product(matrix, [random_fraction(rng) if c in reached
                                            else 0 for c in range(matrix.cols)]))
            targets.append(rhs)
        rng.shuffle(targets)
        for rhs in targets:
            got = solve_exact(matrix, rhs)
            fresh = QMatrix._from_clean(matrix.cols, matrix.entries)
            assert got == solve_exact(fresh, rhs) == reference_solve(matrix, rhs)
            if isinstance(got, Inconsistency):
                refuted += 1
                assert got.verify(matrix, rhs)
            else:
                solved += 1
                assert product(matrix, got) == tuple(Fraction(v) for v in rhs)
    assert solved >= 100 and refuted >= 100


def test_a_solve_leaves_the_blocks_it_does_not_reach():
    # block A is rows 0 and 2 on columns 1 and 3, block B rows 1 and 3 on
    # columns 0 and 2; b touches row 2 only
    matrix = QMatrix(4, [[(1, 1), (3, 2)], [(0, 1)], [(1, 3)], [(0, 2), (2, 1)]])
    x = solve_exact(matrix, [0, 0, 6, 0])
    assert x == (0, Fraction(2), 0, Fraction(-1))
    assert matrix.block == {0: 0, 2: 0}
    assert matrix.blocks == [([], [(0, 1), (2, 3)])]
    assert solve_exact(matrix, [0, 1, 0, 0]) == (Fraction(1), 0, Fraction(-2), 0)
    assert sorted(matrix.block) == [0, 1, 2, 3]
    assert len(matrix.blocks) == 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_danielewski_systems_match_the_fraction_reference(k):
    # x*z^k = p(y) with p = y^3/3 + y/2, d(x) = p'(y) = y^2 + 1/2,
    # d(y) = z^k, d(z) = 0: the image rows of x carry a Fraction, and z^n
    # has a preimage of degree <= k + 1 only at n = k (namely y)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    p = y ** 3 * Fraction(1, 3) + y * Fraction(1, 2)
    d = Derivation(Ideal(3, [x * z ** k - p]),
                   [y ** 2 + Polynomial.constant(3, Fraction(1, 2)), z ** k,
                    Polynomial.zero(3)])
    system = full_system(d, k + 1)
    assert any(type(v) is Fraction
               for row in system.image_rows.values() for _, v in row)
    outcomes = []
    for n in range(1, k + 1):
        _, matrix, rhs = system.equations(d.ring.normal_form(z ** n))
        outcome = solve_exact(matrix, rhs)
        assert outcome == reference_solve(matrix, rhs)
        if isinstance(outcome, Inconsistency):
            assert outcome.verify(matrix, rhs)
        outcomes.append(type(outcome))
    assert outcomes == [Inconsistency] * (k - 1) + [tuple]
