import random
from fractions import Fraction

import pytest

from helpers import random_fraction
from lndtools import (
    Derivation,
    Ideal,
    Inconsistency,
    Polynomial,
    QMatrix,
    build_preimage_system,
    solve_exact,
)

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


def test_the_first_inconsistent_row_in_elimination_order_certifies():
    # row 1 is the pivot; rows 0 and 2 both turn inconsistent, and row 0,
    # which gave its place to the pivot, comes first
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
    with candidate rows found by scanning: the same columns in order, the
    same pivot rule, the same row order."""
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
    pivots, p = [], 0
    for col in range(n):
        if p >= m:
            break
        candidates = [r for r in range(p, m) if col in a[r]]
        if not candidates:
            continue
        best = min(candidates, key=lambda r: (abs(a[r][col].numerator),
                                              a[r][col].denominator, r))
        a[best], a[p] = a[p], a[best]
        b[best], b[p] = b[p], b[best]
        trace[best], trace[p] = trace[p], trace[best]
        for r in sorted(best if r == p else r for r in candidates if r != best):
            factor = a[r][col] / a[p][col]
            subtract(a[r], factor, a[p])
            b[r] -= factor * b[p]
            subtract(trace[r], factor, trace[p])
            if not a[r] and b[r]:
                return certificate(r)
        pivots.append((p, col))
        p += 1
    solution = [Fraction(0)] * n
    for row, col in reversed(pivots):
        known = sum((v * solution[c] for c, v in a[row].items()), Fraction(0))
        solution[col] = (b[row] - known) / a[row][col]
    return tuple(solution)


def test_matches_the_fraction_reference():
    # integral and fractional entries, dense and sparse, square and not:
    # the same solution, or the same multipliers and value, every time
    rng = random.Random(203)
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
        got, want = solve_exact(matrix, rhs), reference_solve(matrix, rhs)
        assert got == want
        if isinstance(got, Inconsistency):
            refuted += 1
            assert all(type(y) is Fraction for y in got.multipliers)
            assert type(got.value) is Fraction
        else:
            solved += 1
            assert all(type(x) is Fraction for x in got)
    assert solved >= 20 and refuted >= 20


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
    system = build_preimage_system(d, k + 1)
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
