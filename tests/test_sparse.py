"""Exact elimination: rank, kernel, solve, and the rank-nullity invariant.

Random-matrix cases check the triple elimination behind ``rank``,
``kernel_vectors`` and ``solve`` against a dense reference RREF on scalars
kept in this file, which shares no code with it.
"""

import random
from fractions import Fraction

import pytest

from nilpoisson.rationals import gauss
from nilpoisson.sparse import (SparseMatrix, independent_indices, kernel_vectors, rank, solve,
                               span_basis)

HALF = Fraction(1, 2)


def _identity(n):
    return SparseMatrix(n, n, {(i, i): gauss(1) for i in range(n)})


def test_rank_identity():
    assert rank(_identity(3)) == 3


def test_rank_single_entry_pairing_matrix():
    # the degenerate 2x2 pairing block: one entry -1/2 at (1,2), 1-based
    m = SparseMatrix(2, 2, {(0, 1): gauss(-HALF)})
    assert rank(m) == 1


def test_rank_1x1_imaginary():
    assert rank(SparseMatrix(1, 1, {(0, 0): gauss(0, -HALF)})) == 1


def test_kernel_zero_matrix():
    assert len(kernel_vectors(SparseMatrix(2, 3))) == 3


def test_zero_row_matrices():
    # validate builds a 0 x n center system for an abelian algebra
    assert kernel_vectors(SparseMatrix(0, 3)) == [{0: gauss(1)}, {1: gauss(1)}, {2: gauss(1)}]
    assert solve(SparseMatrix(0, 2), []) == [gauss(0), gauss(0)]


def test_kernel_identity():
    assert kernel_vectors(_identity(4)) == []


def test_kernel_single_column_differential():
    # 9x3 block where only the middle basis vector has a nonzero image:
    # the kernel is spanned by the first and last coordinates.
    m = SparseMatrix(9, 3, {(6, 1): gauss(HALF)})
    vectors = kernel_vectors(m)
    assert len(vectors) == 2
    supports = sorted(tuple(sorted(c for c, v in vec.items() if v)) for vec in vectors)
    assert supports == [(0,), (2,)]


def test_solve_identity():
    b = [gauss(3), gauss(0, 1), gauss(Fraction(2, 7))]
    assert solve(_identity(3), b) == b
    # int and Fraction entries of b read as real Gaussian rationals
    assert solve(_identity(3), [3, HALF, 0]) == [gauss(3), gauss(HALF), gauss(0)]


def test_solve_inconsistent_degenerate_pairing():
    # D x = r with D the rank-1 pairing block and r outside its column space;
    # D leaves row 1 empty, so r is consistent iff r_1 = 0
    m = SparseMatrix(2, 2, {(0, 1): gauss(-HALF)})
    assert solve(m, [gauss(0), gauss(-HALF)]) is None
    assert solve(m, [gauss(HALF), gauss(1)]) is None
    assert solve(m, [gauss(HALF), gauss(0)]) == [gauss(0), gauss(-1)]


def test_solve_unique_nondegenerate_pairing():
    # 1x1 system [-i/2] x = i/2 has the unique solution x = -1
    m = SparseMatrix(1, 1, {(0, 0): gauss(0, -HALF)})
    assert solve(m, [gauss(0, HALF)]) == [gauss(-1)]


def test_solve_without_columns():
    # only b = 0 lies in the image of a map from the zero space
    assert solve(SparseMatrix(2, 0), [gauss(0), gauss(1)]) is None
    assert solve(SparseMatrix(2, 0), [gauss(0), gauss(0)]) == []


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(_identity(2), [gauss(1)])


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): gauss(1)})


def test_zero_entries_dropped():
    m = SparseMatrix(2, 2, {(0, 0): gauss(0), (1, 1): gauss(1)})
    assert m.nnz() == 1


def _random_matrix(rng, rows, cols, density=0.4):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                        Fraction(rng.randint(-2, 2)))
    return SparseMatrix(rows, cols, entries)


@pytest.mark.parametrize("seed", range(8))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
    assert rank(m) + len(kernel_vectors(m)) == m.cols


def _column(m, vec):
    """The coordinate dict vec as an m.cols x 1 matrix."""
    return SparseMatrix(m.cols, 1, {(c, 0): v for c, v in vec.items()})


@pytest.mark.parametrize("seed", range(8))
def test_kernel_vectors_annihilate(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
    for vec in kernel_vectors(m):
        assert (m @ _column(m, vec)).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_solve_consistent_systems(seed):
    rng = random.Random(200 + seed)
    m = _random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
    x = {c: gauss(rng.randint(-3, 3), rng.randint(-2, 2)) for c in range(m.cols)}
    image = m @ _column(m, x)
    b = [gauss(0)] * m.rows
    for (r, _), value in image.entries.items():
        b[r] = value
    x_prime = solve(m, b)
    assert x_prime is not None
    assert m @ _column(m, dict(enumerate(x_prime))) == image


def _dense_rref(m):
    """Reference RREF on GaussianRational scalars: (rows, pivot columns)."""
    data = [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        pivot = next((k for k in range(r, m.rows) if data[k][c]), None)
        if pivot is None:
            continue
        data[r], data[pivot] = data[pivot], data[r]
        data[r] = [v / data[r][c] for v in data[r]]
        for k in range(m.rows):
            if k != r and data[k][c]:
                factor = data[k][c]
                data[k] = [a - factor * b for a, b in zip(data[k], data[r])]
        pivots.append(c)
    return data[:len(pivots)], pivots


def _dense_solution(m, b):
    """Solve from the dense reference RREF of [m | b]: None when column
    ``m.cols`` is a pivot column, else the pivot entries of that column."""
    augmented = SparseMatrix(m.rows, m.cols + 1,
                             {**m.entries, **{(r, m.cols): v for r, v in enumerate(b)}})
    rows, pivots = _dense_rref(augmented)
    if m.cols in pivots:
        return None
    x = [gauss(0)] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = row[m.cols]
    return x


@pytest.mark.parametrize("seed", range(6))
def test_sparse_path_matches_dense_path(seed):
    """Compare ``rank``, ``kernel_vectors`` and ``solve`` with the dense
    reference RREF, whose kernel basis (one vector per free column) and
    free-variables-zero solution are unique."""
    rng = random.Random(300 + seed)
    m = _random_matrix(rng, rng.randint(2, 12), rng.randint(2, 12))
    rows, pivots = _dense_rref(m)
    assert rank(m) == len(pivots)
    expected = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = {free: gauss(1)}
        for row, c in zip(rows, pivots):
            if row[free]:
                vec[c] = -row[free]
        expected.append(vec)
    assert kernel_vectors(m) == expected

    x = {c: gauss(rng.randint(-3, 3), rng.randint(-2, 2)) for c in range(m.cols)}
    image = m @ _column(m, x)
    consistent = [image.entry(r, 0) for r in range(m.rows)]
    arbitrary = [gauss(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(m.rows)]
    for b in (consistent, arbitrary):
        assert solve(m, b) == _dense_solution(m, b)
    assert solve(m, consistent) is not None


def test_matmul():
    a = SparseMatrix(2, 2, {(0, 0): gauss(1), (0, 1): gauss(2)})
    b = SparseMatrix(2, 1, {(1, 0): gauss(0, 1)})
    assert (a @ b) == SparseMatrix(2, 1, {(0, 0): gauss(0, 2)})


def test_span_membership():
    vectors = [{0: gauss(1), 1: gauss(1)}, {1: gauss(1)}, {0: gauss(2)}]
    assert independent_indices(vectors) == [0, 1]   # the third depends on the first two
    basis = span_basis(vectors)
    assert len(basis) == 2

    def contains(vector):
        return len(basis) not in independent_indices(basis + [vector])

    assert contains({0: gauss(5), 1: gauss(-3)})
    assert not contains({2: gauss(1)})
