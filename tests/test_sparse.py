"""Exact elimination: rank, kernel, solve, and the rank-nullity invariant.

Random-matrix cases run the dense path (under the cutoff) and the sparse
path (internals called directly) against each other; both reduce to the
unique RREF, so results must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from nilpoisson.rationals import gauss
from nilpoisson.sparse import (DENSE_CUTOFF, SparseMatrix, _Echelon, independent_indices,
                               kernel_vectors, rank, solve, span_basis)

HALF = Fraction(1, 2)


def test_rank_identity():
    assert rank(SparseMatrix.identity(3)) == 3


def test_rank_single_entry_pairing_matrix():
    # the degenerate 2x2 pairing block: one entry -1/2 at (1,2), 1-based
    m = SparseMatrix(2, 2, {(0, 1): gauss(-HALF)})
    assert rank(m) == 1


def test_rank_1x1_imaginary():
    assert rank(SparseMatrix(1, 1, {(0, 0): gauss(0, -HALF)})) == 1


def test_kernel_zero_matrix():
    assert len(kernel_vectors(SparseMatrix(2, 3))) == 3


def test_kernel_identity():
    assert kernel_vectors(SparseMatrix.identity(4)) == []


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
    assert solve(SparseMatrix.identity(3), b) == b


def test_solve_inconsistent_degenerate_pairing():
    # D x = r with D the rank-1 pairing block and r outside its column space
    m = SparseMatrix(2, 2, {(0, 1): gauss(-HALF)})
    assert solve(m, [gauss(0), gauss(-HALF)]) is None


def test_solve_unique_nondegenerate_pairing():
    # 1x1 system [-i/2] x = i/2 has the unique solution x = -1
    m = SparseMatrix(1, 1, {(0, 0): gauss(0, -HALF)})
    assert solve(m, [gauss(0, HALF)]) == [gauss(-1)]


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(SparseMatrix.identity(2), [gauss(1)])


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


@pytest.mark.parametrize("seed", range(6))
def test_sparse_path_matches_dense_path(seed):
    """Force the sparse elimination on small matrices and compare."""
    rng = random.Random(300 + seed)
    m = _random_matrix(rng, rng.randint(2, 12), rng.randint(2, 12))
    assert max(m.rows, m.cols) < DENSE_CUTOFF  # public API uses the dense path
    ech = _Echelon(m)
    ech.forward()
    assert ech.rank() == rank(m)
    ech.reduce()

    def canonical(vectors):
        return sorted(tuple(sorted((c, v.sort_key()) for c, v in vec.items()))
                      for vec in vectors)

    assert canonical(ech.kernel_columns()) == canonical(kernel_vectors(m))


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
