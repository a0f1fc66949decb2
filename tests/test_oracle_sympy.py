"""Exact elimination checked against sympy's DomainMatrix over QQ_I.

sympy is an independent implementation of exact linear algebra over Q(i):
its rank, its reduced row echelon form (unique, so kernel vectors and the
solution with free variables zero can be read off it entry for entry), the
span helpers (an RREF basis, the indices where the rank of a prefix grows),
the banded pair counts (the rank of every lower-left window) and the ranks
of the total operators must agree with ``nilpoisson.sparse``.
Small shapes and shapes of 64..76 with operator-like densities are drawn.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from nilpoisson import ExpressionContext, ExteriorComplex, parse_catalog_name  # noqa: E402
from nilpoisson.algebra import validate  # noqa: E402
from nilpoisson.cohomology import total_cohomology, total_operator  # noqa: E402
from nilpoisson.expressions import parse_multivector  # noqa: E402
from nilpoisson.rationals import gauss  # noqa: E402
from nilpoisson.sparse import (DENSE_CUTOFF, SparseMatrix, band_pivot_counts,  # noqa: E402
                               independent_indices, kernel_vectors, rank, solve, span_basis)


def _to_sympy(value):
    re, im = value.re, value.im
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def _from_sympy(value):
    return gauss(Fraction(int(value.x.numerator), int(value.x.denominator)),
                 Fraction(int(value.y.numerator), int(value.y.denominator)))


def _domain_matrix(m: SparseMatrix, extra_column=None) -> DomainMatrix:
    cols = m.cols + (extra_column is not None)
    rows = {}
    for (r, c), value in m.entries.items():
        rows.setdefault(r, {})[c] = _to_sympy(value)
    if extra_column is not None:
        for r, value in enumerate(extra_column):
            if value:
                rows.setdefault(r, {})[m.cols] = _to_sympy(value)
    return DomainMatrix(rows, (m.rows, cols), QQ_I)


def _rref_rows(dm: DomainMatrix):
    """The RREF as (row dicts of nilpoisson scalars, pivot columns)."""
    reduced, pivots = dm.rref()
    rows = reduced.to_sdm()
    return ([{c: _from_sympy(v) for c, v in rows.get(i, {}).items()}
             for i in range(len(pivots))], pivots)


# -- random sparse matrices with random-2step-sized entries ---------------------------

# small matrices at any density, and large ones with the few entries per row
# of an operator block.
_sizes = pytest.mark.parametrize("sizes,densities", [
    (st.integers(1, 12), (0.05, 0.15, 0.4)),
    (st.integers(DENSE_CUTOFF, DENSE_CUTOFF + 12), (0.02, 0.04, 0.08)),
], ids=["dense", "sparse"])


def _random_scalar(rng):
    d = rng.randint(1, 4)
    return gauss(Fraction(rng.randint(-3, 3), d), Fraction(rng.randint(-3, 3), d))


@st.composite
def _matrices(draw, sizes, densities):
    """Sparse Q(i) matrices, half of them products of two sparse factors,
    whose rank is at most the inner dimension."""
    rows, cols = draw(sizes), draw(sizes)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def sparse(r, c, density):
        return SparseMatrix(r, c, {(i, j): _random_scalar(rng)
                                   for i in range(r) for j in range(c) if rng.random() < density})

    if draw(st.booleans()):
        inner = draw(st.integers(1, 12))
        return sparse(rows, inner, 0.1) @ sparse(inner, cols, 0.1)
    return sparse(rows, cols, draw(st.sampled_from(densities)))


# no shrinking: under a broken elimination every example fails, and shrinking
# would rerun sympy on each smaller example for minutes
_oracle_settings = settings(max_examples=20, deadline=None,
                            phases=(Phase.explicit, Phase.reuse, Phase.generate),
                            suppress_health_check=[HealthCheck.too_slow,
                                                   HealthCheck.data_too_large])


@_sizes
@_oracle_settings
@given(data=st.data())
def test_rank_matches_sympy(sizes, densities, data):
    m = data.draw(_matrices(sizes, densities))
    assert rank(m) == _domain_matrix(m).rank()


@_sizes
@_oracle_settings
@given(data=st.data())
def test_kernel_vectors_match_the_sympy_rref(sizes, densities, data):
    m = data.draw(_matrices(sizes, densities))
    reduced, pivots = _rref_rows(_domain_matrix(m))
    expected = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = {free: gauss(1)}
        for row, c in zip(reduced, pivots):
            if free in row:
                vec[c] = -row[free]
        expected.append(vec)
    assert kernel_vectors(m) == expected


@_sizes
@_oracle_settings
@given(data=st.data())
def test_solve_matches_the_sympy_rref(sizes, densities, data):
    m = data.draw(_matrices(sizes, densities))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    if data.draw(st.booleans()):
        # a right-hand side in the column space
        x = SparseMatrix(m.cols, 1, {(c, 0): _random_scalar(rng) for c in range(m.cols)})
        image = m @ x
        b = [image.entry(r, 0) for r in range(m.rows)]
    else:
        b = [_random_scalar(rng) for _ in range(m.rows)]
    reduced, pivots = _rref_rows(_domain_matrix(m, b))
    got = solve(m, b)
    if m.cols in pivots:
        assert got is None
        return
    expected = [gauss(0)] * m.cols
    for row, c in zip(reduced, pivots):
        expected[c] = row.get(m.cols, gauss(0))
    assert got == expected


def _descending_bands(draw, size):
    """Band labels for ``size`` indices, non-increasing with the index."""
    return sorted((draw(st.integers(0, 3)) for _ in range(size)), reverse=True)


@_sizes
@_oracle_settings
@given(data=st.data())
def test_band_pivot_counts_are_the_sympy_window_ranks(sizes, densities, data):
    """With rows and columns in descending band, the pairs with row band < s and
    column band >= t count the rank of that submatrix, for every t and s."""
    m = data.draw(_matrices(sizes, densities))
    row_band = _descending_bands(data.draw, m.rows)
    col_band = _descending_bands(data.draw, m.cols)
    counts = band_pivot_counts(m, row_band, col_band)
    full = _domain_matrix(m)
    for t in range(5):
        cols = [c for c in range(m.cols) if col_band[c] >= t]
        for s in range(5):
            rows = [r for r in range(m.rows) if row_band[r] < s]
            window = full.extract(rows, cols).rank() if rows and cols else 0
            assert sum(k for (row, col), k in counts.items() if row < s and col >= t) == window, (t, s)


def test_the_drawn_shapes_reach_the_sparse_path():
    """A fixed case at the smallest of the large drawn shapes."""
    m = SparseMatrix(DENSE_CUTOFF, DENSE_CUTOFF + 1,
                     {(i, i): gauss(Fraction(1, 1 + i % 4), i % 3 - 1) for i in range(DENSE_CUTOFF)})
    assert rank(m) == _domain_matrix(m).rank() == DENSE_CUTOFF


# -- spans of sparse vectors ----------------------------------------------------------


@st.composite
def _vector_lists(draw):
    """Sparse Q(i) vectors in Q(i)^dim, with scalar multiples and sums of
    earlier vectors mixed in so that dependent vectors occur."""
    dim = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    vectors = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fresh", "multiple", "sum"])) if vectors else "fresh"
        if kind == "fresh":
            vec = {c: _random_scalar(rng) for c in range(dim) if rng.random() < 0.4}
        elif kind == "multiple":
            scale = _random_scalar(rng)
            vec = {c: scale * v for c, v in rng.choice(vectors).items()}
        else:
            u, w = rng.choice(vectors), rng.choice(vectors)
            vec = {c: u.get(c, gauss(0)) + w.get(c, gauss(0)) for c in set(u) | set(w)}
        vectors.append({c: v for c, v in vec.items() if v})
    return dim, vectors


def _rows(dim, vectors):
    return SparseMatrix(len(vectors), dim,
                        {(r, c): v for r, vec in enumerate(vectors) for c, v in vec.items()})


@_oracle_settings
@given(drawn=_vector_lists())
def test_span_basis_is_the_sympy_rref(drawn):
    dim, vectors = drawn
    reduced, _ = _rref_rows(_domain_matrix(_rows(dim, vectors)))
    assert span_basis(vectors) == reduced


@_oracle_settings
@given(drawn=_vector_lists())
def test_independent_indices_are_where_the_sympy_rank_grows(drawn):
    dim, vectors = drawn
    ranks = [0] + [_domain_matrix(_rows(dim, vectors[:i + 1])).rank() for i in range(len(vectors))]
    assert independent_indices(vectors) == [i for i in range(len(vectors)) if ranks[i + 1] > ranks[i]]


# -- H^n of catalog entries -----------------------------------------------------------


@pytest.mark.parametrize("name,poisson", [
    ("heisenberg-ext:2", "V^T1"), ("w4n6:1", "V^T1"), ("p4n2:1", "V^T2"),
])
def test_total_cohomology_matches_sympy_ranks(name, poisson):
    spec = parse_catalog_name(name)
    report = validate(spec)
    cx = ExteriorComplex(spec, report)
    lam = parse_multivector(poisson, ExpressionContext(spec, report))
    dims = total_cohomology(cx, lam, cx.dim_l)
    previous = 0
    for n in range(cx.dim_l + 1):
        matrix = total_operator(cx, [lam], n)
        current = _domain_matrix(matrix).rank()
        assert dims[n] == cx.k_dim(n) - current - previous, n
        previous = current
