"""Sparse exact linear algebra over the Gaussian rationals.

Rank, kernel, solve and spans come from one exact elimination, the
lowest-one column reduction of persistence (Edelsbrunner, Harer,
*Computational Topology*, VII.1).  It reads each entry once as its canonical
int triple ``(a, b, d)`` for ``(a + b*i) / d`` (see
:mod:`nilpoisson.rationals`), works on raw ints with one 3-way gcd per
updated entry, and builds :class:`GaussianRational` results once at exit.
A column gets a pair (low, column) exactly when it is independent of the
columns to its left, so :func:`rank` counts the pairs and
:func:`independent_indices` lists their columns.  :func:`kernel_vectors`,
:func:`solve` and :func:`span_basis` also track the column operations and
read the unique RREF kernel basis, so no result depends on the order of the
operations: :func:`solve` negates the kernel vector of b's column in
[M | b], and the RREF row of pivot p is e_p - sum_f k_f[p] e_f.

:func:`band_pivot_counts` counts the pairs per (row band, column band).
When the rows run in descending band and the columns too, as in
:func:`nilpoisson.cohomology.total_operator`, a column's low is its entry in
the lowest band, and the pairs with row band < s and column band >= t count
the rank of the submatrix from the columns of band >= t to the rows of band
< s, for every t and s (the pairing lemma: Cohen-Steiner, Edelsbrunner,
Morozov, SoCG 2006; see :mod:`nilpoisson.cohomology`).

There is no epsilon anywhere: an entry is nonzero iff it is structurally
nonzero.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .rationals import ONE, ZERO, GaussianRational, add_into, from_triple

# read by the benchmark tracer only, to split rank spans by shape
DENSE_CUTOFF = 64


class SparseMatrix:
    """An immutable rows x cols matrix storing only nonzero entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Optional[Mapping[Tuple[int, int], GaussianRational]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean: Dict[Tuple[int, int], GaussianRational] = {}
        if entries:
            for (r, c), value in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols} matrix")
                if value:
                    clean[(r, c)] = value
        self.entries = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int,
                 entries: Dict[Tuple[int, int], GaussianRational]) -> "SparseMatrix":
        """Take ownership of ``entries`` without copying or checking them.

        Only for matrices this package builds itself, whose entries are in
        range and nonzero by construction: summed with ``add_into``, which
        drops zeros, or copied from such a matrix to computed offsets.
        """
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix.entries = rows, cols, entries
        return matrix

    # -- access -----------------------------------------------------------

    def entry(self, r: int, c: int) -> GaussianRational:
        return self.entries.get((r, c), ZERO)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        by_row: Dict[int, List[Tuple[int, GaussianRational]]] = {}
        for (r, c), value in other.entries.items():
            by_row.setdefault(r, []).append((c, value))
        out: Dict[Tuple[int, int], GaussianRational] = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                add_into(out, (r, c), a * b)
        return SparseMatrix._trusted(self.rows, other.cols, out)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        out = dict(self.entries)
        for key, value in other.entries.items():
            add_into(out, key, value)
        return SparseMatrix._trusted(self.rows, self.cols, out)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


# -- elimination core -------------------------------------------------------
#
# Every value below is a canonical triple (a, b, d) = (a + b*i)/d.
#
# Lowest-one column reduction: sweep the columns left to right.  While a
# column's last nonzero row (its low) is the low of an earlier reduced column,
# subtract the multiple of that column that clears it; then the column is zero
# or pairs (low, column).  A reduced column is kept with its low entry, the
# pivot, set apart.  With ``track`` the reduction also keeps V, R = M V.  Only
# paired columns are ever subtracted, so column c of V is e_c plus paired
# columns to its left, and a zero column c of R gives the kernel vector that
# is 1 at c and 0 at every other zero column: the unique RREF basis vector.

Triple = Tuple[int, int, int]

_ONE_TRIPLE = (1, 0, 1)


def _subtract(target: Dict[int, Triple], source: Dict[int, Triple],
              value: Triple, pivot: Triple) -> None:
    """target -= (value / pivot) * source, entry by entry, dropping the zeros."""
    a, b, d = value
    c, e, f = pivot
    fa, fb, fd = (a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e)
    g = gcd(fa, fb, fd)
    if g != 1:
        fa, fb, fd = fa // g, fb // g, fd // g
    for k, (va, vb, vd) in source.items():
        ma, mb, md = fa * va - fb * vb, fa * vb + fb * va, fd * vd
        old = target.get(k)
        if old is None:
            a, b, d = -ma, -mb, md
        else:
            a, b, d = old
            if d == md:
                a, b = a - ma, b - mb
            else:
                a, b, d = a * md - ma * d, b * md - mb * d, d * md
            if not (a or b):
                del target[k]
                continue
        g = gcd(a, b, d)
        target[k] = (a // g, b // g, d // g) if g != 1 else (a, b, d)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector.

    A reduction allocates millions of tuples and dicts, none in a cycle, and
    each allocation burst would otherwise trigger passes over the whole heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def _reduce(matrix: SparseMatrix, track: bool = False
            ) -> Tuple[List[Tuple[int, int]], Dict[int, Dict[int, Triple]]]:
    """The pairs (low, column) in column order and, with ``track``, the kernel.

    The kernel maps each zero column f of R to its RREF kernel vector, whose
    entry 1 at f is left implicit.
    """
    columns: Dict[int, Dict[int, Triple]] = {}
    for (r, c), value in matrix.entries.items():
        col = columns.get(c)
        if col is None:
            col = columns[c] = {}
        col[r] = value.triple
    # low -> (pivot, the rest of its R column, its V column)
    reduced: Dict[int, Tuple[Triple, Dict[int, Triple], Optional[Dict[int, Triple]]]] = {}
    pairs: List[Tuple[int, int]] = []
    kernel: Dict[int, Dict[int, Triple]] = {}
    for c in range(matrix.cols) if track else sorted(columns):
        col = columns.pop(c, {})
        vec = {c: _ONE_TRIPLE} if track else None
        while col:
            low = max(col)
            owner = reduced.get(low)
            if owner is None:
                reduced[low] = col.pop(low), col, vec
                pairs.append((low, c))
                break
            pivot, source, source_vec = owner
            value = col.pop(low)
            _subtract(col, source, value, pivot)
            if track:
                _subtract(vec, source_vec, value, pivot)
        else:
            if track:
                del vec[c]
                kernel[c] = vec
    return pairs, kernel


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over Q(i)."""
    return len(_reduce(matrix)[0])


def band_pivot_counts(matrix: SparseMatrix, row_band: Sequence[int],
                      col_band: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Pairs (low, column) of the reduction per (row band, column band).

    ``row_band[r]`` and ``col_band[c]`` label each row and column; the
    counts add up to the rank.
    """
    counts: Dict[Tuple[int, int], int] = {}
    for low, c in _reduce(matrix)[0]:
        key = (row_band[low], col_band[c])
        counts[key] = counts.get(key, 0) + 1
    return counts


def kernel_vectors(matrix: SparseMatrix) -> List[Dict[int, GaussianRational]]:
    """Kernel basis as sparse coordinate dicts (the RREF basis, ascending free column)."""
    return [{free: ONE, **{k: from_triple(*value) for k, value in vec.items()}}
            for free, vec in _reduce(matrix, track=True)[1].items()]


def solve(matrix: SparseMatrix, b: Sequence[GaussianRational]) -> Optional[List[GaussianRational]]:
    """Some x with Mx = b, or None when the system is inconsistent.

    Reduces the augmented matrix [M | b], with b as column ``cols``: the
    system is inconsistent iff that column pairs, and otherwise x is its
    RREF kernel vector negated, every free variable zero.  When rank ==
    cols that is the unique solution.  Entries of b may be ints or
    Fractions.  Raises ValueError on a length mismatch.
    """
    if len(b) != matrix.rows:
        raise ValueError(f"rhs length {len(b)} != rows {matrix.rows}")
    cols = matrix.cols
    augmented = dict(matrix.entries)
    for r, v in enumerate(b):
        value = v if isinstance(v, GaussianRational) else GaussianRational(v)
        if value:
            augmented[(r, cols)] = value
    kernel = _reduce(SparseMatrix._trusted(matrix.rows, cols + 1, augmented), track=True)[1]
    if cols not in kernel:
        return None
    solution = [ZERO] * cols
    for c, (re, im, d) in kernel[cols].items():
        solution[c] = from_triple(-re, -im, d)
    return solution


# -- spans of coordinate vectors ----------------------------------------------

Vectors = Sequence[Mapping[int, GaussianRational]]


def _vector_matrix(vectors: Vectors, as_columns: bool) -> SparseMatrix:
    size = 1 + max((c for vec in vectors for c in vec), default=-1)
    if as_columns:
        return SparseMatrix(size, len(vectors),
                            {(c, i): v for i, vec in enumerate(vectors) for c, v in vec.items()})
    return SparseMatrix(len(vectors), size,
                        {(i, c): v for i, vec in enumerate(vectors) for c, v in vec.items()})


def span_basis(vectors: Vectors) -> List[Dict[int, GaussianRational]]:
    """The RREF basis of the span of the vectors, rows in pivot order.

    With the vectors as rows, the row of pivot column p is e_p - sum_f k_f[p] e_f
    over the RREF kernel vectors k_f.
    """
    pairs, kernel = _reduce(_vector_matrix(vectors, as_columns=False), track=True)
    rows = {c: {c: ONE} for _, c in pairs}
    for free, vec in kernel.items():
        for p, (a, b, d) in vec.items():
            rows[p][free] = from_triple(-a, -b, d)
    return list(rows.values())


def independent_indices(vectors: Vectors) -> List[int]:
    """Indices of the vectors independent of the vectors before them, ascending.

    With the vectors as columns, a column pairs exactly when it is
    independent of the columns to its left.
    """
    return [c for _, c in _reduce(_vector_matrix(vectors, as_columns=True))[0]]
