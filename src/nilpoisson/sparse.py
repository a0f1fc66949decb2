"""Sparse exact linear algebra over the Gaussian rationals.

Rank, kernel and solve are implemented by exact Gaussian elimination.  The
sparse path reads each entry once as its canonical int triple ``(a, b, d)``
for ``(a + b*i) / d`` (see :mod:`nilpoisson.rationals`), eliminates on raw
ints with one 3-way gcd per updated entry, and turns kernel vectors and
solutions back into :class:`GaussianRational` once at exit.  Its pivot row
for each column is the candidate with the fewest nonzero entries (ties: the
lower row index), which keeps fill-in low on the operator matrices this
package produces (a handful of entries per column); back substitution walks
a column-to-rows index of the pivot rows instead of every pivot.  Every
kernel and solution is read from this reduced row echelon form, which is
unique, so neither depends on the pivot rule.  :func:`rank` is the pivot
count of one forward sweep, at every size.  The elimination has one mode
and carries no right-hand side: :func:`solve` reduces the augmented matrix
[M | b], with b as its last column.

:func:`band_pivot_counts` runs the same forward sweep with a banded pivot
rule: each pivot comes from the holder in the lowest row band (ties: the
shortest row, then the lower index), so a row is only ever added into a row
of an equal or higher band.  With the columns in descending band, the pivots
with row band < s and column band >= t then count the rank of the submatrix
from the columns of band >= t to the rows of band < s, for every t and s
(the pairing lemma of persistence; see :mod:`nilpoisson.cohomology`).

Spans of coordinate vectors (the lower central series, layers and
membership tests in :mod:`nilpoisson.algebra` and
:mod:`nilpoisson.cohomology`) use the same triple elimination:
:func:`span_basis` reads the RREF rows of the vectors and
:func:`independent_indices` the pivot columns of one forward sweep.

There is no epsilon anywhere: a pivot is usable iff it is structurally
nonzero.
"""

from __future__ import annotations

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
# Forward phase: sweep columns left to right; among not-yet-pivoted rows with
# a nonzero in the current column, pick the shortest row (ties: the lower
# row index) and eliminate the column from the other unpivoted rows.
# Unpivoted rows then never regain entries in processed columns, so after
# the sweep every unpivoted row is empty.  Backward phase (RREF only):
# normalize pivots to 1 and, in reverse pivot order, clear each pivot column
# from the pivot rows that hold it.  A pivot row then only has entries in its
# own and in free columns, so clearing never touches a pivot column still to
# come, and the pivot rows holding each pivot column can be listed once
# before the phase starts.

Triple = Tuple[int, int, int]


def _triple_ratio(x: Triple, y: Triple) -> Triple:
    """x / y, canonical."""
    a, b, d = x
    c, e, f = y
    a, b, d = (a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e)
    g = gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


_ONE_TRIPLE = (1, 0, 1)


class _Echelon:
    __slots__ = ("cols", "row_data", "pivots")

    def __init__(self, matrix: SparseMatrix):
        self.cols = matrix.cols
        # only rows holding entries get a dict: most rows of a total operator are empty
        row_data: Dict[int, Dict[int, Triple]] = {}
        for (r, c), value in matrix.entries.items():
            row = row_data.get(r)
            if row is None:
                row = row_data[r] = {}
            row[c] = value.triple
        self.row_data = row_data
        self.pivots: List[Tuple[int, int]] = []

    def forward(self, row_band: Optional[Sequence[int]] = None) -> None:
        """Forward sweep; with ``row_band``, pivots come from the lowest band first."""
        row_data = self.row_data
        # unpivoted rows holding each column
        col_to_rows: Dict[int, set] = {}
        for r, data in row_data.items():
            for c in data:
                col_to_rows.setdefault(c, set()).add(r)
        if row_band is None:
            def key(r):
                return len(row_data[r]), r
        else:
            def key(r):
                return row_band[r], len(row_data[r]), r
        for c in sorted(col_to_rows):
            holders = col_to_rows.pop(c)
            if len(holders) == 1:
                pivot = next(iter(holders))
            elif holders:
                pivot = min(holders, key=key)
            else:
                continue
            self.pivots.append((pivot, c))
            for k in row_data[pivot]:
                if k != c:
                    col_to_rows[k].discard(pivot)
            for r in holders:
                if r != pivot:
                    self._subtract(r, pivot, c, col_to_rows)

    def reduce(self) -> None:
        """Normalize pivots and clear pivot columns upward (full RREF)."""
        row_data = self.row_data
        holding: Dict[int, List[int]] = {c: [] for _, c in self.pivots}
        for pivot, c in self.pivots:
            value = row_data[pivot][c]
            if value != _ONE_TRIPLE:
                row_data[pivot] = {k: _triple_ratio(v, value) for k, v in row_data[pivot].items()}
            for k in row_data[pivot]:
                if k != c and k in holding:
                    holding[k].append(pivot)
        for pivot, c in reversed(self.pivots):
            for other in holding[c]:
                self._subtract(other, pivot, c, None)

    def _subtract(self, target: int, source: int, col: int,
                  col_to_rows: Optional[Dict[int, set]]) -> None:
        """Clear column ``col`` of row ``target`` with a multiple of row ``source``."""
        trow, srow = self.row_data[target], self.row_data[source]
        fa, fb, fd = _triple_ratio(trow.pop(col), srow[col])
        for k, (va, vb, vd) in srow.items():
            if k == col:
                continue
            ma, mb, md = fa * va - fb * vb, fa * vb + fb * va, fd * vd
            old = trow.get(k)
            if old is None:
                a, b, d = -ma, -mb, md
            else:
                a, b, d = old
                if d == md:
                    a, b = a - ma, b - mb
                else:
                    a, b, d = a * md - ma * d, b * md - mb * d, d * md
                if not (a or b):
                    del trow[k]
                    if col_to_rows is not None:
                        col_to_rows[k].discard(target)
                    continue
            g = gcd(a, b, d)
            trow[k] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
            if old is None and col_to_rows is not None:
                col_to_rows[k].add(target)

    # -- results ---------------------------------------------------------

    def kernel_columns(self) -> List[Dict[int, GaussianRational]]:
        """One kernel vector per free column; call after :meth:`reduce`."""
        pivot_cols = {c for _, c in self.pivots}
        vectors = {free: {free: ONE} for free in range(self.cols) if free not in pivot_cols}
        for pivot, c in self.pivots:
            for k, (a, b, d) in self.row_data[pivot].items():
                if k != c:
                    vectors[k][c] = from_triple(-a, -b, d)
        return list(vectors.values())


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over Q(i)."""
    ech = _Echelon(matrix)
    ech.forward()
    return len(ech.pivots)


def band_pivot_counts(matrix: SparseMatrix, row_band: Sequence[int],
                      col_band: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Pivots per (row band, column band) of one sweep with the banded pivot rule.

    ``row_band[r]`` and ``col_band[c]`` label each row and column; the
    counts add up to the rank.
    """
    ech = _Echelon(matrix)
    ech.forward(row_band)
    counts: Dict[Tuple[int, int], int] = {}
    for r, c in ech.pivots:
        key = (row_band[r], col_band[c])
        counts[key] = counts.get(key, 0) + 1
    return counts


def kernel_vectors(matrix: SparseMatrix) -> List[Dict[int, GaussianRational]]:
    """Kernel basis as sparse coordinate dicts (from the unique RREF)."""
    ech = _Echelon(matrix)
    ech.forward()
    ech.reduce()
    return ech.kernel_columns()


def solve(matrix: SparseMatrix, b: Sequence[GaussianRational]) -> Optional[List[GaussianRational]]:
    """Some x with Mx = b, or None when the system is inconsistent.

    Reduces the augmented matrix [M | b], with b as column ``cols``: the
    system is inconsistent iff that column gets a pivot, and otherwise x_c
    is the ``cols`` entry of the pivot row of column c, every free variable
    zero.  When rank == cols that is the unique solution.  Entries of b may
    be ints or Fractions.  Raises ValueError on a length mismatch.
    """
    if len(b) != matrix.rows:
        raise ValueError(f"rhs length {len(b)} != rows {matrix.rows}")
    cols = matrix.cols
    augmented = dict(matrix.entries)
    for r, v in enumerate(b):
        value = v if isinstance(v, GaussianRational) else GaussianRational(v)
        if value:
            augmented[(r, cols)] = value
    ech = _Echelon(SparseMatrix._trusted(matrix.rows, cols + 1, augmented))
    ech.forward()
    # pivots come in column order, so a pivot in column cols is the last one
    if ech.pivots and ech.pivots[-1][1] == cols:
        return None
    ech.reduce()
    solution = [ZERO] * cols
    for pivot, c in ech.pivots:
        value = ech.row_data[pivot].get(cols)
        if value is not None:
            solution[c] = from_triple(*value)
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
    """The RREF basis of the span of the vectors, rows in pivot order."""
    ech = _Echelon(_vector_matrix(vectors, as_columns=False))
    ech.forward()
    ech.reduce()
    return [{c: from_triple(*value) for c, value in ech.row_data[pivot].items()}
            for pivot, _ in ech.pivots]


def independent_indices(vectors: Vectors) -> List[int]:
    """Indices of the vectors independent of the vectors before them, ascending.

    With the vectors as columns, the forward sweep gives a column a pivot
    exactly when it is independent of the columns to its left.
    """
    ech = _Echelon(_vector_matrix(vectors, as_columns=True))
    ech.forward()
    return [c for _, c in ech.pivots]
