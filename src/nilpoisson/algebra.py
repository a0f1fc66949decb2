"""Nilpotent Lie algebras with abelian complex structures.

An :class:`AlgebraSpec` stores only the (1,0)-side structure constants
``A^m_{kj}`` of the mixed brackets

    [Xbar_k, X_j] = sum_m A^m_{kj} X_m  -  sum_m conj(A^m_{jk}) Xbar_m,

with ``[g^{1,0}, g^{1,0}] = [g^{0,1}, g^{0,1}] = 0`` built in: the complex
structure is abelian by construction, and the (0,1)-side coefficients are
derived from conjugation, never stored, which removes reality-violating
inputs as a class.  In the 2-step case ``A^V_{kj}`` is the matrix ``E_{kj}``
of the dual structure equation for the central (1,0)-form.

:func:`validate` checks the Jacobi identity on all complexified basis
triples, runs the lower central series to find the nilpotency step, and
computes the center and the layer decomposition of ``g^{1,0}`` induced by
the J-closed lower central series.  Every span and membership test here
goes through the exact triple elimination of :mod:`nilpoisson.sparse`
(:func:`~nilpoisson.sparse.span_basis`,
:func:`~nilpoisson.sparse.independent_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .rationals import ZERO, GaussianRational
from .sparse import SparseMatrix, independent_indices, kernel_vectors, span_basis

Vector = Dict[int, GaussianRational]  # sparse coordinates


class AlgebraError(ValueError):
    """Base class for structural problems with an algebra spec."""


class IndexOutOfRange(AlgebraError):
    pass


class JacobiViolation(AlgebraError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class NotNilpotent(AlgebraError):
    pass


class CenterDimensionError(AlgebraError):
    pass


@dataclass(frozen=True, eq=True)
class AlgebraSpec:
    """A nilpotent Lie algebra with abelian complex structure.

    ``n`` is the complex dimension of g^{1,0}; ``labels`` names its basis;
    ``constants`` maps 1-based ``(k, j, m)`` to ``A^m_{kj}``.
    """

    name: str
    n: int
    labels: Tuple[str, ...]
    constants: Mapping[Tuple[int, int, int], GaussianRational] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise AlgebraError(f"complex dimension must be >= 1, got {self.n}")
        labels = tuple(self.labels)
        if len(labels) != self.n:
            raise AlgebraError(f"expected {self.n} labels, got {len(labels)}")
        if len(set(labels)) != self.n:
            raise AlgebraError("basis labels must be distinct")
        clean: Dict[Tuple[int, int, int], GaussianRational] = {}
        for (k, j, m), value in dict(self.constants).items():
            for idx in (k, j, m):
                if not 1 <= idx <= self.n:
                    raise IndexOutOfRange(f"constant index {(k, j, m)} outside 1..{self.n}")
            if value:
                clean[(k, j, m)] = value
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "constants", clean)
        # [Xbar_k, X_j] for every (k, j) with a nonzero bracket: A^m_{kj} at X_m
        # and B^m_{kj} = -conj(A^m_{jk}) at Xbar_m (complexified coordinates)
        conj_brackets: Dict[Tuple[int, int], Vector] = {}
        for (k, j, m), value in clean.items():
            conj_brackets.setdefault((k, j), {})[m - 1] = value
            conj_brackets.setdefault((j, k), {})[self.n + m - 1] = -value.conjugate()
        object.__setattr__(self, "_conj_brackets", conj_brackets)

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (self.name, self.n, self.labels, dict(self.constants)) == (
            other.name, other.n, other.labels, dict(other.constants))

    __hash__ = None  # mutable mapping member; identity is by content via __eq__

    # -- structure constants ----------------------------------------------

    def a(self, k: int, j: int, m: int) -> GaussianRational:
        """A^m_{kj}: the X_m coefficient of [Xbar_k, X_j]."""
        return self.constants.get((k, j, m), ZERO)

    def b(self, k: int, j: int, m: int) -> GaussianRational:
        """B^m_{kj} = -conj(A^m_{jk}): the derived Xbar_m coefficient."""
        return -self.a(j, k, m).conjugate()

    @property
    def dim_l(self) -> int:
        """Dimension of L = g^{1,0} + g^{*(0,1)}."""
        return 2 * self.n

    def label(self, index: int) -> str:
        return self.labels[index - 1]

    # -- complexified brackets ---------------------------------------------
    #
    # Complexified coordinates: 0..n-1 are the X_j components, n..2n-1 the
    # Xbar_j components (1-based basis index j = coordinate + 1).

    def bracket_conj_vec(self, k: int, j: int) -> Vector:
        """[Xbar_k, X_j] in complexified coordinates (shared; do not mutate)."""
        return self._conj_brackets.get((k, j), {})

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Bracket of complexified coordinate vectors."""
        n = self.n
        out: Vector = {}
        for cu, au in u.items():
            if not au:
                continue
            for cv, av in v.items():
                if not av:
                    continue
                coeff = au * av
                if cu >= n and cv < n:        # [Xbar_k, X_j]
                    piece = self.bracket_conj_vec(cu - n + 1, cv + 1)
                elif cu < n and cv >= n:      # [X_j, Xbar_k] = -[Xbar_k, X_j]
                    piece = self.bracket_conj_vec(cv - n + 1, cu + 1)
                    coeff = -coeff
                else:                          # like-type brackets vanish
                    continue
                for c, value in piece.items():
                    acc = out.get(c, ZERO) + coeff * value
                    if acc:
                        out[c] = acc
                    elif c in out:
                        del out[c]
        return out


@dataclass(frozen=True)
class StructureReport:
    """Validated structure: step, center, and the layer decomposition.

    ``t_layers[l-1]`` realizes the l-th graded piece of g^{1,0} as a tuple
    of coordinate vectors over the (1,0) basis; ``t_layer_indices`` gives
    the same layers as basis-index sets whenever every layer vector is a
    standard basis vector (always the case for the built-in catalog), and
    None for a layer otherwise.  The top layer lies inside the center.
    """

    step: int
    jacobi_ok: bool
    dim_center: int
    center_basis: Tuple[Tuple[GaussianRational, ...], ...]
    center_indices: Optional[Tuple[int, ...]]
    t_layers: Tuple[Tuple[Tuple[GaussianRational, ...], ...], ...]
    t_layer_indices: Tuple[Optional[Tuple[int, ...]], ...]


def _unit_index(vector: Tuple[GaussianRational, ...]) -> Optional[int]:
    """1-based index when the vector is a scalar multiple of a basis vector."""
    support = [i for i, v in enumerate(vector) if v]
    if len(support) == 1:
        return support[0] + 1
    return None


def _dense(vec: Vector, length: int) -> Tuple[GaussianRational, ...]:
    out = [ZERO] * length
    for c, v in vec.items():
        out[c] = v
    return tuple(out)


def validate(spec: AlgebraSpec) -> StructureReport:
    """Check Jacobi and nilpotency; compute step, center, and layers.

    Raises JacobiViolation, NotNilpotent, or IndexOutOfRange (the last is
    already enforced at construction).
    """
    n = spec.n
    dim = 2 * n

    # Jacobi on all unordered complexified basis triples.  Like-type triples
    # are automatic only when brackets vanish, so check everything.
    basis_vectors = [{i: GaussianRational(1)} for i in range(dim)]

    def _names(i):
        return spec.label(i + 1) if i < n else spec.label(i - n + 1) + "_bar"

    for a in range(dim):
        for b in range(a + 1, dim):
            ab = spec.bracket(basis_vectors[a], basis_vectors[b])
            for c in range(b + 1, dim):
                total: Vector = {}
                for term in (
                    spec.bracket(ab, basis_vectors[c]),
                    spec.bracket(spec.bracket(basis_vectors[b], basis_vectors[c]), basis_vectors[a]),
                    spec.bracket(spec.bracket(basis_vectors[c], basis_vectors[a]), basis_vectors[b]),
                ):
                    for coord, value in term.items():
                        acc = total.get(coord, ZERO) + value
                        if acc:
                            total[coord] = acc
                        elif coord in total:
                            del total[coord]
                if total:
                    raise JacobiViolation((_names(a), _names(b), _names(c)))

    # Lower central series g^p = [g^{p-1}, g] on the complexified algebra,
    # each term as its RREF basis.
    def bracket_span(vectors: List[Vector]) -> List[Vector]:
        return span_basis([w for u in vectors for v in basis_vectors if (w := spec.bracket(u, v))])

    series = [bracket_span(basis_vectors)]
    while series[-1]:
        if len(series) > dim:
            raise NotNilpotent(f"lower central series of {spec.name!r} does not reach zero")
        nxt = bracket_span(series[-1])
        if len(nxt) == len(series[-1]):
            raise NotNilpotent(f"lower central series of {spec.name!r} stabilizes at dimension {len(nxt)}")
        series.append(nxt)
    step = len(series)  # series[0] = g^1, ..., series[step-1] = g^step = 0

    # Center intersected with g^{1,0}: coefficients c_j with
    # sum_j c_j A^m_{kj} = 0 and sum_j c_j conj(A^m_{jk}) = 0 for all k, m.
    rows: Dict[Tuple[int, int], GaussianRational] = {}
    row_ids: Dict[Tuple[str, int, int], int] = {}

    def _row(tag, k, m):
        key = (tag, k, m)
        if key not in row_ids:
            row_ids[key] = len(row_ids)
        return row_ids[key]

    for (k, j, m), value in spec.constants.items():
        # Stored key (k, j, m) carries A^m_{kj}: it enters the holomorphic
        # constraint row (k, m) at column j, and the conjugate constraint
        # row (j, m) at column k (as conj(A^m_{kj})).
        r = _row("a", k, m)
        rows[(r, j - 1)] = rows.get((r, j - 1), ZERO) + value
        r = _row("b", j, m)
        rows[(r, k - 1)] = rows.get((r, k - 1), ZERO) + value.conjugate()
    rows = {key: v for key, v in rows.items() if v}
    center_vecs = kernel_vectors(SparseMatrix(len(row_ids), n, rows))
    center_basis = tuple(_dense(v, n) for v in center_vecs)
    center_units = [_unit_index(v) for v in center_basis]
    center_indices = tuple(sorted(center_units)) if all(u is not None for u in center_units) else None

    # J-closed filtration of g^{1,0}: project each series term to its (1,0)
    # part (for abelian J this is the (1,0) part of g^l + J g^l).
    filtration = [basis_vectors[:n]]
    for level in range(1, step):
        filtration.append(span_basis(
            [proj for vec in series[level - 1] if (proj := {c: v for c, v in vec.items() if c < n})]))
    filtration.append([])  # g_J^step = 0

    layers: List[Tuple[Tuple[GaussianRational, ...], ...]] = []
    layer_indices: List[Optional[Tuple[int, ...]]] = []
    for level in range(1, step + 1):
        inner, outer = filtration[level], filtration[level - 1]
        # Deterministic complement: the basis rows of the enclosing term, in
        # pivot order, that are independent of the inner term and of the rows
        # kept before them.
        dense_layer = tuple(_dense(outer[i - len(inner)], n)
                            for i in independent_indices(inner + outer) if i >= len(inner))
        layers.append(dense_layer)
        units = [_unit_index(v) for v in dense_layer]
        layer_indices.append(tuple(sorted(units)) if all(u is not None for u in units) else None)

    if sum(len(layer) for layer in layers) != n:
        raise AlgebraError("layer dimensions do not sum to the complex dimension")
    top = [{i: val for i, val in enumerate(v) if val} for v in layers[-1]]
    if len(independent_indices(center_vecs + top)) != len(center_vecs):
        raise AlgebraError("top layer escapes the center; input is inconsistent")

    return StructureReport(
        step=step,
        jacobi_ok=True,
        dim_center=len(center_basis),
        center_basis=center_basis,
        center_indices=center_indices,
        t_layers=tuple(layers),
        t_layer_indices=tuple(layer_indices),
    )


def d_rho_matrix(spec: AlgebraSpec, v_index: int,
                 report: Optional[StructureReport] = None) -> SparseMatrix:
    """Matrix of the contraction d(rho): t^{1,0} -> t^{*(0,1)}.

    Rows and columns run over the non-center basis indices in ascending
    order; the (b, j) entry is A^V_{bj} = d(rho)(X_j, Xbar_b), rho being
    the (1,0)-form dual to the one-dimensional center spanned by v_index.
    """
    report = report or validate(spec)
    if report.dim_center != 1:
        raise CenterDimensionError(
            f"d_rho needs a one-dimensional (1,0) center, got {report.dim_center}")
    if report.center_indices != (v_index,):
        raise CenterDimensionError(
            f"basis index {v_index} does not span the center {report.center_indices}")
    t_idx = [i for i in range(1, spec.n + 1) if i != v_index]
    entries = {}
    for bi, b in enumerate(t_idx):
        for ji, j in enumerate(t_idx):
            value = spec.a(b, j, v_index)
            if value:
                entries[(bi, ji)] = value
    return SparseMatrix(len(t_idx), len(t_idx), entries)
