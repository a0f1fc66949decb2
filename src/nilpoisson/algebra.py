"""Nilpotent Lie algebras with abelian complex structures.

An :class:`AlgebraSpec` stores only the (1,0)-side structure constants
``A^m_{kj}`` of the mixed brackets

    [Xbar_k, X_j] = sum_m A^m_{kj} X_m  -  sum_m conj(A^m_{jk}) Xbar_m,

with ``[g^{1,0}, g^{1,0}] = [g^{0,1}, g^{0,1}] = 0`` built in: the complex
structure is abelian by construction, and the (0,1)-side coefficients are
derived from conjugation, never stored, which removes reality-violating
inputs as a class.  In the 2-step case ``A^V_{kj}`` is the matrix ``E_{kj}``
of the dual structure equation for the central (1,0)-form.

The spec expands the constants once into one table ``{(a, b): [e_a, e_b]}``
over the ordered complexified basis pairs with a nonzero bracket
(coordinates 0..n-1 are X_j, n..2n-1 are Xbar_j): ``A^m_{kj}`` puts
``+-A^m_{kj}`` at X_m in ``[Xbar_k, X_j]`` / ``[X_j, Xbar_k]`` and
``-+conj(A^m_{kj})`` at Xbar_m in ``[Xbar_j, X_k]`` / ``[X_k, Xbar_j]``.
:meth:`AlgebraSpec.bracket` is bilinear in that table.

:func:`validate` reads the table directly.  It checks the Jacobi identity
on the basis triples ``a < b < c``, in ascending order, in which some pair
has a table entry: on any other triple ``[e_a, e_b]``, ``[e_b, e_c]`` and
``[e_c, e_a]`` vanish, so every term is a bracket of zero.  It then runs
the lower central series (``g^1 = [g, g]`` is the span of the table's
values) to find the nilpotency step, and computes the center (one row per
entry ``[Xbar_k, X_j]``) and the layer decomposition of ``g^{1,0}``
induced by the J-closed lower central series.  Every span and membership
test here goes through the exact triple elimination of
:mod:`nilpoisson.sparse` (:func:`~nilpoisson.sparse.span_basis`,
:func:`~nilpoisson.sparse.independent_indices`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .rationals import ZERO, ConsistencyError, GaussianRational, InputError, add_into, quote
from .sparse import SparseMatrix, independent_indices, kernel_vectors, span_basis

Vector = Dict[int, GaussianRational]  # sparse coordinates

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class AlgebraError(InputError):
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
        reserved = {f"w{i}_bar" for i in range(1, self.n + 1)} | {"rho_bar"}
        for label in labels:
            # labels are names in the expression grammar, beside the form names
            if not _LABEL_RE.fullmatch(label):
                raise AlgebraError(f"basis label {quote(label)} is not a name [A-Za-z_][A-Za-z0-9_]*")
            if label in reserved:
                raise AlgebraError(f"basis label {quote(label)} is reserved for a (0,1)-form")
        clean: Dict[Tuple[int, int, int], GaussianRational] = {}
        for (k, j, m), value in dict(self.constants).items():
            for idx in (k, j, m):
                if not 1 <= idx <= self.n:
                    raise IndexOutOfRange(f"constant index {(k, j, m)} outside 1..{self.n}")
            if value:
                clean[(k, j, m)] = value
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "constants", clean)
        # The bracket table (see the module docstring); no two constants write
        # the same coordinate of the same entry.
        n = self.n
        table: Dict[Tuple[int, int], Vector] = {}
        for (k, j, m), value in clean.items():
            table.setdefault((n + k - 1, j - 1), {})[m - 1] = value
            table.setdefault((j - 1, n + k - 1), {})[m - 1] = -value
            table.setdefault((n + j - 1, k - 1), {})[n + m - 1] = -value.conjugate()
            table.setdefault((k - 1, n + j - 1), {})[n + m - 1] = value.conjugate()
        object.__setattr__(self, "_brackets", table)

    # the generated __eq__ compares the fields; the constants dict is unhashable
    __hash__ = None

    # -- structure constants ----------------------------------------------

    def a(self, k: int, j: int, m: int) -> GaussianRational:
        """A^m_{kj}: the X_m coefficient of [Xbar_k, X_j]."""
        return self.constants.get((k, j, m), ZERO)

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

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Bracket of complexified coordinate vectors, bilinear in the table."""
        out: Vector = {}
        for cu, au in u.items():
            for cv, av in v.items():
                piece = self._brackets.get((cu, cv))
                if piece and au and av:
                    coeff = au * av
                    for c, value in piece.items():
                        add_into(out, c, coeff * value)
        return out


@dataclass(frozen=True)
class StructureReport:
    """Validated structure: step, center, and the layer decomposition.

    ``t_layers[l-1]`` realizes the l-th graded piece of g^{1,0} as a tuple
    of sparse coordinate vectors over the (1,0) basis (0-based coordinate
    j-1 for X_j); ``t_layer_indices`` gives the same layers as basis-index
    sets whenever every layer vector is a multiple of a basis vector (always
    the case for the built-in catalog), and None for a layer otherwise.  The
    top layer lies inside the center.
    """

    step: int
    dim_center: int
    center_indices: Optional[Tuple[int, ...]]
    t_layers: Tuple[Tuple[Vector, ...], ...]
    t_layer_indices: Tuple[Optional[Tuple[int, ...]], ...]


def _unit_indices(vectors: Sequence[Vector]) -> Optional[Tuple[int, ...]]:
    """Sorted 1-based indices when every vector is a multiple of a basis vector."""
    if any(len(v) != 1 for v in vectors):
        return None
    return tuple(sorted(next(iter(v)) + 1 for v in vectors))


def validate(spec: AlgebraSpec) -> StructureReport:
    """Check Jacobi and nilpotency; compute step, center, and layers.

    Raises JacobiViolation or NotNilpotent on bad input (IndexOutOfRange is
    already enforced at construction).  Two theorems are then fatal checks
    that only a bug can fail, each a ConsistencyError: the layers of the
    filtration of g^{1,0} sum to n, and the top layer lies in the center.
    """
    n = spec.n
    dim = 2 * n
    table = spec._brackets
    basis_vectors = [{i: GaussianRational(1)} for i in range(dim)]

    def _names(i):
        return spec.label(i + 1) if i < n else spec.label(i - n + 1) + "_bar"

    # Jacobi on the basis triples a < b < c that hold a bracketing pair, in
    # ascending order; on any other triple every term is a bracket of zero.
    triples = sorted({tuple(sorted((a, b, c))) for a, b in table if a < b
                      for c in range(dim) if c != a and c != b})
    for a, b, c in triples:
        total: Vector = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for m, coeff in table.get((x, y), {}).items():
                for coord, value in table.get((m, z), {}).items():
                    add_into(total, coord, coeff * value)
        if total:
            raise JacobiViolation((_names(a), _names(b), _names(c)))

    # Lower central series g^p = [g^{p-1}, g] on the complexified algebra,
    # each term as its RREF basis; g^1 = [g, g] is spanned by the table.
    def bracket_span(vectors: List[Vector]) -> List[Vector]:
        return span_basis([w for u in vectors for v in basis_vectors if (w := spec.bracket(u, v))])

    # Each term lies in the one before, so a step that does not shrink it
    # stabilizes the series, and a series that always shrinks reaches zero.
    series = [span_basis([table[pair] for pair in sorted(table)])]
    while series[-1]:
        nxt = bracket_span(series[-1])
        if len(nxt) >= len(series[-1]):
            raise NotNilpotent(f"lower central series of {quote(spec.name)} "
                               f"stabilizes at dimension {len(nxt)}")
        series.append(nxt)
    step = len(series)  # series[0] = g^1, ..., series[step-1] = g^step = 0

    # Center intersected with g^{1,0}: c = sum_j c_j X_j is central iff
    # [Xbar_k, c] = 0 for every k (like-type brackets vanish), one row per
    # (k, complexified coordinate).
    rows = {((a - n) * dim + coord, b): value
            for (a, b), vec in table.items() if a >= n for coord, value in vec.items()}
    center_vecs = kernel_vectors(SparseMatrix(n * dim, n, rows))

    # J-closed filtration of g^{1,0}: project each series term to its (1,0)
    # part (for abelian J this is the (1,0) part of g^l + J g^l).
    filtration = [basis_vectors[:n]]
    for level in range(1, step):
        filtration.append(span_basis(
            [proj for vec in series[level - 1] if (proj := {c: v for c, v in vec.items() if c < n})]))
    filtration.append([])  # g_J^step = 0

    layers: List[Tuple[Vector, ...]] = []
    for level in range(1, step + 1):
        inner, outer = filtration[level], filtration[level - 1]
        # Deterministic complement: the basis rows of the enclosing term, in
        # pivot order, that are independent of the inner term and of the rows
        # kept before them.
        layers.append(tuple(outer[i - len(inner)]
                            for i in independent_indices(inner + outer) if i >= len(inner)))

    if sum(len(layer) for layer in layers) != n:
        raise ConsistencyError(f"{spec.name}: layer dimensions do not sum to the complex dimension")
    if len(independent_indices([*center_vecs, *layers[-1]])) != len(center_vecs):
        raise ConsistencyError(f"{spec.name}: top layer escapes the center")

    return StructureReport(
        step=step,
        dim_center=len(center_vecs),
        center_indices=_unit_indices(center_vecs),
        t_layers=tuple(layers),
        t_layer_indices=tuple(_unit_indices(layer) for layer in layers),
    )
