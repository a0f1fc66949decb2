"""Cohomology of the Poisson bi-complex (B^{p,q}, ad_Lambda, dbar).

Everything here reduces to exact ranks of the memoized operator blocks:

* Dolbeault dimensions  H^q(g^{p,0}) = dim ker dbar|B^{p,q} - rank dbar|B^{p,q-1},
  through the core of L_Lambda, or of L_0 when no Lambda is given;
* total cohomology of dbar_Lambda = dbar + ad_Lambda on K^n = sum_{p+q=n} B^{p,q}
  by exact rank of the total operator T_n -- the oracle every theorem-level
  claim is checked against;
* the first page E_1^{p,q} = H^q(g^{p,0}) with the rank of the induced map
  d_1 = ad_Lambda, and E_2 from those ranks;
* the degeneracy obstruction for Lambda = V ^ T: whether ad_Lambda(rho_bar)
  = dbar X is solvable with X in t^{1,0}, which for such Lambda is
  equivalent to first-page degeneracy and forces the Hodge-type dimension
  decomposition when it holds;
* the deformed differential delta = dbar_Lambda + [Omega_bar, -] for an
  integrable (0,2) deformation class.

Every dimension table -- the Dolbeault rows, H^n_Lambda, the deformed H^n
and E_2 -- is the homology of a complex with known ranks, read by one
rule, ``_homology``: dim = size - rank out - rank in.

One elimination of T_n per degree serves H^n, every d_1 block and every
dbar block of that degree.  Call the source block p of a column and the
target block p of a row its band.  T_n's columns run in descending band;
dbar keeps the band and ad_Lambda raises it by 1, so F^t K^n maps into
F^t K^{n+1}.  Let W(n,t,s) be the rank of T_n from bands t..s-1 to bands
t..s-1, i.e. of F^t K^n -> K^{n+1}/F^s.  Sweep the columns in order and
take each pivot from the holder in the lowest row band
(:func:`~nilpoisson.sparse.band_pivot_counts`): every row operation then
adds a row into a row of an equal or higher band, the rows of band < s
only mix among themselves, and after the sweep every nonzero row has its
own leading column.  So for every t <= s, W(n,t,s) is the number of pivots
with row band < s and column band >= t (the pairing lemma of persistence:
Cohen-Steiner, Edelsbrunner, Morozov, SoCG 2006).  Three read-outs follow:

* rank T_n = the number of all pivots;
* rank dbar|B^{p,n-p} = W(n,p,p+1);
* rank d_1^{p,q} = W(n,p,p+2) - W(n,p,p+1) - W(n,p+1,p+2), n = p + q: the
  image of the window on B^{p,q} + B^{p+1,q-1} projects onto im dbar|B^{p,q}
  with kernel ad_Lambda(ker dbar) + im dbar|B^{p+1,q-1} (McCleary, *A User's
  Guide to Spectral Sequences*, 2nd ed., Thm 2.6).

The banded dbar rank must equal the rank of the dbar block eliminated on
its own for the Dolbeault table, a fatal check.  The deformed differential
adds Omega_bar, which lowers p, so its total operator is not filtered this
way and is ranked without bands.

Free generators split off.  K^* is the exterior algebra on the 2n
generators, and T = dbar + ad_Lambda is an odd derivation, fixed by its
images on them.  Call a generator g free when T g = 0 and g occurs in no
image T h (:meth:`~nilpoisson.exterior.ExteriorComplex.split` reads this
off the generator tables).  Then K = K(core) (x) Lambda(free), with
T(a ^ m) = T(a) ^ m for every free monomial m, so T_n is block diagonal:
one signed copy of T_{n-v-f}(core) per free monomial with v vectors and
f forms, with both bands shifted by v.  Ranks add over the copies, so
every rank table is the core's expanded by one rule, ``_expand``: each
entry moves with its copy and is multiplied by C(F_v, v) C(F_f, f), F_v
and F_f the numbers of free vectors and forms.  A banded count moves
(n, row, col) -> (n+v+f, row+v, col+v), a dbar rank (p, q) -> (p+v, q+f).
On w4n6:k with Lambda = V ^ T1, 2k+1 of the 4k+6 generators are free.
The deformed differential delta = T + ad_Omega_bar is an odd derivation
too, so the same holds for L_{Lambda,Omega_bar}, unbanded: rank delta_n
moves n -> n+v+f, and each free generator adds a unit vector to the
kernel on K^1.

The Dolbeault table uses the same core.  A generator free for Lambda is
free for dbar alone: on a generator g, dbar g and ad_Lambda g lie in
different bidegrees (dbar raises q, ad_Lambda raises p), so T g = 0 forces
both to vanish, and g occurs in T h exactly when it occurs in dbar h or
in ad_Lambda h.  So the dbar blocks of the core serve both the Dolbeault
table and T_n, and are assembled once.  There is one route: the core
sweeps and eliminates and the complex expands; with nothing free, the
complex is its own core and F_v = F_f = 0.

Dimension statements that are theorems (the injectivity bound, the
obstruction/degeneracy equivalence, the Hodge equality under a solvable
obstruction, Serre symmetry of the full Dolbeault table) are enforced as
fatal consistency checks: a violation raises :class:`ConsistencyError`
instead of being reported as a result, since it can only mean an
implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import CenterDimensionError, StructureReport
from .expressions import ExpressionContext, format_multivector
from .exterior import ExteriorComplex, GradedElement, Monomial, wedge
from .rationals import ONE, ZERO, ConsistencyError, GaussianRational, InputError
from .sparse import (SparseMatrix, band_pivot_counts, independent_indices, kernel_vectors,
                     rank, solve)


class ObstructionInputError(InputError):
    """The obstruction solver's hypotheses are not met."""


DEFAULT_DEGREE_CAP = 6


def _render(cx: ExteriorComplex, element: GradedElement) -> str:
    """Lambda (or Omega_bar) as the CLI prints it, for ConsistencyError messages."""
    return format_multivector(element, ExpressionContext(cx.spec, cx.report))


def degree_cap(cx: ExteriorComplex, max_degree: Optional[int]) -> int:
    if max_degree is None:
        return min(cx.dim_l, DEFAULT_DEGREE_CAP)
    return max(0, min(max_degree, cx.dim_l))


# -- Dolbeault table ---------------------------------------------------------


def _homology(sizes: Dict, ranks: Dict, source) -> Dict:
    """size - rank out - rank in for every term c of ``sizes``, in its order.

    ``ranks[c]`` is the rank of the map leaving c and ``ranks[source(c)]``,
    ``source`` a function of the term, that of the map into c; a missing
    rank counts as 0.
    """
    return {c: size - ranks.get(c, 0) - ranks.get(source(c), 0) for c, size in sizes.items()}


def _expand(table: Dict, free_vecs: int, free_forms: int, cap: int, move) -> Dict:
    """A complex's table from its core's: each entry once per copy of the core.

    The copy times the free monomials with v vectors and f forms moves a
    key to ``move(key, v, f)``, v + f degrees up; there are
    C(F_v, v) C(F_f, f) of them.  Copies moved past ``cap`` are left out.
    """
    out: Dict = {}
    for v in range(min(free_vecs, cap) + 1):
        for f in range(min(free_forms, cap - v) + 1):
            mult = comb(free_vecs, v) * comb(free_forms, f)
            for key, value in table.items():
                moved = move(key, v, f)
                out[moved] = out.get(moved, 0) + value * mult
    return out


def _dbar_ranks(cx: ExteriorComplex, lam: GradedElement, cap: int) -> Dict[Tuple[int, int], int]:
    """rank dbar|B^{p,q}, complete for p + q <= cap; each core block eliminated alone.

    B^{p,q} is the sum of B^{p-v,q-f} of L_lam's core times the free
    monomials with v vectors and f forms, and dbar acts on the core factor
    alone.  Memoized per (lam, cap).
    """
    key = ("dbar", lam, cap)
    ranks = cx.tables.get(key)
    if ranks is None:
        core, free_vecs, free_forms = cx.split(lam)
        ranks = cx.tables[key] = _expand(
            {(p, q): core.operator_block("dbar", p, q).rank()
             for p in range(min(core.n_vec, cap) + 1) for q in range(min(core.n_form, cap - p) + 1)},
            free_vecs, free_forms, cap, lambda block, v, f: (block[0] + v, block[1] + f))
    return ranks


def dolbeault_dims(cx: ExteriorComplex, max_total: Optional[int] = None,
                   lam: Optional[GradedElement] = None) -> Dict[Tuple[int, int], int]:
    """dim H^q(g^{p,0}) for every block with p + q <= max_total.

    The table does not depend on lam; the dbar ranks come from the core
    of L_lam (L_0 without lam), whose blocks its T_n reads as well.
    """
    cap = degree_cap(cx, max_total)
    sizes = {(p, q): cx.block_dim(p, q) for p in range(min(cx.n, cap) + 1)
             for q in range(min(cx.n, cap - p) + 1)}
    ranks = _dbar_ranks(cx, GradedElement() if lam is None else lam, cap)
    return _homology(sizes, ranks, lambda block: (block[0], block[1] - 1))


# -- total complex ------------------------------------------------------------


def _degree_blocks(cx: ExteriorComplex, degree: int) -> List[Tuple[int, int]]:
    """Blocks of K^degree, polyvector degree descending (filtration order)."""
    lowest = max(degree - cx.n_form, 0)
    return [(p, degree - p) for p in range(min(degree, cx.n_vec), lowest - 1, -1)]


def _bands(cx: ExteriorComplex, blocks: Sequence[Tuple[int, int]]) -> List[int]:
    """The filtration band p of every basis position of the blocks, in order."""
    return [p for (p, q) in blocks for _ in range(cx.block_dim(p, q))]


def total_operator(cx: ExteriorComplex, summands: Sequence[GradedElement],
                   degree: int) -> SparseMatrix:
    """The matrix of dbar + sum of ad_(summand) on K^degree -> K^{degree+1}.

    Columns run over the blocks of K^degree and rows over those of
    K^{degree+1}, both in descending p.  dbar maps B^{p,q} to B^{p,q+1} and
    ad_E, for E of bidegree (a,b), to B^{p+a-1,q+b}.  The summands must
    therefore have pairwise distinct bidegrees, none of them (1,1), so that
    no two pieces leaving one block land on the same target block: entries
    are placed, not added, and a repeated (source, target) pair raises
    ConsistencyError.  The callers pass Lambda, of bidegree (2,0), and for
    the deformed complex also Omega_bar, of bidegree (0,2).
    """
    row_offset: Dict[Tuple[int, int], int] = {}
    n_rows = 0
    for block in _degree_blocks(cx, degree + 1):
        row_offset[block] = n_rows
        n_rows += cx.block_dim(*block)
    entries: Dict[Tuple[int, int], GaussianRational] = {}
    col_base = 0
    for (p, q) in _degree_blocks(cx, degree):
        pieces = [cx.operator_block("dbar", p, q)]
        pieces += [cx.operator_block("ad", p, q, element) for element in summands if element]
        reached = set()
        for piece in pieces:
            if piece.target in reached:
                raise ConsistencyError(
                    f"{cx.spec.name}: two operator pieces map block {piece.source} "
                    f"to block {piece.target}")
            reached.add(piece.target)
            row_base = row_offset.get(piece.target)
            if row_base is None:
                if piece.matrix.entries:
                    raise ConsistencyError(
                        f"{cx.spec.name}: operator {piece.source}->{piece.target} "
                        f"escapes degree {degree + 1}")
                continue
            for (r, c), value in piece.matrix.entries.items():
                entries[(row_base + r, col_base + c)] = value
        col_base += cx.block_dim(p, q)
    # block entries are nonzero and inside their blocks, so every placed entry
    # is nonzero and in range
    return SparseMatrix._trusted(n_rows, col_base, entries)


def _band_sweep(cx: ExteriorComplex, lam: GradedElement, degree: int) -> Dict[Tuple[int, int], int]:
    """Pivots of cx's own T_degree per (row band, column band): one banded sweep, memoized."""
    key = (lam, degree)
    counts = cx.pivot_counts.get(key)
    if counts is None:
        counts = cx.pivot_counts[key] = band_pivot_counts(
            total_operator(cx, [lam], degree), _bands(cx, _degree_blocks(cx, degree + 1)),
            _bands(cx, _degree_blocks(cx, degree)))
    return counts


def _pivot_counts(cx: ExteriorComplex, lam: GradedElement,
                  cap: int) -> Dict[Tuple[int, int, int], int]:
    """Pivots of T_n = dbar + ad_Lambda per (n, row band, column band), complete for n <= cap.

    The core of L_lam sweeps its T_n for n < core.dim_l (its top T is 0),
    and each count moves to degree n+v+f, both bands up by v; memoized per (lam, cap).
    """
    key = ("bands", lam, cap)
    counts = cx.tables.get(key)
    if counts is None:
        core, free_vecs, free_forms = cx.split(lam)
        counts = cx.tables[key] = _expand(
            {(n, row, col): k for n in range(min(cap, core.dim_l - 1) + 1)
             for (row, col), k in _band_sweep(core, lam, n).items()},
            free_vecs, free_forms, cap, lambda key, v, f: (key[0] + v + f, key[1] + v, key[2] + v))
    return counts


def _window_rank(counts: Dict[Tuple[int, int, int], int], n: int, t: int, s: int) -> int:
    """W(n, t, s): the rank of T_n from bands t..s-1 to bands t..s-1.

    No pivot's row band is below its column band: T_n and the sweep never lower one.
    """
    return sum(counts.get((n, row, col), 0) for row in range(t, s) for col in range(t, row + 1))


def total_cohomology(cx: ExteriorComplex, lam: GradedElement,
                     max_degree: Optional[int] = None) -> Dict[int, int]:
    """dim H^n of dbar_Lambda for n = 0..max_degree, by exact rank."""
    cap = degree_cap(cx, max_degree)
    counts = _pivot_counts(cx, lam, cap)
    ranks = {n: _window_rank(counts, n, 0, n + 2) for n in range(cap + 1)}   # all bands: rank T_n
    return _homology({n: cx.k_dim(n) for n in ranks}, ranks, lambda n: n - 1)


# -- spectral sequence: first and second pages ---------------------------------


@dataclass(frozen=True)
class FirstPage:
    e1: Dict[Tuple[int, int], int]
    d1_ranks: Dict[Tuple[int, int], int]
    degenerate: bool


def first_page(cx: ExteriorComplex, lam: GradedElement,
               max_total: Optional[int] = None) -> FirstPage:
    """E_1 dimensions and the exact rank of every induced d_1 block.

    rank d_1^{p,q} = W(n,p,p+2) - W(n,p,p+1) - W(n,p+1,p+2) with n = p + q,
    read from the banded pivot counts of T_n (see the module docstring).
    W(n,p,p+1) is rank dbar|B^{p,q}; it must equal the rank of that block
    on its own, eliminated independently for the Dolbeault table, or
    ConsistencyError is raised.  Both sides come from L_lam's core: its
    banded counts and its block ranks, each expanded.
    """
    e1 = dolbeault_dims(cx, max_total, lam)
    cap = degree_cap(cx, max_total)
    counts, block_ranks = _pivot_counts(cx, lam, cap), _dbar_ranks(cx, lam, cap)
    d1_ranks: Dict[Tuple[int, int], int] = {}
    for (p, q) in e1:
        dbar_rank = _window_rank(counts, p + q, p, p + 1)
        block_rank = block_ranks[(p, q)]
        if dbar_rank != block_rank:
            raise ConsistencyError(
                f"{cx.spec.name}, Lambda = {_render(cx, lam)}: dbar on B^{{{p},{q}}} has "
                f"rank {dbar_rank} in the banded elimination of K^{p + q} but rank "
                f"{block_rank} as a block")
        d1_ranks[(p, q)] = (_window_rank(counts, p + q, p, p + 2) - dbar_rank
                            - _window_rank(counts, p + q, p + 1, p + 2))
    degenerate = all(v == 0 for v in d1_ranks.values())
    return FirstPage(e1=e1, d1_ranks=d1_ranks, degenerate=degenerate)


def second_page(page: FirstPage) -> Dict[Tuple[int, int], int]:
    """E_2^{p,q} = ker d_1^{p,q} / im d_1^{p-1,q}, dimensions only."""
    return _homology(page.e1, page.d1_ranks, lambda block: (block[0] - 1, block[1]))


# -- obstruction solver ---------------------------------------------------------


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the linear degeneracy obstruction for Lambda = V ^ T."""

    kind: str                                   # "trivial_action" | "solvable" | "unsolvable"
    solution: Optional[GradedElement] = None    # X in t^{1,0} when solvable
    unique: bool = False


def _in_top_layer(report: StructureReport, t: GradedElement) -> bool:
    """Whether the (1,0) vector t lies in the t_{k-1} layer (k = step >= 2)."""
    layer = report.t_layers[report.step - 2]
    vector = {mono.vec[0] - 1: c for mono, c in t.terms()}
    return len(layer) not in independent_indices([*layer, vector])


def obstruction(cx: ExteriorComplex, t: GradedElement) -> ObstructionResult:
    """Solve ad_{V^T}(rho_bar) = dbar X for X in t^{1,0}.

    Requires a one-dimensional (1,0) center spanned by a basis vector V and
    T inside the t_{k-1} layer.  Returns trivial_action when the bracket
    action on rho_bar already vanishes (then ad_Lambda = 0 identically);
    otherwise the system is the contraction identity
    iota_T d(rho_bar) = -iota_X d(rho), and solvability is equivalent to
    first-page degeneracy for this Lambda.

    The system matrix is the memoized dbar block B^{1,0} -> B^{1,1} itself.
    V is central, so dbar V = 0: its column is zero (checked, fatal), never
    takes a pivot, and its variable stays 0, so the solution on the other
    columns is the one on t^{1,0} alone: X = sum_c x_c X_{c+1}.
    """
    report = cx.report
    if report.dim_center != 1:
        raise CenterDimensionError(
            f"obstruction needs dim c^{{1,0}} = 1, got {report.dim_center}")
    if report.center_indices is None:
        raise CenterDimensionError(
            "obstruction needs a coordinate center; the (1,0) center is not spanned "
            "by a basis vector")
    v_index, = report.center_indices
    if report.step < 2:
        raise ObstructionInputError("abelian algebra has no t_{k-1} layer")

    if t.bidegrees() - {(1, 0)}:
        raise ObstructionInputError("T must be a (1,0) vector")
    if not _in_top_layer(report, t):
        raise ObstructionInputError(
            f"T is not inside the t_{report.step - 1} layer")

    rho_bar = GradedElement.form(v_index)
    lam = wedge(GradedElement.vector(v_index), t)
    rhs_element = cx.schouten(lam, rho_bar)
    if not rhs_element:
        return ObstructionResult(kind="trivial_action")

    block = cx.operator_block("dbar", 1, 0)
    v_column = cx.basis_index(((v_index,), ()))
    if any(c == v_column for _, c in block.matrix.entries):
        raise ConsistencyError(
            f"{cx.spec.name}: dbar of the central vector {cx.spec.label(v_index)} is nonzero")
    b = [ZERO] * block.matrix.rows
    for pos, value in cx.coordinates(rhs_element, 1, 1).items():
        b[pos] = value
    x = solve(block.matrix, b)
    if x is None:
        return ObstructionResult(kind="unsolvable")
    solution = GradedElement({Monomial((c + 1,), ()): v for c, v in enumerate(x)})
    return ObstructionResult("solvable", solution, unique=block.rank() == cx.n - 1)


def check_obstruction_verdict(cx: ExteriorComplex, lam: GradedElement, kind: str,
                              page: FirstPage) -> bool:
    """Whether the obstruction ``kind`` for lam = V ^ T says degenerate.

    For such lam the obstruction is equivalent to first-page degeneracy,
    and an unsolvable obstruction is exactly d_1^{0,1} != 0.  So
    disagreeing with the page's degeneracy, or an unsolvable verdict with
    d_1^{0,1} = 0, raises :class:`ConsistencyError`.  A page that lacks
    the block (0,1) (cap 0) is replaced by the page at cap 1, whose pivot
    counts are memoized.  A page at cap 1 is enough for an unsolvable
    verdict.
    """
    degenerate = kind in ("trivial_action", "solvable")
    if (0, 1) not in page.e1:
        page = first_page(cx, lam, 1)
    if degenerate != page.degenerate:
        raise ConsistencyError(
            f"{cx.spec.name}, Lambda = {_render(cx, lam)}: obstruction {kind!r} says "
            f"degenerate={degenerate} but the d_1 table says degenerate={page.degenerate}")
    if not degenerate and page.d1_ranks[(0, 1)] == 0:
        raise ConsistencyError(
            f"{cx.spec.name}, Lambda = {_render(cx, lam)}: obstruction {kind!r} but "
            "d_1 vanishes on E_1^{0,1}")
    return degenerate


# -- Hodge verdict ----------------------------------------------------------------


@dataclass(frozen=True)
class DegreeComparison:
    degree: int
    h_lambda: int
    hpq_sum: int

    @property
    def equal(self) -> bool:
        return self.h_lambda == self.hpq_sum


@dataclass(frozen=True)
class HodgeVerdict:
    hodge: bool
    per_degree: Tuple[DegreeComparison, ...]


def hodge_verdict(cx: ExteriorComplex, lam: GradedElement, hn: Dict[int, int],
                  hpq: Dict[Tuple[int, int], int]) -> HodgeVerdict:
    """Compare dim H^n_Lambda with sum_{p+q=n} dim H^{p,q} per degree of ``hn``.

    ``hn`` and ``hpq`` are the tables of :func:`total_cohomology` and
    :func:`dolbeault_dims` at one degree cap.  The <= direction is a theorem
    for every invariant holomorphic Poisson structure; a violation is a
    fatal internal error, never a result.
    """
    rows = []
    for n in sorted(hn):
        total = sum(dim for (p, q), dim in hpq.items() if p + q == n)
        row = DegreeComparison(degree=n, h_lambda=hn[n], hpq_sum=total)
        if row.h_lambda > row.hpq_sum:
            raise ConsistencyError(
                f"{cx.spec.name}, Lambda = {_render(cx, lam)}: dim H^{n}_Lambda = "
                f"{row.h_lambda} exceeds the Dolbeault sum {row.hpq_sum}; this "
                "contradicts the injectivity bound and indicates a bug")
        rows.append(row)
    return HodgeVerdict(hodge=all(r.equal for r in rows), per_degree=tuple(rows))


# -- deformation -------------------------------------------------------------------


class DeformationError(InputError):
    pass


class NotBidegree02(DeformationError):
    pass


class NotIntegrable(DeformationError):
    pass


@dataclass(frozen=True)
class DeformationReport:
    dims: Dict[int, int]
    k1_kernel: Tuple[GradedElement, ...]

    @property
    def k1_kernel_dim(self) -> int:
        return len(self.k1_kernel)


def deformed_complex(cx: ExteriorComplex, lam: GradedElement, omega_bar: GradedElement,
                     max_degree: Optional[int] = None) -> DeformationReport:
    """Cohomology of delta = dbar_Lambda + [Omega_bar, -] plus ker on K^1.

    Omega_bar must be an integrable (0,2) class: dbar_Lambda(Omega_bar) = 0.
    [Omega_bar, Omega_bar] = 0 needs no check: [wbar^i, wbar^j] = 0 makes it
    vanish for every (0,2) Omega_bar.  Lambda is checked first with
    :meth:`ExteriorComplex.validate_poisson`.  The operators T_n run on the
    core of L_{Lambda,Omega_bar}, and each rank is expanded over the free
    monomials as in :func:`_pivot_counts`, without bands.  delta^2 = 0 is
    verified on every pair of assembled core operators T_n, T_{n+1} before
    any dimension is reported; T_1 is assembled at every cap, cap 0
    included, for the kernel on K^1, and eliminated once: its rank is
    cols - dim ker.  The kernel on K^1 is the core's plus one unit vector
    per free generator, ordered by free column as the RREF kernel of the
    whole T_1.
    """
    cx.validate_poisson(lam)
    if omega_bar.bidegrees() - {(0, 2)}:
        raise NotBidegree02(
            f"expected a (0,2) class, got bidegrees {sorted(omega_bar.bidegrees())}")
    closure = cx.dbar(omega_bar) + cx.schouten(lam, omega_bar)
    if closure:
        raise NotIntegrable("dbar_Lambda(Omega_bar) != 0")

    summands = [lam, omega_bar]
    core, free_vecs, free_forms = cx.split(*summands)
    cap = degree_cap(cx, max_degree)
    # T of the core's top degree is 0
    operators = [total_operator(core, summands, n)
                 for n in range(max(min(cap, core.dim_l - 1), 1) + 1)]
    for n in range(len(operators) - 1):
        if not (operators[n + 1] @ operators[n]).is_zero():
            raise ConsistencyError(
                f"{cx.spec.name}, Lambda = {_render(cx, lam)}, Omega_bar = "
                f"{_render(cx, omega_bar)}: delta^2 != 0 between K^{n} and K^{n + 2}")

    kernel = kernel_vectors(operators[1])
    core_ranks = {n: operators[1].cols - len(kernel) if n == 1 else rank(matrix)
                  for n, matrix in enumerate(operators)}
    ranks = _expand(core_ranks, free_vecs, free_forms, cap, lambda n, v, f: n + v + f)
    dims = _homology({n: cx.k_dim(n) for n in range(cap + 1)}, ranks, lambda n: n - 1)

    # the RREF kernel vector of a free column is zero past it; K^1 runs over
    # X_1..X_n, then wbar^1..wbar^n, so (form, vec) sorts in column order
    core_k1 = [mono for block in _degree_blocks(core, 1) for mono in core.basis(*block)]
    by_column = [(core_k1[max(vec)], {core_k1[i]: v for i, v in vec.items()}) for vec in kernel]
    by_column += [(mono, {mono: ONE}) for mono in (
        *(Monomial((i,), ()) for i in cx.vec_indices if i not in core.vec_indices),
        *(Monomial((), (i,)) for i in cx.form_indices if i not in core.form_indices))]
    by_column.sort(key=lambda pair: (pair[0].form, pair[0].vec))
    return DeformationReport(dims=dims,
                             k1_kernel=tuple(GradedElement(terms) for _, terms in by_column))


# -- full analysis ------------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyReport:
    """Everything the analyzer computes for one (algebra, Lambda) pair."""

    algebra_name: str
    n: int
    dim_l: int
    step: int
    dim_center: int
    max_degree: int
    poisson: Optional[str]
    hpq: Dict[Tuple[int, int], int]
    hn_lambda: Dict[int, int]
    e1_d1_ranks: Dict[Tuple[int, int], int]
    e2: Dict[Tuple[int, int], int]
    degeneracy: bool
    hodge: bool
    per_degree: Tuple[DegreeComparison, ...]
    obstruction_kind: Optional[str] = None
    obstruction_solution: Optional[Dict[str, GaussianRational]] = None

    def to_json_dict(self) -> dict:
        return {
            "algebra": {
                "name": self.algebra_name,
                "complex_dimension": self.n,
                "dim_l": self.dim_l,
                "step": self.step,
                "dim_center": self.dim_center,
            },
            "poisson": self.poisson,
            "max_degree": self.max_degree,
            "hpq": {f"{p},{q}": dim for (p, q), dim in sorted(self.hpq.items())},
            "hn_lambda": {str(n): dim for n, dim in sorted(self.hn_lambda.items())},
            "e1_d1_ranks": {f"{p},{q}": r for (p, q), r in sorted(self.e1_d1_ranks.items())},
            "e2": {f"{p},{q}": dim for (p, q), dim in sorted(self.e2.items())},
            "degeneracy": self.degeneracy,
            "hodge": self.hodge,
            "per_degree": [
                {"n": row.degree, "h_lambda": row.h_lambda,
                 "hpq_sum": row.hpq_sum, "equal": row.equal}
                for row in self.per_degree
            ],
            "obstruction": (
                None if self.obstruction_kind is None else {
                    "kind": self.obstruction_kind,
                    "solution": (
                        None if self.obstruction_solution is None else
                        {label: str(value) for label, value in sorted(self.obstruction_solution.items())}
                    ),
                }
            ),
        }


def _detect_center_wedge(cx: ExteriorComplex, lam: GradedElement) -> Optional[GradedElement]:
    """Decompose lam as V ^ T for the coordinate one-dimensional center.

    Returns T, or None when lam is not of that shape (or the hypotheses on
    the center fail).  T is one contraction of lam: V's index is dropped
    from every term, negated when V is the second factor (X_a ^ V =
    -(V ^ X_a)); the wedge check V ^ T == lam rejects every other shape.
    """
    report = cx.report
    # a nonzero (2,0) lam needs n >= 2, so a one-dimensional center means step >= 2
    if not lam or report.dim_center != 1 or report.center_indices is None:
        return None
    v = report.center_indices[0]
    t = GradedElement({Monomial(tuple(i for i in mono.vec if i != v), mono.form):
                       -coeff if mono.vec[1:2] == (v,) else coeff for mono, coeff in lam.terms()})
    if wedge(GradedElement.vector(v), t) != lam:
        return None
    if not _in_top_layer(report, t):
        return None
    return t


def _check_serre_symmetry(cx: ExteriorComplex, hpq: Dict[Tuple[int, int], int]) -> None:
    """h^{p,q} = h^{n-p,n-q} on the full Dolbeault table, or ConsistencyError.

    A nilpotent Lie algebra with a complex structure has a nonzero closed
    invariant (n,0)-form (Salamon, "Complex structures on nilpotent Lie
    algebras", J. Pure Appl. Algebra 157, 2001).  Contraction with it maps
    B^{p,q} isomorphically onto the forms Lambda^{n-p,q} and commutes with
    dbar, so h^{p,q} = h_dbar^{n-p,q}.  A nilpotent Lie algebra is
    unimodular, so Serre duality gives h_dbar^{n-p,q} = h_dbar^{p,n-q},
    which is h^{n-p,n-q} by the same contraction.  The table does not
    depend on Lambda.
    """
    n = cx.n
    for (p, q), dim in hpq.items():
        dual = hpq[(n - p, n - q)]
        if dim != dual:
            raise ConsistencyError(
                f"{cx.spec.name}: h^{{{p},{q}}} = {dim} but h^{{{n - p},{n - q}}} = {dual}; "
                "this contradicts Serre symmetry and indicates a bug")


def analyze(cx: ExteriorComplex, lam: Optional[GradedElement] = None,
            max_degree: Optional[int] = None) -> CohomologyReport:
    """Full report: tables, verdicts, and theorem consistency checks.

    lam None analyzes Lambda = 0 and reports ``poisson`` None; a given lam
    (zero included) is reported as the CLI renders it.  When lam is V ^ T
    with T in the top layer, the degeneracy obstruction runs on T as well.
    """
    poisson = None if lam is None else _render(cx, lam)
    lam = lam if lam is not None else GradedElement()
    cx.validate_poisson(lam)
    cap = degree_cap(cx, max_degree)

    hpq = dolbeault_dims(cx, cap, lam)
    hn = total_cohomology(cx, lam, cap)
    page = first_page(cx, lam, cap)
    e2 = second_page(page)
    verdict = hodge_verdict(cx, lam, hn, hpq)

    # E_2 sandwich: sum E_2 per degree sits between dim H^n and sum E_1.
    for row in verdict.per_degree:
        e2_sum = sum(dim for (p, q), dim in e2.items() if p + q == row.degree)
        if not (row.h_lambda <= e2_sum <= row.hpq_sum):
            raise ConsistencyError(
                f"{cx.spec.name}, Lambda = {_render(cx, lam)}: degree {row.degree}: "
                f"E_2 sum {e2_sum} outside [{row.h_lambda}, {row.hpq_sum}]")

    obstruction_kind = None
    obstruction_solution = None
    degeneracy = page.degenerate
    t = _detect_center_wedge(cx, lam)
    if t is not None:
        result = obstruction(cx, t)
        obstruction_kind = result.kind
        if result.solution is not None:
            obstruction_solution = {cx.spec.label(mono.vec[0]): v
                                    for mono, v in result.solution.terms()}
        degeneracy = check_obstruction_verdict(cx, lam, result.kind, page)
        if degeneracy and not verdict.hodge:
            raise ConsistencyError(
                f"{cx.spec.name}, Lambda = {_render(cx, lam)}: solvable obstruction "
                "without the Hodge-type dimension equality")
    if cap == cx.dim_l:
        _check_serre_symmetry(cx, hpq)

    return CohomologyReport(
        algebra_name=cx.spec.name,
        n=cx.n,
        dim_l=cx.dim_l,
        step=cx.report.step,
        dim_center=cx.report.dim_center,
        max_degree=cap,
        poisson=poisson,
        hpq=hpq,
        hn_lambda=hn,
        e1_d1_ranks=page.d1_ranks,
        e2=e2,
        degeneracy=degeneracy,
        hodge=verdict.hodge,
        per_degree=verdict.per_degree,
        obstruction_kind=obstruction_kind,
        obstruction_solution=obstruction_solution,
    )
