"""Engine-level results: Dolbeault tables, totals, pages, obstruction, Hodge.

The expected dimensions here come from three independent sources: closed
forms for the torus (everything is closed), hand counts on the W_6 complex
(six generators, a single structure constant), and the brute-force
total-complex rank oracle, whose value for the non-degenerate W_6 case is
frozen at 4.
"""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from nilpoisson import (AlgebraSpec, CenterDimensionError, ExpressionContext,
                        ExteriorComplex, GradedElement, SparseMatrix, analyze,
                        deformed_complex, dolbeault_dims, first_page, hodge_verdict,
                        kernel_vectors, obstruction, parse_catalog_name,
                        parse_multivector, rank, second_page, solve, total_cohomology,
                        total_operator, wedge)
from nilpoisson.catalog import (double_heisenberg, heisenberg_ext, p_family, torus,
                                w_family)
from nilpoisson.cohomology import ConsistencyError, NotIntegrable, ObstructionInputError
from nilpoisson.exterior import PoissonError
from nilpoisson.rationals import gauss
from test_exterior import _small_scalars, _two_step_complexes

HALF = Fraction(1, 2)


def V(i):
    return GradedElement.vector(i)


def F(i):
    return GradedElement.form(i)


# -- Dolbeault dimensions -----------------------------------------------------


def test_torus_dolbeault_table():
    cx = ExteriorComplex(torus(2))
    dims = dolbeault_dims(cx, max_total=4)
    for (p, q), dim in dims.items():
        assert dim == comb(2, p) * comb(2, q)


def test_w6_dolbeault_low_degrees(w6_complex):
    dims = dolbeault_dims(w6_complex)
    assert dims[(1, 0)] == 2       # spanned by V and T1
    assert dims[(0, 1)] == 3       # all of g^{*(0,1)}


# -- total cohomology (the oracle) ----------------------------------------------


def test_torus_total_matches_binomials():
    cx = ExteriorComplex(torus(2))
    dims = total_cohomology(cx, GradedElement(), max_degree=4)
    assert dims == {n: comb(4, n) for n in range(5)}


def test_w6_hodge_case_dimension(w6_complex):
    dims = total_cohomology(w6_complex, wedge(V(3), V(2)), max_degree=6)
    assert dims[1] == 5


def test_w6_nondegenerate_case_strict_drop(w6_complex):
    """Frozen oracle value: H^1 drops from 5 to 4 for Lambda = V ^ T1."""
    dims = total_cohomology(w6_complex, wedge(V(3), V(1)), max_degree=6)
    assert dims[1] == 4
    assert dims[1] < 5


def test_euler_characteristic_vanishes(w6_complex, heis1_complex):
    for cx, lam in ((w6_complex, wedge(V(3), V(1))),
                    (w6_complex, wedge(V(3), V(2))),
                    (heis1_complex, wedge(V(2), V(1)))):
        dims = total_cohomology(cx, lam, max_degree=cx.dim_l)
        assert sum((-1) ** n * d for n, d in dims.items()) == 0


# -- first and second pages -------------------------------------------------------


def test_zero_poisson_degenerates_to_dolbeault(w6_complex):
    page = first_page(w6_complex, GradedElement())
    assert page.degenerate
    assert page.e1 == dolbeault_dims(w6_complex)
    assert all(r == 0 for r in page.d1_ranks.values())


def test_heisenberg_first_page_degenerates(heis1_complex):
    page = first_page(heis1_complex, wedge(V(2), V(1)))
    assert page.degenerate


def test_w6_first_page_obstruction_block(w6_complex):
    page = first_page(w6_complex, wedge(V(3), V(1)))
    assert not page.degenerate
    assert page.d1_ranks[(0, 1)] == 1


def test_second_page_equals_first_when_degenerate(w6_complex):
    lam = wedge(V(3), V(2))
    page = first_page(w6_complex, lam)
    assert second_page(page) == page.e1


def test_w6_second_page_strict_drop(w6_complex):
    lam = wedge(V(3), V(1))
    page = first_page(w6_complex, lam)
    e2 = second_page(page)
    assert e2[(0, 1)] == page.e1[(0, 1)] - 1
    degree_one = e2[(1, 0)] + e2[(0, 1)]
    assert degree_one < 5
    # sandwich: dim H^1 <= sum E_2 <= sum E_1
    dims = total_cohomology(w6_complex, lam, max_degree=2)
    assert dims[1] <= degree_one <= 5


def test_torus_bivector_acts_trivially():
    cx = ExteriorComplex(torus(2))
    lam = wedge(V(1), V(2))
    page = first_page(cx, lam, max_total=4)
    assert page.degenerate
    assert second_page(page) == page.e1


def _oracle_d1_ranks(cx, lam, cap):
    """rank d_1^{p,q} by lifting kernel representatives.

    A kernel basis of dbar on B^{p,q} is pushed through ad_Lambda and the
    images are ranked modulo the dbar-exact elements of B^{p+1,q}.
    """
    ranks = {}
    for p in range(min(cx.n, cap) + 1):
        for q in range(min(cx.n, cap - p) + 1):
            kernel = kernel_vectors(cx.operator_block("dbar", p, q).matrix)
            lift = SparseMatrix(cx.block_dim(p, q), len(kernel),
                                {(r, c): v for c, vec in enumerate(kernel)
                                 for r, v in vec.items()})
            pushed = cx.operator_block("ad", p, q, lam).matrix @ lift
            exact = cx.operator_block("dbar", p + 1, q - 1).matrix   # no columns at q = 0
            combined = dict(exact.entries)
            for (r, c), value in pushed.entries.items():
                combined[(r, exact.cols + c)] = value
            ranks[(p, q)] = (rank(SparseMatrix(exact.rows, exact.cols + pushed.cols, combined))
                             - rank(exact))
    return ranks


@pytest.mark.parametrize("name, expr, cap", [
    ("w4n6:1", "V^T1", 6), ("w4n6:2", "V^T1", 5), ("w4n6:3", "V^T1", 4),
    ("p4n2:2", "V^T2", 6), ("double-heisenberg:2,1", "V^T1", 6),
])
def test_d1_ranks_match_the_kernel_lift_oracle(name, expr, cap):
    spec = parse_catalog_name(name)
    cx = ExteriorComplex(spec)
    lam = parse_multivector(expr, ExpressionContext(spec, cx.report))
    ranks = first_page(cx, lam, cap).d1_ranks
    assert ranks == _oracle_d1_ranks(cx, lam, cap)
    assert any(ranks.values()) == name.startswith("w4n6")


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cx=_two_step_complexes(), data=st.data())
def test_d1_ranks_match_the_kernel_lift_oracle_on_random_two_step(cx, data):
    t = GradedElement()
    for i in range(1, cx.n):
        t = t + V(i) * data.draw(_small_scalars)
    lam = wedge(V(cx.n), t)
    cx.validate_poisson(lam)
    assert first_page(cx, lam, cx.dim_l).d1_ranks == _oracle_d1_ranks(cx, lam, cx.dim_l)


def _stitched_window(cx, lam, n, t, s):
    """T_n from bands t..s-1 of K^n to bands t..s-1 of K^{n+1}, placed block by block."""
    def blocks(degree):
        offsets, total = {}, 0
        for p in range(t, min(s, degree + 1, cx.n + 1)):
            if degree - p <= cx.n:
                offsets[(p, degree - p)] = total
                total += cx.block_dim(p, degree - p)
        return offsets, total

    col_offset, cols = blocks(n)
    row_offset, rows = blocks(n + 1)
    entries = {}
    for source, col_base in col_offset.items():
        pieces = [cx.operator_block("dbar", *source)]
        if lam:
            pieces.append(cx.operator_block("ad", *source, lam))
        for piece in pieces:
            if piece.target in row_offset:
                for (r, c), value in piece.matrix.entries.items():
                    entries[(row_offset[piece.target] + r, col_base + c)] = value
    return SparseMatrix(rows, cols, entries)


def _assert_band_counts_match_stitched_windows(cx, lam, cap):
    from nilpoisson.cohomology import _pivot_counts, _window_rank

    counts = _pivot_counts(cx, lam, cap)
    for n in range(cap + 1):
        for t in range(cx.n + 2):
            for s in range(t + 1, cx.n + 3):
                assert _window_rank(counts, n, t, s) == rank(_stitched_window(cx, lam, n, t, s)), \
                    (n, t, s)


@pytest.mark.parametrize("name, expr, cap", [
    ("w4n6:1", "V^T1", 10), ("w4n6:2", "V^T1", 7), ("p4n2:2", "V^T2", 10),
])
def test_band_counts_match_the_stitched_windows(name, expr, cap):
    spec = parse_catalog_name(name)
    cx = ExteriorComplex(spec)
    lam = parse_multivector(expr, ExpressionContext(spec, cx.report))
    _assert_band_counts_match_stitched_windows(cx, lam, cap)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cx=_two_step_complexes(), data=st.data())
def test_band_counts_match_the_stitched_windows_on_random_two_step(cx, data):
    t = GradedElement()
    for i in range(1, cx.n):
        t = t + V(i) * data.draw(_small_scalars)
    lam = wedge(V(cx.n), t)
    cx.validate_poisson(lam)
    _assert_band_counts_match_stitched_windows(cx, lam, cx.dim_l)


# -- free generators: the factored route against the whole complex -----------------


def _assert_factored_route_matches_the_whole_route(cx, lam, cap):
    """The core's expanded counts equal one sweep over the whole T_n, and the
    Dolbeault table through the core equals the whole dbar blocks' ranks."""
    from nilpoisson.cohomology import _bands, _degree_blocks, _pivot_counts
    from nilpoisson.sparse import band_pivot_counts

    assert cx.split(lam)[0] is not cx   # the core under test is smaller than the complex
    counts = _pivot_counts(cx, lam, cap)
    for n in range(cap + 1):
        whole = band_pivot_counts(total_operator(cx, [lam], n),
                                  _bands(cx, _degree_blocks(cx, n + 1)),
                                  _bands(cx, _degree_blocks(cx, n)))
        assert {(row, col): k for (d, row, col), k in counts.items() if d == n} == whole, n
    ranks = {(p, q): cx.operator_block("dbar", p, q).rank()
             for p in range(cx.n + 1) for q in range(cx.n + 1) if p + q <= cap}
    assert dolbeault_dims(cx, cap, lam) == {
        (p, q): cx.block_dim(p, q) - rank - ranks.get((p, q - 1), 0)
        for (p, q), rank in ranks.items()}


@pytest.mark.parametrize("name, expr, cap", [
    ("w4n6:0", "V^T1", None), ("w4n6:1", "V^T1", None), ("w4n6:2", "V^T1", None),
    ("w4n6:3", "V^T1", None), ("w4n6:4", "V^T1", 6), ("torus:3", "X1^X3", None),
])
def test_factored_counts_match_the_whole_complex(name, expr, cap):
    cx = ExteriorComplex(parse_catalog_name(name))
    lam = _parse(cx, expr)
    core, free_vecs, free_forms = cx.split(lam)
    if name.startswith("w4n6"):   # 2k+1 of the 4k+6 generators are free
        assert free_vecs + free_forms == cx.n - 2
    else:                         # every generator of a torus is free
        assert core.dim_l == 0 and (free_vecs, free_forms) == (3, 3)
    _assert_factored_route_matches_the_whole_route(cx, lam, cx.dim_l if cap is None else cap)


# no shrinking: each shrink step reruns the whole-complex oracle, and a failure
# would take minutes to shrink where it is found in about a second
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(cx=_two_step_complexes(), extra=st.integers(min_value=1, max_value=2), data=st.data())
def test_factored_counts_match_the_whole_complex_with_a_torus_factor(cx, extra, data):
    """A random 2-step algebra times a torus: the torus generators are free."""
    spec = cx.spec
    n = spec.n + extra
    labels = spec.labels + tuple(f"Z{i}" for i in range(1, extra + 1))
    cx = ExteriorComplex(AlgebraSpec("random-2step-torus", n, labels, spec.constants))
    t = GradedElement()
    for i in [*range(1, spec.n), *range(spec.n + 1, n + 1)]:
        t = t + V(i) * data.draw(_small_scalars)
    lam = wedge(V(spec.n), t)
    cx.validate_poisson(lam)
    _assert_factored_route_matches_the_whole_route(cx, lam, cx.dim_l)


def _assert_factored_deformation_matches_the_whole_route(cx, lam, omega, cap):
    """deformed_complex, through the core of L_{Lambda,Omega_bar}, equals ranking
    every whole T_n and eliminating the whole T_1 for its RREF kernel."""
    from nilpoisson.cohomology import _degree_blocks

    operators = [total_operator(cx, [lam, omega], n) for n in range(max(cap, 1) + 1)]
    ranks = [rank(matrix) for matrix in operators]
    flat_basis = [mono for block in _degree_blocks(cx, 1) for mono in cx.basis(*block)]
    kernel = [GradedElement({flat_basis[i]: v for i, v in vec.items()})
              for vec in kernel_vectors(operators[1])]
    result = deformed_complex(cx, lam, omega, max_degree=cap)
    assert result.dims == {n: cx.k_dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
                           for n in range(cap + 1)}
    assert list(result.k1_kernel) == kernel
    return result


@pytest.mark.parametrize("name, lam, omega, cap, free", [
    ("w4n6:0", "V^T2", "rho_bar^w1_bar", None, (0, 1)),
    ("w4n6:1", "V^T2", "rho_bar^w1_bar", None, (0, 1)),
    ("w4n6:2", "V^T2", "rho_bar^w1_bar", None, (0, 1)),
    ("w4n6:3", "V^T2", "rho_bar^w1_bar", 5, (0, 1)),
    ("w4n6:1", "V^T1", "w1_bar^w2_bar", None, (2, 1)),   # free T1 and T3 precede the forms
    ("p4n2:2", "V^T2", "rho_bar^w1_bar", None, (0, 0)),
])
def test_factored_deformation_matches_the_whole_complex(name, lam, omega, cap, free):
    cx = ExteriorComplex(parse_catalog_name(name))
    lam, omega = _parse(cx, lam), _parse(cx, omega)
    assert cx.split(lam, omega)[1:] == free
    _assert_factored_deformation_matches_the_whole_route(
        cx, lam, omega, cx.dim_l if cap is None else cap)


def test_deformation_on_an_empty_core():
    """Every generator of a torus is free: the core has no generator and the
    kernel on K^1 is the six unit vectors."""
    cx = ExteriorComplex(torus(3))
    lam, omega = wedge(V(1), V(2)), wedge(F(1), F(2))
    assert cx.split(lam, omega)[0].dim_l == 0
    result = _assert_factored_deformation_matches_the_whole_route(cx, lam, omega, cx.dim_l)
    assert result.dims == {n: comb(6, n) for n in range(7)}
    assert list(result.k1_kernel) == [V(1), V(2), V(3), F(1), F(2), F(3)]


# no shrinking: each shrink step reruns the whole-complex oracle, and a failure
# would take minutes to shrink where it is found in about a second
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(cx=_two_step_complexes(), extra=st.integers(min_value=1, max_value=2), data=st.data())
def test_factored_deformation_matches_the_whole_complex_with_a_torus_factor(cx, extra, data):
    """A random 2-step algebra times a torus, Omega_bar drawn from ker ad_Lambda on
    B^{0,2} (dbar vanishes there): the torus vectors are free."""
    spec = cx.spec
    n = spec.n + extra
    labels = spec.labels + tuple(f"Z{i}" for i in range(1, extra + 1))
    cx = ExteriorComplex(AlgebraSpec("random-2step-torus", n, labels, spec.constants))
    t = GradedElement()
    for i in range(1, spec.n):
        t = t + V(i) * data.draw(_small_scalars)
    lam = wedge(V(spec.n), t)
    cx.validate_poisson(lam)
    forms = cx.basis(0, 2)
    omega = GradedElement()
    for vec in kernel_vectors(cx.operator_block("ad", 0, 2, lam).matrix):
        omega = omega + GradedElement({forms[i]: v for i, v in vec.items()}) * data.draw(
            _small_scalars)
    assert cx.split(lam, omega)[0] is not cx
    _assert_factored_deformation_matches_the_whole_route(cx, lam, omega, cx.dim_l)


def test_second_dolbeault_table_asks_for_no_dbar_block(monkeypatch):
    """The expanded dbar ranks are memoized per (Lambda, cap), so the table
    first_page reads again comes from the ranks of the first pass."""
    cx = ExteriorComplex(parse_catalog_name("w4n6:2"))
    lam = _parse(cx, "V^T1")
    table = dolbeault_dims(cx, 4, lam)
    core, _, _ = cx.split(lam)
    asked = []
    for c in (cx, core):
        monkeypatch.setattr(c, "operator_block", lambda *args: asked.append(args))
    assert dolbeault_dims(cx, 4, lam) == table and not asked
    assert list(cx.tables) == [("dbar", lam, 4)] and not core.tables


@pytest.mark.parametrize("summands", [("V^T2",), ("V^T2", "rho_bar^w1_bar")],
                         ids=["Lambda", "Lambda-Omega_bar"])
def test_a_complex_with_nothing_free_is_its_own_core(summands):
    cx = ExteriorComplex(parse_catalog_name("p4n2:2"))
    core, free_vecs, free_forms = cx.split(*(_parse(cx, text) for text in summands))
    assert core is cx and (free_vecs, free_forms) == (0, 0)


def test_only_the_core_sweeps():
    """The whole complex only expands: every banded sweep is the core's, one
    per degree below core.dim_l (the core's top T is 0)."""
    cx = ExteriorComplex(parse_catalog_name("w4n6:2"))
    lam = _parse(cx, "V^T1")
    analyze(cx, lam, max_degree=cx.dim_l)
    core, _, _ = cx.split(lam)
    assert not cx.pivot_counts and not core.tables
    assert sorted(degree for _, degree in core.pivot_counts) == list(range(core.dim_l))


# -- obstruction --------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_obstruction_always_uniquely_solvable(n):
    cx = ExteriorComplex(heisenberg_ext(n))
    for j in range(1, n + 1):
        result = obstruction(cx, V(j))
        assert result.kind == "solvable"
        assert result.unique


def test_heisenberg_solution_value(heis1_complex):
    """For E_11 = -i/2 the unique solution is X = -T1; verify dbar X = ad rho_bar."""
    result = obstruction(heis1_complex, V(1))
    x = result.solution
    assert x == GradedElement.vector(1, -1)
    lam = wedge(V(2), V(1))
    assert heis1_complex.dbar(x) == heis1_complex.schouten(lam, F(2))


def test_w6_trivial_action(w6_complex):
    assert obstruction(w6_complex, V(2)).kind == "trivial_action"


def test_w6_unsolvable(w6_complex):
    assert obstruction(w6_complex, V(1)).kind == "unsolvable"


def test_obstruction_solution_satisfies_the_equation():
    cx = ExteriorComplex(p_family(1))
    for j in (1, 2):
        result = obstruction(cx, V(j))
        assert result.kind == "solvable" and result.unique
        lam = wedge(V(3), V(j))
        assert cx.dbar(result.solution) == cx.schouten(lam, F(3))


def test_obstruction_rejects_bad_center():
    cx = ExteriorComplex(torus(2))
    with pytest.raises(CenterDimensionError):
        obstruction(cx, V(2))


def test_obstruction_rejects_vector_outside_layer():
    # 3-step with one-dimensional center {X3}: t_{k-1} = t_2 = {X2}, so X1
    # sits in the wrong layer
    spec = AlgebraSpec("three-step-slim", 3, ("X1", "X2", "X3"),
                       {(1, 1, 2): gauss(1), (1, 2, 3): gauss(1)})
    cx = ExteriorComplex(spec)
    assert cx.report.t_layer_indices == ((1,), (2,), (3,))
    with pytest.raises(ObstructionInputError):
        obstruction(cx, V(1))


def test_obstruction_requires_one_dimensional_center(three_step_complex):
    with pytest.raises(CenterDimensionError):
        obstruction(three_step_complex, V(2))


def _restricted_obstruction(cx, t):
    """Reference: (kind, solution, unique) solved on dbar restricted to t^{1,0}.

    The columns of the dbar block B^{1,0} -> B^{1,1} are cut down to the
    non-central basis vectors before solving, and uniqueness is a second
    rank of that system.
    """
    v_index, = cx.report.center_indices
    t_indices = tuple(i for i in range(1, cx.n + 1) if i != v_index)
    rhs = cx.schouten(wedge(V(v_index), t), F(v_index))
    if not rhs:
        return "trivial_action", None, False
    block = cx.operator_block("dbar", 1, 0).matrix
    column_of = {index: pos for pos, index in enumerate(t_indices)}
    sources = [mono.vec[0] for mono in cx.basis(1, 0)]
    system = SparseMatrix(block.rows, len(t_indices),
                          {(r, column_of[sources[c]]): value
                           for (r, c), value in block.entries.items() if sources[c] in column_of})
    b = [gauss(0)] * system.rows
    for pos, value in cx.coordinates(rhs, 1, 1).items():
        b[pos] = value
    x = solve(system, b)
    if x is None:
        return "unsolvable", None, False
    solution = sum((GradedElement.vector(i, v) for i, v in zip(t_indices, x)), GradedElement())
    return "solvable", solution, rank(system) == len(t_indices)


def _assert_matches_restricted(cx, t):
    result = obstruction(cx, t)
    assert (result.kind, result.solution, result.unique) == _restricted_obstruction(cx, t)


_ACCEPTANCE_OBSTRUCTION = ["heisenberg-ext:1", "heisenberg-ext:2", "heisenberg-ext:3",
                           "double-heisenberg:1,1", "double-heisenberg:2,1",
                           "p4n2:1", "p4n2:2", "w4n6:0", "w4n6:1"]


@pytest.mark.parametrize("name", _ACCEPTANCE_OBSTRUCTION)
def test_obstruction_on_the_dbar_block_matches_the_restricted_system(name):
    """Solving on the whole dbar block gives the restricted system's answer."""
    cx = ExteriorComplex(parse_catalog_name(name))
    report = cx.report
    for t_index in report.t_layer_indices[report.step - 2]:
        _assert_matches_restricted(cx, V(t_index))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cx=_two_step_complexes(), data=st.data())
def test_obstruction_matches_the_restricted_system_on_random_two_step(cx, data):
    assume(cx.report.center_indices == (cx.n,))
    t = GradedElement()
    for i in range(1, cx.n):
        t = t + V(i) * data.draw(_small_scalars)
    _assert_matches_restricted(cx, t)


def test_obstruction_needs_a_coordinate_center():
    # heisenberg-ext:1 in the basis Y1 = T1, Y2 = T1 + V: every [Ybar_k, Y_j]
    # is V - conj = (Y2 - Y1) - conj, and the center is spanned by Y2 - Y1
    spec = AlgebraSpec("skew-center", 2, ("Y1", "Y2"),
                       {(k, j, m): gauss(1 if m == 2 else -1)
                        for k in (1, 2) for j in (1, 2) for m in (1, 2)})
    cx = ExteriorComplex(spec)
    assert cx.report.dim_center == 1 and cx.report.center_indices is None
    with pytest.raises(CenterDimensionError, match="not spanned by a basis vector"):
        obstruction(cx, V(1))


# -- Hodge verdicts -------------------------------------------------------------------


def _verdict(cx, lam, cap=6):
    return hodge_verdict(cx, lam, total_cohomology(cx, lam, cap), dolbeault_dims(cx, cap))


def test_w6_hodge_equality(w6_complex):
    verdict = _verdict(w6_complex, wedge(V(3), V(2)))
    assert verdict.hodge
    degree_one = verdict.per_degree[1]
    assert (degree_one.h_lambda, degree_one.hpq_sum) == (5, 5)


def test_w6_hodge_failure_at_degree_one(w6_complex):
    verdict = _verdict(w6_complex, wedge(V(3), V(1)))
    assert not verdict.hodge
    assert not verdict.per_degree[1].equal


def test_double_heisenberg_hodge():
    cx = ExteriorComplex(double_heisenberg(1, 1))
    lam = wedge(V(3), V(1))          # V ^ S1
    verdict = _verdict(cx, lam)
    assert verdict.hodge


# -- analyze: the full report -----------------------------------------------------------


def test_analyze_report_w6(w6_complex):
    report = analyze(w6_complex, wedge(V(3), V(2)))
    assert report.hn_lambda[1] == 5
    assert report.hodge and report.degeneracy
    assert report.obstruction_kind == "trivial_action"
    assert report.step == 2 and report.dim_center == 1

    report = analyze(w6_complex, wedge(V(3), V(1)))
    assert report.hn_lambda[1] == 4
    assert not report.hodge and not report.degeneracy
    assert report.obstruction_kind == "unsolvable"
    assert report.e1_d1_ranks[(0, 1)] == 1


def test_analyze_solvable_reports_solution(heis1_complex):
    report = analyze(heis1_complex, wedge(V(2), V(1)))
    assert report.obstruction_kind == "solvable"
    assert report.obstruction_solution == {"T1": gauss(-1)}


def test_analyze_json_keys_are_stable(w6_complex):
    report = analyze(w6_complex, wedge(V(3), V(2)))
    payload = report.to_json_dict()
    assert payload["hn_lambda"]["1"] == 5
    assert payload["hpq"]["1,0"] == 2
    assert payload["obstruction"]["kind"] == "trivial_action"


def test_analyze_names_the_lambda_it_is_given():
    """The report's poisson is Lambda as the CLI renders it; None without a Lambda."""
    from nilpoisson.expressions import format_multivector

    cx = ExteriorComplex(parse_catalog_name("p4n2:2"))
    lam = _parse(cx, "V^T1 + (1/2)V^T3")
    shown = analyze(cx, lam, max_degree=2).poisson
    assert shown == format_multivector(lam, ExpressionContext(cx.spec, cx.report))
    assert shown == "-T1^V - (1/2)T3^V"
    assert analyze(cx, max_degree=2).poisson is None
    assert analyze(cx, GradedElement(), max_degree=2).poisson == "0"


def _center_first(spec):
    """The same algebra with its center moved to index 1, so V ^ T is canonical."""
    order = {old: new for new, old in enumerate((spec.n, *range(1, spec.n)), start=1)}
    constants = {(order[k], order[j], order[m]): value
                 for (k, j, m), value in spec.constants.items()}
    labels = tuple(spec.labels[old - 1] for old in sorted(order, key=order.get))
    return AlgebraSpec(spec.name, spec.n, labels, constants)


@pytest.mark.parametrize("spec", [parse_catalog_name("p4n2:2"),
                                  _center_first(parse_catalog_name("p4n2:2"))],
                         ids=["center-last", "center-first"])
@pytest.mark.parametrize("text, expected", [
    ("V^T1", "T1"),
    ("T1^V", "-T1"),
    ("V^T1 + (1/2)V^T3", "T1 + (1/2)T3"),
    ("T1^T2", None),
    ("V^T1 + T1^T2", None),
    ("V^T1 - V^T1", None),
])
def test_detect_center_wedge_contracts_v(spec, text, expected):
    """Lambda = V ^ T gives T, whichever side V sits on canonically; others give None."""
    from nilpoisson.cohomology import _detect_center_wedge

    cx = ExteriorComplex(spec)
    t = _detect_center_wedge(cx, _parse(cx, text))
    assert t == (None if expected is None else _parse(cx, expected))


# -- theorem invariants on randomized Poisson structures ----------------------------------


@pytest.mark.parametrize("spec_builder", [
    lambda: heisenberg_ext(1), lambda: heisenberg_ext(2),
    lambda: double_heisenberg(1, 1), lambda: p_family(1), lambda: w_family(0),
    lambda: w_family(1),
])
def test_randomized_center_wedges(spec_builder):
    """Injectivity bound, obstruction/degeneracy match, Hodge equality."""
    spec = spec_builder()
    cx = ExteriorComplex(spec)
    rng = random.Random(spec.name)
    v_index = cx.report.center_indices[0]
    t_indices = [i for i in range(1, spec.n + 1) if i != v_index]
    cap = min(cx.dim_l, 4)
    for _ in range(5):
        t = GradedElement()
        for i in t_indices:
            coeff = gauss(rng.randint(-2, 2), rng.randint(-1, 1))
            if coeff:
                t = t + V(i) * coeff
        lam = wedge(V(v_index), t)
        cx.validate_poisson(lam)
        report = analyze(cx, lam, max_degree=cap)   # raises on any theorem violation
        for row in report.per_degree:
            assert row.h_lambda <= row.hpq_sum
        if report.obstruction_kind in ("trivial_action", "solvable"):
            assert report.degeneracy and report.hodge


def test_center_square_bivector_acts_trivially(three_step_complex):
    """Lambda in the square of a 2-dimensional center: every ad block is zero."""
    cx = three_step_complex
    lam = wedge(V(3), V(4))
    cx.validate_poisson(lam)
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            assert cx.operator_block("ad", p, q, lam).matrix.is_zero()


def test_anticommutation_and_ad_squared(w6_complex, heis1_complex):
    """The remaining two structure equations, block-wise."""
    for cx, lam in ((w6_complex, wedge(V(3), V(1))),
                    (heis1_complex, wedge(V(2), V(1)))):
        for p in range(cx.n):
            for q in range(cx.n):
                ad = cx.operator_block("ad", p, q, lam)
                dbar = cx.operator_block("dbar", p, q)
                ad_after = cx.operator_block("ad", p, q + 1, lam)
                dbar_after = cx.operator_block("dbar", p + 1, q)
                anticommutator = (ad_after.matrix @ dbar.matrix
                                  + dbar_after.matrix @ ad.matrix)
                assert anticommutator.is_zero()
                ad_next = cx.operator_block("ad", p + 1, q, lam)
                assert (ad_next.matrix @ ad.matrix).is_zero()


def test_total_operator_matches_elementwise_application(w6_complex, heis1_complex):
    """Cross-check the block-offset assembly against direct application.

    The second route never touches operator blocks: it applies
    dbar + [Lambda, -] to each basis element of K^n and reads coordinates
    off the concatenated target basis.
    """
    from nilpoisson.cohomology import _degree_blocks, total_operator

    for cx, lam in ((w6_complex, wedge(V(3), V(1))),
                    (heis1_complex, wedge(V(2), V(1)))):
        for degree in range(cx.dim_l):
            assembled = total_operator(cx, [lam], degree)

            source = []
            for (p, q) in _degree_blocks(cx, degree):
                source.extend(cx.basis(p, q))
            target_pos = {}
            for (p, q) in _degree_blocks(cx, degree + 1):
                for mono in cx.basis(p, q):
                    target_pos[mono] = len(target_pos)

            direct = {}
            for col, mono in enumerate(source):
                element = GradedElement.monomial(mono)
                image = cx.dbar(element) + cx.schouten(lam, element)
                for out_mono, coeff in image.terms():
                    direct[(target_pos[out_mono], col)] = coeff
            assert assembled.entries == direct


def test_total_operator_rejects_a_piece_outside_the_next_degree(w6_complex):
    """A summand that keeps the degree, such as a vector, maps a block of K^1 back
    into K^1; its nonzero piece has no rows in K^2, which is a bug."""
    from nilpoisson.cohomology import total_operator

    with pytest.raises(ConsistencyError,
                       match=re.escape("w4n6:0: operator (0, 1)->(0, 1) escapes degree 2")):
        total_operator(w6_complex, [V(1)], 1)


def test_total_operator_rejects_two_pieces_on_one_block_pair(w6_complex):
    """Entries are placed, not added, so a repeated block pair is an error."""
    from nilpoisson.cohomology import total_operator

    cx = w6_complex
    # ad of a (1,1) element lands where dbar does: B^{1,0} -> B^{1,1}
    with pytest.raises(ConsistencyError,
                       match=re.escape("two operator pieces map block (1, 0) to block (1, 1)")):
        total_operator(cx, [wedge(V(1), F(1))], 1)
    # without summands, T_1 is dbar on B^{1,0} and on B^{0,1}, placed block-diagonally
    row_base = {(1, 1): cx.block_dim(2, 0), (0, 2): cx.block_dim(2, 0) + cx.block_dim(1, 1)}
    col_base = {(1, 0): 0, (0, 1): cx.block_dim(1, 0)}
    expected = {}
    for source, target in (((1, 0), (1, 1)), ((0, 1), (0, 2))):
        piece = cx.operator_block("dbar", *source)
        for (r, c), value in piece.matrix.entries.items():
            expected[(row_base[target] + r, col_base[source] + c)] = value
    assert expected
    assert total_operator(cx, [], 1).entries == expected


def _parse(cx, text):
    return parse_multivector(text, ExpressionContext(cx.spec, cx.report))


def _assert_as_if_checked(matrix):
    """A matrix built without checks equals its rebuild through the public constructor."""
    assert SparseMatrix(matrix.rows, matrix.cols, matrix.entries) == matrix
    assert all(0 <= r < matrix.rows and 0 <= c < matrix.cols and value
               for (r, c), value in matrix.entries.items())


def test_unchecked_matrices_hold_only_in_range_nonzero_entries(monkeypatch):
    """Blocks, total operators and delta^2 products skip the constructor's checks.

    So every one of them, on two analyses at full degree (one through the
    core of L_Lambda, one on a complex with no free generator) and on a
    deformation, must pass those checks when rebuilt through
    ``SparseMatrix(rows, cols, entries)``.
    """
    import nilpoisson.cohomology as cohomology

    operators, products = [], []

    def recording(original, into):
        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            into.append(result)
            return result
        return record

    monkeypatch.setattr(cohomology, "total_operator",
                        recording(cohomology.total_operator, operators))
    monkeypatch.setattr(SparseMatrix, "__matmul__", recording(SparseMatrix.__matmul__, products))

    cx = ExteriorComplex(parse_catalog_name("w4n6:1"))
    lam = _parse(cx, "V^T1")
    analyze(cx, lam, max_degree=cx.dim_l)
    deform_cx = ExteriorComplex(parse_catalog_name("p4n2:2"))
    analyze(deform_cx, _parse(deform_cx, "V^T2"), max_degree=deform_cx.dim_l)
    deformed_complex(deform_cx, _parse(deform_cx, "V^T2"),
                     _parse(deform_cx, "rho_bar^w1_bar"))

    # T_0..T_6 of the core of L_Lambda (7 of w4n6:1's 10 generators),
    # T_0..T_9 of p4n2:2, whose L_Lambda has no free generator (its T_10
    # maps into K^11 = 0), and T_0..T_6 and the six delta^2 products of
    # the deformation
    core, _, _ = cx.split(lam)
    assert core.dim_l == 7 and deform_cx.split(_parse(deform_cx, "V^T2")) == (deform_cx, 0, 0)
    assert len(operators) == 7 + 10 + 7 and len(products) == 6
    assert sum(m.nnz() for m in operators) > 1000
    blocks = [block.matrix for c in (cx, core, deform_cx) for block in c._blocks.values()]
    assert len(blocks) > 50
    for matrix in blocks + operators + products:
        _assert_as_if_checked(matrix)


def test_equal_multivectors_share_one_memo_entry():
    """A multivector is its own memo key, however it was built.

    The same Lambda parsed from text, wedged with its terms in the other
    order and scaled by Fraction(2, 4) instead of 1/2, and built from a dict
    of plain int and Fraction coefficients hashes equal, gets an equal
    block (ad blocks are not kept) and reuses one image table, one
    pivot-count entry and one core, whose memos do not grow either.
    """
    from nilpoisson.cohomology import _pivot_counts
    from nilpoisson.exterior import Monomial
    from nilpoisson.rationals import GaussianRational

    cx = ExteriorComplex(parse_catalog_name("w4n6:1"))
    parsed = _parse(cx, "V^T1 + (1/2)V^T2")
    built = wedge(V(5), V(2)) * GaussianRational(Fraction(2, 4)) + wedge(V(5), V(1))
    from_dict = GradedElement({Monomial((2, 5)): Fraction(-2, 4), Monomial((1, 5)): -1})
    assert list(parsed.terms()) != list(built.terms())   # insertion orders differ
    for other in (built, from_dict):
        assert parsed == other and hash(parsed) == hash(other)

    block = cx.operator_block("ad", 1, 1, parsed)
    counts = _pivot_counts(cx, parsed, 3)
    core, _, _ = cx.split(parsed)   # the counts come from the core of L_Lambda

    def memo_sizes():
        return [(len(c._blocks), len(c._images_memo), len(c._derivations),
                 len(c.pivot_counts), len(c.tables), len(c._splits)) for c in (cx, core)]

    before = memo_sizes()
    for other in (built, from_dict):
        assert cx.operator_block("ad", 1, 1, other) == block
        assert _pivot_counts(cx, other, 3) is counts
        assert cx.split(other)[0] is core
    assert memo_sizes() == before
    assert len(cx._derivations) == 2   # dbar's images and Lambda's, shared with the core


# -- deformation ----------------------------------------------------------------------


def test_deformation_of_w6(w6_complex):
    lam = wedge(V(3), V(2))
    omega = wedge(F(3), F(1))          # rho_bar ^ wbar^1
    result = deformed_complex(w6_complex, lam, omega, max_degree=6)
    assert result.k1_kernel_dim == 4
    assert set(result.k1_kernel) == {V(3), F(1), F(2), F(3)}


def test_deformed_generator_images(w6_complex):
    """delta T1 = 1/2 wbar^1 ^ wbar^2, delta T2 = -1/2 wbar^1 ^ V, delta V = 0."""
    cx = w6_complex
    lam = wedge(V(3), V(2))
    omega = wedge(F(3), F(1))

    def delta(x):
        return cx.dbar(x) + cx.schouten(lam, x) + cx.schouten(omega, x)

    assert delta(V(1)) == wedge(F(1), F(2)) * gauss(HALF)
    assert delta(V(2)) == wedge(F(1), V(3)) * gauss(-HALF)
    assert not delta(V(3))
    for k in range(1, 4):
        assert not delta(F(k))


def test_deformation_with_closed_two_form_is_invisible(w6_complex):
    """Omega inside t^{*(0,2)} brackets to zero: dimensions match undeformed."""
    lam = wedge(V(3), V(2))
    omega = wedge(F(1), F(2))
    result = deformed_complex(w6_complex, lam, omega, max_degree=6)
    assert result.dims == total_cohomology(w6_complex, lam, max_degree=6)


def test_deformation_with_zero_class(w6_complex):
    lam = wedge(V(3), V(2))
    result = deformed_complex(w6_complex, lam, GradedElement(), max_degree=6)
    assert result.dims == total_cohomology(w6_complex, lam, max_degree=6)


def test_deformation_kernel_scales_with_the_family():
    cx = ExteriorComplex(w_family(1))
    lam = wedge(V(5), V(2))
    omega = wedge(F(5), F(1))
    result = deformed_complex(cx, lam, omega, max_degree=3)
    assert result.k1_kernel_dim == 6          # 2n + 4 at n = 1


@pytest.mark.parametrize("cap", [1, 3, 6])
def test_deformation_eliminates_t1_once(monkeypatch, w6_complex, cap):
    """One kernel sweep of the core's T_1 gives the K^1 kernel and rank T_1;
    ``rank`` sees only the core's other T_n, never T_1.

    The dimensions and the kernel equal those of ranking every T_n and
    eliminating T_1 a second time for its kernel.
    """
    import nilpoisson.cohomology as cohomology

    cx = w6_complex
    lam, omega = wedge(V(3), V(2)), wedge(F(3), F(1))   # V ^ T2, rho_bar ^ wbar^1
    operators = [cohomology.total_operator(cx, [lam, omega], n) for n in range(cap + 1)]
    ranks = [rank(matrix) for matrix in operators]
    dims = {n: cx.k_dim(n) - ranks[n] - (ranks[n - 1] if n else 0) for n in range(cap + 1)}
    flat_basis = [mono for p in (1, 0) for mono in cx.basis(p, 1 - p)]
    kernel = [GradedElement({flat_basis[i]: v for i, v in vec.items()})
              for vec in kernel_vectors(operators[1])]

    shapes = []

    def recording_rank(matrix):
        shapes.append((matrix.rows, matrix.cols))
        return rank(matrix)

    monkeypatch.setattr(cohomology, "rank", recording_rank)
    result = deformed_complex(cx, lam, omega, max_degree=cap)
    # the core of L_{Lambda,Omega_bar} has 5 of the 6 generators, and its T_5 is 0
    core, _, _ = cx.split(lam, omega)
    assert core.dim_l == 5
    assert shapes == [(core.k_dim(n + 1), core.k_dim(n)) for n in range(min(cap, 4) + 1) if n != 1]
    assert (core.k_dim(2), core.k_dim(1)) not in shapes
    assert result.dims == dims
    assert list(result.k1_kernel) == kernel


def test_deformation_rejects_non_integrable(w6_complex):
    # with Lambda = V ^ T1 the class rho_bar ^ wbar^1 is no longer
    # dbar_Lambda-closed: ad_Lambda(rho_bar) ^ wbar^1 != 0
    lam = wedge(V(3), V(1))
    omega = wedge(F(3), F(1))
    assert w6_complex.schouten(lam, omega)
    with pytest.raises(NotIntegrable):
        deformed_complex(w6_complex, lam, omega)


@pytest.mark.parametrize("lam", [wedge(V(1), V(2)), wedge(V(1), F(1))],
                         ids=["not-holomorphic", "not-a-bivector"])
def test_deformation_validates_lambda(w6_complex, lam):
    with pytest.raises(PoissonError):
        deformed_complex(w6_complex, lam, wedge(F(1), F(2)))


def test_deformation_bidegree_check(w6_complex):
    from nilpoisson.cohomology import NotBidegree02
    with pytest.raises(NotBidegree02):
        deformed_complex(w6_complex, wedge(V(3), V(2)), wedge(V(1), F(1)))
