"""Exterior algebra, dbar, and the Schouten bracket.

The sign conventions are pinned by two formulas that must hold
coefficient-exactly on the degenerate-pairing family for every parameter:

    [T_j, rho_bar] = -sum_i conj(E_{ji}) wbar^i
    dbar T_{2k+2}  = -1/2 wbar^{2k+1} ^ V

Everything else (Leibniz extensions, graded antisymmetry, the graded Jacobi
identity, the operator anticommutation rules) is checked against those
anchors on randomized homogeneous elements.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from nilpoisson import AlgebraSpec, ExteriorComplex, GradedElement, Monomial, wedge
from nilpoisson.catalog import (double_heisenberg, heisenberg_ext, p_family,
                                parse_catalog_name, torus, w_family)
from nilpoisson.exterior import NotBidegree, NotHolomorphic, monomial_wedge
from nilpoisson.rationals import GaussianRational, gauss
from nilpoisson.sparse import SparseMatrix

HALF = Fraction(1, 2)


# -- wedge -------------------------------------------------------------------


def test_square_of_a_vector_vanishes():
    t1 = GradedElement.vector(1)
    assert not wedge(t1, t1)


def test_degree_one_anticommutation():
    t1, w1 = GradedElement.vector(1), GradedElement.form(1)
    assert wedge(w1, t1) == -wedge(t1, w1)


def test_wedge_sign_when_center_precedes():
    # (V ^ T1) ^ wbar^2 with V at index 1, T1 at index 2: already canonical,
    # so the coefficient is +1
    v, t1, w2 = GradedElement.vector(1), GradedElement.vector(2), GradedElement.form(2)
    product = wedge(wedge(v, t1), w2)
    assert product == GradedElement.monomial(Monomial((1, 2), (2,)))
    # with the order reversed one transposition flips the sign
    product = wedge(wedge(t1, v), w2)
    assert product == GradedElement.monomial(Monomial((1, 2), (2,)), gauss(-1))


def _sign_oracle(generators):
    """Independent parity computation: bubble-sort to canonical order."""
    items = list(generators)
    if len(set(items)) != len(items):
        return None
    order = {("v", 0): 0}

    def key(gen):
        kind, index = gen
        return (0 if kind == "v" else 1, index)

    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if key(items[j]) > key(items[j + 1]):
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign, items


@pytest.mark.parametrize("seed", range(12))
def test_monomial_wedge_against_parity_oracle(seed):
    rng = random.Random(seed)
    n = 5

    def random_monomial(max_deg):
        vec = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, max_deg))))
        form = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, max_deg))))
        return Monomial(vec, form)

    a, b = random_monomial(3), random_monomial(3)
    gens = ([("v", i) for i in a.vec] + [("f", i) for i in a.form]
            + [("v", i) for i in b.vec] + [("f", i) for i in b.form])
    expected = _sign_oracle(gens)
    actual = monomial_wedge(a, b)
    if expected is None:
        assert actual is None
        return
    sign, sorted_gens = expected
    vec = tuple(i for kind, i in sorted_gens if kind == "v")
    form = tuple(i for kind, i in sorted_gens if kind == "f")
    assert actual == (sign, Monomial(vec, form))


@pytest.mark.parametrize("seed", range(6))
def test_wedge_graded_commutative_and_associative(seed):
    rng = random.Random(40 + seed)
    n = 4

    def random_element(p, q):
        total = GradedElement()
        for _ in range(rng.randint(1, 3)):
            vec = tuple(sorted(rng.sample(range(1, n + 1), p)))
            form = tuple(sorted(rng.sample(range(1, n + 1), q)))
            total = total + GradedElement.monomial(Monomial(vec, form),
                                                   gauss(rng.randint(-2, 2), rng.randint(-1, 1)))
        return total

    pa, qa = rng.randint(0, 2), rng.randint(0, 2)
    pb, qb = rng.randint(0, 2), rng.randint(0, 2)
    a, b, c = random_element(pa, qa), random_element(pb, qb), random_element(1, 1)
    flip = -1 if ((pa + qa) * (pb + qb)) % 2 else 1
    assert wedge(a, b) == wedge(b, a) * flip
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_hash_is_kept_and_equal_elements_share_one_derivation_entry():
    """Equal elements built in different orders hash equal; the hash is computed once."""
    cx = ExteriorComplex(w_family(1))
    v = GradedElement.vector(5)
    summed = wedge(v, GradedElement.vector(1)) + wedge(v, GradedElement.vector(2)) * HALF
    from_dict = GradedElement({Monomial((2, 5)): -HALF, Monomial((1, 5)): -1})
    assert [mono for mono, _ in summed.terms()] != [mono for mono, _ in from_dict.terms()]
    assert summed._hash is None and from_dict._hash is None
    assert summed == from_dict and hash(summed) == hash(from_dict)
    assert summed._hash == hash(summed) == hash(from_dict) == from_dict._hash
    assert cx._derivation(summed) is cx._derivation(from_dict)
    assert set(cx._derivations) == {None, summed}


# -- dbar ---------------------------------------------------------------------


def test_dbar_kills_all_forms(w6_complex):
    for k in range(1, 4):
        assert not w6_complex.dbar(GradedElement.form(k))


def test_dbar_anchor_w6(w6_complex):
    # dbar T2 = -1/2 wbar^1 ^ V, coefficient-exact
    expected = wedge(GradedElement.form(1), GradedElement.vector(3)) * gauss(-HALF)
    assert w6_complex.dbar(GradedElement.vector(2)) == expected
    assert not w6_complex.dbar(GradedElement.vector(1))
    assert not w6_complex.dbar(GradedElement.vector(3))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_dbar_anchor_w_family(n):
    """dbar T_{2k+2} = -1/2 wbar^{2k+1} ^ V for every parameter and k."""
    cx = ExteriorComplex(w_family(n))
    v = 2 * n + 3
    for k in range(n + 1):
        expected = wedge(GradedElement.form(2 * k + 1), GradedElement.vector(v)) * gauss(-HALF)
        assert cx.dbar(GradedElement.vector(2 * k + 2)) == expected
        assert not cx.dbar(GradedElement.vector(2 * k + 1))


def test_dbar_leibniz_on_closed_product(w6_complex):
    # dbar(T1 ^ wbar^1) = 0 since both factors are closed
    t1w1 = wedge(GradedElement.vector(1), GradedElement.form(1))
    assert not w6_complex.dbar(t1w1)


# -- Schouten bracket ------------------------------------------------------------


@pytest.mark.parametrize("spec_builder", [
    lambda: heisenberg_ext(1), lambda: heisenberg_ext(2),
    lambda: double_heisenberg(1, 1), lambda: p_family(1),
    lambda: w_family(0), lambda: w_family(1), lambda: w_family(2),
])
def test_bracket_anchor_all_two_step_families(spec_builder):
    """[T_j, rho_bar] = -sum_i conj(E_{ji}) wbar^i on every 2-step entry."""
    spec = spec_builder()
    cx = ExteriorComplex(spec)
    v = spec.n
    rho_bar = GradedElement.form(v)
    for j in range(1, spec.n):
        expected = GradedElement()
        for i in range(1, spec.n):
            e_ji = spec.a(j, i, v)
            if e_ji:
                expected = expected + GradedElement.form(i, -e_ji.conjugate())
        assert cx.schouten(GradedElement.vector(j), rho_bar) == expected


def test_vector_vector_brackets_vanish(w6_complex):
    for i in range(1, 4):
        for j in range(1, 4):
            assert not w6_complex.schouten(GradedElement.vector(i), GradedElement.vector(j))


def test_form_form_brackets_vanish(w6_complex):
    for i in range(1, 4):
        for j in range(1, 4):
            assert not w6_complex.schouten(GradedElement.form(i), GradedElement.form(j))


def test_bivector_bracket_factors_through_the_center(w6_complex):
    """[V^T, rho_bar] = V ^ [T, rho_bar]; for T = T1 this is 1/2 V ^ wbar^2.

    The printed example-family value carries the opposite overall sign; the
    anchors above force this one (see also the deformed-differential value
    1/2 wbar^1 ^ wbar^2, which depends on it).
    """
    v, t1, rho_bar = GradedElement.vector(3), GradedElement.vector(1), GradedElement.form(3)
    lam = wedge(v, t1)
    direct = w6_complex.schouten(lam, rho_bar)
    assert direct == wedge(v, w6_complex.schouten(t1, rho_bar))
    assert direct == wedge(v, GradedElement.form(2)) * gauss(HALF)
    # T2 is in the kernel of the pairing: trivial action on rho_bar
    assert not w6_complex.schouten(wedge(v, GradedElement.vector(2)), rho_bar)


# -- Poisson validation ------------------------------------------------------------


def test_w6_center_wedge_is_poisson(w6_complex):
    lam = wedge(GradedElement.vector(3), GradedElement.vector(1))
    w6_complex.validate_poisson(lam)          # does not raise


def test_torus_bivector_is_poisson():
    cx = ExteriorComplex(torus(2))
    cx.validate_poisson(wedge(GradedElement.vector(1), GradedElement.vector(2)))


def test_three_step_non_holomorphic_bivector(three_step_complex):
    cx = three_step_complex
    lam = wedge(GradedElement.vector(1), GradedElement.vector(4))
    # dbar(X1 ^ X4) = dbar(X1) ^ X4 = (wbar^1 ^ X2) ^ X4 != 0
    expected = wedge(wedge(GradedElement.form(1), GradedElement.vector(2)),
                     GradedElement.vector(4))
    assert cx.dbar(lam) == expected
    with pytest.raises(NotHolomorphic):
        cx.validate_poisson(lam)


def test_three_step_center_square_is_poisson(three_step_complex):
    lam = wedge(GradedElement.vector(3), GradedElement.vector(4))
    three_step_complex.validate_poisson(lam)


def test_wrong_bidegree_rejected(w6_complex):
    with pytest.raises(NotBidegree):
        w6_complex.validate_poisson(wedge(GradedElement.vector(1), GradedElement.form(1)))


def test_poisson_square_always_vanishes(w6_complex, three_step_complex):
    """Abelian structure: [x, x] = 0 for every (2,0) bivector and every (0,2) form."""
    rng = random.Random(7)
    for generator in (GradedElement.vector, GradedElement.form):
        for cx in (w6_complex, three_step_complex):
            for _ in range(10):
                x = GradedElement()
                for _ in range(2):
                    i, j = rng.sample(range(1, cx.n + 1), 2)
                    x = x + wedge(generator(i), generator(j)) * gauss(rng.randint(-2, 2))
                assert not cx.schouten(x, x)


# -- operator blocks -----------------------------------------------------------------


@pytest.mark.parametrize("spec_builder", [lambda: w_family(0), lambda: heisenberg_ext(2)])
def test_dbar_block_vanishes_on_functions(spec_builder):
    cx = ExteriorComplex(spec_builder())
    for q in range(cx.n + 1):
        assert cx.operator_block("dbar", 0, q).matrix.is_zero()


def test_ad_block_trivial_for_kernel_vector(w6_complex):
    lam = wedge(GradedElement.vector(3), GradedElement.vector(2))
    assert w6_complex.operator_block("ad", 0, 1, lam).matrix.is_zero()


def test_ad_block_rank_one_for_nonkernel_vector(w6_complex):
    lam = wedge(GradedElement.vector(3), GradedElement.vector(1))
    block = w6_complex.operator_block("ad", 0, 1, lam)
    assert block.target == (1, 1)
    assert block.rank() == 1


def test_block_dimensions_are_binomial(w6_complex):
    from math import comb
    for p in range(4):
        for q in range(4):
            block = w6_complex.operator_block("dbar", p, q)
            assert block.matrix.cols == comb(3, p) * comb(3, q)
            expected_rows = comb(3, p) * comb(3, q + 1) if q + 1 <= 3 else 0
            assert block.matrix.rows == expected_rows


def test_kernel_of_w6_vector_block(w6_complex):
    """On B^{1,0} only T2 has a nonzero differential: kernel = {T1, V}."""
    from nilpoisson.sparse import kernel_vectors
    block = w6_complex.operator_block("dbar", 1, 0)
    vectors = kernel_vectors(block.matrix)
    assert len(vectors) == 2
    supports = sorted(tuple(sorted(c for c, v in vec.items() if v)) for vec in vectors)
    assert supports == [(0,), (2,)]      # basis order T1, T2, V


# -- positions by arithmetic ------------------------------------------------------------


@pytest.mark.parametrize("name", ["torus:3", "w4n6:1", "p4n2:2"])
def test_position_rule_matches_the_materialised_basis(name):
    cx = ExteriorComplex(parse_catalog_name(name))
    n = cx.n
    for p in range(n + 1):
        for q in range(n + 1):
            basis = cx.basis(p, q)
            assert cx.block_dim(p, q) == len(basis) == comb(n, p) * comb(n, q)
            assert [cx.basis_index(mono) for mono in basis] == list(range(len(basis)))
            assert all(mono.bidegree == (p, q) for mono in basis)
    for degree in range(2 * n + 2):
        assert cx.k_dim(degree) == comb(2 * n, degree)
    for p, q in ((-1, 0), (0, -1), (n + 1, 0), (0, n + 1), (-1, n + 2), (n + 1, n + 1)):
        assert cx.block_dim(p, q) == 0 and cx.basis(p, q) == ()


def test_degree_sizes_build_no_rank_table_on_a_large_torus():
    cx = ExteriorComplex(parse_catalog_name("torus:30"))
    start = time.perf_counter()
    assert cx.k_dim(6) == comb(60, 6)
    assert cx.block_dim(3, 3) == comb(30, 3) ** 2
    assert time.perf_counter() - start < 1.0
    assert not cx._vec_ranks and not cx._form_ranks   # sizing builds no table at all
    pairs = list(combinations(range(1, 31), 2))
    assert cx.basis_index(((2, 5), (30,))) == pairs.index((2, 5)) * 30 + 29
    # both sides run over 1..30, so one table per degree serves both
    assert cx._form_ranks is cx._vec_ranks and set(cx._vec_ranks) == {1, 2}


# -- graded identities ----------------------------------------------------------------


def _random_homogeneous(rng, cx, p, q, terms=2):
    total = GradedElement()
    basis = cx.basis(p, q)
    if not basis:
        return total
    for _ in range(terms):
        mono = rng.choice(basis)
        total = total + GradedElement.monomial(mono, gauss(rng.randint(-2, 2),
                                                           rng.randint(-1, 1)))
    return total


def _complexes():
    return [ExteriorComplex(w_family(0)), ExteriorComplex(heisenberg_ext(2)),
            ExteriorComplex(AlgebraSpec("three-step", 4, ("X1", "X2", "X3", "X4"),
                                        {(1, 1, 2): gauss(1), (1, 2, 3): gauss(1)}))]


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_dbar_squared_is_zero_blockwise(cx):
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            first = cx.operator_block("dbar", p, q)
            second = cx.operator_block("dbar", p, q + 1)
            assert (second.matrix @ first.matrix).is_zero()


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_derivation_identities_on_random_pairs(cx):
    """dbar is a bracket- and wedge-derivation of the graded algebra."""
    rng = random.Random(13)
    for _ in range(40):
        pa, qa = rng.randint(0, 2), rng.randint(0, 1)
        pb, qb = rng.randint(0, 2), rng.randint(0, 1)
        if pa + qa == 0 or pa + qa > 3 or pb + qb == 0 or pb + qb > 3:
            continue
        a = _random_homogeneous(rng, cx, pa, qa)
        b = _random_homogeneous(rng, cx, pb, qb)
        deg_a = pa + qa
        sign_bracket = -1 if (deg_a + 1) % 2 else 1
        assert cx.dbar(cx.schouten(a, b)) == (
            cx.schouten(cx.dbar(a), b) + cx.schouten(a, cx.dbar(b)) * sign_bracket)
        sign_wedge = -1 if deg_a % 2 else 1
        assert cx.dbar(wedge(a, b)) == (
            wedge(cx.dbar(a), b) + wedge(a, cx.dbar(b)) * sign_wedge)


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_results_hold_no_zero_coefficient(cx):
    """+, wedge, dbar and schouten drop every coefficient that sums to zero.

    The inputs are built to cancel: (b - a) + a, a ^ a and [a, a] for a of
    odd degree, and dbar(dbar(a)) meet equal terms with opposite signs
    inside one operation, so each must come out without a zero entry.
    """
    rng = random.Random(61)
    cancelled = {"+": 0, "wedge": 0, "dbar": 0, "schouten": 0}
    for _ in range(60):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a = _random_homogeneous(rng, cx, p, q, terms=3)
        b = _random_homogeneous(rng, cx, rng.randint(0, 2), rng.randint(0, 1), terms=3)
        results = {"+": (b - a) + a, "wedge": wedge(a, a), "dbar": cx.dbar(cx.dbar(a)),
                   "schouten": cx.schouten(a, a)}
        for element in (*results.values(), wedge(a, b), cx.dbar(a + b), cx.schouten(a, b)):
            assert all(element._terms.values()), element
        assert results["+"]._terms == b._terms
        assert not results["dbar"]._terms
        cancelled["+"] += bool(a)
        cancelled["dbar"] += bool(cx.dbar(a))
        if (p + q) % 2:
            assert not results["wedge"]._terms and not results["schouten"]._terms
            cancelled["wedge"] += len(a) > 1
            cancelled["schouten"] += any(cx.schouten(GradedElement.monomial(m), a)
                                         for m in a._terms)
    assert all(cancelled.values()), cancelled


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_graded_antisymmetry(cx):
    rng = random.Random(29)
    for _ in range(30):
        pa, qa = rng.randint(0, 2), rng.randint(0, 1)
        pb, qb = rng.randint(0, 2), rng.randint(0, 1)
        if not (0 < pa + qa <= 2 and 0 < pb + qb <= 2):
            continue
        a = _random_homogeneous(rng, cx, pa, qa)
        b = _random_homogeneous(rng, cx, pb, qb)
        sign = -1 if ((pa + qa - 1) * (pb + qb - 1)) % 2 else 1
        assert cx.schouten(b, a) == cx.schouten(a, b) * (-sign)


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_graded_jacobi(cx):
    """[a,[b,c]] = [[a,b],c] + (-1)^{(|a|-1)(|b|-1)} [b,[a,c]]."""
    rng = random.Random(31)
    for _ in range(20):
        degrees = [(rng.randint(0, 2), rng.randint(0, 1)) for _ in range(3)]
        if any(p + q == 0 or p + q > 2 for p, q in degrees):
            continue
        a, b, c = (_random_homogeneous(rng, cx, p, q) for p, q in degrees)
        (pa, qa), (pb, qb) = degrees[0], degrees[1]
        sign = -1 if ((pa + qa - 1) * (pb + qb - 1)) % 2 else 1
        lhs = cx.schouten(a, cx.schouten(b, c))
        rhs = cx.schouten(cx.schouten(a, b), c) + cx.schouten(b, cx.schouten(a, c)) * sign
        assert lhs == rhs


def _oracle_bracket(spec, ma, mb):
    """[ma, mb] for monomials by the definitional recursion.

    Generator rule from the structure constants,
    [X_i, wbar^m] = -sum_b conj(A^m_{ib}) wbar^b; degree-1 antisymmetry;
    Leibniz in the second argument; [a, g] = -[g, a] for a generator g.
    """
    da, db = ma.degree, mb.degree
    if da == 0 or db == 0:
        return GradedElement()
    if da == 1 and db == 1:
        if bool(ma.vec) == bool(mb.vec):
            return GradedElement()          # vectors commute, forms bracket to zero
        if ma.vec:
            i, m, sign = ma.vec[0], mb.form[0], 1
        else:
            i, m, sign = mb.vec[0], ma.form[0], -1
        total = GradedElement()
        for (k, b, mm), value in spec.constants.items():
            if k == i and mm == m:
                total = total + GradedElement.form(b, -value.conjugate() * sign)
        return total
    if db >= 2:
        # [a, h^rest] = [a,h]^rest + (-1)^{(|a|-1)|h|} h^[a,rest], |h| = 1
        if mb.vec:
            head, rest = Monomial((mb.vec[0],), ()), Monomial(mb.vec[1:], mb.form)
        else:
            head, rest = Monomial((), (mb.form[0],)), Monomial((), mb.form[1:])
        first = wedge(_oracle_bracket(spec, ma, head), GradedElement.monomial(rest))
        second = wedge(GradedElement.monomial(head), _oracle_bracket(spec, ma, rest))
        return first + (-second if (da - 1) % 2 else second)
    # da >= 2, db == 1: [a,b] = -(-1)^{(|a|-1)(|b|-1)} [b,a] with |b|-1 = 0
    return -_oracle_bracket(spec, mb, ma)


def _oracle_schouten(spec, a, b):
    total = GradedElement()
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            total = total + _oracle_bracket(spec, ma, mb) * (ca * cb)
    return total


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_derivation_expansion_matches_recursive_bracket(cx):
    """schouten equals the definitional recursion, also for a of mixed parity."""
    rng = random.Random(53)
    bidegrees = [(p, q) for p in range(3) for q in range(3) if 0 < p + q <= 3]
    mixed = 0
    for _ in range(25):
        a = GradedElement()
        for p, q in rng.sample(bidegrees, rng.randint(1, 3)):
            a = a + _random_homogeneous(rng, cx, p, q)
        b = _random_homogeneous(rng, cx, rng.randint(0, cx.n), rng.randint(0, 2), terms=3)
        mixed += len({mono.degree % 2 for mono, _ in a.terms()}) == 2
        assert cx.schouten(a, b) == _oracle_schouten(cx.spec, a, b)
    assert mixed


@pytest.mark.parametrize("cx", _complexes(), ids=lambda c: c.spec.name)
def test_layer_bracket_constraints(cx):
    """[t_a^{1,0}, t_h^{*(0,1)}] = 0 whenever h <= a, exhaustively."""
    report = cx.report
    for a_level, a_layer in enumerate(report.t_layer_indices, start=1):
        for h_level, h_layer in enumerate(report.t_layer_indices, start=1):
            if h_level > a_level:
                continue
            assert a_layer is not None and h_layer is not None
            for i in a_layer:
                for m in h_layer:
                    assert not cx.schouten(GradedElement.vector(i), GradedElement.form(m))


# -- factorised assembly against a column-by-column oracle --------------------


def _oracle_block(cx, kind, p, q, element=None):
    """The block built one source monomial at a time through dbar / schouten."""
    block = cx.operator_block(kind, p, q, element)
    index = {mono: row for row, mono in enumerate(cx.basis(*block.target))}
    entries = {}
    for col, mono in enumerate(cx.basis(p, q)):
        source = GradedElement.monomial(mono)
        image = cx.dbar(source) if kind == "dbar" else cx.schouten(element, source)
        for out_mono, coeff in image.terms():
            entries[(index[out_mono], col)] = coeff
    return SparseMatrix(len(index), len(cx.basis(p, q)), entries)


def _assert_blocks_match_oracle(cx, elements):
    for p in range(cx.n_vec + 1):
        for q in range(cx.n_form + 1):
            block = cx.operator_block("dbar", p, q)
            assert block.source == (p, q) and block.target == (p, q + 1)
            assert block.matrix == _oracle_block(cx, "dbar", p, q), ("dbar", p, q)
            for element in elements:
                (a, b), = element.bidegrees()
                block = cx.operator_block("ad", p, q, element)
                assert block.target == (p + a - 1, q + b)
                assert block.matrix == _oracle_block(cx, "ad", p, q, element), (element, p, q)
    # the (-1)^pos term rule of _derive needs every generator image of a
    # derivation of parity e to have degree e + 1 mod 2: degree 2 for dbar,
    # |E| for [E, -]
    for element, degree in [(None, 2)] + [(e, sum(*e.bidegrees())) for e in elements]:
        for generator, image in cx._derivations[element].items():
            assert {mono.degree for mono in image} == {degree}, (element, generator)


def _bracket_elements(rng, cx):
    """One random element each of bidegree (2,0), (0,2), (1,1), (1,0), (0,1), (2,1) and (1,2)."""
    out = []
    for p, q in ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (2, 1), (1, 2)):
        element = _random_homogeneous(rng, cx, p, q, terms=3)
        if element:
            out.append(element)
    return out


_SMALL_CATALOG = {
    "torus:2": lambda: torus(2),
    "heisenberg-ext:1": lambda: heisenberg_ext(1),
    "heisenberg-ext:2": lambda: heisenberg_ext(2),
    "double-heisenberg:1,1": lambda: double_heisenberg(1, 1),
    "p4n2:1": lambda: p_family(1),
    "w4n6:0": lambda: w_family(0),
    "w4n6:1": lambda: w_family(1),
}


@pytest.mark.parametrize("name", sorted(_SMALL_CATALOG))
def test_operator_blocks_match_columnwise_oracle_on_catalog(name):
    cx = ExteriorComplex(_SMALL_CATALOG[name]())
    _assert_blocks_match_oracle(cx, _bracket_elements(random.Random(name), cx))


def test_operator_blocks_match_columnwise_oracle_on_three_step(three_step_complex):
    cx = three_step_complex
    _assert_blocks_match_oracle(cx, _bracket_elements(random.Random(3), cx))


def test_operator_blocks_match_columnwise_oracle_on_a_split_core():
    """The core of w4n6:2 under V^T1 runs over unequal vector and form index tuples."""
    cx = ExteriorComplex(parse_catalog_name("w4n6:2"))
    lam = wedge(GradedElement.vector(7), GradedElement.vector(1))   # V ^ T1
    core, _, _ = cx.split(lam)
    assert core.vec_indices == (2, 4, 6, 7) and core.form_indices == (1, 2, 3, 5, 7)
    _assert_blocks_match_oracle(core, [lam])


def test_ad_blocks_of_a_two_form_match_columnwise_oracle():
    """[Omega_bar, X_P] has two-form parts; [Omega_bar, wbar_Q] = 0 derives nothing."""
    cx = ExteriorComplex(w_family(1))
    omega = wedge(GradedElement.form(5), GradedElement.form(1))   # rho_bar ^ w1_bar
    assert {mono.form for image in cx._derivation(omega).values() for mono in image} \
        == {(1, 2), (1, 4)}
    _assert_blocks_match_oracle(cx, [omega])
    assert all(cx._images(omega, "form", q) == ((),) * comb(cx.n, q) for q in range(cx.n + 1))


_small_scalars = st.builds(GaussianRational,
                           st.fractions(min_value=-3, max_value=3, max_denominator=4),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _two_step_complexes(draw):
    """Random 2-step algebra: [Xbar_k, X_j] = E_kj V with V = X_n central."""
    n = draw(st.integers(min_value=2, max_value=4))
    constants = {(k, j, n): draw(_small_scalars)
                 for k in range(1, n) for j in range(1, n)}
    labels = tuple(f"T{i}" for i in range(1, n)) + ("V",)
    return ExteriorComplex(AlgebraSpec("random-2step", n, labels, constants))


# no shrinking: a failure is found in seconds and would take minutes to shrink
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(cx=_two_step_complexes(), seed=st.integers(min_value=0, max_value=2**16))
def test_operator_blocks_match_columnwise_oracle_on_random_two_step(cx, seed):
    _assert_blocks_match_oracle(cx, _bracket_elements(random.Random(seed), cx))
