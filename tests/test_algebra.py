"""Structure validation: Jacobi, nilpotency, center, layers, the pairing matrix."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson import (AlgebraError, AlgebraSpec, ExteriorComplex, IndexOutOfRange,
                        JacobiViolation, Monomial, NotNilpotent, validate)
from nilpoisson.catalog import (double_heisenberg, heisenberg_ext, p_family, torus,
                                w_family)
from nilpoisson.rationals import add_into, gauss
from test_exterior import _small_scalars

HALF = Fraction(1, 2)


def test_torus_is_abelian():
    report = validate(torus(2))
    assert report.step == 1
    assert report.dim_center == 2
    assert report.center_indices == (1, 2)
    assert report.t_layer_indices == ((1, 2),)


def test_heisenberg_extension_structure(heis1):
    report = validate(heis1)
    assert report.step == 2
    assert report.dim_center == 1
    assert report.center_indices == (2,)          # V


def test_not_nilpotent():
    # [X1bar, X1] = X1 - X1bar: the series stabilizes at a nonzero ideal
    spec = AlgebraSpec("bad", 1, ("X1",), {(1, 1, 1): gauss(1)})
    with pytest.raises(NotNilpotent):
        validate(spec)


def test_jacobi_violation():
    # [X1bar, X1] = X2 - X2bar and [X2bar, X2] = X1 - X1bar break Jacobi
    spec = AlgebraSpec("nonjacobi", 2, ("X1", "X2"),
                       {(1, 1, 2): gauss(1), (2, 2, 1): gauss(1)})
    with pytest.raises(JacobiViolation):
        validate(spec)


@pytest.mark.parametrize("labels,message", [
    (("w1_bar", "T2", "V"), "reserved"),
    (("T1", "w3_bar", "V"), "reserved"),
    (("T1", "T2", "rho_bar"), "reserved"),
    (("T1", "T 2", "V"), "not a name"),
    (("1T", "T2", "V"), "not a name"),
    (("T1", "T-2", "V"), "not a name"),
    (("T1", "", "V"), "not a name"),
    (("T1", "T2", "V\u2032"), "not a name"),
])
def test_labels_outside_the_expression_grammar(labels, message):
    with pytest.raises(AlgebraError, match=message):
        AlgebraSpec("labels", 3, labels, {(1, 2, 3): gauss(-HALF)})


@pytest.mark.parametrize("labels", [
    ("w4_bar", "_x", "V"),        # w{i}_bar is reserved only for i <= n
    ("T1", "T2", "V"), ("X1", "X2", "X3"), ("S1", "T1", "V"), ("w1", "bar", "rho"),
])
def test_labels_in_the_expression_grammar(labels):
    validate(AlgebraSpec("labels", 3, labels, {(1, 2, 3): gauss(-HALF)}))


def test_catalog_labels_are_names():
    from nilpoisson.catalog import FAMILIES, build_catalog_entry
    for family, (_, arity, _) in FAMILIES.items():
        for parameters in ([1] * arity, [3] * arity):
            build_catalog_entry(family, parameters)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        AlgebraSpec("oob", 2, ("X1", "X2"), {(1, 3, 2): gauss(1)})


@pytest.mark.parametrize("spec_builder,expected_layers", [
    (lambda: torus(2), ((1, 2),)),
    (lambda: heisenberg_ext(2), ((1, 2), (3,))),
    (lambda: w_family(0), ((1, 2), (3,))),
])
def test_layer_index_sets(spec_builder, expected_layers):
    report = validate(spec_builder())
    assert report.t_layer_indices == expected_layers


@pytest.mark.parametrize("constants,layers,indices,center", [
    # [X1bar, X1] = (X2 + X3) - conj: the top layer is X2 + X3
    ({(1, 1, 2): gauss(1), (1, 1, 3): gauss(1)},
     (((1, 0, 0), (0, 1, 0)), ((0, 1, 1),)), ((1, 2), None), (2, 3)),
    # a 3-step algebra whose second and third layers mix basis vectors
    ({(1, 1, 2): gauss(1), (1, 2, 3): gauss(1), (1, 2, 4): gauss(0, 1), (1, 1, 4): gauss(2)},
     (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 2),), ((0, 0, 1, gauss(0, 1)),)),
     ((1, 2), None, None), (3, 4)),
], ids=["skew", "skew3"])
def test_non_coordinate_layers(constants, layers, indices, center):
    """Pins the RREF normalisation and the greedy complement order."""
    n = len(layers[0][0])
    report = validate(AlgebraSpec("skew", n, tuple(f"X{j}" for j in range(1, n + 1)), constants))
    dense = tuple(tuple(tuple(vec.get(c, 0) for c in range(n)) for vec in layer)
                  for layer in report.t_layers)
    assert dense == layers
    assert report.t_layer_indices == indices
    assert report.center_indices == center


def test_three_step_layers(three_step):
    report = validate(three_step)
    assert report.step == 3
    assert report.dim_center == 2
    assert report.center_indices == (3, 4)
    assert report.t_layer_indices == ((1, 4), (2,), (3,))


def test_layers_sum_to_dimension(three_step):
    for spec in (torus(3), heisenberg_ext(3), p_family(2), w_family(1), three_step):
        report = validate(spec)
        assert sum(len(layer) for layer in report.t_layers) == spec.n


def test_lower_central_series_length(w6):
    """g^{step-1} != 0 = g^{step}: the last nonzero term sits in the center."""
    for spec in (heisenberg_ext(1), w6, p_family(1)):
        report = validate(spec)
        assert report.step == 2
        # for the 2-step families the top layer is exactly the center
        assert report.t_layer_indices[-1] == report.center_indices


def test_series_brackets_match_the_step(w6, three_step):
    """Recompute [g^{step-1}, g] = 0 and [g^{step-2}, g] != 0 with sympy over Q(i)."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(value):
        re, im = value.re, value.im
        return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))

    for spec in (heisenberg_ext(2), w6, three_step):
        report = validate(spec)
        dim = 2 * spec.n
        # row i of bracket_with[j] is [e_i, e_j], so U @ bracket_with[j] = [U, e_j] row by row
        bracket_with = []
        for j in range(dim):
            rows = {i: {c: to_sympy(v) for c, v in spec.bracket({i: gauss(1)}, {j: gauss(1)}).items()}
                    for i in range(dim)}
            bracket_with.append(DomainMatrix({i: row for i, row in rows.items() if row},
                                             (dim, dim), QQ_I))

        def series_term(power):
            """g^power (g^0 = g) as the rows of its RREF."""
            if power == 0:
                return DomainMatrix.eye(dim, QQ_I)
            prev = series_term(power - 1)
            reduced, pivots = DomainMatrix.vstack(*(prev.matmul(b) for b in bracket_with)).rref()
            return reduced[:len(pivots), :]

        assert series_term(report.step).shape[0] == 0
        assert series_term(report.step - 1).shape[0] > 0


def test_derived_coefficients_are_an_involution(w6):
    """Re-deriving A from the derived B coefficients returns A.

    B^m_{jk} = -conj(A^m_{kj}) is the Xbar_m coefficient of [Xbar_j, X_k].
    """
    for spec in (heisenberg_ext(2), double_heisenberg(1, 1), p_family(1), w6):
        for (k, j, m), value in spec.constants.items():
            bracket = spec.bracket({spec.n + j - 1: gauss(1)}, {k - 1: gauss(1)})
            b = bracket.get(spec.n + m - 1, gauss(0))
            assert -b.conjugate() == value


# -- the Jacobi sweep against the all-triples reference ------------------------


def _reference_bracket(spec, u, v):
    """The bracket decoded from the constants by basis type, without the table."""
    n = spec.n

    def conj_bracket(k, j):
        """[Xbar_k, X_j] = sum_m A^m_{kj} X_m - sum_m conj(A^m_{jk}) Xbar_m."""
        out = {}
        for (kk, jj, m), value in spec.constants.items():
            if (kk, jj) == (k, j):
                add_into(out, m - 1, value)
            if (kk, jj) == (j, k):
                add_into(out, n + m - 1, -value.conjugate())
        return out

    out = {}
    for cu, au in u.items():
        for cv, av in v.items():
            if cu >= n and cv < n:
                piece, coeff = conj_bracket(cu - n + 1, cv + 1), au * av
            elif cu < n and cv >= n:
                piece, coeff = conj_bracket(cv - n + 1, cu + 1), -(au * av)
            else:
                continue
            for c, value in piece.items():
                add_into(out, c, coeff * value)
    return out


def _reference_jacobi_triple(spec):
    """The first failing basis triple of the sweep over all C(2n, 3) triples, or None."""
    n, dim = spec.n, 2 * spec.n
    e = [{i: gauss(1)} for i in range(dim)]

    def name(i):
        return spec.label(i + 1) if i < n else spec.label(i - n + 1) + "_bar"

    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                total = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for coord, value in _reference_bracket(
                            spec, _reference_bracket(spec, e[x], e[y]), e[z]).items():
                        add_into(total, coord, value)
                if total:
                    return (name(a), name(b), name(c))
    return None


def _assert_table_matches_the_reference(spec):
    dim = 2 * spec.n
    for a in range(dim):
        for b in range(dim):
            u, v = {a: gauss(1)}, {b: gauss(1)}
            assert spec.bracket(u, v) == _reference_bracket(spec, u, v)


def _validate_jacobi_triple(spec):
    """The triple JacobiViolation names, or None when validate raises no JacobiViolation."""
    try:
        validate(spec)
    except JacobiViolation as exc:
        return exc.triple
    except AlgebraError:
        pass
    return None


_SMALL_CATALOG = [(torus, (1,)), (torus, (3,)), (heisenberg_ext, (1,)), (heisenberg_ext, (3,)),
                  (double_heisenberg, (1, 1)), (double_heisenberg, (1, 2)),
                  (double_heisenberg, (2, 1)), (p_family, (1,)), (p_family, (2,)),
                  (w_family, (0,)), (w_family, (1,)), (w_family, (2,))]


@pytest.mark.parametrize("builder,parameters", _SMALL_CATALOG)
def test_table_and_jacobi_sweep_match_the_reference_on_the_catalog(builder, parameters):
    spec = builder(*parameters)
    _assert_table_matches_the_reference(spec)
    assert _reference_jacobi_triple(spec) is None
    assert _validate_jacobi_triple(spec) is None


@st.composite
def _random_constants(draw):
    """Random constants with n <= 4; most of them violate Jacobi."""
    n = draw(st.integers(min_value=1, max_value=4))
    index = st.integers(min_value=1, max_value=n)
    constants = draw(st.dictionaries(st.tuples(index, index, index), _small_scalars, max_size=6))
    return AlgebraSpec("random", n, tuple(f"X{j}" for j in range(1, n + 1)), constants)


@settings(max_examples=200, deadline=None)
@given(spec=_random_constants())
def test_jacobi_sweep_names_the_reference_triple_on_random_constants(spec):
    _assert_table_matches_the_reference(spec)
    assert _validate_jacobi_triple(spec) == _reference_jacobi_triple(spec)


def test_validate_reads_the_table_not_bracket(monkeypatch):
    """The Jacobi sweep, g^1 and the center read the table; only g^2, g^3, ... call bracket."""
    from nilpoisson.catalog import parse_catalog_name

    real = AlgebraSpec.bracket
    calls = []

    def counted(self, u, v):
        calls.append(1)
        return real(self, u, v)

    monkeypatch.setattr(AlgebraSpec, "bracket", counted)
    validate(parse_catalog_name("torus:30"))
    assert len(calls) == 0
    validate(parse_catalog_name("w4n6:3"))
    assert 0 < len(calls) <= 500


# -- the pairing matrix ------------------------------------------------------
#
# On a 2-step algebra with one-dimensional center V, dbar(X_j) = -sum_b
# A^V_{bj} V ^ wbar^b, so the dbar block B^{1,0} -> B^{1,1} holds the pairing
# d(rho)(X_j, Xbar_b) = A^V_{bj} as the negated (V ^ wbar^b, X_j) entries.


def _pairing(spec, v_index):
    """The dbar block B^{1,0} -> B^{1,1} and the pairing read off it, rows b, columns j."""
    cx = ExteriorComplex(spec)
    block = cx.operator_block("dbar", 1, 0)
    t_idx = [i for i in range(1, spec.n + 1) if i != v_index]
    pairing = [[-block.matrix.entry(cx.basis_index(Monomial((v_index,), (b,))),
                                    cx.basis_index(Monomial((j,), ())))
                for j in t_idx] for b in t_idx]
    return block, pairing


def test_d_rho_heisenberg(heis1):
    block, pairing = _pairing(heis1, 2)
    assert pairing == [[gauss(0, -HALF)]]
    assert block.matrix.nnz() == 1
    assert block.rank() == 1


def test_d_rho_p6_block():
    block, pairing = _pairing(p_family(1), 3)
    assert pairing == [[gauss(0, Fraction(1, 4)), gauss(Fraction(-1, 4))],
                       [gauss(Fraction(-1, 4)), gauss(0)]]
    assert block.rank() == 2


def test_d_rho_w6_degenerate(w6):
    block, pairing = _pairing(w6, 3)
    assert pairing[0][1] == gauss(-HALF)
    assert block.matrix.nnz() == 1
    assert block.rank() == 1


@pytest.mark.parametrize("spec_builder,v_index", [
    (lambda: heisenberg_ext(2), 3),
    (lambda: double_heisenberg(1, 1), 3),
    (lambda: p_family(1), 3),
    (lambda: w_family(1), 5),
])
def test_d_rho_agrees_with_raw_brackets(spec_builder, v_index):
    """Entry (b, j) must equal -rho([X_j, Xbar_b]) from the raw constants."""
    spec = spec_builder()
    block, pairing = _pairing(spec, v_index)
    t_idx = [i for i in range(1, spec.n + 1) if i != v_index]
    for bi, b in enumerate(t_idx):
        for ji, j in enumerate(t_idx):
            bracket = spec.bracket({j - 1: gauss(1)}, {spec.n + b - 1: gauss(1)})
            rho_value = -bracket.get(v_index - 1, gauss(0))
            assert pairing[bi][ji] == rho_value
    # the block has no entry outside the V ^ wbar^b rows
    assert block.matrix.nnz() == sum(1 for row in pairing for value in row if value)
