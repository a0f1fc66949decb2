"""The command-line surface: subcommands, exit codes, JSON stability."""

import json
import subprocess
import sys

import pytest

from nilpoisson import ExteriorComplex
from nilpoisson.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 5
    for family in ("torus", "heisenberg-ext", "double-heisenberg", "p4n2", "w4n6"):
        assert any(line.startswith(family) for line in lines)


def test_catalog_emit_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "catalog", "emit", "w4n6:0")
    assert code == 0
    spec_file = tmp_path / "w6.json"
    spec_file.write_text(out)
    code, out, _ = run_cli(capsys, "validate", str(spec_file))
    assert code == 0
    assert "step" in out and "2" in out


@pytest.mark.parametrize("name", ["torus:3", "heisenberg-ext:2", "double-heisenberg:2,1",
                                  "p4n2:2", "w4n6:1"])
def test_catalog_emit_then_validate_matches_the_catalog_name(capsys, tmp_path, name):
    code, out, _ = run_cli(capsys, "catalog", "emit", name)
    assert code == 0
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(out)
    from_file = run_cli(capsys, "validate", str(spec_file))
    assert from_file == run_cli(capsys, "validate", name)
    assert from_file[0] == 0 and from_file[1].startswith(f"{name}: valid")


def test_validate_catalog_name(capsys):
    code, out, _ = run_cli(capsys, "validate", "p4n2:1")
    assert code == 0
    assert "valid" in out


def test_analyze_hodge_case_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hn_lambda"]["1"] == 5
    assert payload["hodge"] is True
    assert payload["obstruction"]["kind"] == "trivial_action"


def test_analyze_json_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--json")
    _, second, _ = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--json")
    assert first == second


def test_analyze_human_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1")
    assert code == 0
    assert "Hodge-type decomposition: False" in out
    assert "unsolvable" in out or "obstruction" in out


def test_analyze_without_poisson(capsys):
    code, out, _ = run_cli(capsys, "analyze", "torus:2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degeneracy"] is True and payload["hodge"] is True


def test_obstruction_unsolvable_message(capsys):
    code, out, _ = run_cli(capsys, "obstruction", "w4n6:0", "--t", "T1")
    assert code == 0
    assert "unsolvable: spectral sequence does not degenerate" in out


def test_obstruction_trivial_message(capsys):
    code, out, _ = run_cli(capsys, "obstruction", "w4n6:0", "--t", "T2")
    assert code == 0
    assert "trivial action" in out


def test_obstruction_solvable_json(capsys):
    code, out, _ = run_cli(capsys, "obstruction", "heisenberg-ext:1", "--t", "T1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "solvable" and payload["unique"] is True
    assert payload["solution"] == {"T1": "-1"}


def test_deform_reports_kernel(capsys):
    code, out, _ = run_cli(capsys, "deform", "w4n6:0", "--poisson", "V^T2",
                           "--omega", "rho_bar^w1_bar", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k1_kernel_dim"] == 4
    assert len(payload["k1_kernel"]) == payload["k1_kernel_dim"]
    assert payload["dims"] == {"0": 1, "1": 4, "2": 9, "3": 12, "4": 9, "5": 4, "6": 1}


def test_deform_at_cap_0_reports_the_k1_kernel(capsys):
    argv = ("deform", "w4n6:0", "--poisson", "V^T2", "--omega", "rho_bar^w1_bar")
    at_0, at_1 = (json.loads(run_cli(capsys, *argv, "--max-degree", cap, "--json")[1])
                  for cap in ("0", "1"))
    assert at_0["k1_kernel"] == at_1["k1_kernel"]
    assert at_0["k1_kernel_dim"] == 4 and at_0["dims"] == {"0": 1}
    code, out, _ = run_cli(capsys, *argv, "--max-degree", "0")
    assert code == 0 and "kernel of delta on K^1 (dimension 4):" in out


@pytest.mark.parametrize("target, poisson, kind", [
    ("w4n6:0", "V^T1", "unsolvable"),
    ("w4n6:0", "V^T2", "trivial_action"),
    ("heisenberg-ext:1", "V^T1", "solvable"),
])
def test_analyze_at_cap_0_reports_the_checked_degeneracy(capsys, target, poisson, kind):
    """At cap 0 the page has no d_1; the verdict is checked against the cap-1 page."""
    argv = ("analyze", target, "--poisson", poisson)
    at_0, at_1 = (json.loads(run_cli(capsys, *argv, "--max-degree", cap, "--json")[1])
                  for cap in ("0", "1"))
    degenerate = kind != "unsolvable"
    assert at_0["obstruction"]["kind"] == at_1["obstruction"]["kind"] == kind
    assert at_0["degeneracy"] is at_1["degeneracy"] is degenerate
    code, out, _ = run_cli(capsys, *argv, "--max-degree", "0")
    assert code == 0
    assert f"first-page degeneracy: {degenerate}" in out and f"obstruction: {kind}" in out


def test_deform_rejects_a_non_poisson_lambda(capsys):
    code, _, err = run_cli(capsys, "deform", "w4n6:0", "--poisson", "T1^T2",
                           "--omega", "rho_bar^w1_bar")
    assert code == 1
    assert "dbar(Lambda)" in err


def test_deform_lets_internal_value_errors_escape(monkeypatch):
    """Only input errors map to exit 1; an internal ValueError is a bug."""
    from nilpoisson import cli

    def broken(*args, **kwargs):
        raise ValueError("shape mismatch")

    monkeypatch.setattr(cli, "deformed_complex", broken)
    with pytest.raises(ValueError, match="shape mismatch"):
        main(["deform", "w4n6:0", "--poisson", "V^T2", "--omega", "rho_bar^w1_bar"])


@pytest.mark.parametrize("argv", [
    ("analyze", "w4n6:0", "--poisson", "V^T1"),
    ("obstruction", "w4n6:0", "--t", "T1"),
    ("analyze", "w4n6:0", "--poisson", "V^T1", "--max-degree", "0"),
])
def test_obstruction_disagreeing_with_the_first_page_exits_2(capsys, monkeypatch, argv):
    """Both commands run one obstruction-vs-d_1 check with one message."""
    import dataclasses

    from nilpoisson import cli, cohomology

    real = cohomology.first_page

    def flipped(*args, **kwargs):
        page = real(*args, **kwargs)
        return dataclasses.replace(page, degenerate=not page.degenerate)

    monkeypatch.setattr(cohomology, "first_page", flipped)
    monkeypatch.setattr(cli, "first_page", flipped)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T1^V: obstruction "
                   "'unsolvable' says degenerate=False but the d_1 table says "
                   "degenerate=True\n")


@pytest.mark.parametrize("argv", [
    ("analyze", "w4n6:0", "--poisson", "V^T1"),
    ("obstruction", "w4n6:0", "--t", "T1"),
    ("analyze", "w4n6:0", "--poisson", "V^T1", "--max-degree", "0"),
])
def test_unsolvable_obstruction_with_zero_d1_at_01_exits_2(capsys, monkeypatch, argv):
    """An unsolvable verdict needs d_1^{0,1} != 0, not only a non-degenerate page."""
    import dataclasses

    from nilpoisson import cli, cohomology

    real = cohomology.first_page

    def flattened(*args, **kwargs):
        page = real(*args, **kwargs)
        return dataclasses.replace(page, d1_ranks={**page.d1_ranks, (0, 1): 0},
                                   degenerate=False)

    monkeypatch.setattr(cohomology, "first_page", flattened)
    monkeypatch.setattr(cli, "first_page", flattened)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T1^V: obstruction "
                   "'unsolvable' but d_1 vanishes on E_1^{0,1}\n")


def test_banded_dbar_rank_disagreeing_with_its_block_exits_2(capsys, monkeypatch):
    """The dbar rank read from the banded elimination is checked against the block."""
    from nilpoisson.exterior import OperatorMatrix

    real = OperatorMatrix.rank
    true_rank = {}

    def skewed(self):
        value = real(self)
        if (self.source, self.target) == ((1, 1), (1, 2)):
            true_rank["dbar"] = value
            return value + 1
        return value

    monkeypatch.setattr(OperatorMatrix, "rank", skewed)
    code, out, err = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--json")
    assert code == 2
    assert out == ""
    banded = true_rank["dbar"]
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T1^V: dbar on B^{1,1} "
                   f"has rank {banded} in the banded elimination of K^2 but rank "
                   f"{banded + 1} as a block\n")


def test_dimension_above_the_injectivity_bound_exits_2(capsys, monkeypatch):
    """dim H^n_Lambda <= sum of the Dolbeault dimensions is a theorem, checked fatally."""
    from nilpoisson import cohomology

    real = cohomology.total_cohomology

    def inflated(*args, **kwargs):
        dims = real(*args, **kwargs)
        return {**dims, 1: dims[1] + 100}

    monkeypatch.setattr(cohomology, "total_cohomology", inflated)
    code, out, err = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--json")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T1^V: dim H^1_Lambda = "
                   "104 exceeds the Dolbeault sum 5; this contradicts the injectivity bound "
                   "and indicates a bug\n")


def test_dolbeault_table_without_serre_symmetry_exits_2(capsys, monkeypatch):
    """At full degree h^{p,q} = h^{n-p,n-q} is a theorem, checked fatally."""
    from nilpoisson import cohomology

    real = cohomology.dolbeault_dims

    def skewed(*args, **kwargs):
        dims = real(*args, **kwargs)
        return {**dims, (0, 1): dims[(0, 1)] + 1}

    monkeypatch.setattr(cohomology, "dolbeault_dims", skewed)
    code, out, err = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--json")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0: h^{0,1} = 4 but h^{3,2} = 3; "
                   "this contradicts Serre symmetry and indicates a bug\n")
    # below full degree the table is incomplete and the check does not run
    code, out, _ = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--max-degree", "5",
                           "--json")
    assert code == 0
    assert json.loads(out)["hpq"]


def test_second_page_outside_the_sandwich_exits_2(capsys, monkeypatch):
    """Per degree, the E_2 sum lies between dim H^n_Lambda and the E_1 sum."""
    from nilpoisson import cohomology

    real = cohomology.second_page

    def inflated(page):
        return {**real(page), (0, 0): 100}

    monkeypatch.setattr(cohomology, "second_page", inflated)
    code, out, err = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T1", "--json")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T1^V: degree 0: "
                   "E_2 sum 100 outside [1, 1]\n")


def test_solvable_obstruction_without_the_hodge_equality_exits_2(capsys, monkeypatch):
    """A degenerate obstruction verdict forces the Hodge-type dimension equality."""
    import dataclasses

    from nilpoisson import cohomology

    real = cohomology.hodge_verdict

    def refuted(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), hodge=False)

    monkeypatch.setattr(cohomology, "hodge_verdict", refuted)
    code, out, err = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^T2", "--json")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T2^V: solvable "
                   "obstruction without the Hodge-type dimension equality\n")


def test_deformed_differential_squaring_to_nonzero_exits_2(capsys, monkeypatch):
    """delta^2 = 0 is checked on the assembled matrices before any dimension."""
    from nilpoisson import cohomology
    from nilpoisson.rationals import gauss
    from nilpoisson.sparse import SparseMatrix

    real = cohomology.total_operator

    def skewed(cx, summands, degree):
        matrix = real(cx, summands, degree)
        if degree:
            return matrix
        # T_0 sends the constant 1 to every basis vector of K^1
        return SparseMatrix(matrix.rows, matrix.cols,
                            {(r, 0): gauss(1) for r in range(matrix.rows)})

    monkeypatch.setattr(cohomology, "total_operator", skewed)
    code, out, err = run_cli(capsys, "deform", "w4n6:0", "--poisson", "V^T2",
                             "--omega", "rho_bar^w1_bar", "--json")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0, Lambda = -T2^V, Omega_bar = "
                   "-w1_bar^rho_bar: delta^2 != 0 between K^0 and K^2\n")


@pytest.mark.parametrize("argv, degrees_key", [
    (("analyze", "w4n6:0", "--poisson", "V^T1", "--json"), "hn_lambda"),
    (("deform", "w4n6:0", "--poisson", "V^T2", "--omega", "rho_bar^w1_bar", "--json"), "dims"),
])
def test_negative_max_degree_is_an_input_error(capsys, argv, degrees_key):
    code, out, err = run_cli(capsys, *argv, "--max-degree", "-1")
    assert code == 1
    assert out == ""
    assert "--max-degree" in err and "non-negative" in err
    code, out, _ = run_cli(capsys, *argv, "--max-degree", "0")
    assert code == 0
    assert list(json.loads(out)[degrees_key]) == ["0"]


def test_unknown_label_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "w4n6:0", "--poisson", "V^Q9")
    assert code == 1
    assert "unknown generator label" in err


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
    assert code == 1
    assert "neither" in err


def test_invalid_catalog_parameters(capsys):
    code, _, err = run_cli(capsys, "analyze", "w4n6:-1")
    assert code == 1


@pytest.mark.parametrize("name", ["w4n6:,1", "w4n6:1_0"])
def test_malformed_catalog_name_exits_1(capsys, name):
    code, out, err = run_cli(capsys, "validate", name)
    assert code == 1
    assert out == ""
    assert "integer parameters separated by single commas" in err


@pytest.mark.parametrize("labels", [["w1_bar", "T2", "V"], ["T1", "T 2", "V"],
                                    ["T1", "T2", "rho_bar"]])
def test_label_outside_the_expression_grammar_exits_1(capsys, tmp_path, labels):
    spec = tmp_path / "labels.json"
    spec.write_text(json.dumps({"name": "x", "n": 3, "labels": labels, "constants": [
        {"k": 1, "j": 2, "m": 3, "re": "-1/2", "im": "0"}]}))
    code, out, err = run_cli(capsys, "validate", str(spec))
    assert code == 1
    assert out == ""
    assert "basis label" in err


def test_nonzero_central_dbar_column_exits_2(capsys, monkeypatch):
    """dbar V = 0 for the central V; a nonzero V column in the obstruction's block is fatal."""
    from nilpoisson.exterior import ExteriorComplex, OperatorMatrix
    from nilpoisson.rationals import gauss
    from nilpoisson.sparse import SparseMatrix

    real = ExteriorComplex.operator_block

    def skewed(self, kind, p, q, element=None):
        block = real(self, kind, p, q, element)
        if (kind, p, q) != ("dbar", 1, 0):
            return block
        # V is the last basis vector of every catalog family
        entries = {**block.matrix.entries, (0, self.n - 1): gauss(1)}
        return OperatorMatrix(block.source, block.target,
                              SparseMatrix(block.matrix.rows, block.matrix.cols, entries))

    monkeypatch.setattr(ExteriorComplex, "operator_block", skewed)
    code, out, err = run_cli(capsys, "obstruction", "w4n6:0", "--t", "T1")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency failure: w4n6:0: dbar of the central vector V "
                   "is nonzero\n")


def test_bad_spec_file_location_in_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"')
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "line" in err


def test_non_integer_constant_index_exits_1(capsys, tmp_path):
    bad = tmp_path / "float-index.json"
    bad.write_text(json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": [
        {"k": 1.9, "j": 1, "m": 2, "re": "1", "im": "0"}]}))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "valid" not in out
    assert "k, j, m must be integers" in err


def test_constants_that_are_not_a_list_exit_1(capsys, tmp_path):
    bad = tmp_path / "scalar-constants.json"
    bad.write_text(json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": 5}))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: 'constants' must be a list of objects\n"


@pytest.mark.parametrize("field, shown", [("name", "5"), ("re", "1.5"), ("im", "true"),
                                          ("re", "null"), ("im", "1")])
def test_spec_values_that_are_not_strings_exit_1(capsys, tmp_path, field, shown):
    item = {"k": 1, "j": 2, "m": 3, "re": "-1/2", "im": "0"}
    raw = {"name": "x", "n": 3, "labels": ["A", "B", "C"], "constants": [item]}
    (raw if field == "name" else item)[field] = json.loads(shown)
    bad = tmp_path / "not-a-string.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    if field == "name":
        assert err == f"error: {bad}: 'name' must be a string, got {shown}\n"
    else:
        assert err == (f"error: {bad}: constants[0]: '{field}' must be a 'p' or 'p/q' "
                       f"string, got {shown}\n")


def test_non_poisson_input_is_rejected(capsys):
    code, _, err = run_cli(capsys, "analyze", "three-step:1")
    assert code == 1


def test_expression_with_complex_coefficient(capsys):
    code, out, _ = run_cli(capsys, "analyze", "heisenberg-ext:2",
                           "--poisson", "(0-1/2i)V^T1 + V^T2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hodge"] is True


def test_module_entry_point():
    """python -m nilpoisson works end to end."""
    proc = subprocess.run(
        [sys.executable, "-m", "nilpoisson", "analyze", "w4n6:0",
         "--poisson", "V^T2", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["hn_lambda"]["1"] == 5


# -- support-only assembly ------------------------------------------------------------


def test_analyze_and_obstruction_build_no_monomial_basis(capsys, monkeypatch):
    expected = [run_cli(capsys, "analyze", "w4n6:3", "--poisson", "V^T1", "--max-degree", "5",
                        "--json"),
                run_cli(capsys, "obstruction", "w4n6:1", "--t", "T1")]

    def no_basis(self, p, q):
        raise AssertionError(f"basis({p}, {q}) built on the assembly path")

    monkeypatch.setattr(ExteriorComplex, "basis", no_basis)
    assert [run_cli(capsys, "analyze", "w4n6:3", "--poisson", "V^T1", "--max-degree", "5",
                    "--json"),
            run_cli(capsys, "obstruction", "w4n6:1", "--t", "T1")] == expected
    assert expected[0][0] == 0 and expected[1][0] == 0


def test_deform_builds_only_the_k1_basis(capsys, monkeypatch):
    asked = []
    basis = ExteriorComplex.basis

    def k1_basis_only(self, p, q):
        asked.append((p, q))
        assert p + q == 1, f"basis({p}, {q}) is not a K^1 block"
        return basis(self, p, q)

    monkeypatch.setattr(ExteriorComplex, "basis", k1_basis_only)
    code, out, _ = run_cli(capsys, "deform", "w4n6:0", "--poisson", "V^T2",
                           "--omega", "rho_bar^w1_bar")
    assert code == 0 and "K^1" in out
    assert sorted(set(asked)) == [(0, 1), (1, 0)]


def test_leibniz_expansion_makes_one_wedge_per_position_and_image_term(capsys, monkeypatch):
    """Ceilings at one monomial_wedge per (position, image term); two per term make 1573 and 766."""
    from nilpoisson import exterior

    real = exterior.monomial_wedge
    calls = []

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(exterior, "monomial_wedge", counted)
    for argv, ceiling in (
            (("analyze", "w4n6:3", "--poisson", "V^T1", "--max-degree", "5", "--json"), 820),
            (("deform", "w4n6:2", "--poisson", "V^T2", "--omega", "rho_bar^w1_bar", "--json"),
             384)):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert 0 < len(calls) <= ceiling, argv
