"""Catalog families, the spec-file format, and catalog invariants."""

import json
import sys
from fractions import Fraction

import pytest

from nilpoisson import ExteriorComplex, validate
from nilpoisson.catalog import (CatalogError, SpecFormatError, build_catalog_entry,
                                double_heisenberg, emit_spec, heisenberg_ext, p_family,
                                parse_catalog_name, parse_spec, torus, w_family)
from nilpoisson.rationals import gauss

HALF = Fraction(1, 2)


def test_heisenberg_ext_constants():
    spec = heisenberg_ext(1)
    assert spec.n == 2
    assert spec.constants == {(1, 1, 2): gauss(0, -HALF)}


def test_w_family_base_case():
    spec = w_family(0)
    assert spec.n == 3
    assert spec.constants == {(1, 2, 3): gauss(-HALF)}


def test_p_family_block():
    spec = p_family(1)
    assert spec.constants == {
        (1, 1, 3): gauss(0, Fraction(1, 4)),
        (1, 2, 3): gauss(Fraction(-1, 4)),
        (2, 1, 3): gauss(Fraction(-1, 4)),
    }


def test_double_heisenberg_blocks():
    spec = double_heisenberg(2, 1)
    assert spec.labels == ("S1", "S2", "T1", "V")
    assert spec.constants[(1, 1, 4)] == gauss(0, -HALF)
    assert spec.constants[(3, 3, 4)] == gauss(HALF)


@pytest.mark.parametrize("spec_builder,real_dim", [
    (lambda: heisenberg_ext(1), 4), (lambda: heisenberg_ext(3), 8),
    (lambda: double_heisenberg(1, 1), 6), (lambda: double_heisenberg(2, 1), 8),
    (lambda: p_family(1), 6), (lambda: p_family(2), 10),
    (lambda: w_family(0), 6), (lambda: w_family(2), 14),
    (lambda: torus(3), 6),
])
def test_family_real_dimensions(spec_builder, real_dim):
    assert spec_builder().dim_l == real_dim


@pytest.mark.parametrize("name,step", [
    ("heisenberg-ext:1", 2), ("heisenberg-ext:2", 2),
    ("double-heisenberg:1,1", 2), ("double-heisenberg:2,2", 2),
    ("p4n2:1", 2), ("p4n2:2", 2),
    ("w4n6:0", 2), ("w4n6:1", 2), ("w4n6:2", 2),
    ("torus:2", 1),
])
def test_catalog_entries_validate(name, step):
    spec = parse_catalog_name(name)
    report = validate(spec)
    assert report.step == step


@pytest.mark.parametrize("spec_builder", [
    lambda: heisenberg_ext(1), lambda: heisenberg_ext(2), lambda: heisenberg_ext(3),
    lambda: double_heisenberg(1, 1), lambda: double_heisenberg(2, 1),
    lambda: double_heisenberg(3, 2),
    lambda: p_family(1), lambda: p_family(2), lambda: p_family(3),
])
def test_nondegenerate_pairings(spec_builder):
    """The pairing d(rho) on t^{1,0} has full rank: dbar on B^{1,0} has rank n - 1."""
    spec = spec_builder()
    assert validate(spec).center_indices == (spec.n,)
    assert ExteriorComplex(spec).operator_block("dbar", 1, 0).rank() == spec.n - 1


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_w_family_pairing_rank(n):
    """The pairing on the 2n+2 non-central vectors has rank n + 1."""
    spec = w_family(n)
    assert validate(spec).center_indices == (spec.n,)
    block = ExteriorComplex(spec).operator_block("dbar", 1, 0)
    assert block.matrix.cols - 1 == 2 * n + 2
    assert block.rank() == n + 1


@pytest.mark.parametrize("bad", ["heisenberg-ext:0", "w4n6:-1", "p4n2:0",
                                 "double-heisenberg:0,1", "torus:0"])
def test_parameter_minimums(bad):
    with pytest.raises(CatalogError):
        parse_catalog_name(bad)


def test_negative_parameter_keeps_the_family_range_message():
    with pytest.raises(CatalogError, match=r"^w4n6 needs n >= 0, got -1$"):
        parse_catalog_name("w4n6:-1")


@pytest.mark.parametrize("bad", ["nosuch:1", "w4n6", "w4n6:x", "double-heisenberg:1",
                                 "w4n6:,1", "w4n6:1,", "double-heisenberg:1,,2", "w4n6:+1",
                                 "w4n6:1_0", "w4n6:", "w4n6: 1", "w4n6:1.0"])
def test_malformed_catalog_names(bad):
    with pytest.raises(CatalogError):
        parse_catalog_name(bad)


def test_build_catalog_entry_arity():
    with pytest.raises(CatalogError):
        build_catalog_entry("w4n6", [1, 2])


# -- spec files -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["w4n6:0", "heisenberg-ext:2", "double-heisenberg:1,2",
                                  "p4n2:1", "torus:2"])
def test_emit_parse_roundtrip(name):
    spec = parse_catalog_name(name)
    assert parse_spec(emit_spec(spec)) == spec


def test_parse_rejects_zero_denominator():
    text = """{"name": "x", "n": 1, "labels": ["X1"],
               "constants": [{"k": 1, "j": 1, "m": 1, "re": "0", "im": "1/0"}]}"""
    with pytest.raises(SpecFormatError, match="denominator"):
        parse_spec(text)


def test_parse_rejects_duplicate_triple():
    text = """{"name": "x", "n": 3, "labels": ["A", "B", "C"], "constants": [
        {"k": 1, "j": 2, "m": 3, "re": "1", "im": "0"},
        {"k": 1, "j": 2, "m": 3, "re": "2", "im": "0"}]}"""
    with pytest.raises(SpecFormatError, match="duplicate"):
        parse_spec(text)


def test_parse_rejects_unknown_field():
    with pytest.raises(SpecFormatError, match="unknown"):
        parse_spec('{"name": "x", "n": 1, "labels": ["X1"], "center": [1]}')


def test_parse_rejects_bad_json():
    with pytest.raises(SpecFormatError, match="line"):
        parse_spec('{"name": "x",')


_NON_INTEGERS = [1.9, True, "1"]


@pytest.mark.parametrize("value", _NON_INTEGERS, ids=repr)
def test_parse_rejects_a_non_integer_dimension(value):
    text = json.dumps({"name": "x", "n": value, "labels": ["X1"]})
    with pytest.raises(SpecFormatError, match="'n' must be an integer"):
        parse_spec(text)


@pytest.mark.parametrize("key", ["k", "j", "m"])
@pytest.mark.parametrize("value", _NON_INTEGERS, ids=repr)
def test_parse_rejects_a_non_integer_constant_index(key, value):
    item = {"k": 1, "j": 1, "m": 2, "re": "1", "im": "0"}
    item[key] = value
    text = json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": [item]})
    with pytest.raises(SpecFormatError, match=r"constants\[0\]: k, j, m must be integers"):
        parse_spec(text)


@pytest.mark.parametrize("value", [5, None, "ab", {"k": 1}], ids=repr)
def test_parse_rejects_constants_that_are_not_a_list(value):
    text = json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": value})
    with pytest.raises(SpecFormatError, match=r"^'constants' must be a list of objects$"):
        parse_spec(text)


@pytest.mark.parametrize("value, shown", [(5, "5"), (None, "null"), (["x"], '["x"]')],
                         ids=repr)
def test_parse_rejects_a_name_that_is_not_a_string(value, shown):
    text = json.dumps({"name": value, "n": 1, "labels": ["X1"]})
    with pytest.raises(SpecFormatError) as info:
        parse_spec(text)
    assert str(info.value) == f"'name' must be a string, got {shown!r}"


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (True, "true"), (None, "null"),
                                          (1, "1"), (0, "0")], ids=repr)
def test_parse_rejects_a_rational_that_is_not_a_string(part, value, shown):
    item = {"k": 1, "j": 1, "m": 2, "re": "1", "im": "0"}
    item[part] = value
    text = json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": [item]})
    with pytest.raises(SpecFormatError) as info:
        parse_spec(text)
    assert str(info.value) == (
        f"constants[0]: '{part}' must be a 'p' or 'p/q' string, got {shown!r}")


def test_parse_rejects_an_integer_longer_than_int_reads():
    limit = sys.get_int_max_str_digits()
    text = '{"name": "x", "n": ' + "1" * (limit + 1) + ', "labels": ["X1"]}'
    with pytest.raises(SpecFormatError) as info:
        parse_spec(text)
    assert str(info.value) == f"invalid JSON: a number has more than {limit} digits"


def test_parse_quotes_unknown_field_names_and_cuts_long_ones():
    item = {"k": 1, "j": 1, "m": 2, "re": "1", "zz": 0, "yy": 0}
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": [item]}))
    assert str(info.value) == "constants[0]: unknown field(s) 'yy, zz'"
    with pytest.raises(SpecFormatError) as info:
        parse_spec(json.dumps({"name": "x", "n": 1, "labels": ["X1"], "y" * 5000: 0}))
    assert str(info.value) == f"unknown field(s): '{'y' * 77}...'"


@pytest.mark.parametrize("value", ["٣", "３", "1/٤"], ids=ascii)
def test_parse_rejects_a_rational_with_non_ascii_digits(value):
    """Digits are 0-9 only; int() would read Arabic-Indic or fullwidth digits too."""
    item = {"k": 1, "j": 1, "m": 2, "re": value, "im": "0"}
    text = json.dumps({"name": "x", "n": 2, "labels": ["A", "B"], "constants": [item]},
                      ensure_ascii=False)
    with pytest.raises(SpecFormatError) as info:
        parse_spec(text)
    assert str(info.value) == f"constants[0]: not a rational 'p' or 'p/q' string: {value!r}"


def test_parse_defaults_a_missing_rational_part_to_zero():
    spec = parse_spec('{"name": "x", "n": 2, "labels": ["A", "B"], '
                      '"constants": [{"k": 1, "j": 1, "m": 2, "im": "1/2"}]}')
    assert spec.constants[(1, 1, 2)] == gauss(0, HALF)


def test_roundtrip_preserves_rationals_exactly():
    spec = parse_spec("""{"name": "exact", "n": 2, "labels": ["A", "B"],
        "constants": [{"k": 1, "j": 1, "m": 2,
                       "re": "-123456789/987654321", "im": "1/3"}]}""")
    again = parse_spec(emit_spec(spec))
    value = again.constants[(1, 1, 2)]
    assert value.re == Fraction(-123456789, 987654321)
    assert value.im == Fraction(1, 3)
