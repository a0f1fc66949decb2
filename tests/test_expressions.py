"""Expression grammar: parsing, canonical formatting, round trips."""

import random
from fractions import Fraction

import pytest

from nilpoisson import GradedElement, Monomial, wedge
from nilpoisson.catalog import double_heisenberg, w_family
from nilpoisson.expressions import (ExpressionContext, ExpressionError,
                                    format_multivector, parse_multivector)
from nilpoisson.rationals import gauss


@pytest.fixture(scope="module")
def w6_context():
    return ExpressionContext(w_family(0))


def test_simple_wedge(w6_context):
    parsed = parse_multivector("V^T1", w6_context)
    assert parsed == wedge(GradedElement.vector(3), GradedElement.vector(1))


def test_sum_with_rational_coefficient(w6_context):
    parsed = parse_multivector("V^T1 + (1/2)V^T2", w6_context)
    expected = (wedge(GradedElement.vector(3), GradedElement.vector(1))
                + wedge(GradedElement.vector(3), GradedElement.vector(2)) * gauss(Fraction(1, 2)))
    assert parsed == expected


def test_unicode_minus(w6_context):
    a = parse_multivector("V^T1 − T1^T2", w6_context)
    b = parse_multivector("V^T1 - T1^T2", w6_context)
    assert a == b


def test_complex_coefficient(w6_context):
    parsed = parse_multivector("(1/2-3/4i)T1", w6_context)
    assert parsed == GradedElement.vector(1, gauss(Fraction(1, 2), Fraction(-3, 4)))


def test_pure_imaginary_coefficient(w6_context):
    assert (parse_multivector("(0+1i)T1", w6_context)
            == GradedElement.vector(1, gauss(0, 1)))
    assert (parse_multivector("(1/2i)T1", w6_context)
            == GradedElement.vector(1, gauss(0, Fraction(1, 2))))


def test_rho_bar_alias(w6_context):
    assert parse_multivector("rho_bar", w6_context) == GradedElement.form(3)
    assert parse_multivector("w3_bar", w6_context) == GradedElement.form(3)


def test_form_labels(w6_context):
    parsed = parse_multivector("rho_bar^w1_bar", w6_context)
    assert parsed == wedge(GradedElement.form(3), GradedElement.form(1))


def test_leading_minus(w6_context):
    assert (parse_multivector("-T1", w6_context)
            == GradedElement.vector(1, gauss(-1)))


@pytest.mark.parametrize("bad", ["", "V^", "Q7", "1/2", "(1/2", "V++T1", "V^T1)",
                                 "(1/0)V"])
def test_malformed_expressions(bad, w6_context):
    with pytest.raises(ExpressionError):
        parse_multivector(bad, w6_context)


def test_error_carries_position(w6_context):
    with pytest.raises(ExpressionError) as info:
        parse_multivector("V^T1 + Q9", w6_context)
    assert "character 8" in str(info.value)


def test_format_uses_rho_bar(w6_context):
    element = wedge(GradedElement.form(3), GradedElement.form(1))
    assert "rho_bar" in format_multivector(element, w6_context)


def test_format_zero(w6_context):
    assert format_multivector(GradedElement(), w6_context) == "0"


def test_mixed_family_labels():
    context = ExpressionContext(double_heisenberg(1, 1))
    parsed = parse_multivector("V^S1 - (2)V^T1", context)
    expected = (wedge(GradedElement.vector(3), GradedElement.vector(1))
                - wedge(GradedElement.vector(3), GradedElement.vector(2)) * gauss(2))
    assert parsed == expected


@pytest.mark.parametrize("seed", range(10))
def test_format_parse_roundtrip(seed, w6_context):
    rng = random.Random(seed)
    element = GradedElement()
    for _ in range(rng.randint(1, 4)):
        coeff = gauss(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                      Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        piece = GradedElement.monomial(Monomial(), coeff)
        for _ in range(rng.randint(1, 3)):
            index = rng.randint(1, 3)
            generator = (GradedElement.vector(index) if rng.random() < 0.5
                         else GradedElement.form(index))
            piece = wedge(piece, generator)
        element = element + piece
    if not element:
        return
    text = format_multivector(element, w6_context)
    assert parse_multivector(text, w6_context) == element
