from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilpoisson.rationals import (GaussianRational, MalformedRational, add_into,
                                  format_rational, from_triple, gauss, parse_rational)


def test_multiplication_by_i():
    assert gauss(Fraction(1, 2)) * gauss(0, 1) == gauss(0, Fraction(1, 2))


def test_conjugation():
    assert gauss(0, Fraction(-1, 2)).conjugate() == gauss(0, Fraction(1, 2))


def test_division_verified_by_multiplying_back():
    quotient = gauss(0, Fraction(1, 4)) / gauss(Fraction(-1, 4))
    assert quotient == gauss(0, -1)
    assert gauss(Fraction(-1, 4)) * quotient == gauss(0, Fraction(1, 4))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gauss(1) / gauss(0)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        gauss(0, 0.25)


def test_lowest_terms_invariant():
    value = gauss(Fraction(2, 4), Fraction(-3, -6))
    assert value.re == Fraction(1, 2) and value.re.denominator == 2
    assert value.im == Fraction(1, 2) and value.im.denominator == 2


def test_stored_triple_is_canonical():
    assert gauss(Fraction(2, 4), Fraction(-3, -6)).triple == (1, 1, 2)
    assert gauss(0, 0).triple == (0, 0, 1)
    assert gauss(Fraction(-4, 6), 2).triple == (-2, 6, 3)
    assert from_triple(2, 4, -6).triple == (-1, -2, 3)
    assert from_triple(0, 0, -5).triple == (0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        from_triple(1, 0, 0)


rationals = st.fractions(max_denominator=50)
scalars = st.builds(GaussianRational, rationals, rationals)


# -- a (Fraction, Fraction) reference implementation of Q(i) -------------------------


def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _agrees(value, ref):
    a, b, d = value.triple
    assert d > 0 and gcd(a, b, d) == 1
    assert (value.re, value.im) == ref
    assert value == gauss(*ref)
    assert hash(value) == hash(gauss(*ref))
    return True


pairs = st.tuples(rationals, rationals)


@given(pairs, pairs, st.integers(-5, 5))
def test_arithmetic_agrees_with_the_fraction_reference(x, y, k):
    gx, gy = gauss(*x), gauss(*y)
    assert _agrees(gx, x)
    assert _agrees(gx + gy, _ref_add(x, y))
    assert _agrees(gx - gy, _ref_sub(x, y))
    assert _agrees(gx * gy, _ref_mul(x, y))
    assert _agrees(-gx, (-x[0], -x[1]))
    assert _agrees(gx.conjugate(), (x[0], -x[1]))
    assert _agrees(gx + k, _ref_add(x, (Fraction(k), Fraction(0))))
    assert _agrees(k - gx, _ref_sub((Fraction(k), Fraction(0)), x))
    assert _agrees(gx * x[1], _ref_mul(x, (x[1], Fraction(0))))
    if y != (0, 0):
        assert _agrees(gx / gy, _ref_div(x, y))
    if x != (0, 0):
        assert _agrees(x[1] / gx, _ref_div((x[1], Fraction(0)), x))
    assert (gx == gy) == (x == y)
    assert bool(gx) == (x != (0, 0))


@given(pairs, st.integers(1, 6))
def test_equal_values_built_differently_compare_and_hash_equal(x, k):
    scaled = gauss(Fraction(x[0].numerator * k, x[0].denominator * k),
                   Fraction(x[1].numerator * k, x[1].denominator * k))
    assert scaled == gauss(*x) and hash(scaled) == hash(gauss(*x))
    assert scaled.triple == gauss(*x).triple
    if x[1] == 0:
        # a real value equals, and hashes like, its Fraction
        assert scaled == x[0] and hash(scaled) == hash(x[0])


@given(scalars, scalars)
def test_roundtrip_mul_div(a, b):
    if not b:
        return
    assert (a * b) / b == a


@given(scalars, scalars)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(scalars)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@pytest.mark.parametrize("text,expected", [
    ("3", Fraction(3)),
    ("-3", Fraction(-3)),
    ("1/2", Fraction(1, 2)),
    ("-7/4", Fraction(-7, 4)),
    ("+2/6", Fraction(1, 3)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["1/0", "", "0.5", "1e3", "a/b", "1/-2", "//"])
def test_parse_rational_rejects(bad):
    with pytest.raises(MalformedRational):
        parse_rational(bad)


@given(rationals)
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_add_into_keeps_no_zero_coefficient():
    terms = {}
    add_into(terms, "x", gauss(1, 2))           # absent key, nonzero value: stored as is
    assert terms == {"x": gauss(1, 2)}
    add_into(terms, "y", gauss(0))              # absent key, zero value: nothing stored
    assert terms == {"x": gauss(1, 2)}
    add_into(terms, "x", gauss(Fraction(1, 2)))  # present key: added
    assert terms == {"x": gauss(Fraction(3, 2), 2)}
    add_into(terms, "x", gauss(Fraction(-3, 2), -2))  # cancellation: the key is deleted
    assert terms == {}
