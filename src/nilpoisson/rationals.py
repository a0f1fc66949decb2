"""Exact scalars over the Gaussian rationals Q(i).

Every coefficient in this package is a :class:`GaussianRational`: a complex
number ``(a + b*i) / d`` stored as three arbitrary-precision ints in canonical
form, ``d > 0`` and ``gcd(a, b, d) == 1``.  Each arithmetic result costs a few
integer products and one 3-way gcd, with no ``fractions.Fraction`` object in
between; ``.re`` and ``.im`` are ``Fraction`` properties for parsing,
formatting and JSON.  There is no floating point anywhere; a scalar is zero
iff both numerators are zero, and equality is exact structural equality of
the canonical triples.

Loops that run many operations per matrix (the sparse elimination in
:mod:`nilpoisson.sparse`) read :attr:`GaussianRational.triple` once per entry,
work on the raw ints and build the results with :func:`from_triple`.  Every
other linear combination (elements of the exterior algebra, matrix sums and
products, brackets of coordinate vectors) is a dict of nonzero scalars built
with :func:`add_into`, the one place that drops a coefficient summing to zero.

Every module of the package imports this one, so it also defines the two
roots of every error the package raises: :class:`InputError`, raised by bad
input (a malformed number, spec, catalog name, expression, Poisson bivector
or obstruction/deformation argument), and :class:`ConsistencyError`, raised
when a theorem-implied equality fails, which only a bug can cause.  The
command line maps the first to exit code 1 and the second to exit code 2;
any other exception is a bug.  :func:`quote` is the one rule for echoing a
user's text in an error message.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")

Rationalish = Union[int, Fraction]


class InputError(ValueError):
    """Bad user input: the root of every input-error class; exit code 1."""


class ConsistencyError(RuntimeError):
    """A theorem-implied equality failed: an internal bug, not a result; exit code 2."""


def quote(text: str, width: int = 80) -> str:
    """A user's text for a one-line error: whole up to width characters, else width - 3 and '...'."""
    return repr(text if len(text) <= width else text[:width - 3] + "...")


class MalformedRational(InputError):
    """A rational string is not of the form ``p`` or ``p/q`` with q > 0."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into an exact Fraction.

    Anything else (decimals, empty strings, zero denominators, more digits
    than ``int`` reads, see :func:`sys.get_int_max_str_digits`) raises
    :class:`MalformedRational`.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise MalformedRational(f"not a rational 'p' or 'p/q' string: {quote(text)}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise MalformedRational(f"zero denominator: {quote(text)}") from None
    except ValueError:   # int() reads at most sys.get_int_max_str_digits() digits
        raise MalformedRational(f"a number has more than {sys.get_int_max_str_digits()} digits") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p`` or ``p/q`` (lowest terms, q > 0).

    An exact result is printed whole: when ``str()`` refuses a number of
    more than :func:`sys.get_int_max_str_digits` digits, the limit is
    lifted around this conversion only.
    """
    try:
        return _plain(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return _plain(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _plain(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class GaussianRational:
    """An element ``(a + b*i) / d`` of Q(i).

    The triple is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal
    values have equal triples.  Instances are immutable by convention and
    hashable, so they can serve as matrix entries and memoization keys.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        # floats are rejected, not converted: Fraction(0.1) would silently
        # smuggle the binary expansion into an exact computation
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational components must be int or Fraction, not float")
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        # both parts in lowest terms, so the lcm leaves gcd(a, b, d) = 1
        d = q * s // gcd(q, s)
        self._a, self._b, self._d = re.numerator * (d // q), im.numerator * (d // s), d

    # -- components ----------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> Tuple[int, int, int]:
        """The canonical ``(a, b, d)`` with value ``(a + b*i) / d``."""
        return (self._a, self._b, self._d)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _canonical(self._a + o._a, self._b + o._b, d)
        return _canonical(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _canonical(self._a - o._a, self._b - o._b, d)
        return _canonical(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _canonical(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, c, e, f = self._a, self._b, o._a, o._b, o._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _canonical((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self) -> "GaussianRational":
        return _canonical(self._a, -self._b, self._d)

    # -- comparison, hashing, display -----------------------------------

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return format_rational(re)
        if not re:
            return _format_imaginary(im)
        sign = "+" if im > 0 else "-"
        return f"{format_rational(re)}{sign}{_format_imaginary(abs(im)).lstrip('+')}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """The scalar ``(a + b*i) / d`` for ``d > 0``, with one 3-way gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    value = _new(GaussianRational)
    value._a, value._b, value._d = a, b, d
    return value


def _coerce(other) -> Optional[GaussianRational]:
    if isinstance(other, GaussianRational):
        return other
    if isinstance(other, (int, Fraction)):
        return GaussianRational(other)
    return None


def from_triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar ``(a + b*i) / d`` for ints with ``d != 0``, in canonical form."""
    if not d:
        raise ZeroDivisionError("zero denominator in a Gaussian rational triple")
    if d < 0:
        a, b, d = -a, -b, -d
    return _canonical(a, b, d)


def _format_imaginary(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    num, _, den = format_rational(im).partition("/")
    return f"{num}i/{den}" if den else f"{num}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def add_into(terms: dict, key, value) -> None:
    """Add ``value`` at ``key`` of a sparse sum that holds no zero coefficient.

    An absent key stores a nonzero value as it is; a present one is added
    to, and deleted when the sum is zero.
    """
    prior = terms.get(key)
    if prior is None:
        if value:
            terms[key] = value
        return
    total = prior + value
    if total:
        terms[key] = total
    else:
        del terms[key]


def gauss(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor; accepts ints and Fractions."""
    return GaussianRational(re, im)
