"""Multivector expression syntax for the command line.

Grammar (whitespace-insensitive)::

    sum    := ["-"] term (("+" | "-") term)*
    term   := coeff? label ("^" label)*
    coeff  := RATIONAL | "(" [sign] RATIONAL [("+" | "-") RATIONAL "i"] ")"
    label  := a generator name

Vector labels come from the algebra spec; the dual (0,1)-form of basis
index i is ``w{i}_bar``, with ``rho_bar`` as the alias of the central dual
form when the (1,0) center is one-dimensional.  Examples: ``V^T1``,
``V^T1 + (1/2)V^T3``, ``rho_bar^w1_bar``, ``(0-1/2i)T2``.  The ASCII "-"
and the unicode minus sign are interchangeable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraSpec, StructureReport, validate
from .exterior import GradedElement, wedge
from .rationals import (GaussianRational, InputError, MalformedRational, format_rational,
                        parse_rational, quote)


class ExpressionError(InputError):
    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        where = f" (at character {position + 1})" if position is not None else ""
        super().__init__(message + where)


_TOKEN_RE = re.compile(r"""
    (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+^()−])
  | (?P<space>\s+)
""", re.VERBOSE)


def _shown(token: Tuple[str, str, int]) -> str:
    """A token for an error message, quoted whole up to 24 characters.

    The command line quotes the whole expression, up to 80 characters,
    beside the message, so a token is cut shorter to keep one error line
    under 200 bytes.
    """
    return quote(token[1], 24)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ExpressionError(f"unexpected character {quote(text[pos])}", pos)
        kind = match.lastgroup
        if kind != "space":
            value = match.group()
            if value == "−":
                value = "-"
            tokens.append((kind, value, pos))
        pos = match.end()
    return tokens


class ExpressionContext:
    """Label resolution for one algebra: vectors, dual forms, rho_bar."""

    def __init__(self, spec: AlgebraSpec, report: Optional[StructureReport] = None):
        self.spec = spec
        self.report = report if report is not None else validate(spec)
        self.generators: Dict[str, GradedElement] = {}
        self._form_labels: Dict[int, str] = {}
        for index, label in enumerate(spec.labels, start=1):
            self.generators[label] = GradedElement.vector(index)
            form_label = f"w{index}_bar"
            self.generators[form_label] = GradedElement.form(index)
            self._form_labels[index] = form_label
        if self.report.dim_center == 1 and self.report.center_indices:
            center = self.report.center_indices[0]
            self.generators["rho_bar"] = GradedElement.form(center)
            self._form_labels[center] = "rho_bar"

    def vector_label(self, index: int) -> str:
        return self.spec.labels[index - 1]

    def form_label(self, index: int) -> str:
        return self._form_labels[index]


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]], context: ExpressionContext,
                 text_length: int):
        self.tokens = tokens
        self.context = context
        self.cursor = 0
        self.text_length = text_length

    def _peek(self):
        return self.tokens[self.cursor] if self.cursor < len(self.tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            raise ExpressionError("unexpected end of expression", self.text_length - 1)
        self.cursor += 1
        return token

    def _expect_op(self, op: str):
        token = self._next()
        if token[0] != "op" or token[1] != op:
            raise ExpressionError(f"expected {op!r}, found {_shown(token)}", token[2])
        return token

    def parse(self) -> GradedElement:
        total = GradedElement()
        sign = 1
        token = self._peek()
        if token and token[0] == "op" and token[1] in "+-":
            self._next()
            sign = -1 if token[1] == "-" else 1
        total = total + self._term() * sign
        while True:
            token = self._peek()
            if token is None:
                return total
            if token[0] == "op" and token[1] in "+-":
                self._next()
                sign = -1 if token[1] == "-" else 1
                total = total + self._term() * sign
            else:
                raise ExpressionError(f"expected '+' or '-', found {_shown(token)}", token[2])

    def _term(self) -> GradedElement:
        coeff = self._coefficient()
        token = self._peek()
        if token is None or token[0] != "name":
            where = token[2] if token else self.text_length - 1
            raise ExpressionError("expected a generator label", where)
        element = self._label()
        while True:
            token = self._peek()
            if token and token[0] == "op" and token[1] == "^":
                self._next()
                element = wedge(element, self._label())
            else:
                break
        return element * coeff

    def _label(self) -> GradedElement:
        token = self._next()
        if token[0] != "name":
            raise ExpressionError(f"expected a generator label, found {_shown(token)}", token[2])
        generator = self.context.generators.get(token[1])
        if generator is None:
            raise ExpressionError(f"unknown generator label {_shown(token)}", token[2])
        return generator

    def _coefficient(self) -> GaussianRational:
        token = self._peek()
        if token is None:
            raise ExpressionError("unexpected end of expression", self.text_length - 1)
        if token[0] == "number":
            self._next()
            return GaussianRational(self._fraction(token))
        if token[0] == "op" and token[1] == "(":
            self._next()
            re_part = self._signed_rational()
            nxt = self._next()
            if nxt[0] == "name" and nxt[1] == "i":
                self._expect_op(")")
                return GaussianRational(0, re_part)
            if nxt[0] == "op" and nxt[1] == ")":
                return GaussianRational(re_part)
            if nxt[0] == "op" and nxt[1] in "+-":
                im_sign = -1 if nxt[1] == "-" else 1
                im_part = self._signed_rational()
                marker = self._next()
                if marker[0] != "name" or marker[1] != "i":
                    raise ExpressionError("expected 'i' after the imaginary part", marker[2])
                self._expect_op(")")
                return GaussianRational(re_part, im_sign * im_part)
            raise ExpressionError(f"malformed coefficient near {_shown(nxt)}", nxt[2])
        return GaussianRational(1)

    def _signed_rational(self) -> Fraction:
        token = self._next()
        sign = 1
        if token[0] == "op" and token[1] in "+-":
            sign = -1 if token[1] == "-" else 1
            token = self._next()
        if token[0] != "number":
            raise ExpressionError(f"expected a rational, found {_shown(token)}", token[2])
        return sign * self._fraction(token)

    @staticmethod
    def _fraction(token) -> Fraction:
        try:
            return parse_rational(token[1])
        except MalformedRational as exc:
            raise ExpressionError(str(exc), token[2]) from None


def parse_multivector(text: str, context: ExpressionContext) -> GradedElement:
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression", 0)
    parser = _Parser(tokens, context, len(text))
    return parser.parse()


def format_multivector(element: GradedElement, context: ExpressionContext) -> str:
    """Canonical rendering; parses back to the same element (when nonzero)."""
    if not element:
        return "0"
    pieces = []
    for mono, coeff in element.sorted_terms():
        labels = ([context.vector_label(i) for i in mono.vec]
                  + [context.form_label(i) for i in mono.form])
        body = "^".join(labels) if labels else "1"
        sign = "+"
        if coeff.im:
            re_str = format_rational(coeff.re)
            im_str = format_rational(abs(coeff.im))
            im_sign = "+" if coeff.im > 0 else "-"
            prefix = f"({re_str}{im_sign}{im_str}i)"
        else:
            if coeff.re < 0:
                sign = "-"
            magnitude = abs(coeff.re)
            prefix = "" if magnitude == 1 else f"({format_rational(magnitude)})"
        pieces.append((sign, prefix + body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
