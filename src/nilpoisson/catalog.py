"""Built-in algebra families and the declarative spec-file format.

The four 2-step families (plus the torus) are generated from their complex
structure equations; the only data per family is the matrix E of the dual
pairing, entered as the constants A^V_{kj} = E_{kj} with the central basis
vector V last:

* ``heisenberg-ext:n``    -- central extension of h_{2n+1}: E_{jj} = -i/2;
* ``double-heisenberg:m,n`` -- h_{2m+1} + h_{2n+1}: E_{jj} = -i/2 on the
  S block and E_{kk} = 1/2 on the T block;
* ``p4n2:n``              -- E_{2k+1,2k+1} = i/4,
  E_{2k+1,2k+2} = E_{2k+2,2k+1} = -1/4 (nondegenerate pairing);
* ``w4n6:n``              -- E_{2k+1,2k+2} = -1/2, everything else zero
  (pairing of rank n+1, degenerate for every n);
* ``torus:n``             -- the abelian algebra, no constants.

Spec files are JSON: {"name", "n", "labels", "constants": [{"k", "j", "m",
"re", "im"}]} with 1-based indices and rationals as "p/q" strings; parse
and emit are exact inverses on valid specs.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .algebra import AlgebraSpec
from .rationals import (GaussianRational, InputError, MalformedRational, format_rational,
                        parse_rational, quote)


class CatalogError(InputError):
    pass


class SpecFormatError(InputError):
    pass


def torus(n: int) -> AlgebraSpec:
    _require(n >= 1, f"torus needs n >= 1, got {n}")
    return AlgebraSpec(f"torus:{n}", n, tuple(f"X{i}" for i in range(1, n + 1)), {})


def heisenberg_ext(n: int) -> AlgebraSpec:
    """One-dimensional central extension of the Heisenberg algebra h_{2n+1}."""
    _require(n >= 1, f"heisenberg-ext needs n >= 1, got {n}")
    dim = n + 1
    labels = tuple(f"T{j}" for j in range(1, n + 1)) + ("V",)
    constants = {(j, j, dim): GaussianRational(0, Fraction(-1, 2)) for j in range(1, n + 1)}
    return AlgebraSpec(f"heisenberg-ext:{n}", dim, labels, constants)


def double_heisenberg(m: int, n: int) -> AlgebraSpec:
    """h_{2m+1} + h_{2n+1} with the two centers identified under J."""
    _require(m >= 1 and n >= 1, f"double-heisenberg needs m, n >= 1, got {m},{n}")
    dim = m + n + 1
    labels = (tuple(f"S{j}" for j in range(1, m + 1))
              + tuple(f"T{k}" for k in range(1, n + 1)) + ("V",))
    constants: Dict[Tuple[int, int, int], GaussianRational] = {}
    for j in range(1, m + 1):
        constants[(j, j, dim)] = GaussianRational(0, Fraction(-1, 2))
    for k in range(m + 1, m + n + 1):
        constants[(k, k, dim)] = GaussianRational(Fraction(1, 2))
    return AlgebraSpec(f"double-heisenberg:{m},{n}", dim, labels, constants)


def p_family(n: int) -> AlgebraSpec:
    """The P_{4n+2} family; the dual pairing is nondegenerate."""
    _require(n >= 1, f"p4n2 needs n >= 1, got {n}")
    dim = 2 * n + 1
    labels = tuple(f"T{j}" for j in range(1, 2 * n + 1)) + ("V",)
    constants: Dict[Tuple[int, int, int], GaussianRational] = {}
    for k in range(n):
        odd, even = 2 * k + 1, 2 * k + 2
        constants[(odd, odd, dim)] = GaussianRational(0, Fraction(1, 4))
        constants[(odd, even, dim)] = GaussianRational(Fraction(-1, 4))
        constants[(even, odd, dim)] = GaussianRational(Fraction(-1, 4))
    return AlgebraSpec(f"p4n2:{n}", dim, labels, constants)


def w_family(n: int) -> AlgebraSpec:
    """The W_{4n+6} family; the dual pairing has rank n+1 (degenerate)."""
    _require(n >= 0, f"w4n6 needs n >= 0, got {n}")
    dim = 2 * n + 3
    labels = tuple(f"T{j}" for j in range(1, 2 * n + 3)) + ("V",)
    constants = {(2 * k + 1, 2 * k + 2, dim): GaussianRational(Fraction(-1, 2))
                 for k in range(n + 1)}
    return AlgebraSpec(f"w4n6:{n}", dim, labels, constants)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CatalogError(message)


FAMILIES: Dict[str, Tuple[str, int, Callable[..., AlgebraSpec]]] = {
    # name -> (parameter signature, arity, constructor)
    "torus": ("torus:N            (N >= 1; abelian, real dim 2N)", 1, torus),
    "heisenberg-ext": ("heisenberg-ext:N    (N >= 1; real dim 2N+2)", 1, heisenberg_ext),
    "double-heisenberg": ("double-heisenberg:M,N (M, N >= 1; real dim 2M+2N+2)", 2, double_heisenberg),
    "p4n2": ("p4n2:N              (N >= 1; real dim 4N+2)", 1, p_family),
    "w4n6": ("w4n6:N              (N >= 0; real dim 4N+6)", 1, w_family),
}


def build_catalog_entry(family: str, parameters: Sequence[int]) -> AlgebraSpec:
    if family not in FAMILIES:
        raise CatalogError(f"unknown family {quote(family)}; known: {', '.join(sorted(FAMILIES))}")
    _, arity, constructor = FAMILIES[family]
    if len(parameters) != arity:
        raise CatalogError(f"family {quote(family)} takes {arity} parameter(s), got {len(parameters)}")
    return constructor(*parameters)


# -?[0-9]+ per parameter: int() alone would also take "+1", " 1" and "1_0"
_PARAMETERS_RE = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def parse_catalog_name(name: str) -> AlgebraSpec:
    """Resolve compact names like 'w4n6:0' or 'double-heisenberg:2,1'."""
    if ":" not in name:
        raise CatalogError(f"catalog name {quote(name)} needs the form family:params")
    family, _, params = name.partition(":")
    if not _PARAMETERS_RE.fullmatch(params):
        raise CatalogError(
            f"catalog name {quote(name)} needs integer parameters separated by single commas")
    try:
        parameters = [int(parse_rational(piece)) for piece in params.split(",")]
    except MalformedRational as exc:   # only a number too long for int() is left
        raise CatalogError(f"catalog name {quote(family.strip())}: {exc}") from None
    return build_catalog_entry(family.strip(), parameters)


def catalog_names() -> List[str]:
    return [signature for signature, _, _ in FAMILIES.values()]


# -- spec files ----------------------------------------------------------------

_TOP_LEVEL_FIELDS = {"name", "n", "labels", "constants"}
_CONSTANT_FIELDS = {"k", "j", "m", "re", "im"}


def parse_spec(text: str) -> AlgebraSpec:
    """Parse the JSON spec format; exact inverse of :func:`emit_spec`."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:   # an integer longer than int() reads, see sys.get_int_max_str_digits()
        raise SpecFormatError(
            f"invalid JSON: a number has more than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(raw, dict):
        raise SpecFormatError("top level must be an object")
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        raise SpecFormatError(f"unknown field(s): {quote(', '.join(sorted(unknown)))}")
    for required in ("name", "n", "labels"):
        if required not in raw:
            raise SpecFormatError(f"missing field {required!r}")
    if not isinstance(raw["name"], str):
        raise SpecFormatError(f"'name' must be a string, got {quote(json.dumps(raw['name']))}")
    if type(raw["n"]) is not int:  # JSON integers only: no bool, float or string
        raise SpecFormatError("'n' must be an integer")
    if not isinstance(raw["labels"], list) or not all(isinstance(s, str) for s in raw["labels"]):
        raise SpecFormatError("'labels' must be a list of strings")

    items = raw.get("constants", [])
    if not isinstance(items, list):
        raise SpecFormatError("'constants' must be a list of objects")
    constants: Dict[Tuple[int, int, int], GaussianRational] = {}
    for position, item in enumerate(items):
        if not isinstance(item, dict):
            raise SpecFormatError(f"constants[{position}] must be an object")
        unknown = set(item) - _CONSTANT_FIELDS
        if unknown:
            raise SpecFormatError(
                f"constants[{position}]: unknown field(s) {quote(', '.join(sorted(unknown)))}")
        k, j, m = item.get("k"), item.get("j"), item.get("m")
        if not all(type(x) is int for x in (k, j, m)):
            raise SpecFormatError(f"constants[{position}]: k, j, m must be integers")
        if (k, j, m) in constants:
            raise SpecFormatError(f"constants[{position}]: duplicate triple (k,j,m) = ({k},{j},{m})")
        parts = []
        for part in ("re", "im"):
            text = item.get(part, "0")
            if not isinstance(text, str):   # "p/q" strings only: no number, bool or null
                raise SpecFormatError(f"constants[{position}]: {part!r} must be a 'p' or "
                                      f"'p/q' string, got {quote(json.dumps(text))}")
            try:
                parts.append(parse_rational(text))
            except MalformedRational as exc:
                raise SpecFormatError(f"constants[{position}]: {exc}") from None
        value = GaussianRational(*parts)
        constants[(k, j, m)] = value
    from .algebra import AlgebraError
    try:
        return AlgebraSpec(raw["name"], raw["n"], tuple(raw["labels"]), constants)
    except AlgebraError as exc:
        raise SpecFormatError(str(exc)) from None


def emit_spec(spec: AlgebraSpec) -> str:
    """Serialize to the JSON spec format with a stable constant order."""
    payload = {
        "name": spec.name,
        "n": spec.n,
        "labels": list(spec.labels),
        "constants": [
            {"k": k, "j": j, "m": m,
             "re": format_rational(value.re), "im": format_rational(value.im)}
            for (k, j, m), value in sorted(spec.constants.items())
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
