"""Command-line driver.

Subcommands::

    validate FILE
    catalog list
    catalog emit NAME
    analyze (FILE | NAME) [--poisson EXPR] [--max-degree N] [--json]
    obstruction (FILE | NAME) --t EXPR [--json]
    deform (FILE | NAME) --poisson EXPR --omega EXPR [--max-degree N] [--json]

NAME is a compact catalog name such as ``w4n6:0`` or
``double-heisenberg:2,1``; anything else is read as a JSON spec file.
Exit codes: 0 on success, 1 on validation/input errors, 2 on
internal-consistency failures (a theorem-implied equality not holding,
which indicates a bug, never a property of the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .algebra import AlgebraError, AlgebraSpec, StructureReport, validate
from .catalog import (CatalogError, FAMILIES, SpecFormatError, catalog_names,
                      emit_spec, parse_catalog_name, parse_spec)
from .cohomology import (CohomologyReport, ConsistencyError, DeformationError,
                         ObstructionInputError, analyze, check_obstruction_verdict,
                         deformed_complex, first_page, obstruction)
from .exterior import ExteriorComplex, GradedElement, PoissonError
from .expressions import ExpressionContext, ExpressionError, format_multivector, parse_multivector
from .rationals import MalformedRational


class InputError(ValueError):
    """Any user-facing input problem; maps to exit code 1."""


def _resolve_algebra(target: str) -> AlgebraSpec:
    family = target.partition(":")[0]
    if family in FAMILIES:
        return parse_catalog_name(target)
    path = Path(target)
    if not path.exists():
        raise InputError(
            f"{target!r} is neither a catalog name ({', '.join(sorted(FAMILIES))}) "
            "nor an existing spec file")
    try:
        return parse_spec(path.read_text())
    except SpecFormatError as exc:
        raise InputError(f"{target}: {exc}") from None


def _load(target: str) -> Tuple[AlgebraSpec, StructureReport, ExteriorComplex, ExpressionContext]:
    spec = _resolve_algebra(target)
    report = validate(spec)
    cx = ExteriorComplex(spec, report)
    context = ExpressionContext(spec, report)
    return spec, report, cx, context


def _parse_expression(text: str, context: ExpressionContext, what: str) -> GradedElement:
    try:
        return parse_multivector(text, context)
    except ExpressionError as exc:
        raise InputError(f"in {what} expression {text!r}: {exc}") from None


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- subcommands ------------------------------------------------------------


def _cmd_validate(args) -> int:
    spec = _resolve_algebra(args.target)
    report = validate(spec)
    print(f"{spec.name}: valid")
    print(f"  complex dimension n = {spec.n}, dim L = {spec.dim_l}")
    print(f"  nilpotency step     = {report.step}")
    center = (",".join(spec.label(i) for i in report.center_indices)
              if report.center_indices else "(not coordinate)")
    print(f"  dim c^(1,0)         = {report.dim_center}   basis: {center}")
    for level, indices in enumerate(report.t_layer_indices, start=1):
        shown = (",".join(spec.label(i) for i in indices)
                 if indices is not None else "(not coordinate)")
        print(f"  layer t_{level}           = {{{shown}}}")
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for line in catalog_names():
            print(line)
        return 0
    # emit
    if not args.name:
        raise InputError("catalog emit needs a NAME")
    spec = parse_catalog_name(args.name)
    sys.stdout.write(emit_spec(spec))
    return 0


def _cmd_analyze(args) -> int:
    spec, report, cx, context = _load(args.target)
    lam = GradedElement()
    poisson_text = None
    if args.poisson:
        lam = _parse_expression(args.poisson, context, "--poisson")
        poisson_text = format_multivector(lam, context)
    try:
        result = analyze(cx, lam, max_degree=args.max_degree, poisson_text=poisson_text)
    except PoissonError as exc:
        raise InputError(f"--poisson {args.poisson!r}: {exc}") from None
    if args.json:
        _print_json(result.to_json_dict())
        return 0
    _print_report(result, spec)
    return 0


def _print_report(result: CohomologyReport, spec: AlgebraSpec) -> None:
    print(f"algebra {result.algebra_name}: n = {result.n}, dim L = {result.dim_l}, "
          f"step {result.step}, dim center {result.dim_center}")
    print(f"Poisson bivector: {result.poisson or '0'}")
    print(f"max degree: {result.max_degree}")
    print()
    print("Dolbeault dimensions H^q(g^(p,0)) [rows q, columns p]:")
    max_p = max(p for p, _ in result.hpq)
    max_q = max(q for _, q in result.hpq)
    header = "  q\\p " + "".join(f"{p:>5}" for p in range(max_p + 1))
    print(header)
    for q in range(max_q, -1, -1):
        cells = []
        for p in range(max_p + 1):
            cells.append(f"{result.hpq[(p, q)]:>5}" if (p, q) in result.hpq else "     ")
        print(f"  {q:>3} " + "".join(cells))
    print()
    print("total Poisson cohomology vs Dolbeault sum:")
    for row in result.per_degree:
        marker = "=" if row.equal else "<"
        print(f"  n={row.degree}:  dim H^n_Lambda = {row.h_lambda:>4}   "
              f"{marker}   sum H^(p,q) = {row.hpq_sum}")
    nonzero_d1 = {key: value for key, value in result.e1_d1_ranks.items() if value}
    print()
    print(f"d_1 ranks: {nonzero_d1 if nonzero_d1 else 'all zero'}")
    print(f"first-page degeneracy: {result.degeneracy}")
    print(f"Hodge-type decomposition: {result.hodge}")
    if result.obstruction_kind is not None:
        print(f"obstruction: {result.obstruction_kind}")
        if result.obstruction_solution:
            coords = ", ".join(f"{label}: {value}" for label, value
                               in sorted(result.obstruction_solution.items()))
            print(f"  X = {coords}")


def _cmd_obstruction(args) -> int:
    spec, report, cx, context = _load(args.target)
    t = _parse_expression(args.t, context, "--t")
    try:
        result = obstruction(cx, report.center_indices[0] if report.center_indices else 0, t)
    except (ObstructionInputError, AlgebraError) as exc:
        raise InputError(str(exc)) from None

    lam = GradedElement.vector(report.center_indices[0]).wedge(t)
    # an unsolvable verdict is checked against d_1^{0,1}, which a cap-1 page holds
    cap = 1 if result.kind == "unsolvable" else None
    check_obstruction_verdict(cx, lam, result.kind, first_page(cx, lam, cap))

    if args.json:
        solution = None
        if result.solution is not None:
            solution = {spec.label(i): str(v)
                        for i, v in zip(result.t_indices, result.solution) if v}
        _print_json({"algebra": spec.name, "t": format_multivector(t, context),
                     "kind": result.kind, "unique": result.unique, "solution": solution})
        return 0
    if result.kind == "unsolvable":
        print("unsolvable: spectral sequence does not degenerate")
    elif result.kind == "trivial_action":
        print("trivial action: ad_Lambda vanishes identically; "
              "spectral sequence degenerates on the first page")
    else:
        x = result.solution_element()
        rendered = format_multivector(x, context) if x else "0"
        qualifier = "unique " if result.unique else ""
        print(f"solvable: spectral sequence degenerates on the first page; "
              f"{qualifier}solution X = {rendered}")
    return 0


def _cmd_deform(args) -> int:
    spec, report, cx, context = _load(args.target)
    lam = _parse_expression(args.poisson, context, "--poisson")
    omega = _parse_expression(args.omega, context, "--omega")
    try:
        result = deformed_complex(cx, lam, omega, max_degree=args.max_degree)
    except (PoissonError, DeformationError) as exc:
        # ConsistencyError is a RuntimeError and propagates to exit code 2
        raise InputError(str(exc)) from None
    if args.json:
        _print_json({
            "algebra": spec.name,
            "poisson": format_multivector(lam, context),
            "omega": format_multivector(omega, context),
            "dims": {str(n): dim for n, dim in sorted(result.dims.items())},
            "k1_kernel_dim": result.k1_kernel_dim,
            "k1_kernel": [format_multivector(el, context) for el in result.k1_kernel],
        })
        return 0
    print(f"deformed differential on {spec.name} "
          f"(Lambda = {format_multivector(lam, context)}, "
          f"Omega_bar = {format_multivector(omega, context)})")
    print("delta^2 = 0 verified on the assembled blocks")
    for n, dim in sorted(result.dims.items()):
        print(f"  dim H^{n}(delta) = {dim}")
    print(f"kernel of delta on K^1 (dimension {result.k1_kernel_dim}):")
    for element in result.k1_kernel:
        print(f"  {format_multivector(element, context)}")
    return 0


# -- driver -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _non_negative_int(text: str) -> int:
    """argparse type of --max-degree: a negative cap is an input error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only reads it."""
    parser = _Parser(prog="nilpoisson",
                     description="Holomorphic Poisson cohomology of nilpotent Lie "
                                 "algebras with abelian complex structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a spec file or catalog name")
    p.add_argument("target")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("catalog", help="list families or emit a spec file")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("analyze", help="full cohomology report")
    p.add_argument("target")
    p.add_argument("--poisson", help="Poisson bivector expression, e.g. \"V^T2\"")
    p.add_argument("--max-degree", type=_non_negative_int, default=None,
                   help="highest total degree to compute (default min(dim L, 6))")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("obstruction", help="degeneracy obstruction for Lambda = V^T")
    p.add_argument("target")
    p.add_argument("--t", required=True, help="vector expression for T, e.g. \"T1\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("deform", help="cohomology of the deformed differential")
    p.add_argument("target")
    p.add_argument("--poisson", required=True)
    p.add_argument("--omega", required=True, help="(0,2) class, e.g. \"rho_bar^w1_bar\"")
    p.add_argument("--max-degree", type=_non_negative_int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_deform)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, SpecFormatError, CatalogError, AlgebraError, ExpressionError,
            PoissonError, MalformedRational) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
