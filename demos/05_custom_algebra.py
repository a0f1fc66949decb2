"""Declaring an algebra by hand and feeding it through the pipeline.

The spec format stores only the (1,0)-side structure constants; the
conjugate half is derived, so reality violations cannot be expressed.
Below: a 3-step algebra with [X1bar, X1] = X2 - X2bar and
[X1bar, X2] = X3 - X3bar, plus an extra central direction X4.  Its center
is two-dimensional, the layers are {X1, X4}, {X2}, {X3}, and a bivector
like X1 ^ X4 fails the holomorphy check while X3 ^ X4 (inside the square
of the center) is Poisson and acts trivially on everything.
"""

import json

from nilpoisson import ExteriorComplex, GradedElement, analyze, validate, wedge
from nilpoisson.catalog import parse_spec
from nilpoisson.exterior import NotHolomorphic

SPEC_TEXT = json.dumps({
    "name": "three-step-demo",
    "n": 4,
    "labels": ["X1", "X2", "X3", "X4"],
    "constants": [
        {"k": 1, "j": 1, "m": 2, "re": "1", "im": "0"},
        {"k": 1, "j": 2, "m": 3, "re": "1", "im": "0"},
    ],
}, indent=2)


if __name__ == "__main__":
    print("input spec:")
    print(SPEC_TEXT)
    print()

    spec = parse_spec(SPEC_TEXT)
    report = validate(spec)
    print(f"step {report.step}, center dim {report.dim_center}, "
          f"layers {report.t_layer_indices}")

    cx = ExteriorComplex(spec, report)
    bad = wedge(GradedElement.vector(1), GradedElement.vector(4))
    try:
        cx.validate_poisson(bad)
    except NotHolomorphic as exc:
        print(f"X1 ^ X4 rejected: {exc}")

    lam = wedge(GradedElement.vector(3), GradedElement.vector(4))
    result = analyze(cx, lam, max_degree=4)
    print(f"X3 ^ X4: degenerate = {result.degeneracy}, hodge = {result.hodge}")
    for row in result.per_degree:
        print(f"  n={row.degree}: dim H^n = {row.h_lambda} vs {row.hpq_sum}")
