"""Tour of the built-in algebra catalog: validation, layers, the pairing.

Each entry is a nilpotent Lie algebra with an abelian complex structure,
described purely by the structure constants of the mixed brackets
[Xbar_k, X_j].  Validation checks the Jacobi identity, runs the lower
central series, and computes the center and the layer decomposition of
the (1,0) part.  For the 2-step entries with a one-dimensional center V,
dbar(X_j) = -sum_b A^V_{bj} V ^ wbar^b: the memoized dbar block
B^{1,0} -> B^{1,1} carries the contraction d(rho)(X_j, Xbar_b) = A^V_{bj} of
the central dual form, and its rank separates the families.  It is
nondegenerate (rank n-1) for heisenberg-ext / double-heisenberg / p4n2 and
has rank n+1 (out of 2n+2) for w4n6.
"""

from nilpoisson import (ExpressionContext, ExteriorComplex, GradedElement, format_multivector,
                        validate)
from nilpoisson.catalog import parse_catalog_name

NAMES = [
    "torus:2",
    "heisenberg-ext:1",
    "heisenberg-ext:2",
    "double-heisenberg:1,1",
    "p4n2:1",
    "w4n6:0",
    "w4n6:1",
]


def show(name):
    spec = parse_catalog_name(name)
    report = validate(spec)
    print(f"{spec.name}")
    print(f"  labels      : {', '.join(spec.labels)}")
    print(f"  real dim    : {spec.dim_l}")
    print(f"  step        : {report.step}")
    center = ", ".join(spec.label(i) for i in report.center_indices)
    print(f"  center      : {center}  (dim {report.dim_center})")
    for level, indices in enumerate(report.t_layer_indices, start=1):
        names = ", ".join(spec.label(i) for i in indices)
        print(f"  layer t_{level}   : {names}")
    if report.dim_center == 1 and report.step == 2:
        cx = ExteriorComplex(spec, report)
        block = cx.operator_block("dbar", 1, 0)
        rows, cols = cx.basis(1, 1), cx.basis(1, 0)
        context = ExpressionContext(spec, report)
        print(f"  dbar B^1,0  : {block.matrix.rows}x{block.matrix.cols}, "
              f"rank {block.rank()}, nnz {block.matrix.nnz()}")
        # each nonzero column of the block, read back as the element dbar(X_j)
        for c, vector in enumerate(cols):
            image = GradedElement({rows[r]: value
                                   for (r, col), value in block.matrix.entries.items() if col == c})
            if image:
                label = spec.label(vector.vec[0])
                print(f"      dbar {label} = {format_multivector(image, context)}")
    print()


if __name__ == "__main__":
    for name in NAMES:
        show(name)
