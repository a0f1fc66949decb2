"""The linear obstruction behind first-page degeneracy.

For Lambda = V ^ T the only thing that can stop the spectral sequence from
degenerating is the class of the bracket action on the central dual form:
it has to be exactly solvable as dbar X = [Lambda, rho_bar] with X in the
non-central part.  That is a finite linear system in the pairing matrix.

When the pairing is nondegenerate (heisenberg-ext, double-heisenberg,
p4n2) the system has a unique solution for every T, so the decomposition
always holds.  On w4n6 the pairing is degenerate and the answer depends
on T: kernel directions act trivially, the rest are unsolvable.
"""

from nilpoisson import ExteriorComplex, GradedElement, obstruction
from nilpoisson.catalog import parse_catalog_name
from nilpoisson.expressions import ExpressionContext, format_multivector


def solve_for(name, t_label):
    spec = parse_catalog_name(name)
    cx = ExteriorComplex(spec)
    context = ExpressionContext(spec, cx.report)
    t_index = spec.labels.index(t_label) + 1
    result = obstruction(cx, GradedElement.vector(t_index))
    line = f"{name:<22} T = {t_label:<3} -> {result.kind}"
    if result.kind == "solvable":
        uniq = " (unique)" if result.unique else ""
        line += f", X = {format_multivector(result.solution, context)}{uniq}"
    print(line)


if __name__ == "__main__":
    solve_for("heisenberg-ext:1", "T1")
    solve_for("heisenberg-ext:3", "T2")
    solve_for("double-heisenberg:2,1", "S1")
    solve_for("double-heisenberg:2,1", "T1")
    solve_for("p4n2:1", "T1")
    solve_for("p4n2:1", "T2")
    solve_for("w4n6:0", "T1")
    solve_for("w4n6:0", "T2")
    solve_for("w4n6:1", "T3")
    solve_for("w4n6:1", "T4")
