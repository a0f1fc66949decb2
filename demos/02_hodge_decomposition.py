"""The Hodge-type decomposition, and how it can fail.

On the w4n6:0 algebra (generators T1, T2, V) every bivector V ^ T is a
holomorphic Poisson structure.  The choice of T decides everything:

* T = T2 lies in the kernel of the pairing, so the bracket action
  vanishes identically, the spectral sequence degenerates on its first
  page, and the Poisson cohomology is the direct sum of the Dolbeault
  spaces -- dimension 5 in degree one.

* T = T1 does not, the obstruction class survives, and the degree-one
  cohomology strictly drops from 5 to 4.

The brute-force check below assembles the full differential on each total
degree and takes exact ranks; nothing is floating point.
"""

from nilpoisson import ExteriorComplex, GradedElement, analyze, wedge
from nilpoisson.catalog import w_family


def describe(cx, t_index, label):
    v = cx.n
    lam = wedge(GradedElement.vector(v), GradedElement.vector(t_index))
    report = analyze(cx, lam)
    print(f"Lambda = V ^ {label}")
    print(f"  first-page degeneracy : {report.degeneracy}")
    print(f"  obstruction           : {report.obstruction_kind}")
    print(f"  Hodge decomposition   : {report.hodge}")
    for row in report.per_degree:
        marker = "==" if row.equal else "< "
        print(f"    n={row.degree}:  dim H^n = {row.h_lambda:>3}  {marker}  "
              f"Dolbeault sum = {row.hpq_sum}")
    nonzero = {k: v for k, v in report.e1_d1_ranks.items() if v}
    print(f"  nonzero d_1 blocks    : {nonzero or 'none'}")
    print()


if __name__ == "__main__":
    cx = ExteriorComplex(w_family(0))
    print(f"algebra {cx.spec.name}: generators {', '.join(cx.spec.labels)}\n")
    describe(cx, 2, "T2")   # kernel direction: decomposition holds
    describe(cx, 1, "T1")   # obstructed direction: strict drop at degree 1
