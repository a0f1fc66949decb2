"""Holomorphic Poisson cohomology of nilmanifold Lie algebras.

Exact Gaussian-rational computation of the bi-complex (B^{p,q}, ad_Lambda,
dbar) attached to a nilpotent Lie algebra with abelian complex structure:
Dolbeault tables, total Poisson cohomology, spectral-sequence pages, the
linear degeneracy obstruction, Hodge-type decomposition verdicts, and
deformed differentials.
"""

from .algebra import (AlgebraError, AlgebraSpec, CenterDimensionError, IndexOutOfRange,
                      JacobiViolation, NotNilpotent, StructureReport, validate)
from .catalog import (CatalogError, FAMILIES, SpecFormatError, build_catalog_entry,
                      catalog_names, double_heisenberg, emit_spec, heisenberg_ext,
                      p_family, parse_catalog_name, parse_spec, torus, w_family)
from .cohomology import (CohomologyReport, DeformationReport, FirstPage, HodgeVerdict,
                         NotIntegrable, ObstructionInputError, ObstructionResult, analyze,
                         deformed_complex, dolbeault_dims, first_page, hodge_verdict,
                         obstruction, second_page, total_cohomology, total_operator)
from .exterior import (ExteriorComplex, GradedElement, Monomial, NotBidegree,
                       NotHolomorphic, OperatorMatrix, PoissonError, wedge)
from .expressions import (ExpressionContext, ExpressionError, format_multivector,
                          parse_multivector)
from .rationals import (ConsistencyError, GaussianRational, MalformedRational, format_rational,
                        gauss, parse_rational)
from .sparse import SparseMatrix, kernel_vectors, rank, solve

__version__ = "0.1.0"
