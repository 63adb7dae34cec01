"""Exact-arithmetic verification of the plane-quintic configuration ledger.

The package computes, entirely in exact arithmetic, the dimension table of
linear systems of quintic curves with prescribed singular configurations (42
types), twisted homology of the small auxiliary configuration spaces, and the
table bookkeeping that assembles these into the Poincaré polynomial
(1+t)(1+t^3)(1+t^5) of the space of nonsingular quintics.
"""

from .errors import FieldMismatchError, InputError, SamplingError, TaxonomyError
from .exactalg import (
    QQ,
    PrimeField,
    RationalField,
    SubspaceBasis,
    intersect,
    parse_field,
)
from .ledger import (
    ColumnSpec,
    DifferentialDecl,
    E1Table,
    alexander_dualize,
    apply_differentials,
    column_contribution,
    dataset_quintic,
    grassmann_poincare,
    totalize,
)
from .lsys import (
    HomogeneousPoly,
    SingularSet,
    check_conditions,
    classify,
    divisibility_subspace,
    linear_system_dim,
    monomial_basis,
    singular_set_bruteforce,
    singularity_rows,
)
from .poincare import PoincarePoly
from .projgeom import (
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    collinear,
    hausdorff,
    incident,
    on_common_conic,
)
from .sampling import sample_generic, sample_generic_points
from .taxonomy import GOLDEN_DIMS
from .twisted import (
    ChainComplex,
    ChainMap,
    betti_poly,
    homology,
    induced_map,
    mapping_torus,
    poincare_dual,
    tensor,
)

__version__ = "0.1.0"
