"""Exact-arithmetic engines for supported cohomology refinements,
torus fixed-point integration, and character-valued Euler
characteristics, with a long-exact-sequence backbone over the
rationals.
"""

__version__ = "0.1.0"

from .equivariant import (
    ComponentAlgebra,
    EquivariantElement,
    FixedComponent,
    LinearForm,
    PolyFraction,
    abbv_integrate,
    concentration_check,
    euler_class,
    invert_localized,
    orbit_annihilation_witness,
    projective_space_components,
)
from .ktheory import (
    KFixedPoint,
    LaurentRational,
    evaluate_at_one,
    fixed_point_sum,
    is_character,
    lambda_minus_one,
    projective_space_dataset,
)
from .linalg import AffineSubspace, Matrix
from .poly import GradedPoly, LaurentPoly
from .simplicial import (
    CochainComplex,
    CochainPair,
    SimplicialComplex,
    SubcomplexSelection,
    cochain_complex,
    complement_subcomplex,
    relative_cochain_complex,
    tensor_complex,
)
from .torsor import (
    CohomologyBasis,
    CohomologyClass,
    LiftTorsor,
    canonical_lift_if_unique,
    check_exactness,
    cohomology,
    external_product,
    factorization_check,
    les,
    lift_external_product,
    supported_lifts,
    torsor_difference,
)
