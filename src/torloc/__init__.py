"""Exact-arithmetic engines for supported cohomology refinements,
torus fixed-point integration, and character-valued Euler
characteristics, with a long-exact-sequence backbone over the
rationals.

The public names below are imported from their modules on first use, so
that ``python -m torloc`` loads only the engines its command runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "equivariant": (
        "ComponentAlgebra",
        "EquivariantElement",
        "FixedComponent",
        "LinearForm",
        "PolyFraction",
        "abbv_integrate",
        "concentration_check",
        "euler_class",
        "invert_localized",
        "orbit_annihilation_witness",
        "projective_space_components",
    ),
    "ktheory": (
        "KFixedPoint",
        "LaurentRational",
        "evaluate_at_one",
        "fixed_point_sum",
        "is_character",
        "lambda_minus_one",
        "projective_space_dataset",
    ),
    "linalg": ("AffineSubspace", "Matrix"),
    "poly": ("GradedPoly", "LaurentPoly"),
    "simplicial": (
        "CochainComplex",
        "CochainPair",
        "SimplicialComplex",
        "SubcomplexSelection",
        "cochain_complex",
        "complement_subcomplex",
        "relative_cochain_complex",
        "tensor_complex",
    ),
    "torsor": (
        "CohomologyBasis",
        "CohomologyClass",
        "LiftTorsor",
        "canonical_lift_if_unique",
        "check_exactness",
        "cohomology",
        "external_product",
        "factorization_check",
        "les",
        "lift_external_product",
        "supported_lifts",
        "torsor_difference",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
