"""Exact computation of quantum cohomology and quantum sheaf cohomology rings.

The names below are re-exported from their submodules, each submodule
imported on first use of one of its names (PEP 562).
"""

from importlib import import_module

_EXPORTS = {
    "expr": ("ParseError", "parse_poly", "render"),
    "frobenius": (
        "CorrelatorResult", "FrobeniusAlgebra", "FrobeniusReport", "GramMatrix",
        "TraceDegenerateError", "TraceFunctional", "closure_check", "frobenius_check",
        "gram_matrix", "instanton_coefficient", "make_frobenius", "pairing",
        "quantum_product", "three_point", "trace",
    ),
    "groebner": (
        "GroebnerBasis", "buchberger", "ideal_member", "radical_member", "s_polynomial",
    ),
    "poly": (
        "GENERATOR", "INSTANTON", "PARAMETER", "MonomialOrder", "Polynomial",
        "TableMismatchError", "Variable", "VariableTable",
    ),
    "rings": (
        "DegeneratePresentationError", "QuotientAlgebra", "RingPresentation",
        "classical_cohomology_products", "presentations_isomorphic_by_renaming",
        "qsc_presentation_p1p1", "quantum_cohomology_products", "quotient_algebra",
        "stanley_reisner_ring", "substitute",
    ),
    "toric": (
        "ChernData", "DeformationMatrix", "OmalousReport", "ToricData",
        "check_bundle_regularity", "check_omalous", "chern_of_twisted_sum",
        "euler_matrix_default", "minors_ideal", "p1p1_deformation",
        "product_projective_toric", "validate_deformation",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
