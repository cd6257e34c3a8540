"""Exact computation of quantum cohomology and quantum sheaf cohomology rings.

The names below are re-exported from their submodules, each submodule
imported on first use of one of its names (PEP 562).
"""

from importlib import import_module

_EXPORTS = {
    "expr": ("ParseError", "parse_poly", "render"),
    "frobenius": (
        "FrobeniusAlgebra", "GramMatrix", "TraceDegenerateError", "closure_check",
        "frobenius_check", "gram_matrix", "make_frobenius",
        "quantum_product", "three_point", "trace",
    ),
    "groebner": (
        "GroebnerBasis", "buchberger", "radical_member", "s_polynomial",
    ),
    "poly": (
        "GENERATOR", "INSTANTON", "Polynomial", "TableMismatchError", "Variable",
        "VariableTable",
    ),
    "rings": (
        "DegeneratePresentationError", "QuotientAlgebra", "RingPresentation",
        "classical_limit", "presentations_isomorphic_by_renaming", "quotient_algebra",
    ),
    "toric": (
        "ChernData", "DeformationMatrix", "ToricData",
        "check_bundle_regularity", "check_omalous", "chern_of_twisted_sum",
        "deformation_ring", "p1p1_deformation", "product_projective_toric",
        "qsc_presentation_p1p1",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
