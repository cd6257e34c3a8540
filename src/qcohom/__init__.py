"""Exact computation of quantum cohomology and quantum sheaf cohomology rings."""

from .expr import ParseError, parse_poly, render
from .frobenius import (
    CorrelatorResult,
    FrobeniusAlgebra,
    FrobeniusReport,
    GramMatrix,
    TraceDegenerateError,
    TraceFunctional,
    closure_check,
    frobenius_check,
    gram_matrix,
    instanton_coefficient,
    make_frobenius,
    pairing,
    quantum_product,
    three_point,
    trace,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    ideal_member,
    radical_member,
    s_polynomial,
)
from .poly import (
    GENERATOR,
    INSTANTON,
    PARAMETER,
    MonomialOrder,
    Polynomial,
    TableMismatchError,
    Variable,
    VariableTable,
)
from .rings import (
    DegeneratePresentationError,
    QuotientAlgebra,
    RingPresentation,
    classical_cohomology_products,
    presentations_isomorphic_by_renaming,
    qsc_presentation_p1p1,
    quantum_cohomology_products,
    quotient_algebra,
    stanley_reisner_ring,
    substitute,
)
from .toric import (
    ChernData,
    DeformationMatrix,
    OmalousReport,
    ToricData,
    check_bundle_regularity,
    check_omalous,
    chern_of_twisted_sum,
    euler_matrix_default,
    minors_ideal,
    p1p1_deformation,
    product_projective_toric,
    validate_deformation,
)

__version__ = "0.1.0"
