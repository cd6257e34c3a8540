"""Reduced degrevlex bases from ``buchberger`` against sympy's ``groebner``.

sympy is a test-only cross-check; the module is skipped where it is absent.
"""

import random
from fractions import Fraction

import pytest

from qcohom.groebner import IdealPresentation, buchberger, rabinowitsch_ideal
from qcohom.poly import GENERATOR, Polynomial, VariableTable, degrevlex
from qcohom.rings import qsc_presentation_p1p1, quantum_cohomology_products
from qcohom.toric import (
    DeformationMatrix,
    euler_matrix_default,
    minors_ideal,
    p1p1_deformation,
    product_projective_toric,
)

from oracle_tools import qsc_resultant
from test_groebner import XY_TABLE, random_ideal

sympy = pytest.importorskip("sympy")

XYZ_TABLE = VariableTable.make(
    [("x", 1, GENERATOR), ("y", 1, GENERATOR), ("z", 1, GENERATOR)]
)
LADDER = ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2])


def sympy_basis(ideal: IdealPresentation) -> set:
    """Reduced grevlex basis from sympy, as monic polynomials over the table."""
    table = ideal.table
    gens = sympy.symbols(table.names)
    polys = [
        sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms},
            *gens,
            domain="QQ",
        )
        for g in ideal.generators
    ]
    basis = sympy.groebner(polys, *gens, order="grevlex", domain="QQ")
    return {
        Polynomial.from_terms(
            table, [(m, Fraction(int(c.p), int(c.q))) for m, c in p.terms()]
        )
        for p in basis.polys
    }


def degrevlex_ideal(table, generators) -> IdealPresentation:
    return IdealPresentation(table, tuple(generators), degrevlex(table))


def assert_same_basis(ideal: IdealPresentation) -> None:
    ours = buchberger(ideal).elements
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(ideal)


def test_seeded_random_ideals():
    rng = random.Random(97)
    for table in (XY_TABLE, XYZ_TABLE):
        for _ in range(12):
            assert_same_basis(random_ideal(rng, table, max_gens=3, max_degree=3))


def test_ladder_relations():
    for dims in LADDER:
        pres = quantum_cohomology_products(dims)
        assert_same_basis(degrevlex_ideal(pres.table, pres.relations))


def test_qsc_relations():
    rng = random.Random(101)
    checked = 0
    while checked < 5:
        eps = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        gam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        pres = qsc_presentation_p1p1(eps, gam)
        assert_same_basis(degrevlex_ideal(pres.table, pres.relations))
        checked += qsc_resultant(eps, gam) != 0


def test_minors_ideals():
    for dims in ([1, 1], [2, 1], [2, 2]):
        assert_same_basis(minors_ideal(euler_matrix_default(product_projective_toric(dims))))
    assert_same_basis(minors_ideal(p1p1_deformation([1, 2, 3], [4, 5, 6])))


def test_rabinowitsch_ideals_from_bundle_regularity():
    # a regular bundle: the extension contains 1
    matrix = euler_matrix_default(product_projective_toric([2, 1]))
    toric = matrix.toric
    generator = Polynomial.monomial(toric.coordinate_table, toric.irrelevant_generators[0])
    extended = rabinowitsch_ideal(generator, minors_ideal(matrix))
    assert buchberger(extended).elements == (Polynomial.constant(extended.table, 1),)
    assert_same_basis(extended)
    # a degenerate row: the minors are x0*x2 and x0*x3, whose radical does
    # not hold x1*x2, so the extension has a proper basis
    toric = product_projective_toric([1, 1])
    rows = list(euler_matrix_default(toric).entries)
    rows[1] = rows[0]
    matrix = DeformationMatrix(toric, tuple(rows))
    generator = Polynomial.monomial(toric.coordinate_table, (0, 1, 1, 0))
    extended = rabinowitsch_ideal(generator, minors_ideal(matrix))
    assert len(buchberger(extended).elements) > 1
    assert_same_basis(extended)
