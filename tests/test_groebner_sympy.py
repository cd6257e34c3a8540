"""Reduced bases from ``buchberger`` against sympy's ``groebner``, each under
the block order of its table: grevlex on an all-generator table, and on a
quantum table the product of grevlex on the generators and grevlex on the
instanton variables.  The Chern classes of ``chern_of_twisted_sum`` are
checked against sympy's reduction modulo the basis of the h_k^(n_k + 1).

sympy is a test-only cross-check; the module is skipped where it is absent.
"""

import random
from fractions import Fraction
from operator import itemgetter

import pytest

from qcohom.groebner import buchberger, rabinowitsch_ideal
from qcohom.jobs import MAX_RANK
from qcohom.poly import GENERATOR, Polynomial, VariableTable
from qcohom.toric import (
    DeformationMatrix,
    chern_of_twisted_sum,
    p1p1_deformation,
    product_projective_toric,
    qsc_presentation_p1p1,
    quantum_cohomology_products,
)

from oracle_tools import irrelevant_generators, minors_by_subset, qsc_resultant
from test_groebner import XY_TABLE, random_ideal
from test_toric import ORACLE_DIMS, TWIST_VALUES, chern_terms

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

XYZ_TABLE = VariableTable.make(
    [("x", 1, GENERATOR), ("y", 1, GENERATOR), ("z", 1, GENERATOR)]
)
LADDER = ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2])


def sympy_order(table: VariableTable):
    """The table's block order in sympy: grevlex on each span, spans in turn."""
    spans = [(a, b) for a, b in table.block_spans if b > a]
    if len(spans) == 1:
        return "grevlex"
    return ProductOrder(*((grevlex, itemgetter(slice(a, b))) for a, b in spans))


def sympy_basis(table: VariableTable, generators, order) -> set:
    """Reduced basis from sympy under the order, as monic polynomials over the table."""
    gens = sympy.symbols(table.names)
    polys = [
        sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms},
            *gens,
            domain="QQ",
        )
        for g in generators
    ]
    basis = sympy.groebner(polys, *gens, order=order, domain="QQ")
    return {
        Polynomial.from_terms(
            table, [(m, Fraction(int(c.p), int(c.q))) for m, c in p.terms()]
        )
        for p in basis.polys
    }


def assert_same_basis(gb, generators) -> None:
    """The elements of gb are sympy's reduced basis of the generators."""
    ours = gb.elements
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(gb.table, generators, sympy_order(gb.table))


def test_seeded_random_ideals():
    rng = random.Random(97)
    for table in (XY_TABLE, XYZ_TABLE):
        for _ in range(12):
            gens = random_ideal(rng, table, max_gens=3, max_degree=3)
            assert_same_basis(buchberger(table, gens), gens)


def test_ladder_relations():
    for dims in LADDER:
        pres = quantum_cohomology_products(dims)
        assert_same_basis(pres.gb, pres.relations)


def test_qsc_relations():
    rng = random.Random(101)
    checked = 0
    while checked < 5:
        eps = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        gam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        pres = qsc_presentation_p1p1(eps, gam)
        assert_same_basis(pres.gb, pres.relations)
        checked += qsc_resultant(eps, gam) != 0


def test_qsc_relations_where_the_order_matters():
    # degenerate draws whose basis under grevlex over the whole table differs
    for eps, gam in (
        ([1, 0, 0], [1, 0, 0]),
        ([1, 0, Fraction(-1, 2)], [1, 0, 0]),
        ([1, 0, 0], [1, 0, 1]),
    ):
        pres = qsc_presentation_p1p1(eps, gam)
        assert_same_basis(pres.gb, pres.relations)
        assert set(pres.gb.elements) != sympy_basis(pres.table, pres.relations, "grevlex")


def assert_same_minors_basis(matrix) -> None:
    minors = minors_by_subset(matrix)
    assert_same_basis(buchberger(matrix.toric.coordinate_table, minors), minors)


def test_minors_ideals():
    for dims in ([1, 1], [2, 1], [2, 2]):
        assert_same_minors_basis(product_projective_toric(dims).euler_matrix)
    assert_same_minors_basis(p1p1_deformation([1, 2, 3], [4, 5, 6]))


def test_monomial_ideals():
    # the minors of the Euler matrices are monomials, and so are these
    # seeded ideals, given with coefficients and non-minimal generators
    for dims in LADDER:
        assert_same_minors_basis(product_projective_toric(dims).euler_matrix)
    rng = random.Random(103)
    for table in (XY_TABLE, XYZ_TABLE):
        for _ in range(8):
            gens = [
                Polynomial.monomial(table, tuple(rng.randint(0, 3) for _ in table.names))
                * rng.choice((-2, 1, Fraction(1, 3)))
                for _ in range(rng.randint(1, 5))
            ]
            assert_same_basis(buchberger(table, gens), gens)


def test_rabinowitsch_ideals_from_bundle_regularity():
    # a regular bundle: the extension contains 1
    matrix = product_projective_toric([2, 1]).euler_matrix
    toric = matrix.toric
    generator = Polynomial.monomial(toric.coordinate_table, irrelevant_generators(toric)[0])
    flat, extended = rabinowitsch_ideal(generator, minors_by_subset(matrix))
    gb = buchberger(flat, extended)
    assert gb.elements == (Polynomial.constant(flat, 1),)
    assert_same_basis(gb, extended)
    # a degenerate row: the minors are x0*x2 and x0*x3, whose radical does
    # not hold x1*x2, so the extension has a proper basis
    toric = product_projective_toric([1, 1])
    rows = list(toric.euler_matrix.entries)
    rows[1] = rows[0]
    matrix = DeformationMatrix(toric, tuple(rows))
    generator = Polynomial.monomial(toric.coordinate_table, (0, 1, 1, 0))
    flat, extended = rabinowitsch_ideal(generator, minors_by_subset(matrix))
    gb = buchberger(flat, extended)
    assert len(gb.elements) > 1
    assert_same_basis(gb, extended)


def sympy_chern(names, dims, rows) -> tuple[dict, dict]:
    """c1 and c2 of the sum of line bundles with classes ``rows``, as
    ``{exponent tuple: Fraction}`` dicts: the first two elementary symmetric
    functions of the classes, c2 reduced by sympy modulo the ``groebner`` basis
    of the h_k^(n_k + 1)."""
    gens = sympy.symbols(names)
    classes = [
        sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * h
            for c, h in zip(row, gens))
        for row in rows
    ]
    c1 = sum(classes, sympy.Integer(0))
    c2 = sympy.expand((c1**2 - sum(c**2 for c in classes)) / 2)
    ideal = sympy.groebner(
        [h ** (n + 1) for h, n in zip(gens, dims)], *gens, order="grevlex", domain="QQ"
    )
    c2 = ideal.reduce(c2)[1]
    return tuple(
        {m: Fraction(int(c.p), int(c.q))
         for m, c in sympy.Poly(p, *gens, domain="QQ").as_dict().items() if c}
        for p in (c1, c2)
    )


def test_chern_classes_against_sympy_reduction():
    rng = random.Random("chern/sympy")
    cases = []
    for dims in ORACLE_DIMS + ([2, 2, 2],):
        for _ in range(4):
            count = rng.randint(1, sum(n + 1 for n in dims) + 2)
            cases.append((dims, [[rng.choice(TWIST_VALUES) for _ in dims] for _ in range(count)]))
    dims = [2, 2, 2]
    cases.append((dims, [[rng.choice(TWIST_VALUES) for _ in dims] for _ in range(MAX_RANK)]))
    assert any(type(c) is Fraction for _, rows in cases for row in rows for c in row)
    for dims, rows in cases:
        chern = chern_of_twisted_sum(product_projective_toric(dims), rows)
        assert chern_terms(chern) == sympy_chern(chern.c1.table.names, dims, rows), (dims, rows)
