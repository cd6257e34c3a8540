"""Ring presentations, quotient algebras, limits, and isomorphism checks."""

import itertools
import random
from fractions import Fraction

import pytest

from qcohom.expr import parse_poly, render
from qcohom.poly import GENERATOR, INSTANTON, Polynomial, VariableTable, monomial_divides
from qcohom.rings import (
    DegeneratePresentationError,
    QuotientAlgebra,
    RingPresentation,
    classical_limit,
    presentations_isomorphic_by_renaming,
    quotient_algebra,
)
from qcohom.toric import product_projective_toric, qsc_presentation_p1p1

from oracle_tools import qsc_resultant


def rendered(presentation):
    return [render(r) for r in presentation.relations]


def basis_strings(qa):
    table = qa.presentation.table
    return [
        render(Polynomial.from_packed(table, [(m, Fraction(1))]))
        for m in qa.module_basis
    ]


class TestPresentationConstructors:
    def test_classical_single_factor(self):
        pres = product_projective_toric([2]).classical_ring
        assert pres.table.names == ("H",)
        assert pres.table.degrees == (1,)
        assert rendered(pres) == ["H^3"]
        assert pres.description == "classical cohomology of P^2"

    def test_classical_two_factors(self):
        pres = product_projective_toric([1, 2]).classical_ring
        assert pres.table.names == ("H1", "H2")
        assert rendered(pres) == ["H1^2", "H2^3"]
        assert pres.description == "classical cohomology of P^1 x P^2"

    def test_quantum_single_factor(self):
        pres = product_projective_toric([3]).quantum_ring
        assert pres.table.names == ("H", "q")
        assert pres.table.degrees == (1, 4)
        assert pres.table.entries[1].block == INSTANTON
        assert rendered(pres) == ["H^4 - q"]

    def test_quantum_two_factors(self):
        pres = product_projective_toric([1, 2]).quantum_ring
        assert pres.table.names == ("H1", "H2", "q1", "q2")
        assert pres.table.degrees == (1, 1, 2, 3)
        assert rendered(pres) == ["H1^2 - q1", "H2^3 - q2"]
        assert pres.description == "quantum cohomology of P^1 x P^2"

    def test_bad_dims_rejected(self):
        for dims in ([], [0], [-1], [1.5], [True]):  # True is an int in Python
            with pytest.raises(ValueError):
                product_projective_toric(dims).quantum_ring

    def test_qsc_relations(self):
        pres = qsc_presentation_p1p1(
            [Fraction(1, 2), 2, -1], ["1/3", 0, 5]
        )
        assert pres.table.names == ("psi", "psit", "q1", "q2")
        assert pres.table.degrees == (1, 1, 2, 2)
        assert rendered(pres) == [
            "psi^2 + 1/2*psi*psit + 2*psit^2 - q1",
            "1/3*psi*psit + psit^2 - q2",
        ]
        assert pres.description == (
            "quantum sheaf cohomology of P^1 x P^1, eps=(1/2, 2, -1), gam=(1/3, 0, 5)"
        )

    def test_qsc_zero_deformation(self):
        pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        assert rendered(pres) == ["psi^2 - q1", "psit^2 - q2"]

    def test_qsc_requires_three_entries(self):
        with pytest.raises(ValueError):
            qsc_presentation_p1p1([0, 0], [0, 0, 0])

    def test_qsc_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            qsc_presentation_p1p1([0.1, 0, 0], [0, 0, 0])
        with pytest.raises(TypeError, match="float"):
            qsc_presentation_p1p1([0, 0, 0], [0, 0, 0.1])

    def test_relations_must_be_homogeneous_and_nonzero(self):
        table = VariableTable.make([("H", 1, GENERATOR)])
        h = Polynomial.variable(table, "H")
        with pytest.raises(ValueError):
            RingPresentation(table, (h * h - 1,), "bad")
        with pytest.raises(ValueError):
            RingPresentation(table, (Polynomial.zero(table),), "bad")


class TestQuotientAlgebra:
    def test_quantum_projective_plane(self):
        qa = quotient_algebra(product_projective_toric([2]).quantum_ring)
        assert [render(g) for g in qa.gb.elements] == ["H^3 - q"]
        assert basis_strings(qa) == ["1", "H", "H^2"]
        assert qa.basis_degrees == (0, 1, 2)
        assert qa.graded_dimensions() == (1, 1, 1)

    def test_quantum_p1p1(self):
        qa = quotient_algebra(product_projective_toric([1, 1]).quantum_ring)
        assert basis_strings(qa) == ["1", "H2", "H1", "H1*H2"]
        assert qa.graded_dimensions() == (1, 2, 1)

    def test_classical_p2p2(self):
        qa = quotient_algebra(product_projective_toric([2, 2]).classical_ring)
        assert len(qa.module_basis) == 9
        assert qa.graded_dimensions() == (1, 2, 3, 2, 1)

    def test_qsc_zero_deformation(self):
        qa = quotient_algebra(qsc_presentation_p1p1([0, 0, 0], [0, 0, 0]))
        assert basis_strings(qa) == ["1", "psit", "psi", "psi*psit"]

    def test_reduce_uses_relations(self):
        qa = quotient_algebra(product_projective_toric([2]).quantum_ring)
        table = qa.presentation.table
        assert qa.gb.reduce(parse_poly("H^3", table)) == parse_poly("q", table)
        assert qa.gb.reduce(parse_poly("H^7", table)) == parse_poly("q^2*H", table)

    def test_degenerate_draws_raise(self):
        for eps, gam in ([(0, 1, 1), (0, 1, 1)], [(1, 0, 0), (1, 0, 0)]):
            pres = qsc_presentation_p1p1(eps, gam)
            with pytest.raises(DegeneratePresentationError):
                quotient_algebra(pres)

    def test_degeneracy_matches_resultant_oracle(self):
        rng = random.Random(29)
        degenerate_seen = 0
        for _ in range(30):
            eps = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
            gam = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
            pres = qsc_presentation_p1p1(eps, gam)
            try:
                qa = quotient_algebra(pres)
                structurally_degenerate = False
                assert len(qa.module_basis) == 4
            except DegeneratePresentationError:
                structurally_degenerate = True
                degenerate_seen += 1
            assert structurally_degenerate == (qsc_resultant(eps, gam) == 0)
        assert degenerate_seen >= 1

    def test_staircase_is_derived_from_the_basis(self):
        # the record holds the presentation and its basis alone; the
        # staircase is every generator monomial that its own normal form
        # leaves as it stands, found here in a box past the top degree
        assert QuotientAlgebra._fields == ("presentation", "gb")
        for pres in (
            product_projective_toric([2, 1]).quantum_ring,
            product_projective_toric([1, 1, 1]).classical_ring,
            qsc_presentation_p1p1([1, 2, -1], [Fraction(1, 2), 3, 2]),
        ):
            qa = quotient_algebra(pres)
            assert qa == QuotientAlgebra(pres, pres.gb)
            table, g = pres.table, pres.table.block_spans[0][1]
            box = itertools.product(range(5), repeat=g)
            monomials = [table.pack(e + (0,) * (len(table) - g)) for e in box]
            reduced = {m: qa.gb.reduce(Polynomial(table, ((m, 1),))).packed for m in monomials}
            irreducible = {m for m, nf in reduced.items() if nf == ((m, 1),)}
            assert set(qa.module_basis) == irreducible
            assert list(qa.module_basis) == sorted(irreducible, key=table.block_key)
            # one matrix column per basis element, none past the last
            assert all(len(columns) == len(qa.module_basis) for columns in qa.matrices)

    def test_staircase_closed_under_division(self):
        qa = quotient_algebra(qsc_presentation_p1p1([1, 0, 0], [0, 0, 0]))
        table = qa.presentation.table
        variables = [Polynomial.variable(table, n).packed[0][0] for n in table.names]
        basis = set(qa.module_basis)
        for m in basis:
            for x in variables:
                if monomial_divides(table, x, m):
                    assert m - x in basis


class TestSubstitute:
    """The classical limit: every instanton variable set to zero."""

    def test_classical_limit_of_quantum(self):
        pres = classical_limit(product_projective_toric([2]).quantum_ring)
        assert pres.table.names == ("H",)
        assert rendered(pres) == ["H^3"]
        assert pres.description == "quantum cohomology of P^2 [q=0]"

    def test_qsc_classical_limit(self):
        pres = classical_limit(qsc_presentation_p1p1([1, 0, 0], [0, 0, 0]))
        assert pres.table.names == ("psi", "psit")
        assert rendered(pres) == ["psi^2 + psi*psit", "psit^2"]
        assert pres.description.endswith("[q1=0, q2=0]")

    def test_zero_relations_dropped(self):
        table = VariableTable.make(
            [("H", 1, GENERATOR), ("q", 3, INSTANTON)]
        )
        h = Polynomial.variable(table, "H")
        q = Polynomial.variable(table, "q")
        pres = RingPresentation(table, (h**3 - q, q), "toy")
        out = classical_limit(pres)
        assert rendered(out) == ["H^3"]

    def test_no_instanton_variables(self):
        pres = product_projective_toric([1, 1]).classical_ring
        out = classical_limit(pres)
        assert out.table == pres.table
        assert out.relations == pres.relations
        assert out.description == "classical cohomology of P^1 x P^1 []"


class TestIsomorphicByRenaming:
    def test_qsc_zero_deformation_is_quantum_p1p1(self):
        a = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        b = product_projective_toric([1, 1]).quantum_ring
        assert presentations_isomorphic_by_renaming(
            a, b, {"psi": "H1", "psit": "H2"}
        )

    def test_swapped_rename_mismatches_instanton_labels(self):
        a = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        b = product_projective_toric([1, 1]).quantum_ring
        # renamed, the table of a reads (H2, H1, q1, q2), not (H1, H2, q1, q2)
        with pytest.raises(ValueError):
            presentations_isomorphic_by_renaming(a, b, {"psi": "H2", "psit": "H1"})

    def test_deformed_presentation_differs(self):
        a = qsc_presentation_p1p1([1, 0, 0], [0, 0, 0])
        b = product_projective_toric([1, 1]).quantum_ring
        assert not presentations_isomorphic_by_renaming(
            a, b, {"psi": "H1", "psit": "H2"}
        )

    def test_identity_on_itself(self):
        a = product_projective_toric([2]).quantum_ring
        assert presentations_isomorphic_by_renaming(a, a, {})

    def test_no_relations(self):
        related = product_projective_toric([2]).classical_ring
        free = RingPresentation(related.table, (), "free ring in H")
        assert presentations_isomorphic_by_renaming(free, free, {})
        assert not presentations_isomorphic_by_renaming(free, related, {})
        assert not presentations_isomorphic_by_renaming(related, free, {})

    def test_rename_target_missing(self):
        a = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        b = product_projective_toric([1, 1]).quantum_ring
        with pytest.raises(ValueError):
            presentations_isomorphic_by_renaming(a, b, {"psi": "H1"})

    def test_rename_not_injective(self):
        a = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        b = product_projective_toric([1, 1]).quantum_ring
        with pytest.raises(ValueError):
            presentations_isomorphic_by_renaming(
                a, b, {"psi": "H1", "psit": "H1"}
            )

    def test_rename_must_preserve_degree_and_block(self):
        a = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        b = product_projective_toric([1, 1]).quantum_ring
        with pytest.raises(ValueError):
            presentations_isomorphic_by_renaming(
                a, b, {"psi": "q1", "psit": "H2"}
            )

    def test_table_sizes_must_match(self):
        a = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        b = product_projective_toric([2]).quantum_ring
        with pytest.raises(ValueError):
            presentations_isomorphic_by_renaming(a, b, {})
