"""Trace normalization, pairings, correlators, and the Frobenius axioms."""

import itertools
import random
from fractions import Fraction

import pytest

from qcohom.expr import parse_poly, render
from qcohom.frobenius import (
    CorrelatorResult,
    FrobeniusAlgebra,
    TraceDegenerateError,
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
from qcohom.groebner import GroebnerBasis
from qcohom.poly import (
    GENERATOR,
    INSTANTON,
    Polynomial,
    VariableTable,
    determinant,
)
from qcohom.rings import (
    QuotientAlgebra,
    RingPresentation,
    qsc_presentation_p1p1,
    quantum_cohomology_products,
    quotient_algebra,
)

from oracle_tools import (
    frobenius_check_by_reduction,
    frobenius_check_dense,
    gram_matrix_by_reduction,
    qsc_resultant,
)
from test_poly import QSC_TABLE, random_poly

XY_TABLE = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])


def quantum_frobenius(dims):
    qa = quotient_algebra(quantum_cohomology_products(dims))
    table = qa.presentation.table
    if len(dims) == 1:
        ref = f"H^{dims[0]}"
    else:
        ref = "*".join(
            f"H{i + 1}^{n}" if n > 1 else f"H{i + 1}" for i, n in enumerate(dims)
        )
    return make_frobenius(qa, parse_poly(ref, table), 1)


def qsc_frobenius(eps, gam):
    qa = quotient_algebra(qsc_presentation_p1p1(eps, gam))
    return make_frobenius(qa, parse_poly("psi*psit", qa.presentation.table), 1)


def truncated_qsc_frobenius():
    """The undeformed qsc algebra with its Groebner basis cut to psi^2 - q1,
    so psit^2 no longer reduces into the staircase."""
    pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
    qa = quotient_algebra(pres)
    kept = pres.relations[0]
    truncated = QuotientAlgebra(
        pres,
        GroebnerBasis(pres.table, ((kept.leading()[0], kept),)),
        qa.module_basis,
    )
    return FrobeniusAlgebra(truncated, make_frobenius(qa, parse_poly("psi*psit", pres.table), 1).trace)


class TestMakeFrobenius:
    def test_normalization_on_projective_plane(self):
        cases = {
            (2,): (2, (2, 0)),
            (1, 1): (2, (1, 1, 0, 0)),
            (2, 2): (4, (2, 2, 0, 0)),
        }
        for dims, (degree, exps) in cases.items():
            fa = quantum_frobenius(list(dims))
            assert fa.trace.top_degree == degree
            assert fa.trace.top_monomial == fa.algebra.presentation.table.pack(exps)
            assert fa.trace.top_coefficient == 1

    def test_scaled_reference(self):
        qa = quotient_algebra(quantum_cohomology_products([2]))
        table = qa.presentation.table
        fa = make_frobenius(qa, parse_poly("2*H^2", table), 1)
        assert trace(fa, parse_poly("H^2", table)) == parse_poly("1/2", table)

    def test_reference_must_match_table(self):
        qa = quotient_algebra(quantum_cohomology_products([2]))
        with pytest.raises(ValueError):
            make_frobenius(qa, parse_poly("psi*psit", QSC_TABLE), 1)

    def test_reference_must_be_homogeneous_of_top_degree(self):
        qa = quotient_algebra(quantum_cohomology_products([2]))
        table = qa.presentation.table
        with pytest.raises(ValueError):
            make_frobenius(qa, parse_poly("H", table), 1)
        with pytest.raises(ValueError):
            make_frobenius(qa, parse_poly("H^2 + H", table), 1)

    def test_top_component_must_be_one_dimensional(self):
        table = XY_TABLE
        relations = tuple(
            parse_poly(t, table) for t in ("x^3", "y^3", "x^2*y", "x*y^2")
        )
        qa = quotient_algebra(RingPresentation(table, relations, "fat point"))
        assert qa.graded_dimensions() == (1, 2, 3)
        with pytest.raises(TraceDegenerateError, match="not one-dimensional"):
            make_frobenius(qa, parse_poly("x^2", table), 1)

    def test_reference_must_survive_classical_limit(self):
        qa = quotient_algebra(quantum_cohomology_products([1, 1]))
        table = qa.presentation.table
        with pytest.raises(TraceDegenerateError, match="vanishes at q = 0"):
            make_frobenius(qa, parse_poly("q1", table), 1)


class TestTrace:
    def test_values_on_projective_plane(self):
        fa = quantum_frobenius([2])
        table = fa.algebra.presentation.table
        cases = {
            "1": "0",
            "H": "0",
            "H^2": "1",
            "H^3": "0",
            "H^4": "0",
            "H^5": "q",
            "q*H^2": "q",
            "3*H^2 + H": "3",
        }
        for text, expected in cases.items():
            assert trace(fa, parse_poly(text, table)) == parse_poly(expected, table)

    def test_linearity(self):
        rng = random.Random(53)
        fa = qsc_frobenius([0, 0, 0], [0, 0, 0])
        table = fa.algebra.presentation.table
        for _ in range(50):
            a = random_poly(rng, table, max_degree=4)
            b = random_poly(rng, table, max_degree=4)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert trace(fa, a + c * b) == trace(fa, a) + c * trace(fa, b)


class TestProductsAndCorrelators:
    def test_quantum_product_rewrites_relation(self):
        fa = qsc_frobenius([1, 0, 0], [0, 0, 0])
        table = fa.algebra.presentation.table
        psi = parse_poly("psi", table)
        assert render(quantum_product(fa, psi, psi)) == "-psi*psit + q1"

    def test_projective_plane_correlators(self):
        fa = quantum_frobenius([2])
        table = fa.algebra.presentation.table
        h = parse_poly("H", table)
        h2 = parse_poly("H^2", table)
        assert three_point(fa, h2, h2, h).value == parse_poly("q", table)
        assert three_point(fa, h, h, h).value.is_zero()
        assert three_point(fa, h2, h2, h2).value.is_zero()

    def test_qsc_zero_deformation_correlator(self):
        fa = qsc_frobenius([0, 0, 0], [0, 0, 0])
        table = fa.algebra.presentation.table
        top = parse_poly("psi*psit", table)
        result = three_point(fa, top, top, top)
        assert result.value == parse_poly("q1*q2", table)
        assert instanton_coefficient(result, [1, 1]) == 1
        assert instanton_coefficient(result, [0, 0]) == 0

    def test_instanton_coefficient_shape(self):
        fa = quantum_frobenius([2])
        table = fa.algebra.presentation.table
        h = parse_poly("H", table)
        h2 = parse_poly("H^2", table)
        result = three_point(fa, h2, h2, h)
        assert instanton_coefficient(result, [1]) == 1
        assert instanton_coefficient(result, [0]) == 0
        with pytest.raises(ValueError):
            instanton_coefficient(result, [1, 0])

    def test_correlator_rejects_generator_support(self):
        with pytest.raises(ValueError):
            CorrelatorResult(parse_poly("psi", QSC_TABLE))

    def test_pairing_spot_value(self):
        fa = qsc_frobenius([0, 1, 1], [0, 0, 0])
        table = fa.algebra.presentation.table
        psi = parse_poly("psi", table)
        assert trace(fa, psi * psi).is_zero()
        assert pairing(fa, psi, parse_poly("psit", table)) == parse_poly("1", table)


class TestGramMatrix:
    def test_projective_line(self):
        gm = gram_matrix(quantum_frobenius([1]))
        assert [[render(e) for e in row] for row in gm.entries] == [
            ["0", "1"],
            ["1", "0"],
        ]
        assert render(gm.determinant) == "-1"
        assert gm.nondegenerate

    def test_projective_plane(self):
        gm = gram_matrix(quantum_frobenius([2]))
        assert [[render(e) for e in row] for row in gm.entries] == [
            ["0", "0", "1"],
            ["0", "1", "0"],
            ["1", "0", "0"],
        ]
        assert render(gm.determinant) == "-1"

    def test_qsc_zero_deformation(self):
        gm = gram_matrix(qsc_frobenius([0, 0, 0], [0, 0, 0]))
        assert render(gm.determinant) == "1"
        assert gm.nondegenerate

    def test_determinant_matches_permutation_expansion(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = tuple(
                tuple(
                    random_poly(rng, XY_TABLE, max_degree=1, max_terms=2)
                    for _ in range(n)
                )
                for _ in range(n)
            )
            expected = Polynomial.zero(XY_TABLE)
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = Polynomial.constant(XY_TABLE, sign)
                for i in range(n):
                    term = term * rows[i][perm[i]]
                expected = expected + term
            assert determinant(XY_TABLE, rows) == expected


class TestFrobeniusAxioms:
    def test_quantum_rings_pass(self):
        for dims in ([3], [1, 1]):
            report = frobenius_check(quantum_frobenius(dims))
            assert report.ok, report

    def test_random_qsc_draws_pass(self):
        rng = random.Random(71)
        checked = 0
        while checked < 10:
            eps = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            gam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            if qsc_resultant(eps, gam) == 0:
                continue
            fa = qsc_frobenius(eps, gam)
            report = frobenius_check(fa)
            assert report.ok
            assert report == frobenius_check_by_reduction(fa)
            assert report == frobenius_check_dense(fa)
            assert closure_check(fa)
            assert gram_matrix(fa) == gram_matrix_by_reduction(fa)
            checked += 1

    def test_tampered_trace_fails_nondegeneracy(self):
        # a trace on the degree-1 monomial H is still compatible, but its
        # pairing is degenerate at q = 0
        fa = quantum_frobenius([2])
        h = fa.algebra.presentation.table.pack((1, 0))
        tampered = FrobeniusAlgebra(
            fa.algebra, fa.trace.replace(top_monomial=h)
        )
        gram = gram_matrix(tampered)
        assert gram == gram_matrix_by_reduction(tampered)
        assert render(gram.determinant) == "-q"
        assert not gram.nondegenerate
        assert frobenius_check(tampered) == frobenius_check_by_reduction(tampered)

    def test_closure_detects_truncated_basis(self):
        assert not closure_check(truncated_qsc_frobenius())

    def test_closure_passes_on_complete_basis(self):
        assert closure_check(quantum_frobenius([2]))
        assert closure_check(qsc_frobenius([1, 0, 0], [0, 0, 0]))


class TestStructureTable:
    def test_matches_reduction_oracle_on_quantum_rings(self):
        for dims in ([1, 1], [2], [1, 1, 1]):
            fa = quantum_frobenius(dims)
            assert frobenius_check(fa) == frobenius_check_by_reduction(fa)
            assert gram_matrix(fa) == gram_matrix_by_reduction(fa)

    def test_table_is_built_once_per_algebra(self):
        fa = quantum_frobenius([2])
        assert fa.structure is fa.structure
        assert quantum_frobenius([2]).structure is not fa.structure

    def test_entries_on_projective_plane(self):
        fa = quantum_frobenius([2])
        table = fa.algebra.presentation.table
        one, q = parse_poly("1", table), parse_poly("q", table)
        st = fa.structure
        assert st.mul[1][2] == ((0, q),)  # H * H^2 = q * 1
        assert st.mul[2][2] == ((1, q),)  # H^2 * H^2 = q * H
        assert st.tr == (Polynomial.zero(table), Polynomial.zero(table), one)
        assert st.pairing[2][2] == Polynomial.zero(table)
        assert st.pairing[1][1] == one
        assert not st.escaped

    def test_corrupted_product_fails_compatibility(self):
        fa = quantum_frobenius([2])
        st = fa.structure
        mul = [list(row) for row in st.mul]
        ((l, c),) = mul[1][1]  # H * H = H^2
        mul[1][1] = ((l, 2 * c),)
        # replace the cached table on this instance
        vars(fa)["structure"] = st.replace(mul=tuple(tuple(row) for row in mul))
        report = frobenius_check(fa)
        assert "tr((H*H)*1) != tr(H*(H*1))" in report.compatibility_failures
        assert report == frobenius_check_dense(fa)

    def test_product_leaving_staircase_is_a_reported_failure(self):
        fa = truncated_qsc_frobenius()
        report = frobenius_check(fa)  # no KeyError
        assert (
            "tr((psit*psit)*1) != tr(psit*(psit*1))" in report.compatibility_failures
        )
        assert (1, 1) in fa.structure.escaped
        assert report == frobenius_check_dense(fa)

    def test_mixed_leading_monomial_rejected(self):
        table = VariableTable.make([("x", 1, GENERATOR), ("q", 2, INSTANTON)])
        relations = (parse_poly("x^3", table), parse_poly("q*x", table))
        qa = quotient_algebra(RingPresentation(table, relations, "mixed leading term"))
        fa = make_frobenius(qa, parse_poly("x^2", table), 1)
        with pytest.raises(ValueError, match="generator-only"):
            frobenius_check(fa)
        # closure and the Gram matrix only read staircase coordinates
        assert closure_check(fa)
        assert gram_matrix(fa) == gram_matrix_by_reduction(fa)


def with_structure(fa, **changes):
    """fa with its cached structure table replaced by a changed copy."""
    vars(fa)["structure"] = fa.structure.replace(**changes)
    return fa


class TestDenseOracle:
    def test_ladder_algebras(self):
        for dims in ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2]):
            fa = quantum_frobenius(dims)
            report = frobenius_check(fa)
            assert report.ok
            assert report == frobenius_check_dense(fa)

    def test_asymmetric_product_corruption(self):
        fa = quantum_frobenius([1, 2])
        table = fa.algebra.presentation.table
        mul = [list(row) for row in fa.structure.mul]
        (l, c), *rest = mul[1][2]
        mul[1][2] = ((l, c + parse_poly("q1", table)), *rest)
        with_structure(fa, mul=tuple(tuple(row) for row in mul))
        assert fa.structure.mul[1][2] != fa.structure.mul[2][1]
        report = frobenius_check(fa)
        assert report.compatibility_failures
        assert report == frobenius_check_dense(fa)

    def test_pairing_corruption(self):
        for k, value in ((0, "1"), (5, "2")):  # a zero entry, a nonzero entry
            fa = quantum_frobenius([1, 2])
            table = fa.algebra.presentation.table
            pair = [list(row) for row in fa.structure.pairing]
            assert bool(pair[0][k]) == (k == 5)
            pair[0][k] = parse_poly(value, table)
            with_structure(fa, pairing=tuple(tuple(row) for row in pair))
            report = frobenius_check(fa)
            assert report.compatibility_failures
            assert report == frobenius_check_dense(fa)


class TestWorkCounts:
    def test_check_and_closure_reduce_at_most_n2_plus_n(self, monkeypatch):
        fa = quantum_frobenius([2, 2, 2])
        n = len(fa.algebra.module_basis)
        original = QuotientAlgebra.reduce
        calls = []

        def counting(self, p):
            calls.append(p)
            return original(self, p)

        monkeypatch.setattr(QuotientAlgebra, "reduce", counting)
        assert frobenius_check(fa).ok
        assert closure_check(fa)
        assert gram_matrix(fa).nondegenerate
        assert n == 27
        # reducing every basis triple took about 4 * n^3 = 78,732 calls
        assert len(calls) <= n * n + n
