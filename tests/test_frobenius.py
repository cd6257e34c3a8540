"""Trace normalization, pairings, correlators, and the Frobenius axioms."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from qcohom import expr, frobenius
from qcohom.cli import run_check
from qcohom.expr import parse_poly, render
from qcohom.frobenius import (
    FrobeniusAlgebra,
    GramMatrix,
    TraceDegenerateError,
    closure_check,
    frobenius_check,
    gram_matrix,
    make_frobenius,
    quantum_product,
    three_point,
    trace,
)
from qcohom.groebner import (
    GroebnerBasis,
    buchberger,
    rabinowitsch_ideal,
    radical_member,
)
from qcohom.jobs import job_from_dict
from qcohom.poly import (
    GENERATOR,
    INSTANTON,
    Polynomial,
    VariableTable,
    determinant,
)
from qcohom.rings import (
    DegeneratePresentationError,
    QuotientAlgebra,
    RingPresentation,
    quotient_algebra,
)
from qcohom.toric import (
    check_bundle_regularity,
    deformation_ring,
    product_projective_toric,
    qsc_presentation_p1p1,
)

from oracle_tools import (
    determinant_by_subsets,
    frobenius_check_by_reduction,
    frobenius_check_dense,
    gram_matrix_by_reduction,
    packed_with_types,
    qsc_resultant,
    random_deformation,
    structure_table,
    three_point_by_reduction,
    tuple_normal_form,
    witness_member,
)
from test_poly import QSC_TABLE, random_poly

XY_TABLE = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])


def quantum_frobenius(dims):
    qa = quotient_algebra(product_projective_toric(dims).quantum_ring)
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


MIXED_TABLE = VariableTable.make([("x", 1, GENERATOR), ("q", 2, INSTANTON)])


def mixed_presentation(relations):
    """A presentation over x and q, relations given as "r1, r2, ..."."""
    relations = tuple(parse_poly(r, MIXED_TABLE) for r in relations.split(", "))
    return RingPresentation(MIXED_TABLE, relations, "mixed leading term")


class TestMakeFrobenius:
    def test_normalization_on_projective_plane(self):
        cases = {
            (2,): (2, (2, 0)),
            (1, 1): (2, (1, 1, 0, 0)),
            (2, 2): (4, (2, 2, 0, 0)),
        }
        for dims, (degree, exps) in cases.items():
            fa = quantum_frobenius(list(dims))
            table = fa.algebra.presentation.table
            assert table.weighted_degree(fa.top_monomial) == degree
            assert fa.top_monomial == table.pack(exps)
            assert fa.top_coefficient == 1

    def test_scaled_reference(self):
        qa = quotient_algebra(product_projective_toric([2]).quantum_ring)
        table = qa.presentation.table
        fa = make_frobenius(qa, parse_poly("2*H^2", table), 1)
        assert trace(fa, parse_poly("H^2", table)) == parse_poly("1/2", table)

    def test_reference_must_match_table(self):
        qa = quotient_algebra(product_projective_toric([2]).quantum_ring)
        with pytest.raises(ValueError):
            make_frobenius(qa, parse_poly("psi*psit", QSC_TABLE), 1)

    def test_reference_must_be_homogeneous_of_top_degree(self):
        qa = quotient_algebra(product_projective_toric([2]).quantum_ring)
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

    def test_value_must_not_be_a_float(self):
        qa = quotient_algebra(product_projective_toric([2]).quantum_ring)
        reference = parse_poly("H^2", qa.presentation.table)
        with pytest.raises(TypeError, match="float"):
            make_frobenius(qa, reference, 0.1)
        assert make_frobenius(qa, reference, "1/3").top_coefficient == Fraction(1, 3)

    def test_reference_must_survive_classical_limit(self):
        qa = quotient_algebra(product_projective_toric([1, 1]).quantum_ring)
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

    def test_values_have_no_generator_variable(self):
        rng = random.Random(59)
        algebras = [quantum_frobenius(dims) for dims in ([1], [2], [1, 1], [2, 2], [1, 1, 1])]
        while len(algebras) < 10:
            eps = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            gam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            if qsc_resultant(eps, gam) != 0:
                algebras.append(qsc_frobenius(eps, gam))
        nonzero = 0
        for fa in algebras:
            table = fa.algebra.presentation.table
            for _ in range(20):
                value = trace(fa, random_poly(rng, table, max_degree=6, max_terms=6))
                assert not any(m & table.generator_mask for m, _ in value.packed)
                nonzero += bool(value)
        assert nonzero >= 20


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
        assert three_point(fa, h2, h2, h) == parse_poly("q", table)
        assert not three_point(fa, h, h, h)
        assert not three_point(fa, h2, h2, h2)

    def test_qsc_zero_deformation_correlator(self):
        fa = qsc_frobenius([0, 0, 0], [0, 0, 0])
        table = fa.algebra.presentation.table
        top = parse_poly("psi*psit", table)
        result = three_point(fa, top, top, top)
        assert result == parse_poly("q1*q2", table)
        assert result.coefficient(table.pack((0, 0, 1, 1))) == 1
        assert result.coefficient(table.pack((0, 0, 0, 0))) == 0

    def test_contraction_past_the_degree_limit_raises(self):
        # on quantum P^1, tr(q^a*H * q^b) = q^(a+b): the contraction's product
        # of degree a + b past the limit would wrap a packed field
        fa = quantum_frobenius([1])
        table = fa.algebra.presentation.table
        h = parse_poly("H", table)
        q = lambda e: Polynomial(table, ((table.pack((0, e)), 1),))  # noqa: E731
        assert three_point(fa, q(20_000), h, q(12_000)) == q(32_000)
        with pytest.raises(ValueError, match="^product of total degree 33000 exceeds 32767$"):
            three_point(fa, q(20_000), h, q(13_000))

    def test_pairing_spot_value(self):
        fa = qsc_frobenius([0, 1, 1], [0, 0, 0])
        table = fa.algebra.presentation.table
        psi = parse_poly("psi", table)
        assert not trace(fa, psi * psi)
        assert trace(fa, psi * parse_poly("psit", table)) == parse_poly("1", table)


def rendered_rows(gram):
    """The (column, rendered entry) pairs of each row of a GramMatrix."""
    return [[(l, render(e)) for l, e in row] for row in gram.rows]


class TestGramMatrix:
    def test_projective_line(self):
        gm = gram_matrix(quantum_frobenius([1]))
        assert rendered_rows(gm) == [[(1, "1")], [(0, "1")]]
        assert render(gm.determinant) == "-1"
        assert gm.determinant.coefficient(0) == -1

    def test_projective_plane(self):
        gm = gram_matrix(quantum_frobenius([2]))
        assert rendered_rows(gm) == [[(2, "1")], [(1, "1")], [(0, "1")]]
        assert render(gm.determinant) == "-1"

    def test_qsc_zero_deformation(self):
        gm = gram_matrix(qsc_frobenius([0, 0, 0], [0, 0, 0]))
        assert render(gm.determinant) == "1"
        assert gm.determinant.coefficient(0) == 1

    def test_record_fields_and_hash(self):
        gm = gram_matrix(quantum_frobenius([1, 1]))
        assert GramMatrix._fields == ("rows", "determinant")
        assert hash(gm) == hash(gram_matrix(quantum_frobenius([1, 1])))

    @pytest.mark.parametrize(
        "doc",
        [
            {"ring": "quantum"},
            {"ring": "qsc", "bundle": {
                "type": "tangent_deformation_p1p1",
                "epsilon": ["1/2", "3", "-2"], "gamma": ["2/3", "-1", "1/2"],
            }},
        ],
        ids=["quantum", "qsc"],
    )
    def test_an_emptied_pairing_row_fails_the_nondegeneracy_check(self, doc):
        # a regular algebra on P^1 x P^1 whose cached pairing rows lose the
        # unit's row: its Gram determinant is 0, so the constant term that
        # `check` reads is 0, where the untouched algebra reads nonzero
        doc = {"variety": {"type": "product_projective", "dims": [1, 1]}, **doc}
        job, tampered_job = job_from_dict(doc), job_from_dict(doc)
        fa = job.frobenius
        assert gram_matrix(fa).determinant.coefficient(0)
        tampered = fa.replace()
        tampered.__dict__["pairing_rows"] = {**fa.pairing_rows, 0: {}}
        assert not gram_matrix(tampered).determinant
        tampered_job.__dict__["frobenius"] = tampered
        for run, passed, code in ((job, True, 0), (tampered_job, False, 1)):
            data, exit_code = run_check(run)
            gram = data["checks"][-1]
            assert (gram["name"], gram["passed"], exit_code) == ("gram_nondegenerate", passed, code)
        assert gram["details"] == ["determinant constant term: 0"]

    def test_determinant_matches_permutation_expansion(self):
        # sparse rows: a zero entry is a missing column or an explicit zero
        rng = random.Random(67)
        zero = Polynomial.zero(XY_TABLE)
        for _ in range(60):
            n = rng.randint(0, 4)
            rows = tuple(
                tuple(
                    zero if rng.random() < 0.3 else random_poly(rng, XY_TABLE, max_degree=1, max_terms=2)
                    for _ in range(n)
                )
                for _ in range(n)
            )
            sparse = [
                {j: e for j, e in enumerate(row) if e or rng.random() < 0.5} for row in rows
            ]
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
            assert determinant(XY_TABLE, sparse) == expected

    def test_determinant_matches_the_subset_oracle(self):
        # seeded dense, sparse, singular and row-permuted matrices with
        # Fraction entries over x, y and over three sigma variables, then
        # fixed shapes over x, y: a lower triangle, whose rows become single
        # one after another as columns are taken out; two single-entry rows
        # on one column; an empty row; an explicit zero entry
        rng = random.Random("determinant/oracle")
        sigma = VariableTable.make([(f"s{k}", 1, GENERATOR) for k in range(3)])
        x, y = (Polynomial.variable(XY_TABLE, v) for v in "xy")
        zero, half = Polynomial.zero(XY_TABLE), Polynomial.constant(XY_TABLE, Fraction(1, 2))
        cases = []
        for table in (XY_TABLE, sigma):
            for draw in range(120):
                n, density = rng.randint(1, 5), (1, 0.5, 0.25)[draw % 3]
                rows = [
                    {j: random_poly(rng, table, 1, 3) for j in range(n) if rng.random() < density}
                    for _ in range(n)
                ]
                if draw % 4 == 1:
                    rows[-1] = dict(rows[0])
                elif draw % 4 == 2:
                    rng.shuffle(rows)
                cases.append((table, rows))
        cases += [
            (XY_TABLE, rows)
            for rows in (
                [{0: x + half}, {0: y, 1: x - 2}, {0: x, 1: y, 2: half * y - 3}],
                [{2: x + y, 0: y, 1: half}, {1: y}, {0: x, 1: x}],
                [{1: x}, {1: y}, {0: x, 2: y}],
                [{0: x, 1: y}, {}, {0: half, 2: x}],
                [{0: x, 1: zero}, {1: y}],
                [],
            )
        ]
        outcomes = set()
        for table, rows in cases:
            snapshot = [dict(row) for row in rows]
            det = determinant(table, rows)
            assert rows == snapshot
            assert packed_with_types([det]) == packed_with_types(
                [determinant_by_subsets(table, rows)]
            ), rows
            outcomes |= {(table, bool(det))} | {type(c) for _, c in det.packed}
        assert outcomes == {(t, b) for t in (XY_TABLE, sigma) for b in (True, False)} | {
            int, Fraction
        }


class TestFrobeniusAxioms:
    def test_quantum_rings_pass(self):
        for dims in ([3], [1, 1]):
            failures = frobenius_check(quantum_frobenius(dims))
            assert not failures, failures

    def test_random_qsc_draws_pass(self):
        rng = random.Random(71)
        checked = 0
        while checked < 10:
            eps = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            gam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            if qsc_resultant(eps, gam) == 0:
                continue
            fa = qsc_frobenius(eps, gam)
            failures = frobenius_check(fa)
            assert not failures
            assert failures == frobenius_check_by_reduction(fa)
            assert failures == frobenius_check_dense(fa)
            assert closure_check(fa)
            assert gram_matrix(fa) == gram_matrix_by_reduction(fa)
            checked += 1

    def test_tampered_trace_fails_nondegeneracy(self):
        # a trace on the degree-1 monomial H is still compatible, but its
        # pairing is degenerate at q = 0
        fa = quantum_frobenius([2])
        h = fa.algebra.presentation.table.pack((1, 0))
        tampered = fa.replace(top_monomial=h)
        gram = gram_matrix(tampered)
        assert gram == gram_matrix_by_reduction(tampered)
        assert render(gram.determinant) == "-q"
        assert gram.determinant.coefficient(0) == 0
        assert frobenius_check(tampered) == frobenius_check_by_reduction(tampered)

    def test_truncated_basis_is_refused(self):
        # psi^2 - q1 alone leaves psit with no pure power among the leading
        # monomials: the staircase it derives is infinite
        pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        kept = pres.relations[0]
        with pytest.raises(DegeneratePresentationError, match="degenerate presentation"):
            QuotientAlgebra(pres, GroebnerBasis(pres.table, ((kept.leading()[0], kept),)))

    def test_closure_passes_on_complete_basis(self):
        assert closure_check(quantum_frobenius([2]))
        assert closure_check(qsc_frobenius([1, 0, 0], [0, 0, 0]))


def tripled_tails(fa):
    """fa over its Groebner basis with one tail coefficient tripled, for each
    element and tail term in turn.  The leading monomials, so the staircase,
    stay the same."""
    qa = fa.algebra
    table = qa.presentation.table
    records = list(qa.gb.leading_terms)
    for e, (lm, g) in enumerate(records):
        for t in range(1, len(g.packed)):
            terms = list(g.packed)
            terms[t] = (terms[t][0], 3 * terms[t][1])
            changed = records[:e] + [(lm, Polynomial(table, tuple(terms)))] + records[e + 1 :]
            gb = GroebnerBasis(table, tuple(changed))
            yield fa.replace(algebra=QuotientAlgebra(qa.presentation, gb))


class TestStructureTable:
    """The structure constants as one multiplication matrix per generator,
    kept on the algebra as ``matrices``, and the commuting test read from
    them."""

    def test_matches_reduction_oracle_on_quantum_rings(self):
        for dims in ([1, 1], [2], [1, 1, 1]):
            fa = quantum_frobenius(dims)
            assert frobenius_check(fa) == frobenius_check_by_reduction(fa)
            assert gram_matrix(fa) == gram_matrix_by_reduction(fa)

    def test_table_is_built_once_per_algebra(self):
        fa = quantum_frobenius([2])
        matrices = fa.algebra.matrices
        assert not frobenius_check(fa)
        assert closure_check(fa)
        assert gram_matrix(fa) == gram_matrix_by_reduction(fa)
        assert fa.algebra.matrices is matrices
        assert quantum_frobenius([2]).algebra.matrices is not matrices

    def test_entries_on_projective_plane(self):
        fa = quantum_frobenius([2])
        table = fa.algebra.presentation.table
        one, q = parse_poly("1", table), parse_poly("q", table)
        (columns,) = fa.algebra.matrices
        h, h2 = table.pack((1, 0)), table.pack((2, 0))
        # by column e_l, in basis order: H * H^2 = q * 1, H * 1 = H, H * H = H^2
        assert list(columns) == [0, h, h2]
        assert columns == {0: [(h2, q)], h: [(0, one)], h2: [(h, one)]}

    def test_failure_lines_name_basis_elements_in_basis_order(self):
        # the basis ascends 1, z, y, x, z^2, y*z, x*z, z^3; as packed ints
        # x*z < y*z < z^2, so sorting the failing monomials would reorder
        # the lines of the pair (x, y)
        table = VariableTable.make(
            [("x", 1, GENERATOR), ("y", 1, GENERATOR), ("z", 1, GENERATOR), ("q", 2, INSTANTON)]
        )
        relations = ("x^2 + y*z - q", "y^2 + 2*x*z", "z^2 - 3*x*y + q")
        pres = RingPresentation(table, tuple(parse_poly(r, table) for r in relations), "quadrics")
        qa = quotient_algebra(pres)
        # triple the x*q coefficient of the basis element led by x*z^2
        lead, xq = table.pack((1, 0, 2, 0)), table.pack((1, 0, 0, 1))
        records = []
        for lm, g in qa.gb.leading_terms:
            if lm == lead:
                g = Polynomial(table, tuple((m, 3 * c if m == xq else c) for m, c in g.packed))
            records.append((lm, g))
        tampered = QuotientAlgebra(pres, GroebnerBasis(table, tuple(records)))
        fa = FrobeniusAlgebra(tampered, table.pack((0, 0, 3, 0)), Fraction(1))
        assert frobenius_check(fa) == (
            "x*(y*x) != y*(x*x)",
            "x*(y*z^2) != y*(x*z^2)",
            "x*(y*y*z) != y*(x*y*z)",
            "x*(y*x*z) != y*(x*x*z)",
            "x*(y*z^3) != y*(x*z^3)",
            "x*(z*x*z) != z*(x*x*z)",
            "x*(z*z^3) != z*(x*z^3)",
            "y*(z*y*z) != z*(y*y*z)",
            "y*(z*x*z) != z*(y*x*z)",
        )

    def test_corrupted_product_fails_compatibility(self):
        fa = qsc_frobenius([1, 2, -1], [Fraction(1, 2), 3, 2])
        verdicts = []
        for tampered in tripled_tails(fa):
            failures = frobenius_check(tampered)
            assert bool(failures) == bool(frobenius_check_by_reduction(tampered))
            assert closure_check(tampered)
            verdicts.append(failures)
        assert len(verdicts) == 9
        assert all(verdicts)
        assert "psi*(psit*psi) != psit*(psi*psi)" in verdicts[0]

    def test_mixed_leading_monomial_rejected(self):
        # under x^3, q*x the staircase 1, x, x^2 is finite, but x is q-torsion,
        # so the quotient is not free over q; under x, q it is Q, not Q[q]
        rng = random.Random(109)
        for relations, named in (("x^3, q*x", "x*q"), ("x, q", "q")):
            pres = mixed_presentation(relations)
            message = f"^degenerate presentation: leading monomial {re.escape(named)} holds an"
            for build in (lambda: quotient_algebra(pres), lambda: QuotientAlgebra(pres, pres.gb)):
                with pytest.raises(DegeneratePresentationError, match=message):
                    build()
            # the Groebner layer stays general on such a basis
            gb, members = pres.gb, 0
            assert gb.mask == -1
            for _ in range(30):
                p = random_poly(rng, MIXED_TABLE, max_degree=4, max_terms=4)
                if rng.random() < 0.5:
                    p = p * rng.choice(pres.relations)
                assert gb.reduce(p) == tuple_normal_form(p, gb.elements, MIXED_TABLE.block_spans)
                member = not gb.reduce(p)
                assert member == witness_member(p, list(pres.relations))
                members += member
            assert 5 <= members <= 25


class TestDenseOracle:
    def test_no_product_leaves_the_staircase(self):
        algebras = [quantum_frobenius(dims) for dims in LADDER]
        algebras += seeded_qsc_frobenius(random.Random(5), 4)
        for fa in algebras:
            _, _, escaped = structure_table(fa)
            assert not escaped

    def test_ladder_algebras(self):
        for dims in ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2]):
            fa = quantum_frobenius(dims)
            failures = frobenius_check(fa)
            assert not failures
            assert failures == frobenius_check_dense(fa)

    def test_asymmetric_product_corruption(self):
        # a tripled tail makes x_u*(x_v*e_j) differ from x_v*(x_u*e_j) on
        # every qsc draw tried
        algebras = [qsc_frobenius([1, 2, -1], [Fraction(1, 2), 3, 2])]
        algebras += seeded_qsc_frobenius(random.Random(5), 4)
        tried = 0
        for fa in algebras:
            for tampered in tripled_tails(fa):
                failures = frobenius_check(tampered)
                assert failures
                assert frobenius_check_dense(tampered)
                assert frobenius_check_by_reduction(tampered)
                tried += 1
        assert tried == 47

    def test_pairing_corruption(self):
        # a tripled tail on a quantum ring, H2^3 - 3*q2, changes the pairing
        # but is still the Groebner basis of its own ideal: no check fails
        fa = quantum_frobenius([1, 2])
        (tampered,) = (t for t in tripled_tails(fa) if "3*q2" in str(t.algebra.gb.elements))
        table = fa.algebra.presentation.table
        a, b = parse_poly("H2^2", table), parse_poly("H1*H2^3", table)
        assert render(trace(fa, a * b)) == "q2"
        assert render(trace(tampered, a * b)) == "3*q2"
        h2, c = parse_poly("H2", table), parse_poly("H1*H2^2", table)
        assert render(three_point(tampered, a, h2, c)) == "3*q2"
        assert three_point(tampered, a, h2, c) == three_point_by_reduction(tampered, a, h2, c)
        assert gram_matrix(tampered) == gram_matrix_by_reduction(tampered)
        assert not frobenius_check(tampered)
        assert not frobenius_check_dense(tampered)
        assert not frobenius_check_by_reduction(tampered)


LADDER = ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2])


def seeded_qsc_frobenius(rng, count):
    """count qsc algebras with their default trace, from seeded draws with a
    nonzero resultant."""
    algebras = []
    while len(algebras) < count:
        eps = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        gam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        if qsc_resultant(eps, gam) != 0:
            try:
                algebras.append(qsc_frobenius(eps, gam))
            except TraceDegenerateError:
                continue  # psi*psit lies in the span of the relations
    return algebras


def dense_power(rng, table, power):
    """(c_1*H_1 + ... + c_g*H_g)^power with seeded nonzero coefficients on
    every generator."""
    start, stop = table.block_spans[0]
    form = Polynomial.zero(table)
    for name in table.names[start:stop]:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        form = form + c * Polynomial.variable(table, name)
    return form**power


def three_slot_powers(rng, degree):
    """Three seeded slot degrees, each at least 0, summing to degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(2))
    return cuts[0], cuts[1] - cuts[0], degree - cuts[1]


def from_parts(table, parts):
    """sum_e parts[e]*e over packed staircase monomials e, each part an
    {instanton monomial: coefficient} dict."""
    total = Polynomial.zero(table)
    for e, c in parts.items():
        total = total + Polynomial.from_packed(table, ((e + m, v) for m, v in c.items()))
    return total


class TestCoordinates:
    """The staircase coordinates of a normal form are its parts, keyed by
    packed staircase monomials."""

    def test_coordinates_rebuild_the_normal_form(self):
        rng = random.Random(83)
        algebras = [quantum_frobenius(dims).algebra for dims in LADDER]
        algebras += [fa.algebra for fa in seeded_qsc_frobenius(rng, 4)]
        for qa in algebras:
            table, staircase = qa.presentation.table, set(qa.module_basis)
            for _ in range(6):
                p = random_poly(rng, table, max_degree=4, max_terms=6)
                p = p + dense_power(rng, table, rng.randint(0, 4))
                nf = qa.gb.reduce(p)
                # the staircase holds the generator part of every term
                assert all(m & table.generator_mask in staircase for m, _ in nf.packed)
                parts = qa.gb.parts(nf.packed)
                assert parts.keys() <= staircase
                assert all(parts.values())
                assert from_parts(table, parts) == nf
                assert qa.gb.parts(p.packed) == parts


class TestUnitTraceRows:
    def test_rows_hold_the_trace_at_unit_top_coefficient(self):
        fa = quantum_frobenius([2, 2]).replace(top_coefficient=Fraction(1, 2))
        table = fa.algebra.presentation.table
        rows = fa.pairing_rows
        assert list(rows) == list(fa.algebra.module_basis)
        assert rows[0] == {fa.top_monomial: Polynomial.constant(table, 1)}
        coefficients = [c for row in rows.values() for p in row.values() for _, c in p.packed]
        assert len(coefficients) >= len(rows)
        assert all(type(c) is int for c in coefficients)

    def test_values_scale_at_the_exit(self):
        rng = random.Random(103)
        algebras = [quantum_frobenius(dims) for dims in ([2, 2], [1, 1, 1])]
        algebras += seeded_qsc_frobenius(rng, 1)
        for fa in algebras:
            table = fa.algebra.presentation.table
            for value in (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)):
                scaled = fa.replace(top_coefficient=fa.top_coefficient * value)
                assert gram_matrix(scaled) == gram_matrix_by_reduction(scaled)
                for _ in range(4):
                    a, b, c = (random_poly(rng, table, max_degree=4, max_terms=4) for _ in range(3))
                    a += dense_power(rng, table, 2)
                    assert three_point(scaled, a, b, c) == three_point_by_reduction(scaled, a, b, c)

    def test_three_point_forms_no_polynomial_product_for_a_times_b(self, monkeypatch):
        fa = quantum_frobenius([1] * 4).replace(top_coefficient=Fraction(1, 2))
        table = fa.algebra.presentation.table
        rng = random.Random(107)
        a, b, c = (dense_power(rng, table, k) for k in (3, 2, 1))
        fa.pairing_rows  # built first: the rows multiply matrix entries
        calls = counting(monkeypatch, Polynomial, "__mul__")
        value = three_point(fa, a, b, c)
        # only the value, scaled by the top coefficient at the exit
        assert [type(other) for _, other in calls] == [Fraction]
        monkeypatch.undo()
        assert value and value == three_point_by_reduction(fa, a, b, c)


class TestPairingRows:
    def test_gram_matrix_matches_oracle(self):
        algebras = [quantum_frobenius(dims) for dims in LADDER]
        algebras += [quantum_frobenius(dims) for dims in ([3, 3, 3], [1] * 6, [2, 2, 2, 2])]
        algebras += seeded_qsc_frobenius(random.Random(73), 6)
        for fa in algebras:
            assert gram_matrix(fa) == gram_matrix_by_reduction(fa)

    def test_traces_off_the_staircase(self):
        # a tampered top monomial inside the staircase (H) pairs degenerately;
        # one outside it (H^3) traces everything to zero
        fa = quantum_frobenius([2])
        table = fa.algebra.presentation.table
        for exps, determinant_text in (((1, 0), "-q"), ((3, 0), "0")):
            tampered = fa.replace(top_monomial=table.pack(exps))
            gram = gram_matrix(tampered)
            assert gram == gram_matrix_by_reduction(tampered)
            assert render(gram.determinant) == determinant_text
            h = parse_poly("H", table)
            for a, b, c in itertools.product((h, h * h, h + 1), repeat=3):
                assert three_point(tampered, a, b, c) == three_point_by_reduction(
                    tampered, a, b, c
                )

    def test_dense_correlators_match_oracle(self):
        rng = random.Random(79)
        for dims in LADDER + ([1] * 6,):
            fa = quantum_frobenius(dims)
            table = fa.algebra.presentation.table
            top = sum(dims)
            # at the top degree and above it by one factor's n + 1
            for degree in (top, top + rng.choice(dims) + 1):
                a, b, c = (dense_power(rng, table, k) for k in three_slot_powers(rng, degree))
                value = three_point(fa, a, b, c)
                assert value == three_point_by_reduction(fa, a, b, c)
            assert value  # a multiple of n + 1 above the top pairs to nonzero

    def test_random_correlators_match_oracle(self):
        # inhomogeneous inputs with instanton variables in them, so the
        # coordinates of a*b and c carry polynomials in q
        rng = random.Random(83)
        algebras = [quantum_frobenius(dims) for dims in LADDER]
        algebras += seeded_qsc_frobenius(rng, 6)
        nonzero = 0
        for fa in algebras:
            table = fa.algebra.presentation.table
            for _ in range(8):
                a, b, c = (random_poly(rng, table, max_degree=4, max_terms=4) for _ in range(3))
                value = three_point(fa, a, b, c)
                assert value == three_point_by_reduction(fa, a, b, c)
                nonzero += bool(value)
        assert nonzero >= 20

    def test_rows_are_built_once_per_algebra(self):
        fa = quantum_frobenius([2, 2])
        rows = fa.pairing_rows
        assert rows is fa.pairing_rows
        e = fa.algebra.module_basis[8]
        assert rows[e] is rows[e]
        assert quantum_frobenius([2, 2]).pairing_rows is not rows


def top_cell_frobenius(qa):
    """qa traced at its top staircase monomial, with value 1."""
    top = Polynomial(qa.presentation.table, ((qa.module_basis[-1], 1),))
    return make_frobenius(qa, top, 1)


def regular_deformation_frobenius(rng, dims, count):
    """count Frobenius algebras of the regular draws of
    :func:`random_deformation` on the product, every coordinate in every
    entry, in generators s0, s1, ...."""
    names = [f"s{k}" for k in range(len(dims))]
    algebras = []
    while len(algebras) < count:
        matrix = random_deformation(rng, dims)
        if check_bundle_regularity(matrix):
            qa = quotient_algebra(deformation_ring(matrix, names, "seeded deformation"))
            algebras.append(top_cell_frobenius(qa))
    return algebras


class TestSparseGram:
    """The Gram matrix keeps only its nonzero entries, on rings whose pairing
    is a permutation and on rings whose pairing is not."""

    @pytest.mark.parametrize("dims", [[1, 1], [2, 1], [1, 2], [1, 1, 1], [2, 2]], ids=str)
    def test_deformation_rings_match_the_oracle(self, dims):
        for fa in regular_deformation_frobenius(random.Random(f"gram/{dims}"), dims, 13):
            gram = gram_matrix(fa)
            assert gram == gram_matrix_by_reduction(fa)
            assert gram.determinant.coefficient(0)
            # more nonzero entries than rows: not a permutation matrix
            assert sum(map(len, gram.rows)) > len(gram.rows)

    @pytest.mark.parametrize("dims", [[255], [2, 2, 2, 2]], ids=str)
    def test_permutation_rings_store_one_pair_per_row(self, dims):
        gram = gram_matrix(quantum_frobenius(dims))
        n = len(gram.rows)
        assert [len(row) for row in gram.rows] == [1] * n
        assert sorted(l for ((l, _),) in gram.rows) == list(range(n))
        assert all(e for row in gram.rows for _, e in row)


class TestCorrelatorBudget:
    def test_product_over_the_bound_is_refused_before_multiplying(self, monkeypatch):
        fa = quantum_frobenius([1, 1])
        table = fa.algebra.presentation.table
        monomials = [table.pack(e) for e in itertools.product(range(10), repeat=4)]

        def sum_of(count):
            return Polynomial.from_packed(table, ((m, 1) for m in monomials[:count]))

        one = sum_of(1)

        def refuse(self, other):
            raise AssertionError("multiplied")

        over, at = (sum_of(11), sum_of(9091)), (sum_of(10), sum_of(10_000))
        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        # 11 * 9,091 = 100,001 term products, one over the bound
        message = "^correlator needs 100001 term products for a[*]b, more than 100000$"
        with pytest.raises(ValueError, match=message):
            three_point(fa, *over, one)
        # 10 * 10,000 is at the bound, so the product is formed
        with pytest.raises(AssertionError, match="multiplied"):
            three_point(fa, *at, one)


# The benchmark's qsc draw values; every CLI qsc job picks its parameters
# from them.
QSC_VALUES = ("0", "1", "-1", "2", "-2", "1/2", "3")


class TestLinearTraceReachability:
    def test_qsc_draws_have_generator_only_leading_monomials(self):
        # the pairing rows need tr(q*x) = q*tr(x), so a leading monomial with
        # an instanton variable is refused; on a sample of the CLI's qsc
        # parameter grid (7^6 draws, every one scanned once outside the
        # tests) that refusal never fires: the staircase test refuses first,
        # exactly where the classical quadrics have a common zero
        rng = random.Random(89)
        finite = 0
        for _ in range(300):
            eps = [rng.choice(QSC_VALUES) for _ in range(3)]
            gam = [rng.choice(QSC_VALUES) for _ in range(3)]
            try:
                quotient_algebra(qsc_presentation_p1p1(eps, gam))
            except DegeneratePresentationError as e:
                assert str(e) == "degenerate presentation", (eps, gam)
                assert qsc_resultant(eps, gam) == 0, (eps, gam)
                continue
            assert qsc_resultant(eps, gam) != 0, (eps, gam)
            finite += 1
        assert 250 <= finite < 300  # 8 of the draws are degenerate


def counting(monkeypatch, owner, name):
    """Calls of owner.name, recorded by a wrapper that passes them on."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestWorkCounts:
    def test_check_closure_and_gram_reduce_at_most_n_times_g(self, monkeypatch):
        # every normal form against a basis, whatever its caller, goes
        # through GroebnerBasis.parts
        calls = counting(monkeypatch, GroebnerBasis, "parts")
        for dims, n in (([2, 2, 2], 27), ([2, 2, 2, 2], 81)):
            fa = quantum_frobenius(dims)
            g = len(dims)
            assert len(fa.algebra.module_basis) == n
            calls.clear()
            assert not frobenius_check(fa)
            assert closure_check(fa)
            assert gram_matrix(fa).determinant.coefficient(0)
            # one normal form per generator and basis element at most, shared
            # by all three; the structure table alone took n(n+1)/2
            assert len(calls) <= n * g
        assert not hasattr(fa, "structure")

    def test_frobenius_check_renders_names_only_for_failures(self, monkeypatch):
        renders = counting(monkeypatch, expr, "render")
        for dims in ([2, 2, 2], [1, 1, 1, 1]):
            fa = quantum_frobenius(dims)
            renders.clear()
            assert not frobenius_check(fa)
            assert not renders
        tampered = next(tripled_tails(qsc_frobenius([1, 2, -1], [Fraction(1, 2), 3, 2])))
        renders.clear()
        failures = frobenius_check(tampered)
        # one basis name per failure line
        assert failures and len(renders) == len(failures)

    def test_gram_matrix_reduces_at_most_n_times_g(self, monkeypatch):
        fa = quantum_frobenius([2, 2, 2, 2])
        n, g = len(fa.algebra.module_basis), 4
        reductions = counting(monkeypatch, GroebnerBasis, "parts")
        products = counting(monkeypatch, frobenius, "quantum_product")
        assert gram_matrix(fa).determinant.coefficient(0)
        # one normal form per generator and basis element at most
        assert len(reductions) <= n * g == 324
        assert not products

    def test_three_point_reduces_at_most_two_plus_n_times_g(self, monkeypatch):
        fa = quantum_frobenius([2, 2, 2, 2])
        n, g = len(fa.algebra.module_basis), 4
        table = fa.algebra.presentation.table
        rng = random.Random(97)
        a, b, c = (dense_power(rng, table, k) for k in (6, 6, 5))
        reductions = counting(monkeypatch, GroebnerBasis, "parts")
        value = three_point(fa, a, b, c)
        assert value
        # a*b and c, and the multiplication matrices the rows need; the
        # expanded triple product is never reduced
        assert len(reductions) <= 2 + n * g
        sizes = [sum(1 for _, c in terms if c) for _, terms in reductions]
        assert max(sizes) == len((a * b).packed)


@pytest.mark.parametrize(
    "call, message",
    [
        (trace, "reduce with mixed variable tables"),
        (
            # a and b over the algebra's table, c foreign
            lambda fa, p: three_point(fa, *fa.algebra.presentation.relations, p),
            "reduce with mixed variable tables",
        ),
        (lambda fa, p: fa.algebra.gb.reduce(p), "reduce with mixed variable tables"),
        (
            lambda fa, p: buchberger(fa.algebra.gb.table, [p]),
            "ideal generator over a different table",
        ),
        (
            lambda fa, p: rabinowitsch_ideal(p, fa.algebra.presentation.relations),
            "rabinowitsch_ideal with mixed variable tables",
        ),
        (
            lambda fa, p: radical_member(p, fa.algebra.presentation.relations),
            "radical_member with mixed variable tables",
        ),
        (
            lambda fa, p: RingPresentation(fa.algebra.presentation.table, (p,), "foreign"),
            "relation over a different table",
        ),
    ],
    ids=["trace", "three_point", "reduce", "buchberger", "rabinowitsch_ideal",
         "radical_member", "RingPresentation"],
)
def test_table_guards_refuse_a_foreign_polynomial(call, message):
    fa = quantum_frobenius([1, 1])
    foreign = Polynomial.variable(XY_TABLE, "x")
    with pytest.raises(ValueError, match=message):
        call(fa, foreign)
