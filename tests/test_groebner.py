"""Buchberger, normal forms, and membership against independent oracles."""

import random
from fractions import Fraction

import pytest

from qcohom import groebner
from qcohom.expr import parse_poly, render
from qcohom.groebner import (
    GroebnerBasis,
    IdealPresentation,
    buchberger,
    ideal_member,
    normal_form,
    rabinowitsch_ideal,
    radical_member,
    s_polynomial,
)
from qcohom.poly import (
    GENERATOR,
    Polynomial,
    VariableTable,
    block_order,
    degrevlex,
    monomial_divides,
)
from qcohom.rings import qsc_presentation_p1p1
from qcohom.toric import euler_matrix_default, minors_ideal, product_projective_toric

from oracle_tools import witness_member
from test_poly import QSC_TABLE, random_poly

XY_TABLE = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])


def random_ideal(rng, table, max_gens=3, max_degree=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        p = random_poly(rng, table, max_degree=max_degree, max_terms=3)
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens = [Polynomial.variable(table, table.names[0])]
    return IdealPresentation(table, tuple(gens), degrevlex(table))


class TestSPolynomial:
    def test_qsc_quadrics(self):
        order = block_order(QSC_TABLE)
        f = parse_poly("psi^2 - q1", QSC_TABLE)
        g = parse_poly("psit^2 - q2", QSC_TABLE)
        s = s_polynomial(f, g, f.leading(order), g.leading(order))
        assert s == parse_poly("q2*psi^2 - q1*psit^2", QSC_TABLE)

    def test_lcm_cancellation(self):
        order = degrevlex(XY_TABLE)
        f = parse_poly("x^2 - 1", XY_TABLE)
        g = parse_poly("x*y - 1", XY_TABLE)
        assert s_polynomial(f, g, f.leading(order), g.leading(order)) == parse_poly(
            "x - y", XY_TABLE
        )

    def test_zero_input_rejected(self):
        order = degrevlex(XY_TABLE)
        x = parse_poly("x", XY_TABLE)
        with pytest.raises(ValueError):
            s_polynomial(Polynomial.zero(XY_TABLE), x, (0, 1), x.leading(order))


class TestNormalForm:
    def test_no_term_divisible_by_basis(self):
        rng = random.Random(5)
        order = block_order(QSC_TABLE)
        basis = [
            parse_poly("psi^2 + psi*psit - q1", QSC_TABLE),
            parse_poly("psit^2 - q2", QSC_TABLE),
        ]
        lms = [g.leading(order)[0] for g in basis]
        for _ in range(100):
            p = random_poly(rng, QSC_TABLE, max_degree=5)
            r = normal_form(p, basis, order)
            for m, _ in r.packed:
                assert not any(monomial_divides(QSC_TABLE, lm, m) for lm in lms)

    def test_idempotent_and_linear(self):
        rng = random.Random(8)
        order = block_order(QSC_TABLE)
        basis = [
            parse_poly("psi^2 + psi*psit - q1", QSC_TABLE),
            parse_poly("psit^2 - q2", QSC_TABLE),
        ]
        for _ in range(100):
            p = random_poly(rng, QSC_TABLE, max_degree=4)
            q = random_poly(rng, QSC_TABLE, max_degree=4)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            np_ = normal_form(p, basis, order)
            nq = normal_form(q, basis, order)
            assert normal_form(np_, basis, order) == np_
            assert normal_form(p + c * q, basis, order) == np_ + c * nq

    def test_quantum_reduction(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, "instanton")])
        order = block_order(table)
        basis = [parse_poly("H^3 - q", table)]
        assert normal_form(parse_poly("H^5", table), basis, order) == parse_poly(
            "q*H^2", table
        )

    def test_reduction_past_the_degree_limit_raises(self):
        # under the block order x leads x - e^200, whose tail has the larger
        # total degree: each step trades one x for e^200
        table = VariableTable.make([("x", 1, GENERATOR), ("e", 0, "parameter")])
        order = block_order(table)
        basis = [parse_poly("x - e^200", table)]
        top = table.max_degree // 200
        assert normal_form(parse_poly(f"x^{top}", table), basis, order) == Polynomial.monomial(
            table, (0, 200 * top)
        )
        with pytest.raises(ValueError):
            normal_form(parse_poly(f"x^{top + 1}", table), basis, order)

    def test_basis_reduce_matches_normal_form(self, monkeypatch):
        rng = random.Random(13)
        relations = (
            parse_poly("psi^2 + psi*psit - q1", QSC_TABLE),
            parse_poly("psit^2 - q2", QSC_TABLE),
        )
        gb = buchberger(IdealPresentation(QSC_TABLE, relations, block_order(QSC_TABLE)))
        polys = [random_poly(rng, QSC_TABLE, max_degree=4) for _ in range(50)]
        expected = [normal_form(p, gb.elements, gb.order) for p in polys]
        original = Polynomial.leading
        calls = []

        def counting(self, order):
            calls.append(self)
            return original(self, order)

        monkeypatch.setattr(Polynomial, "leading", counting)
        assert [gb.reduce(p) for p in polys] == expected
        # the basis keeps the leading terms buchberger found; reductions find none
        assert not calls


class TestBuchberger:
    def test_no_generators_give_empty_basis(self):
        gb = buchberger(IdealPresentation(XY_TABLE, (), degrevlex(XY_TABLE)))
        assert gb.elements == ()
        assert gb.reduce(parse_poly("x*y + 1", XY_TABLE)) == parse_poly("x*y + 1", XY_TABLE)

    def test_quantum_projective_singleton(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 4, "instanton")])
        ideal = IdealPresentation(
            table, (parse_poly("H^4 - q", table),), block_order(table)
        )
        gb = buchberger(ideal)
        assert [render(g) for g in gb.elements] == ["H^4 - q"]

    def test_qsc_coprime_leading_monomials_unchanged(self):
        pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        gb = buchberger(
            IdealPresentation(pres.table, pres.relations, block_order(pres.table))
        )
        assert [render(g) for g in gb.elements] == ["psi^2 - q1", "psit^2 - q2"]

    def test_qsc_eps100_gam0_hand_oracle(self):
        pres = qsc_presentation_p1p1([1, 0, 0], [0, 0, 0])
        gb = buchberger(
            IdealPresentation(pres.table, pres.relations, block_order(pres.table))
        )
        assert [render(g) for g in gb.elements] == [
            "psi^2 + psi*psit - q1",
            "psit^2 - q2",
        ]

    def test_qsc_eps100_gam100_hand_oracle(self):
        # hand Buchberger: S(g1,g2) gives psi*q2 - psit*q1, then
        # S(g1,g3) reduces to psit^2*q1 + psit^2*q2 - q2^2, all later
        # S-pairs reduce to zero; interreduction rewrites g1 by g2
        pres = qsc_presentation_p1p1([1, 0, 0], [1, 0, 0])
        gb = buchberger(
            IdealPresentation(pres.table, pres.relations, block_order(pres.table))
        )
        assert [render(g) for g in gb.elements] == [
            "psi^2 - psit^2 - q1 + q2",
            "psi*psit + psit^2 - q2",
            "psit^2*q1 + psit^2*q2 - q2^2",
            "-psit*q1 + psi*q2",
        ]

    def test_qsc_degenerate_draw_hand_oracle(self):
        # relations share the leading monomial psi^2; eliminating it leaves
        # q1 + q2, and interreduction rewrites the first relation
        pres = qsc_presentation_p1p1([0, 1, 1], [0, 1, 1])
        gb = buchberger(
            IdealPresentation(pres.table, pres.relations, block_order(pres.table))
        )
        assert [render(g) for g in gb.elements] == ["psi^2 - psit^2 + q2", "q1 + q2"]

    def test_all_s_polynomials_reduce_to_zero(self):
        rng = random.Random(17)
        for _ in range(25):
            table = rng.choice(
                [
                    XY_TABLE,
                    QSC_TABLE,
                    VariableTable.make(
                        [("x", 1, GENERATOR), ("y", 1, GENERATOR), ("z", 1, GENERATOR)]
                    ),
                ]
            )
            ideal = random_ideal(rng, table)
            gb = buchberger(ideal)
            records = gb.leading_terms
            for i in range(len(records)):
                for j in range(i + 1, len(records)):
                    (mi, ci, gi), (mj, cj, gj) = records[i], records[j]
                    s = s_polynomial(gi, gj, (mi, ci), (mj, cj))
                    assert normal_form(s, gb.elements, gb.order).is_zero()

    def test_generators_reduce_to_zero(self):
        rng = random.Random(19)
        for _ in range(25):
            ideal = random_ideal(rng, XY_TABLE)
            gb = buchberger(ideal)
            for g in ideal.generators:
                assert normal_form(g, gb.elements, gb.order).is_zero()

    def test_permutation_invariance(self):
        rng = random.Random(29)
        for _ in range(20):
            ideal = random_ideal(rng, XY_TABLE)
            gb = buchberger(ideal)
            gens = list(ideal.generators)
            rng.shuffle(gens)
            gb2 = buchberger(IdealPresentation(ideal.table, tuple(gens), ideal.order))
            assert gb.elements == gb2.elements

    def test_basis_monic_and_sorted(self):
        rng = random.Random(31)
        for _ in range(20):
            ideal = random_ideal(rng, QSC_TABLE)
            gb = buchberger(ideal)
            keys = [gb.order.key(g.leading(gb.order)[0]) for g in gb.elements]
            assert keys == sorted(keys, reverse=True)
            assert all(g.leading(gb.order)[1] == 1 for g in gb.elements)


    def test_pair_selection_work_is_bounded(self, monkeypatch):
        matrix = euler_matrix_default(product_projective_toric([2, 2, 1]))
        toric = matrix.toric
        generator = Polynomial.monomial(
            toric.coordinate_table, toric.irrelevant_generators[0]
        )
        extended = rabinowitsch_ideal(generator, minors_ideal(matrix))
        original = groebner.monomial_lcm
        calls = []

        def counting(table, a, b):
            calls.append(a)
            return original(table, a, b)

        monkeypatch.setattr(groebner, "monomial_lcm", counting)
        gb = buchberger(extended)
        assert gb.elements == (Polynomial.constant(extended.table, 1),)
        # one lcm per pair formed and per S-polynomial: 196 calls; choosing
        # each pair by a scan of all pending lcms took 18,227
        assert len(calls) <= 1000

    def test_leading_terms_found_once_per_element(self, monkeypatch):
        ideal = minors_ideal(euler_matrix_default(product_projective_toric([2, 2, 2])))
        original = Polynomial.leading
        calls = []
        records = []

        def counting(self, order):
            calls.append(self)
            return original(self, order)

        def recording(g, order):
            records.append(g)
            return original_record(g, order)

        original_record = groebner._monic_record
        monkeypatch.setattr(Polynomial, "leading", counting)
        monkeypatch.setattr(groebner, "_monic_record", recording)
        gb = buchberger(ideal)
        assert len(gb.elements) == 27
        assert len(gb.leading_terms) == 27
        # once per record: S-polynomials take their leading terms from the
        # records (189 calls when each found both again), and so does the
        # finished basis
        assert len(calls) <= len(records)


class TestIdealMember:
    def test_spot_membership(self):
        pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        gb = buchberger(
            IdealPresentation(pres.table, pres.relations, block_order(pres.table))
        )
        assert ideal_member(parse_poly("psi^2 - q1", pres.table), gb)
        assert ideal_member(
            parse_poly("(psi^2 - q1)*psit + (psit^2 - q2)*q1", pres.table), gb
        )
        assert not ideal_member(parse_poly("psi", pres.table), gb)
        assert ideal_member(Polynomial.zero(pres.table), gb)

    def test_agrees_with_witness_oracle(self):
        rng = random.Random(43)
        for _ in range(30):
            num_vars = rng.randint(1, 2)
            table = VariableTable.make(
                (f"x{i}", 1, GENERATOR) for i in range(num_vars)
            )
            ideal = random_ideal(rng, table, max_gens=2, max_degree=3)
            gb = buchberger(ideal)
            if rng.random() < 0.5:
                p = random_poly(rng, table, max_degree=3, max_terms=3)
            else:
                p = Polynomial.zero(table)
                for g in ideal.generators:
                    p = p + random_poly(rng, table, max_degree=1, max_terms=2) * g
            assert ideal_member(p, gb) == witness_member(p, list(ideal.generators))


class TestRadicalMember:
    def test_powers_in_radical(self):
        x = parse_poly("x", XY_TABLE)
        ideal = IdealPresentation(
            XY_TABLE, (parse_poly("x^2", XY_TABLE),), degrevlex(XY_TABLE)
        )
        assert radical_member(x, ideal)
        assert not ideal_member(x, buchberger(ideal))
        assert not radical_member(parse_poly("y", XY_TABLE), ideal)

    def test_monomial_ideal(self):
        table = VariableTable.make(
            (f"x{i}", 1, GENERATOR) for i in range(4)
        )
        gens = tuple(
            parse_poly(t, table) for t in ("x0*x2", "x0*x3", "x1*x2", "x1*x3")
        )
        ideal = IdealPresentation(table, gens, degrevlex(table))
        for t in ("x0*x2", "x1*x3", "x0*x3"):
            assert radical_member(parse_poly(t, table), ideal)
        # x0*x1 does not vanish on x0 = x2 = 0 with x1, x3 free
        assert not radical_member(parse_poly("x0*x1", table), ideal)

    def test_zero_and_fresh_variable_name(self):
        table = VariableTable.make([("t", 1, GENERATOR)])
        ideal = IdealPresentation(
            table, (parse_poly("t^3", table),), degrevlex(table)
        )
        assert radical_member(Polynomial.zero(table), ideal)
        assert radical_member(parse_poly("t", table), ideal)
