"""Variable tables, monomial orders and exact polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from qcohom.poly import (
    GENERATOR,
    INSTANTON,
    PARAMETER,
    Polynomial,
    TableMismatchError,
    VariableTable,
    block_order,
    degrevlex,
    lex_order,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

QSC_TABLE = VariableTable.make(
    [("psi", 1, GENERATOR), ("psit", 1, GENERATOR), ("q1", 2, INSTANTON), ("q2", 2, INSTANTON)]
)


def random_table(rng):
    num_gen = rng.randint(1, 3)
    num_inst = rng.randint(0, 2)
    specs = [(f"x{i}", rng.randint(1, 2), GENERATOR) for i in range(num_gen)]
    specs += [(f"q{i}", rng.randint(1, 3), INSTANTON) for i in range(num_inst)]
    return VariableTable.make(specs)


def random_poly(rng, table, max_degree=3, max_terms=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(table)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(table))] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms.append((tuple(exps), coeff))
    return Polynomial.from_terms(table, terms)


class TestVariableTable:
    def test_block_order_enforced(self):
        with pytest.raises(ValueError):
            VariableTable.make([("q", 2, INSTANTON), ("H", 1, GENERATOR)])

    def test_parameter_degree_zero(self):
        with pytest.raises(ValueError):
            VariableTable.make([("eps", 1, PARAMETER)])
        with pytest.raises(ValueError):
            VariableTable.make([("H", 0, GENERATOR)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableTable.make([("H", 1, GENERATOR), ("H", 1, GENERATOR)])

    def test_spans_and_indices(self):
        table = VariableTable.make(
            [("H", 1, GENERATOR), ("q", 2, INSTANTON), ("eps", 0, PARAMETER)]
        )
        assert table.block_spans == ((0, 1), (1, 2), (2, 3))
        assert table.index("eps") == 2
        with pytest.raises(KeyError):
            table.index("missing")


class TestMonomialHelpers:
    def test_mul_div_lcm(self):
        assert monomial_mul((1, 2), (0, 1)) == (1, 3)
        assert monomial_divides((1, 0), (1, 2))
        assert not monomial_divides((2, 0), (1, 2))
        assert monomial_div((1, 3), (1, 1)) == (0, 2)
        assert monomial_lcm((2, 0), (1, 2)) == (2, 2)
        with pytest.raises(ValueError):
            monomial_div((1, 0), (0, 1))


class TestMonomialOrders:
    def test_degrevlex_prefers_earlier_variables(self):
        order = degrevlex(QSC_TABLE)
        psi2 = (2, 0, 0, 0)
        psi_psit = (1, 1, 0, 0)
        assert order.compare(psi2, psi_psit) == 1
        assert order.compare(psi_psit, psi2) == -1
        assert order.compare(psi2, psi2) == 0

    def test_block_order_generator_block_dominates(self):
        order = block_order(QSC_TABLE)
        psi = (1, 0, 0, 0)
        q1_cubed = (0, 0, 3, 0)
        assert order.compare(psi, q1_cubed) == 1
        # within the instanton block, degrevlex
        assert order.compare((0, 0, 1, 0), (0, 0, 0, 1)) == 1

    def test_lex_order(self):
        table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
        order = lex_order(table)
        assert order.compare((1, 0), (0, 5)) == 1

    def test_length_mismatch_rejected(self):
        order = degrevlex(QSC_TABLE)
        with pytest.raises(TableMismatchError):
            order.key((1, 0))

    def test_total_antisymmetric_transitive_multiplicative(self):
        rng = random.Random(11)
        for _ in range(200):
            table = random_table(rng)
            order = rng.choice([degrevlex(table), lex_order(table), block_order(table)])
            def rand_mono():
                return tuple(rng.randint(0, 3) for _ in range(len(table)))
            a, b, c = rand_mono(), rand_mono(), rand_mono()
            # totality and antisymmetry
            assert order.compare(a, b) == -order.compare(b, a)
            assert (order.compare(a, b) == 0) == (a == b)
            # transitivity
            if order.compare(a, b) >= 0 and order.compare(b, c) >= 0:
                assert order.compare(a, c) >= 0
            # multiplicativity
            assert order.compare(a, b) == order.compare(
                monomial_mul(a, c), monomial_mul(b, c)
            )


class TestPolynomialArithmetic:
    def test_canonical_storage(self):
        p = Polynomial.from_terms(
            QSC_TABLE,
            [((0, 0, 1, 0), Fraction(1)), ((2, 0, 0, 0), Fraction(1)),
             ((1, 1, 0, 0), Fraction(0))],
        )
        # zero coefficients dropped, terms sorted descending under degrevlex
        assert p.terms == (((2, 0, 0, 0), Fraction(1)), ((0, 0, 1, 0), Fraction(1)))

    def test_add_cancellation(self):
        x = Polynomial.variable(QSC_TABLE, "psi")
        assert (x - x).is_zero()
        assert (x + x) == 2 * x

    def test_scalar_and_power(self):
        x = Polynomial.variable(QSC_TABLE, "psi")
        y = Polynomial.variable(QSC_TABLE, "psit")
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert Fraction(1, 2) * (2 * x) == x
        with pytest.raises(ValueError):
            x ** -1

    def test_table_mismatch(self):
        other = VariableTable.make([("psi", 1, GENERATOR)])
        with pytest.raises(TableMismatchError):
            Polynomial.variable(QSC_TABLE, "psi") + Polynomial.variable(other, "psi")

    def test_ring_axioms_random(self):
        rng = random.Random(23)
        for _ in range(150):
            table = random_table(rng)
            a = random_poly(rng, table)
            b = random_poly(rng, table)
            c = random_poly(rng, table)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Polynomial.zero(table) == a
            assert a * Polynomial.constant(table, 1) == a
            assert a - a == Polynomial.zero(table)

    def test_leading_and_monic(self):
        order = block_order(QSC_TABLE)
        p = Polynomial.from_terms(
            QSC_TABLE, [((1, 1, 0, 0), Fraction(3)), ((0, 0, 1, 0), Fraction(-1))]
        )
        lm, lc = p.leading(order)
        assert lm == (1, 1, 0, 0) and lc == 3
        assert p.monic(order).leading(order)[1] == 1
        with pytest.raises(ValueError):
            Polynomial.zero(QSC_TABLE).leading(order)


class TestGradedDegree:
    def test_quantum_relation_homogeneous(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, INSTANTON)])
        p = Polynomial.variable(table, "H") ** 3 - Polynomial.variable(table, "q")
        assert p.graded_degree() == 3

    def test_qsc_relation_with_parameters(self):
        table = VariableTable.make(
            [("psi", 1, GENERATOR), ("psit", 1, GENERATOR),
             ("q1", 2, INSTANTON), ("eps1", 0, PARAMETER)]
        )
        psi = Polynomial.variable(table, "psi")
        psit = Polynomial.variable(table, "psit")
        q1 = Polynomial.variable(table, "q1")
        eps1 = Polynomial.variable(table, "eps1")
        p = psi * psi + eps1 * psi * psit - q1
        assert p.graded_degree() == 2

    def test_inhomogeneous_reports_none(self):
        table = VariableTable.make([("H", 1, GENERATOR)])
        H = Polynomial.variable(table, "H")
        assert (H * H + H).graded_degree() is None
        assert Polynomial.zero(table).graded_degree() == 0


class TestSubstituteTransport:
    def test_substitute_drops_variables(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, INSTANTON)])
        p = Polynomial.variable(table, "H") ** 3 - Polynomial.variable(table, "q")
        s = p.substitute({"q": 0})
        assert s.table.names == ("H",)
        assert str(s) == "H^3"
        s2 = p.substitute({"q": Fraction(2)})
        assert str(s2) == "H^3 - 2"

    def test_substitute_evaluates_powers(self):
        table = VariableTable.make([("x", 1, GENERATOR), ("c", 0, PARAMETER)])
        p = Polynomial.from_terms(table, [((1, 2), Fraction(1))])
        s = p.substitute({"c": Fraction(1, 2)})
        assert str(s) == "1/4*x"

    def test_transport_renames(self):
        src = VariableTable.make([("psi", 1, GENERATOR), ("psit", 1, GENERATOR)])
        dst = VariableTable.make([("H1", 1, GENERATOR), ("H2", 1, GENERATOR)])
        p = Polynomial.variable(src, "psi") * Polynomial.variable(src, "psit")
        moved = p.transport(dst, {"psi": "H1", "psit": "H2"})
        assert str(moved) == "H1*H2"
        with pytest.raises(KeyError):
            p.transport(dst)  # psi is not a variable of dst
