"""Variable tables, monomial orders and exact polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from qcohom import poly
from qcohom.poly import (
    GENERATOR,
    INSTANTON,
    Polynomial,
    TableMismatchError,
    VariableTable,
    monomial_divides,
    monomial_lcm,
)

from oracle_tools import tuple_order_key

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

    def test_parameter_block_and_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="unknown block 'parameter'"):
            VariableTable.make([("eps", 0, "parameter")])
        with pytest.raises(ValueError, match="must have degree >= 1"):
            VariableTable.make([("H", 0, GENERATOR)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableTable.make([("H", 1, GENERATOR), ("H", 1, GENERATOR)])

    def test_spans_and_indices(self):
        table = VariableTable.make(
            [("H", 1, GENERATOR), ("q", 2, INSTANTON), ("eps", 1, INSTANTON)]
        )
        assert table.block_spans == ((0, 1), (1, 3))
        assert table.index("eps") == 2
        generators = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
        assert generators.block_spans == ((0, 2), (2, 2))
        with pytest.raises(KeyError):
            table.index("missing")


class TestMonomialHelpers:
    def test_mul_div_lcm(self):
        table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
        pack = table.pack
        assert pack((1, 2)) + pack((0, 1)) == pack((1, 3))
        assert monomial_divides(table, pack((1, 0)), pack((1, 2)))
        assert not monomial_divides(table, pack((2, 0)), pack((1, 2)))
        assert pack((1, 3)) - pack((1, 1)) == pack((0, 2))
        assert monomial_lcm(table, pack((2, 0)), pack((1, 2))) == pack((2, 2))
        assert table.unpack(pack((3, 7))) == (3, 7)
        with pytest.raises(ValueError):
            pack((1, -1))

    def test_exponent_overflow_at_the_edge(self):
        table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
        top = table.max_degree
        assert top == 2 ** (table.field_width - 1) - 1
        x = Polynomial.variable(table, "x")
        y = Polynomial.variable(table, "y")
        edge = Polynomial.monomial(table, (top - 1, 0)) * x
        assert edge.terms == (((top, 0), 1),)
        assert (Polynomial.monomial(table, (0, top - 1)) * y).terms == (((0, top), 1),)
        # one past the edge raises instead of carrying into the field of y
        with pytest.raises(ValueError):
            edge * x
        with pytest.raises(ValueError):
            edge * (x + 1)
        with pytest.raises(ValueError):
            Polynomial.monomial(table, (0, top)) * x
        with pytest.raises(ValueError):
            Polynomial.monomial(table, (top, 1))


class TestMonomialOrders:
    def test_degrevlex_prefers_earlier_variables(self):
        key = QSC_TABLE.term_key
        psi2 = key(QSC_TABLE.pack((2, 0, 0, 0)))
        psi_psit = key(QSC_TABLE.pack((1, 1, 0, 0)))
        assert psi2 > psi_psit
        assert psi2 == key(QSC_TABLE.pack((2, 0, 0, 0)))

    def test_block_order_generator_block_dominates(self):
        key = lambda exps: QSC_TABLE.block_key(QSC_TABLE.pack(exps))  # noqa: E731
        assert key((1, 0, 0, 0)) > key((0, 0, 3, 0))
        # within the instanton block, degrevlex
        assert key((0, 0, 1, 0)) > key((0, 0, 0, 1))

    def test_block_order_on_generator_only_table_is_degrevlex(self):
        table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
        assert table.block_key is table.term_key
        ascending = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        by_key = sorted(ascending[::-1], key=lambda exps: table.block_key(table.pack(exps)))
        assert by_key == ascending

    def test_length_mismatch_rejected(self):
        with pytest.raises(TableMismatchError):
            QSC_TABLE.pack((1, 0))

    def test_total_antisymmetric_transitive_multiplicative(self):
        rng = random.Random(11)
        for _ in range(200):
            table = random_table(rng)
            key = rng.choice([table.term_key, table.block_key])
            def rand_mono():
                return table.pack(tuple(rng.randint(0, 3) for _ in range(len(table))))
            a, b, c = rand_mono(), rand_mono(), rand_mono()
            ka, kb, kc = key(a), key(b), key(c)
            # totality and antisymmetry
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            assert (ka == kb) == (a == b)
            # transitivity
            if ka >= kb and kb >= kc:
                assert ka >= kc
            # multiplicativity
            kac, kbc = key(a + c), key(b + c)
            assert (ka > kb) == (kac > kbc) and (ka == kb) == (kac == kbc)

    def test_key_orders_like_the_tuple_oracle(self):
        # the key is a closure per order; the benchmark counts its calls by
        # the code object's name and file, so both must stay those of poly.key
        rng = random.Random(29)
        gen = [(f"x{i}", 1, GENERATOR) for i in range(3)]
        inst = [(f"q{i}", 2, INSTANTON) for i in range(2)]
        for specs in (gen, gen + inst, gen[:1] + inst[:1], inst):
            table = VariableTable.make(specs)
            orders = ((table.term_key, ((0, len(table)),)), (table.block_key, table.block_spans))
            for key, spans in orders:
                assert key.__code__.co_name == "key"
                assert key.__code__.co_filename == poly.__file__
                for _ in range(200):
                    a, b = (tuple(rng.randint(0, 9) for _ in specs) for _ in range(2))
                    ka, kb = key(table.pack(a)), key(table.pack(b))
                    ta, tb = tuple_order_key(spans, a), tuple_order_key(spans, b)
                    assert (ka < kb, ka == kb) == (ta < tb, ta == tb)
        assert VariableTable(()).block_key(0) == 0


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

    def test_product_with_one_is_the_other_factor(self):
        one = Polynomial.constant(QSC_TABLE, 1)
        p = Polynomial.from_terms(
            QSC_TABLE, [((2, 0, 0, 0), Fraction(1, 2)), ((0, 1, 1, 0), -3)]
        )
        assert one * p == p and p * one == p
        assert one * one == one
        assert one * Polynomial.zero(QSC_TABLE) == Polynomial.zero(QSC_TABLE)
        other = VariableTable.make([("psi", 1, GENERATOR)])
        for a, b in ((one, Polynomial.variable(other, "psi")), (Polynomial.constant(other, 1), p)):
            with pytest.raises(TableMismatchError):
                a * b
            with pytest.raises(TableMismatchError):
                b * a

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
        p = Polynomial.from_terms(
            QSC_TABLE, [((1, 1, 0, 0), Fraction(3)), ((0, 0, 1, 0), Fraction(-1))]
        )
        lm, lc = p.leading()
        assert lm == QSC_TABLE.pack((1, 1, 0, 0)) and lc == 3
        with pytest.raises(ValueError):
            Polynomial.zero(QSC_TABLE).leading()


class TestGradedDegree:
    def test_quantum_relation_homogeneous(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, INSTANTON)])
        p = Polynomial.variable(table, "H") ** 3 - Polynomial.variable(table, "q")
        assert p.graded_degree() == 3

    def test_qsc_relation_with_parameters(self):
        table = VariableTable.make(
            [("psi", 1, GENERATOR), ("psit", 1, GENERATOR),
             ("q1", 2, INSTANTON), ("eps1", 1, INSTANTON)]
        )
        psi = Polynomial.variable(table, "psi")
        psit = Polynomial.variable(table, "psit")
        q1 = Polynomial.variable(table, "q1")
        eps1 = Polynomial.variable(table, "eps1")
        p = psi * psi + eps1 * psit - q1
        assert p.graded_degree() == 2
        assert (p + eps1 * psi * psit).graded_degree() is None

    def test_inhomogeneous_reports_none(self):
        table = VariableTable.make([("H", 1, GENERATOR)])
        H = Polynomial.variable(table, "H")
        assert (H * H + H).graded_degree() is None
        assert Polynomial.zero(table).graded_degree() == 0
