"""Expression grammar and canonical rendering."""

import itertools
import random
from fractions import Fraction

import pytest

from qcohom import expr
from qcohom.expr import ParseError, parse_poly, render
from qcohom.poly import GENERATOR, Polynomial, VariableTable
from qcohom.toric import product_projective_toric

from test_poly import QSC_TABLE, random_poly, random_table


class TestParsing:
    def test_simple_monomials(self):
        assert parse_poly("psi", QSC_TABLE) == Polynomial.variable(QSC_TABLE, "psi")
        assert parse_poly("psi^2", QSC_TABLE) == Polynomial.variable(QSC_TABLE, "psi") ** 2
        p = parse_poly("2/3*psi*psit", QSC_TABLE)
        assert p.coefficient(QSC_TABLE.pack((1, 1, 0, 0))) == Fraction(2, 3)

    def test_precedence_and_parentheses(self):
        a = parse_poly("psi + psit*q1", QSC_TABLE)
        b = parse_poly("psi + (psit*q1)", QSC_TABLE)
        c = parse_poly("(psi + psit)*q1", QSC_TABLE)
        assert a == b
        assert a != c

    def test_unary_minus(self):
        p = parse_poly("-psi^2 + 2/3*psi*psit", QSC_TABLE)
        assert p.coefficient(QSC_TABLE.pack((2, 0, 0, 0))) == -1
        assert p.coefficient(QSC_TABLE.pack((1, 1, 0, 0))) == Fraction(2, 3)
        assert parse_poly("--psi", QSC_TABLE) == Polynomial.variable(QSC_TABLE, "psi")

    def test_rational_literals(self):
        assert parse_poly("7/2", QSC_TABLE) == Polynomial.constant(QSC_TABLE, Fraction(7, 2))
        assert parse_poly("5", QSC_TABLE) == Polynomial.constant(QSC_TABLE, 5)
        assert not parse_poly("0", QSC_TABLE)

    def test_whitespace_insensitive(self):
        assert parse_poly(" psi ^ 2 + q1 ", QSC_TABLE) == parse_poly("psi^2+q1", QSC_TABLE)

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("psi + foo", QSC_TABLE)
        assert "unknown variable 'foo'" in str(info.value)
        assert info.value.position == 6

    def test_exponent_must_be_literal(self):
        with pytest.raises(ParseError) as info:
            parse_poly("psi^-2", QSC_TABLE)
        assert "exponent" in str(info.value)
        with pytest.raises(ParseError):
            parse_poly("psi^q1", QSC_TABLE)

    def test_no_general_division(self):
        with pytest.raises(ParseError):
            parse_poly("psi/2", QSC_TABLE)
        with pytest.raises(ParseError):
            parse_poly("1/psi", QSC_TABLE)

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as info:
            parse_poly("1/0", QSC_TABLE)
        assert "zero denominator" in str(info.value)

    def test_syntax_errors_carry_position(self):
        for text in ("psi +", "(psi", "psi psit", "*psi", ""):
            with pytest.raises(ParseError) as info:
                parse_poly(text, QSC_TABLE)
            assert info.value.position >= 0

    def test_nesting_depth_bounded(self):
        psi = parse_poly("psi", QSC_TABLE)
        assert parse_poly("(" * 100 + "psi" + ")" * 100, QSC_TABLE) == psi
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_poly("(" * 101 + "psi" + ")" * 101, QSC_TABLE)
        assert info.value.position == 100
        assert parse_poly("-" * 5001 + "psi", QSC_TABLE) == -psi
        assert parse_poly("-(" * 100 + "psi" + ")" * 100, QSC_TABLE) == psi
        assert parse_poly("psi^1000", QSC_TABLE) == psi ** 1000
        with pytest.raises(ParseError, match="exponent larger than 1000") as info:
            parse_poly("psit + psi^1001", QSC_TABLE)
        assert info.value.position == 11

    def test_power_and_product_degree_bounded(self):
        psi = parse_poly("psi", QSC_TABLE)
        assert parse_poly("(psi^2)^500", QSC_TABLE) == psi ** 1000
        assert parse_poly("psi^999*psit", QSC_TABLE).total_degree() == 1000
        # refused at the operator, before the power or product is expanded
        cases = {
            "(psi^1000)^1000": 10,
            "((psi^1000)^1000)^1000": 11,
            "psi^500*psit^501": 7,
            "psit + (psi*psit)^501": 17,
        }
        for text, position in cases.items():
            with pytest.raises(ParseError, match="larger than 1000") as info:
                parse_poly(text, QSC_TABLE)
            assert info.value.position == position

    def test_term_products_bounded(self, monkeypatch):
        # on (P^1)^6 this power would expand to 324,632 terms; only the string is built
        table = product_projective_toric([1] * 6).quantum_ring.table
        with pytest.raises(ParseError, match="more than 100000 term products") as info:
            parse_poly("(H1+H2+H3+H4+H5+H6)^30", table)
        assert info.value.position == 19
        # each product of p and q counts terms(p) * terms(q), every power step included
        monkeypatch.setattr(expr, "MAX_TERM_PRODUCTS", 6)
        assert parse_poly("(psi+psit)^2", QSC_TABLE) == parse_poly("(psi+psit)*(psi+psit)", QSC_TABLE)
        with pytest.raises(ParseError, match="more than 6 term products") as info:
            parse_poly("(psi+psit)^2*q1", QSC_TABLE)
        assert info.value.position == 12

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(107)
        for _ in range(60):
            table = random_table(rng)
            base = random_poly(rng, table, max_degree=2, max_terms=4)
            k = rng.randint(0, 5)
            expected = Polynomial.constant(table, 1)
            for _ in range(k):
                expected = expected * base
            assert parse_poly(f"({render(base)})^{k}", table) == expected
        # a power whose steps cancel terms: (x - y)^2 * (x + y)^2 = (x^2 - y^2)^2
        table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
        assert parse_poly("(x^2 - y^2)^3", table) == parse_poly("((x-y)*(x+y))^3", table)

    def test_power_budget_refuses_at_the_crossing_step(self, monkeypatch):
        # step i of a power adds terms(base^(i-1)) * terms(base), counted as
        # repeated multiplication counts it, after the 1 of H4*H5
        table = product_projective_toric([1] * 6).quantum_ring.table
        base_text = "H1 + 2*H2 - H3 + q1"
        base = parse_poly(base_text, table)
        budget = 2000
        monkeypatch.setattr(expr, "MAX_TERM_PRODUCTS", budget)
        spent, power, k = 1, Polynomial.constant(table, 1), 0
        while spent <= budget:
            spent += len(power.packed) * len(base.packed)
            power = power * base
            k += 1
        assert k > 5
        below = parse_poly(f"H4*H5 + ({base_text})^{k - 1}", table)
        assert below == parse_poly("H4*H5", table) + base ** (k - 1)
        text = f"H4*H5 + ({base_text})^{k}"
        with pytest.raises(ParseError, match=f"more than {budget} term products") as info:
            parse_poly(text, table)
        assert info.value.position == text.index("^")

    def test_sum_builds_its_polynomial_once(self, monkeypatch):
        # 2,000 terms on (P^1)^6, the last 100 cancelling earlier ones
        table = product_projective_toric([1] * 6).quantum_ring.table
        rng = random.Random(47)
        monomials = rng.sample(sorted(itertools.product(range(4), repeat=6)), 1900)
        terms = [(m, rng.choice((3, -1, Fraction(1, 2), Fraction(-5, 3)))) for m in monomials]
        terms += [(m, -c) for m, c in rng.sample(terms, 100)]
        pieces = []
        for exps, c in terms:
            factors = [f"H{i + 1}^{e}" for i, e in enumerate(exps) if e]
            pieces.append(f"{'-' if c < 0 else '+'} {'*'.join([str(abs(c))] + factors)}")
        text = " ".join(pieces).removeprefix("+ ")
        # the same sum through Polynomial.__add__, folded pairwise (a left
        # fold gives the same polynomial but takes seconds)
        fold = [Polynomial(table, ((table.pack(exps + (0,) * 6), c),)) for exps, c in terms]
        while len(fold) > 1:
            fold = [sum(fold[i : i + 2], Polynomial.zero(table)) for i in range(0, len(fold), 2)]
        original = Polynomial.from_packed
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(Polynomial, "from_packed", staticmethod(counting))
        assert parse_poly(text, table) == fold[0]
        assert len(calls) == 1
        assert len(fold[0].packed) == 1800

    def test_overlong_integer_literal_carries_position(self):
        # int() refuses literals past 4,300 digits; only the strings are built
        nines = "9" * 5000
        cases = {
            f"psit + psi^{nines}": 11,
            f"psit + {nines}*psi": 7,
            f"psit + 1/{nines}": 9,
        }
        for text, position in cases.items():
            with pytest.raises(ParseError, match="5000 digits is too long") as info:
                parse_poly(text, QSC_TABLE)
            assert info.value.position == position

    def test_computed_coefficient_digit_bound(self):
        # a product or power step may form a coefficient of 4,300 digits, not
        # 4,301, numerator or denominator, even where a later term cancels it
        cases = {
            "(10^1000)^4*10^": 10**4299,
            "-(10^1000)^4*10^": -(10**4299),
            "((1/10)^1000)^4*(1/10)^": Fraction(1, 10**4299),
        }
        for stem, value in cases.items():
            assert parse_poly(stem + "299", QSC_TABLE) == Polynomial.constant(QSC_TABLE, value)
            with pytest.raises(ParseError, match="^coefficient of more than 4300 digits") as info:
                parse_poly(f"{stem}300 - {stem}300", QSC_TABLE)
            assert info.value.position == stem.rindex("*")
        with pytest.raises(ParseError, match=r"\(at position 9\)$"):
            parse_poly("(10^1000)^1000", QSC_TABLE)  # at its fifth step
        assert expr.too_long(10**4300) and expr.too_long(Fraction(-1, 10**4300))
        assert not expr.too_long(1 - 10**4300) and not expr.too_long(Fraction(1, 10**4300 - 1))

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse_poly("psi $ psit", QSC_TABLE)
        assert info.value.position == 4

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13", "\u0e53", "\U0001d7d1"], ids=ascii)
    def test_integers_are_ascii_digits(self, digit):
        # Arabic-Indic, fullwidth, Thai and mathematical bold three are
        # decimal digits to str.isdecimal, and were once read as 3
        for text, position in ((f"psi^{digit}", 4), (f"{digit}*psi", 0), (f"1/{digit}", 2)):
            with pytest.raises(ParseError, match="unexpected character") as info:
                parse_poly(text, QSC_TABLE)
            assert info.value.position == position


class TestRendering:
    def test_canonical_examples(self):
        cases = [
            ("psi^2 + psi*psit - q1", "psi^2 + psi*psit - q1"),
            ("q1 + psi^2", "psi^2 + q1"),
            ("-psi^2 + 2/3*psi*psit", "-psi^2 + 2/3*psi*psit"),
            ("psit*psi", "psi*psit"),
            ("0", "0"),
            ("psi - psi", "0"),
            ("3 - 1", "2"),
            ("-1*psi", "-psi"),
        ]
        for text, expected in cases:
            assert render(parse_poly(text, QSC_TABLE)) == expected

    def test_str_uses_render(self):
        p = parse_poly("psi^2 - q1", QSC_TABLE)
        assert str(p) == "psi^2 - q1"

    def test_parse_render_round_trip_random(self):
        rng = random.Random(37)
        for _ in range(500):
            table = random_table(rng)
            p = random_poly(rng, table)
            assert parse_poly(render(p), table) == p

    def test_round_trip_over_instanton_tables(self):
        # render reads the packed fields up to the last nonzero one
        rng = random.Random(109)
        tables = [QSC_TABLE] + [
            product_projective_toric(dims).quantum_ring.table
            for dims in ([1, 2, 3], [1] * 8, [255])
        ]
        for table in tables:
            for _ in range(80):
                p = random_poly(rng, table, max_degree=7, max_terms=6)
                assert parse_poly(render(p), table) == p
                assert "terms" not in vars(p)  # no exponent tuples unpacked

    def test_render_parse_round_trip_on_canonical_text(self):
        rng = random.Random(41)
        for _ in range(200):
            table = random_table(rng)
            text = render(random_poly(rng, table))
            assert render(parse_poly(text, table)) == text
