"""The packed polynomial kernel against the tuple kernel kept in oracle_tools.

Seeded random polynomials over three kinds of table: generator-only tables,
quantum tables (instanton variables after the generators), and Rabinowitsch
tables (a fresh variable appended), each reduced under its block order.
Products and normal forms must equal the tuple kernel's,
the int order keys must order exponent vectors as the tuple keys do, the
weighted degree of a packed monomial must be the grading's sum over its
exponent tuple, and no coefficient may ever be a float.  The table changes
that keep packed terms as they are (the classical limit, the Rabinowitsch
lift, the renaming of the undeformation limit) must equal the tuple path,
``Polynomial.from_terms``, which packs and sorts the terms again.  The
oracles use only public names of the package.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qcohom.groebner import buchberger, rabinowitsch_ideal
from qcohom.poly import GENERATOR, INSTANTON, Polynomial, VariableTable
from qcohom.rings import RingPresentation, classical_limit
from qcohom.toric import qsc_presentation_p1p1, quantum_cohomology_products

from oracle_tools import tuple_normal_form, tuple_order_key, tuple_product
from test_poly import random_poly, random_table


def generator_case(rng):
    table = VariableTable.make(
        (f"x{i}", rng.randint(1, 2), GENERATOR) for i in range(rng.randint(1, 3))
    )
    basis = [random_poly(rng, table, max_degree=3, max_terms=3) for _ in range(3)]
    return table, [g for g in basis if g]


def quantum_case(rng):
    if rng.random() < 0.5:
        pres = quantum_cohomology_products(rng.choice([[1], [2], [1, 1], [2, 1], [1, 1, 1]]))
    else:
        values = (0, 1, -1, 2, Fraction(1, 2))
        pres = qsc_presentation_p1p1(
            [rng.choice(values) for _ in range(3)], [rng.choice(values) for _ in range(3)]
        )
    return pres.table, list(pres.relations)


def rabinowitsch_case(rng):
    table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
    gens = [random_poly(rng, table, max_degree=3, max_terms=3) for _ in range(2)]
    gens = [g for g in gens if g] or [Polynomial.variable(table, "x")]
    p = random_poly(rng, table, max_degree=2, max_terms=2)
    if not p:
        p = Polynomial.variable(table, "y")
    flat, extended = rabinowitsch_ideal(p, gens)
    return flat, list(extended)


CASES = {"generator": generator_case, "quantum": quantum_case, "rabinowitsch": rabinowitsch_case}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_packed_kernel_matches_tuple_kernel(kind):
    rng = random.Random(f"kernel/{kind}")
    for _ in range(15):
        table, basis = CASES[kind](rng)
        gb = buchberger(table, basis)
        for _ in range(8):
            a = random_poly(rng, table, max_degree=4, max_terms=5)
            b = random_poly(rng, table, max_degree=4, max_terms=5)
            assert (a * b).terms == tuple_product(a, b)
            for m, _ in (a * b).packed:
                exps = table.unpack(m)
                assert table.weighted_degree(m) == sum(
                    e * w for e, w in zip(exps, table.degrees)
                )
            p = a * b - a
            assert gb.reduce(p) == tuple_normal_form(p, gb.elements, table.block_spans)


def test_int_keys_order_like_tuple_keys():
    rng = random.Random(71)
    for _ in range(300):
        specs = [(f"x{i}", 1, GENERATOR) for i in range(rng.randint(1, 3))]
        specs += [(f"q{i}", 2, INSTANTON) for i in range(rng.randint(0, 2))]
        specs += [(f"e{i}", 1, INSTANTON) for i in range(rng.randint(0, 2))]
        table = VariableTable.make(specs)
        key, spans = rng.choice(
            [(table.term_key, ((0, len(table)),)), (table.block_key, table.block_spans)]
        )
        a, b = (tuple(rng.randint(0, 40) for _ in range(len(table))) for _ in range(2))
        ka, kb = key(table.pack(a)), key(table.pack(b))
        ta, tb = tuple_order_key(spans, a), tuple_order_key(spans, b)
        assert (ka < kb, ka == kb) == (ta < tb, ta == tb)


def exact(p: Polynomial) -> bool:
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for _, c in p.packed
    )


def test_coefficients_stay_exact():
    rng = random.Random(73)
    table = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])
    # integer leading coefficients other than 1: making them monic divides by them
    basis = [
        Polynomial.from_terms(table, [((2, 0), 2), ((0, 1), -3)]),
        Polynomial.from_terms(table, [((1, 1), 3), ((0, 0), -1)]),
    ]
    gb = buchberger(table, basis)
    assert all(exact(g) for g in gb.elements)
    for _ in range(40):
        a = random_poly(rng, table, max_degree=4, max_terms=4)
        b = Polynomial.from_terms(table, [((1, 0), rng.randint(-3, 3)), ((0, 0), 2)])
        for p in (a * b, a - b, a * 2, b * Fraction(1, 2)):
            assert exact(p)
        assert exact(gb.reduce(a * b))


def instanton_table(rng):
    """A random table with at least one generator and one instanton variable."""
    table = random_table(rng)
    while table.block_spans[1][0] == len(table):
        table = random_table(rng)
    return table


def homogeneous_part(p: Polynomial) -> Polynomial:
    """The terms of p in the grading degree of its first term."""
    weighted = p.table.weighted_degree
    top = weighted(p.packed[0][0])
    return Polynomial(p.table, tuple(t for t in p.packed if weighted(t[0]) == top))


def test_classical_limit_matches_truncated_tuples():
    rng = random.Random(79)
    for _ in range(60):
        table = instanton_table(rng)
        stop = table.block_spans[0][1]
        generator_table = VariableTable(table.entries[:stop])
        polys = [random_poly(rng, table, max_degree=4, max_terms=6) for _ in range(3)]
        relations = tuple(homogeneous_part(p) for p in polys if p)
        expected = [
            Polynomial.from_terms(
                generator_table, [(m[:stop], c) for m, c in r.terms if not any(m[stop:])]
            )
            for r in relations
        ]
        limited = classical_limit(RingPresentation(table, relations, "toy"))
        assert limited.table == generator_table
        assert list(limited.relations) == [r for r in expected if r]


def test_rabinowitsch_lift_matches_tuples_with_a_trailing_zero():
    rng = random.Random(83)
    for _ in range(60):
        table = instanton_table(rng)
        gens = [random_poly(rng, table, max_degree=4, max_terms=6) for _ in range(3)]
        p = random_poly(rng, table, max_degree=3, max_terms=4)
        flat, extended = rabinowitsch_ideal(p, gens)
        lifted = [Polynomial.from_terms(flat, [(m + (0,), c) for m, c in g.terms]) for g in gens]
        t = Polynomial.from_terms(flat, [((0,) * len(table) + (1,), 1)])
        p_flat = Polynomial.from_terms(flat, [(m + (0,), c) for m, c in p.terms])
        assert list(extended) == lifted + [1 - t * p_flat]


def test_renamed_qsc_relations_match_the_quantum_table():
    rng = random.Random(89)
    quantum_table = quantum_cohomology_products([1, 1]).table
    values = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    for _ in range(30):
        pres = qsc_presentation_p1p1(
            [rng.choice(values) for _ in range(3)], [rng.choice(values) for _ in range(3)]
        )
        for r in pres.relations:
            assert Polynomial(quantum_table, r.packed) == Polynomial.from_terms(
                quantum_table, r.terms
            )


def test_oracles_import_no_private_names():
    source = (Path(__file__).with_name("oracle_tools.py")).read_text(encoding="utf-8")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qcohom")
        for alias in node.names
    ]
    assert imported
    assert [pair for pair in imported if pair[1].startswith("_")] == []
