"""Buchberger, normal forms, and membership against independent oracles."""

import heapq
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qcohom import groebner
from qcohom.expr import parse_poly, render
from qcohom.groebner import (
    buchberger,
    ideal_member,
    rabinowitsch_ideal,
    radical_member,
    s_polynomial,
)
from qcohom.poly import GENERATOR, INSTANTON, Polynomial, VariableTable, monomial_divides
from qcohom.toric import (
    product_projective_toric,
    qsc_presentation_p1p1,
    quantum_cohomology_products,
)

from oracle_tools import (
    irrelevant_generators,
    minors_by_subset,
    tuple_normal_form,
    witness_member,
)
from test_poly import QSC_TABLE, random_poly

XY_TABLE = VariableTable.make([("x", 1, GENERATOR), ("y", 1, GENERATOR)])


def record(g):
    """The (leading monomial, element) record of a monic polynomial."""
    return g.leading()[0], g


def random_ideal(rng, table, max_gens=3, max_degree=3):
    """A few nonzero generators over the table."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        p = random_poly(rng, table, max_degree=max_degree, max_terms=3)
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens = [Polynomial.variable(table, table.names[0])]
    return tuple(gens)


def with_binomial(monomials):
    """The monomial generators and the sum of the first two, a binomial of
    their ideal, so :func:`buchberger` runs its pair loop on them."""
    binomial = monomials[0] + monomials[1]
    assert len(binomial.packed) == 2
    return (*monomials, binomial)


class TestSPolynomial:
    def test_qsc_quadrics(self):
        f = parse_poly("psi^2 - q1", QSC_TABLE)
        g = parse_poly("psit^2 - q2", QSC_TABLE)
        s = s_polynomial(record(f), record(g))
        assert s == parse_poly("q2*psi^2 - q1*psit^2", QSC_TABLE)

    def test_lcm_cancellation(self):
        f = parse_poly("x^2 - 1", XY_TABLE)
        g = parse_poly("x*y - 1", XY_TABLE)
        assert s_polynomial(record(f), record(g)) == parse_poly("x - y", XY_TABLE)

    def test_zero_input_rejected(self):
        x = parse_poly("x", XY_TABLE)
        with pytest.raises(ValueError):
            s_polynomial((0, Polynomial.zero(XY_TABLE)), record(x))


# psi^2 and psit^2 lead: coprime, so the two relations are already a reduced basis
QSC_RELATIONS = (
    parse_poly("psi^2 + psi*psit - q1", QSC_TABLE),
    parse_poly("psit^2 - q2", QSC_TABLE),
)


class TestNormalForm:
    def test_no_term_divisible_by_basis(self):
        rng = random.Random(5)
        gb = buchberger(QSC_TABLE, QSC_RELATIONS)
        assert gb.elements == QSC_RELATIONS
        lms = [lm for lm, _ in gb.leading_terms]
        for _ in range(100):
            p = random_poly(rng, QSC_TABLE, max_degree=5)
            r = gb.reduce(p)
            assert r == tuple_normal_form(p, QSC_RELATIONS, QSC_TABLE.block_spans)
            for m, _ in r.packed:
                assert not any(monomial_divides(QSC_TABLE, lm, m) for lm in lms)

    def test_idempotent_and_linear(self):
        rng = random.Random(8)
        gb = buchberger(QSC_TABLE, QSC_RELATIONS)
        for _ in range(100):
            p = random_poly(rng, QSC_TABLE, max_degree=4)
            q = random_poly(rng, QSC_TABLE, max_degree=4)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            np_ = gb.reduce(p)
            nq = gb.reduce(q)
            assert gb.reduce(np_) == np_
            assert gb.reduce(p + c * q) == np_ + c * nq

    def test_quantum_reduction(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, "instanton")])
        gb = buchberger(table, [parse_poly("H^3 - q", table)])
        assert gb.reduce(parse_poly("H^5", table)) == parse_poly("q*H^2", table)

    def test_reduction_past_the_degree_limit_raises(self):
        # under the block order x leads x - e^200, whose tail has the larger
        # total degree: each step trades one x for e^200
        table = VariableTable.make([("x", 1, GENERATOR), ("e", 1, "instanton")])
        relation = parse_poly("x - e^200", table)
        assert relation.leading() == (table.pack((1, 0)), 1)
        gb = buchberger(table, [relation])
        top = table.max_degree // 200
        assert gb.reduce(parse_poly(f"x^{top}", table)) == Polynomial.monomial(
            table, (0, 200 * top)
        )
        with pytest.raises(ValueError):
            gb.reduce(parse_poly(f"x^{top + 1}", table))

    def test_reduction_past_the_step_bound_raises(self, monkeypatch):
        # H^n takes n // 3 reduction steps and one more for its remainder
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, "instanton")])
        gb = buchberger(table, [parse_poly("H^3 - q", table)])
        monkeypatch.setattr(groebner, "MAX_NORMAL_FORM_STEPS", 3)
        assert gb.reduce(parse_poly("H^8", table)) == parse_poly("q^2*H^2", table)
        with pytest.raises(ValueError, match="^normal form needs more than 3 steps$"):
            gb.reduce(parse_poly("H^9", table))

    def test_one_heap_entry_per_generator_part(self, monkeypatch):
        # on quantum P^2 the three terms of H^3 + q*H^3 + q^2*H^3 share one
        # generator part, and the three terms of their remainder share another
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 3, INSTANTON)])
        gb = buchberger(table, [parse_poly("H^3 - q", table)])
        p = parse_poly("H^3 + q*H^3 + q^2*H^3", table)
        remainder = parse_poly("q + q^2 + q^3", table)
        pops = []

        def counting(heap):
            pops.append(heap[0])
            return heapq.heappop(heap)

        counted = SimpleNamespace(heapify=heapq.heapify, heappush=heapq.heappush, heappop=counting)
        monkeypatch.setattr(groebner, "heapq", counted)
        assert gb.reduce(p) == remainder
        assert len(pops) == 2
        # the step bound still counts terms, 3 + 3
        monkeypatch.setattr(groebner, "MAX_NORMAL_FORM_STEPS", 6)
        assert gb.reduce(p) == remainder
        monkeypatch.setattr(groebner, "MAX_NORMAL_FORM_STEPS", 5)
        with pytest.raises(ValueError, match="^normal form needs more than 5 steps$"):
            gb.reduce(p)

    @pytest.mark.parametrize("case", ["P2xP2", "qsc", "instanton leading monomial"])
    def test_reduce_with_instanton_parts_matches_the_tuple_oracle(self, case):
        if case == "P2xP2":
            presentation = quantum_cohomology_products([2, 2])
            table, relations = presentation.table, presentation.relations
        elif case == "qsc":
            table, relations = QSC_TABLE, QSC_RELATIONS
        else:
            table = VariableTable.make([("H", 1, GENERATOR), ("q", 1, INSTANTON)])
            relations = (parse_poly("q*H^2 - H", table),)
        gb = buchberger(table, relations)
        # a generator-only basis reduces whole generator parts, any other
        # basis one monomial at a time
        generator_only = case != "instanton leading monomial"
        assert gb.mask == (table.generator_mask if generator_only else -1)
        rng = random.Random(f"instanton parts/{case}")
        start, stop = table.block_spans[1]
        shared = 0
        for _ in range(60):
            factor = Polynomial.constant(table, 1)
            for name in table.names[start:stop]:
                factor += rng.randint(-3, 3) * Polynomial.variable(table, name)
            p = random_poly(rng, table, max_degree=5) * factor
            parts = [m & table.generator_mask for m, _ in p.packed]
            shared += len(parts) - len(set(parts))
            assert gb.reduce(p) == tuple_normal_form(p, gb.elements, table.block_spans)
        assert shared > 100  # most inputs have generator parts with several terms

    def test_basis_reduce_matches_normal_form(self, monkeypatch):
        rng = random.Random(13)
        gb = buchberger(QSC_TABLE, QSC_RELATIONS)
        polys = [random_poly(rng, QSC_TABLE, max_degree=4) for _ in range(50)]
        expected = [
            tuple_normal_form(p, gb.elements, QSC_TABLE.block_spans) for p in polys
        ]
        original = Polynomial.leading
        calls = []

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Polynomial, "leading", counting)
        assert [gb.reduce(p) for p in polys] == expected
        # the basis keeps the leading terms buchberger found; reductions find none
        assert not calls


def generator_terms(rng, table, max_degree, max_terms=8):
    """The terms of a random polynomial in the generators alone, and one more
    monomial with coefficient 0, which no normal form counts."""
    stop = table.block_spans[0][1]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(table)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(stop)] += 1
        terms[table.pack(exps)] = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
    terms.setdefault(table.pack([max_degree + 1] + [0] * (len(table) - 1)), 0)
    return tuple(terms.items())


def passes(monkeypatch, bound, reduce) -> bool:
    """Does reduce() finish under a step bound of ``bound``?"""
    monkeypatch.setattr(groebner, "MAX_NORMAL_FORM_STEPS", bound)
    try:
        reduce()
    except ValueError as error:
        assert str(error) == f"normal form needs more than {bound} steps"
        return False
    return True


def heap_steps(monkeypatch, gb, terms) -> int:
    """The steps the heap takes on terms: the least bound it passes, by bisection."""
    def reduce():
        return groebner._normal_form(gb.table, terms, gb.reducers, gb.mask)

    low, high = -1, groebner.MAX_NORMAL_FORM_STEPS
    assert passes(monkeypatch, high, reduce)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if passes(monkeypatch, mid, reduce) else (mid, high)
    return high


def counted_heap(monkeypatch):
    """The calls of groebner._normal_form, recorded from now on."""
    original, calls = groebner._normal_form, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "_normal_form", counting)
    return calls


# x, y, with rules x^2 -> (3/2)*a and y^3 -> -2*b^2: coefficients other than 1
SCALED_TABLE = VariableTable.make(
    [("x", 1, GENERATOR), ("y", 1, GENERATOR), ("a", 1, INSTANTON), ("b", 1, INSTANTON)]
)


class TestClosedFormNormalForm:
    @pytest.mark.parametrize(
        "case", [[1], [3], [1, 2], [2, 2, 1], [1, 1, 1, 1], [3, 1, 2, 1], "qsc", "scaled"]
    )
    def test_matches_the_heap_in_parts_and_steps(self, monkeypatch, case):
        if case == "qsc":  # quantum sheaf cohomology at epsilon = gamma = 0
            gb = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0]).gb
        elif case == "scaled":
            relations = ("x^2 - 3/2*a", "y^3 + 2*b^2")
            gb = buchberger(SCALED_TABLE, [parse_poly(r, SCALED_TABLE) for r in relations])
        else:
            gb = quantum_cohomology_products(case).gb
        assert gb.powers is not None
        heap = groebner._normal_form
        rng = random.Random(f"closed form/{case}")
        for _ in range(12):
            terms = generator_terms(rng, gb.table, max_degree=rng.randint(1, 14))
            steps = heap_steps(monkeypatch, gb, terms)
            calls = counted_heap(monkeypatch)
            assert passes(monkeypatch, steps, lambda: gb.parts(terms))
            assert gb.parts(terms) == heap(gb.table, terms, gb.reducers, gb.mask)
            assert not passes(monkeypatch, steps - 1, lambda: gb.parts(terms))
            assert not calls
            monkeypatch.undo()

    def test_other_bases_and_inputs_stay_on_the_heap(self, monkeypatch):
        def basis(names, relations):
            table = VariableTable.make(
                [(n, 1, GENERATOR) for n in names[0]] + [(n, 1, INSTANTON) for n in names[1]]
            )
            return buchberger(table, [parse_poly(r, table) for r in relations])

        quantum = quantum_cohomology_products([1, 1, 1]).gb
        instanton_input = parse_poly("(H1+q1)^3*(H2+H3)^2", quantum.table)
        cases = [
            (quantum, instanton_input),
            (qsc_presentation_p1p1([1, 2, -1], [Fraction(1, 2), 3, -2]).gb, None),
            # a tail of higher total degree than its leading monomial
            (basis((["x"], ["e"]), ["x - e^200"]), None),
            # two tails on the same instanton variable
            (basis((["x", "y"], ["q"]), ["x^2 - q", "y^2 - q"]), None),
            # a constant tail
            (basis((["x"], []), ["x^2 - 1"]), None),
            (basis((["x"], []), ["x^3"]), None),  # a classical monomial basis
        ]
        rng = random.Random(41)
        for gb, p in cases:
            assert (gb.powers is None) == (p is None)
            terms = p.packed if p else generator_terms(rng, gb.table, max_degree=6)
            expected = groebner._normal_form(gb.table, terms, gb.reducers, gb.mask)
            calls = counted_heap(monkeypatch)
            assert gb.parts(terms) == expected
            assert len(calls) == 1
            monkeypatch.undo()

    def test_instanton_term_after_a_long_prefix_stays_on_the_heap(self, monkeypatch):
        # a is in the ideal, so NF(a*b) = 0 in 301 heap steps; the 301
        # instanton-free terms of a*b alone count 45,602 closed-form steps,
        # past the bound, and they come first here
        gb = quantum_cohomology_products([1, 1]).gb
        table = gb.table
        a, b = (parse_poly(s, table) for s in ("H1^2 - q1", "(H1+H2)^300"))
        terms = sorted((a * b).packed, key=lambda t: bool(t[0] & ~table.generator_mask))
        assert not terms[0][0] & ~table.generator_mask
        expected = groebner._normal_form(table, terms, gb.reducers, gb.mask)
        calls = counted_heap(monkeypatch)
        assert gb.parts(terms) == expected
        assert len(calls) == 1
        assert not gb.reduce(a * b)


class TestBuchberger:
    def test_no_generators_give_empty_basis(self):
        gb = buchberger(XY_TABLE, ())
        assert gb.elements == ()
        assert gb.reduce(parse_poly("x*y + 1", XY_TABLE)) == parse_poly("x*y + 1", XY_TABLE)

    def test_quantum_projective_singleton(self):
        table = VariableTable.make([("H", 1, GENERATOR), ("q", 4, "instanton")])
        gb = buchberger(table, [parse_poly("H^4 - q", table)])
        assert [render(g) for g in gb.elements] == ["H^4 - q"]

    def test_qsc_coprime_leading_monomials_unchanged(self):
        pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        gb = buchberger(pres.table, pres.relations)
        assert [render(g) for g in gb.elements] == ["psi^2 - q1", "psit^2 - q2"]

    def test_qsc_eps100_gam0_hand_oracle(self):
        pres = qsc_presentation_p1p1([1, 0, 0], [0, 0, 0])
        gb = buchberger(pres.table, pres.relations)
        assert [render(g) for g in gb.elements] == [
            "psi^2 + psi*psit - q1",
            "psit^2 - q2",
        ]

    def test_qsc_eps100_gam100_hand_oracle(self):
        # hand Buchberger: S(g1,g2) gives psi*q2 - psit*q1, then
        # S(g1,g3) reduces to psit^2*q1 + psit^2*q2 - q2^2, all later
        # S-pairs reduce to zero; interreduction rewrites g1 by g2
        pres = qsc_presentation_p1p1([1, 0, 0], [1, 0, 0])
        gb = buchberger(pres.table, pres.relations)
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
        gb = buchberger(pres.table, pres.relations)
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
            gb = buchberger(table, random_ideal(rng, table))
            records = gb.leading_terms
            for i in range(len(records)):
                for j in range(i + 1, len(records)):
                    s = s_polynomial(records[i], records[j])
                    assert tuple_normal_form(s, gb.elements, table.block_spans).is_zero()

    def test_generators_reduce_to_zero(self):
        rng = random.Random(19)
        for _ in range(25):
            gens = random_ideal(rng, XY_TABLE)
            gb = buchberger(XY_TABLE, gens)
            for g in gens:
                assert tuple_normal_form(g, gb.elements, XY_TABLE.block_spans).is_zero()

    def test_permutation_invariance(self):
        rng = random.Random(29)
        for _ in range(20):
            gens = list(random_ideal(rng, XY_TABLE))
            gb = buchberger(XY_TABLE, gens)
            rng.shuffle(gens)
            assert gb.elements == buchberger(XY_TABLE, gens).elements

    def test_basis_monic_and_sorted(self):
        rng = random.Random(31)
        for _ in range(20):
            gb = buchberger(QSC_TABLE, random_ideal(rng, QSC_TABLE))
            leads = [g.leading() for g in gb.elements]
            keys = [QSC_TABLE.block_key(lm) for lm, _ in leads]
            assert keys == sorted(keys, reverse=True)
            assert all(lc == 1 for _, lc in leads)
            assert [lm for lm, _ in gb.leading_terms] == [lm for lm, _ in leads]


    def test_pair_selection_work_is_bounded(self, monkeypatch):
        matrix = product_projective_toric([2, 2, 1]).euler_matrix
        toric = matrix.toric
        generator = Polynomial.monomial(
            toric.coordinate_table, irrelevant_generators(toric)[0]
        )
        flat, extended = rabinowitsch_ideal(generator, minors_by_subset(matrix))
        original = groebner.monomial_lcm
        calls = []

        def counting(table, a, b):
            calls.append(a)
            return original(table, a, b)

        monkeypatch.setattr(groebner, "monomial_lcm", counting)
        gb = buchberger(flat, extended)
        assert gb.elements == (Polynomial.constant(flat, 1),)
        # one lcm per pair formed and per S-polynomial: 196 calls; choosing
        # each pair by a scan of all pending lcms took 18,227
        assert len(calls) <= 1000

    def test_leading_terms_found_once_per_element(self, monkeypatch):
        matrix = product_projective_toric([2, 2, 2]).euler_matrix
        minors = minors_by_subset(matrix)
        original = Polynomial.leading
        calls = []
        records = []

        def counting(self):
            calls.append(self)
            return original(self)

        def recording(g):
            records.append(g)
            return original_record(g)

        original_record = groebner._monic_record
        monkeypatch.setattr(Polynomial, "leading", counting)
        monkeypatch.setattr(groebner, "_monic_record", recording)
        gb = buchberger(matrix.toric.coordinate_table, minors)
        assert len(gb.elements) == 27
        assert len(gb.leading_terms) == 27
        # once per record: S-polynomials take their leading terms from the
        # records (189 calls when each found both again), and so does the
        # finished basis
        assert len(calls) <= len(records)

    def test_chain_criterion_keeps_s_polynomial_counts(self, monkeypatch):
        original = groebner.s_polynomial
        calls = []

        def counting(a, b):
            calls.append(a)
            return original(a, b)

        monkeypatch.setattr(groebner, "s_polynomial", counting)
        counts = []
        matrix = product_projective_toric([2, 2, 2]).euler_matrix
        minors = with_binomial(minors_by_subset(matrix))
        assert len(buchberger(matrix.toric.coordinate_table, minors).elements) == 27
        counts.append(len(calls))
        qsc = qsc_presentation_p1p1([1, 2, -1], [Fraction(1, 2), 3, -2])
        for generators in (
            qsc.relations,
            rabinowitsch_ideal(Polynomial.variable(qsc.table, "psi"), qsc.relations)[1],
        ):
            calls.clear()
            buchberger(generators[0].table, generators)
            counts.append(len(calls))
        # the counts of the scan that looked up both companion pairs before
        # testing divisibility: the criterion prunes the same pairs
        assert counts == [82, 3, 9]

    def test_duplicate_generators_are_dropped(self, monkeypatch):
        # equal up to a scalar, a generator forms no pairs of its own; the
        # first occurrences keep their order, so the run is the same
        original = groebner.s_polynomial
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(groebner, "s_polynomial", counting)
        f, g = qsc_presentation_p1p1([1, 2, -1], [Fraction(1, 2), 3, -2]).relations
        gb = buchberger(f.table, [f, g])
        distinct = list(calls)
        calls.clear()
        assert buchberger(f.table, [f, 2 * f, g, f, -3 * g, g]) == gb
        assert calls == distinct
        with pytest.raises(ValueError, match="nonzero"):
            buchberger(f.table, [f, f, Polynomial.zero(f.table)])

    def test_duplicates_are_found_without_hashing_the_table(self, monkeypatch):
        # the 256 coordinates of P^255, three of them twice: hashing a whole
        # record would hash the 256-variable table once per element
        minors = minors_by_subset(product_projective_toric([255]).euler_matrix)
        table = minors[0].table
        original = VariableTable.__hash__
        calls = []

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(VariableTable, "__hash__", counting)
        gb = buchberger(table, minors + minors[:3])
        assert len(minors) == len(gb.elements) == 256
        assert calls == []

    def test_monomial_ideals_form_no_s_pair(self, monkeypatch):
        original = groebner.s_polynomial
        calls = []

        def counting(a, b):
            calls.append(a)
            return original(a, b)

        monkeypatch.setattr(groebner, "s_polynomial", counting)
        normal_form = groebner._normal_form
        reductions = []

        def counting_reductions(*args):
            reductions.append(args)
            return normal_form(*args)

        monkeypatch.setattr(groebner, "_normal_form", counting_reductions)
        for dims in ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2]):
            minors = minors_by_subset(product_projective_toric(dims).euler_matrix)
            table = minors[0].table
            calls.clear()
            reductions.clear()
            gb = buchberger(table, minors)
            assert not calls
            # a monomial ideal's minimal generators are reduced as they stand
            assert not reductions
            # the full run, forced by a binomial of the ideal, agrees
            assert buchberger(table, with_binomial(minors)) == gb
            assert calls
        # non-minimal generators with coefficients: x*y and y^2*x are
        # multiples of 3*x
        x, y = (Polynomial.variable(XY_TABLE, v) for v in "xy")
        gb = buchberger(XY_TABLE, [x * y, 3 * x, y * y * x, 2 * y**3])
        assert [render(g) for g in gb.elements] == ["y^3", "x"]
        assert buchberger(XY_TABLE, [x * y, 3 * x, 2 * y**3, x + y**3]) == gb


class TestPurePowers:
    def test_least_pure_power_of_each_variable(self):
        x, y = (Polynomial.variable(XY_TABLE, v) for v in "xy")
        assert buchberger(XY_TABLE, [x * x, x * y, y**3]).pure_powers == (2, 3)
        assert buchberger(XY_TABLE, [x * x, x * y]).pure_powers == (2, None)
        assert buchberger(XY_TABLE, [x + y]).pure_powers == (1, None)
        # the unit is no pure power; of two powers of x the lesser counts
        assert buchberger(XY_TABLE, [x**0]).pure_powers == (None, None)
        cube, square = x**3, x * x
        records = ((cube.leading()[0], cube), (square.leading()[0], square))
        assert groebner.GroebnerBasis(XY_TABLE, records).pure_powers == (2, None)

    def test_instanton_variables_have_fields_too(self):
        gb = quantum_cohomology_products([1, 2]).gb  # H1^2 - q1, H2^3 - q2
        assert gb.pure_powers == (2, 3, None, None)


class TestIdealMember:
    def test_spot_membership(self):
        pres = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
        gb = buchberger(pres.table, pres.relations)
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
            gens = random_ideal(rng, table, max_gens=2, max_degree=3)
            gb = buchberger(table, gens)
            if rng.random() < 0.5:
                p = random_poly(rng, table, max_degree=3, max_terms=3)
            else:
                p = Polynomial.zero(table)
                for g in gens:
                    p = p + random_poly(rng, table, max_degree=1, max_terms=2) * g
            assert ideal_member(p, gb) == witness_member(p, list(gens))


class TestRadicalMember:
    def test_powers_in_radical(self):
        x = parse_poly("x", XY_TABLE)
        gens = (parse_poly("x^2", XY_TABLE),)
        assert radical_member(x, gens)
        assert not ideal_member(x, buchberger(XY_TABLE, gens))
        assert not radical_member(parse_poly("y", XY_TABLE), gens)

    def test_monomial_ideal(self):
        table = VariableTable.make(
            (f"x{i}", 1, GENERATOR) for i in range(4)
        )
        gens = tuple(
            parse_poly(t, table) for t in ("x0*x2", "x0*x3", "x1*x2", "x1*x3")
        )
        for t in ("x0*x2", "x1*x3", "x0*x3"):
            assert radical_member(parse_poly(t, table), gens)
        # x0*x1 does not vanish on x0 = x2 = 0 with x1, x3 free
        assert not radical_member(parse_poly("x0*x1", table), gens)

    def test_zero_and_fresh_variable_name(self):
        table = VariableTable.make([("t", 1, GENERATOR)])
        gens = (parse_poly("t^3", table),)
        assert radical_member(Polynomial.zero(table), gens)
        assert radical_member(parse_poly("t", table), gens)

    def test_all_generator_tables_order_by_degrevlex(self):
        # minors and Rabinowitsch bases live on all-generator tables, where
        # the block order is degrevlex over the whole table
        matrix = product_projective_toric([2, 1]).euler_matrix
        table = matrix.toric.coordinate_table
        p = Polynomial.monomial(table, irrelevant_generators(matrix.toric)[0])
        flat, _ = rabinowitsch_ideal(p, minors_by_subset(matrix))
        qsc_flat, _ = rabinowitsch_ideal(parse_poly("psi*q1", QSC_TABLE), QSC_RELATIONS)
        for t in (table, flat, qsc_flat):
            assert t.block_key is t.term_key
        # a table with instanton variables has two different orders
        psi, q1_squared = QSC_TABLE.pack((1, 0, 0, 0)), QSC_TABLE.pack((0, 0, 2, 0))
        assert QSC_TABLE.block_key(psi) > QSC_TABLE.block_key(q1_squared)
        assert QSC_TABLE.term_key(psi) < QSC_TABLE.term_key(q1_squared)
