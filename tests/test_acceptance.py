"""Acceptance gate: one test per shipping criterion, all assertions exact.

Each test prints a single PASS line on success; a failure shows up as the
usual pytest FAILED line for that criterion.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from qcohom.cli import main, render_output, run_present
from qcohom.expr import parse_poly, render
from qcohom.frobenius import (
    closure_check,
    frobenius_check,
    gram_matrix,
    make_frobenius,
    three_point,
    trace,
)
from qcohom.groebner import buchberger, ideal_member, s_polynomial
from qcohom.jobs import job_from_dict
from qcohom.poly import GENERATOR, Polynomial, VariableTable
from qcohom.rings import (
    DegeneratePresentationError,
    classical_limit,
    presentations_isomorphic_by_renaming,
    quotient_algebra,
)
from qcohom.toric import (
    DeformationMatrix,
    check_bundle_regularity,
    check_omalous,
    chern_of_twisted_sum,
    classical_cohomology_products,
    p1p1_deformation,
    product_projective_toric,
    qsc_presentation_p1p1,
    quantum_cohomology_products,
)

from oracle_tools import (
    irrelevant_generators,
    minors_by_subset,
    qsc_resultant,
    reduce_projective_power,
    tuple_normal_form,
    witness_member,
)
from test_poly import QSC_TABLE, random_poly


def quantum_job(dims):
    return job_from_dict(
        {"variety": {"type": "product_projective", "dims": list(dims)}}
    )


def random_eps_gam(rng):
    eps = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
    gam = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
    return eps, gam


def nondegenerate_draws(rng, count):
    out = []
    while len(out) < count:
        eps, gam = random_eps_gam(rng)
        if qsc_resultant(eps, gam) != 0:
            out.append((eps, gam))
    return out


def basis_polynomial(qa, monomial):
    return Polynomial(qa.presentation.table, ((monomial, 1),))


def test_criterion_1_presentation_fidelity():
    for n in (1, 2, 3, 4):
        data, code = run_present(quantum_job([n]))
        assert code == 0
        assert data["relations"] == [f"H^{n + 1} - q"]
        pres = quantum_cohomology_products([n])
        h = Polynomial.variable(pres.table, "H")
        q = Polynomial.variable(pres.table, "q")
        assert pres.relations == (h ** (n + 1) - q,)
    for n, m in ((1, 1), (1, 2), (2, 2)):
        data, code = run_present(quantum_job([n, m]))
        assert code == 0
        assert data["relations"] == [f"H1^{n + 1} - q1", f"H2^{m + 1} - q2"]
    print("criterion 1 (presentation fidelity): PASS")


def test_criterion_2_qsc_fidelity():
    rng = random.Random(29)
    degenerate_hits = 0
    for _ in range(20):
        eps, gam = random_eps_gam(rng)
        pres = qsc_presentation_p1p1(eps, gam)
        resultant = qsc_resultant(eps, gam)
        try:
            qa = quotient_algebra(pres)
        except DegeneratePresentationError:
            assert resultant == 0
            degenerate_hits += 1
            continue
        assert resultant != 0
        assert len(qa.module_basis) == 4
        for relation in pres.relations:
            assert qa.gb.reduce(relation).is_zero()
    assert degenerate_hits >= 1
    # draws that make the staircase infinite must fail loudly
    for eps, gam in ([(0, 1, 1), (0, 1, 1)], [(1, 0, 0), (1, 0, 0)]):
        with pytest.raises(DegeneratePresentationError, match="degenerate presentation"):
            quotient_algebra(qsc_presentation_p1p1(eps, gam))
    print("criterion 2 (quantum sheaf cohomology fidelity): PASS")


def test_criterion_3_deformation_limit():
    qsc = qsc_presentation_p1p1([0, 0, 0], [0, 0, 0])
    qh = quantum_cohomology_products([1, 1])
    rename = {"psi": "H1", "psit": "H2"}
    assert presentations_isomorphic_by_renaming(qsc, qh, rename)

    qa_qsc = quotient_algebra(qsc)
    qa_qh = quotient_algebra(qh)
    fa_qsc = make_frobenius(qa_qsc, parse_poly("psi*psit", qsc.table), 1)
    fa_qh = make_frobenius(qa_qh, parse_poly("H1*H2", qh.table), 1)
    assert qa_qsc.module_basis == qa_qh.module_basis  # same exponent staircase
    triples = 0
    for ea, eb, ec in itertools.product(qa_qsc.module_basis, repeat=3):
        va = three_point(
            fa_qsc,
            basis_polynomial(qa_qsc, ea),
            basis_polynomial(qa_qsc, eb),
            basis_polynomial(qa_qsc, ec),
        )
        vb = three_point(
            fa_qh,
            basis_polynomial(qa_qh, ea),
            basis_polynomial(qa_qh, eb),
            basis_polynomial(qa_qh, ec),
        )
        assert va.packed == vb.packed  # the renaming maps field i to field i
        triples += 1
    assert triples == 64
    print("criterion 3 (deformation limit to quantum cohomology): PASS")


def test_criterion_4_classical_limit():
    for n in (1, 2, 3, 4):
        limited = classical_limit(quantum_cohomology_products([n]))
        assert [render(r) for r in limited.relations] == [f"H^{n + 1}"]
        qa = quotient_algebra(limited)
        assert qa.graded_dimensions() == (1,) * (n + 1)
    rng = random.Random(47)
    for eps, gam in nondegenerate_draws(rng, 5):
        pres = qsc_presentation_p1p1(eps, gam)
        limited = classical_limit(pres)
        qa = quotient_algebra(limited)
        assert qa.graded_dimensions() == (1, 2, 1)
    print("criterion 4 (classical limit): PASS")


def test_criterion_5_frobenius_suite():
    algebras = []
    qa3 = quotient_algebra(quantum_cohomology_products([3]))
    algebras.append(make_frobenius(qa3, parse_poly("H^3", qa3.presentation.table), 1))
    qa11 = quotient_algebra(quantum_cohomology_products([1, 1]))
    algebras.append(
        make_frobenius(qa11, parse_poly("H1*H2", qa11.presentation.table), 1)
    )
    rng = random.Random(59)
    for eps, gam in nondegenerate_draws(rng, 20):
        qa = quotient_algebra(qsc_presentation_p1p1(eps, gam))
        algebras.append(
            make_frobenius(qa, parse_poly("psi*psit", qa.presentation.table), 1)
        )
    for fa in algebras:
        failures = frobenius_check(fa)
        assert not failures, failures
        assert closure_check(fa)
        assert gram_matrix(fa).determinant.coefficient(0)
    print("criterion 5 (Frobenius suite on 22 algebras): PASS")


def test_criterion_6_correlator_spot_values():
    qa = quotient_algebra(quantum_cohomology_products([2]))
    table = qa.presentation.table
    fa = make_frobenius(qa, parse_poly("H^2", table), 1)

    def oracle_p2(a, b, c):
        # H^k = q^d * H^r with (d, r) = divmod(k, 3); the trace keeps H^2
        d, r = reduce_projective_power(a + b + c, 2)
        if r != 2:
            return Polynomial.zero(table)
        return parse_poly("q", table) ** d

    h = parse_poly("H", table)
    h2 = parse_poly("H^2", table)
    value = three_point(fa, h2, h2, h)
    assert value == parse_poly("q", table)
    assert value == oracle_p2(2, 2, 1)
    value = three_point(fa, h, h, h)
    assert value.is_zero()
    assert value == oracle_p2(1, 1, 1)

    qa0 = quotient_algebra(qsc_presentation_p1p1([0, 0, 0], [0, 0, 0]))
    fa0 = make_frobenius(qa0, parse_poly("psi*psit", qa0.presentation.table), 1)
    top = parse_poly("psi*psit", qa0.presentation.table)
    assert three_point(fa0, top, top, top) == parse_poly(
        "q1*q2", qa0.presentation.table
    )

    qa_def = quotient_algebra(qsc_presentation_p1p1([0, 1, 1], [0, 0, 0]))
    fa_def = make_frobenius(
        qa_def, parse_poly("psi*psit", qa_def.presentation.table), 1
    )
    assert trace(fa_def, parse_poly("psi^2", qa_def.presentation.table)).is_zero()
    print("criterion 6 (correlator spot values): PASS")


def test_criterion_7_groebner_correctness():
    f = parse_poly("psi^2 - q1", QSC_TABLE)
    g = parse_poly("psit^2 - q2", QSC_TABLE)
    s = s_polynomial((f.leading()[0], f), (g.leading()[0], g))
    assert s == parse_poly("q2*psi^2 - q1*psit^2", QSC_TABLE)

    rng = random.Random(61)
    tables = [
        VariableTable.make((f"x{i}", 1, GENERATOR) for i in range(k))
        for k in (1, 2, 3)
    ]
    membership_checks = 0
    for _ in range(100):
        table = rng.choice(tables)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = random_poly(rng, table, max_degree=3, max_terms=3)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            gens = [Polynomial.variable(table, table.names[0])]
        gb = buchberger(table, gens)
        records = gb.leading_terms
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                spoly = s_polynomial(records[i], records[j])
                assert tuple_normal_form(spoly, gb.elements, table.block_spans).is_zero()
        if rng.random() < 0.5:
            p = random_poly(rng, table, max_degree=3, max_terms=3)
        else:
            p = Polynomial.zero(table)
            for g in gens:
                p = p + random_poly(rng, table, max_degree=1, max_terms=2) * g
        assert ideal_member(p, gb) == witness_member(p, gens)
        membership_checks += 1
    assert membership_checks == 100

    basis = (
        parse_poly("psi^2 + psi*psit - q1", QSC_TABLE),
        parse_poly("psit^2 - q2", QSC_TABLE),
    )
    gb = buchberger(QSC_TABLE, basis)
    assert gb.elements == basis  # coprime leading monomials: already reduced
    for _ in range(1000):
        p = random_poly(rng, QSC_TABLE, max_degree=4)
        q = random_poly(rng, QSC_TABLE, max_degree=4)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        np_ = gb.reduce(p)
        nq = gb.reduce(q)
        assert np_ == tuple_normal_form(p, basis, QSC_TABLE.block_spans)
        assert gb.reduce(np_) == np_
        assert gb.reduce(p + c * q) == np_ + c * nq
    print("criterion 7 (Groebner engine correctness): PASS")


def test_criterion_8_toric_bundle_suite():
    toric = product_projective_toric([1, 1])
    euler = toric.euler_matrix
    minors = [render(g) for g in minors_by_subset(euler)]
    irrelevant = [
        render(Polynomial.monomial(toric.coordinate_table, e))
        for e in irrelevant_generators(toric)
    ]
    assert minors == irrelevant

    assert check_bundle_regularity(euler)
    rng = random.Random(83)
    for eps, gam in nondegenerate_draws(rng, 10):
        assert check_bundle_regularity(p1p1_deformation(eps, gam))

    rows = list(euler.entries)
    rows[1] = rows[0]
    assert not check_bundle_regularity(DeformationMatrix(toric, tuple(rows)))

    # a deformation of the tangent bundle keeps its classes: no twists
    bundle, tangent = check_omalous(toric, None)
    assert bundle == tangent
    bundle, tangent = check_omalous(toric, [[1, 0], [1, 0], [0, 1], [1, 1]])
    assert bundle != tangent
    assert render(bundle.c1) == "3*h1 + 2*h2"
    assert render(tangent.c1) == "2*h1 + 2*h2"

    tangent = chern_of_twisted_sum(toric)
    assert render(tangent.c1) == "2*h1 + 2*h2"
    assert render(tangent.c2) == "4*h1*h2"
    plane = chern_of_twisted_sum(product_projective_toric([2]))
    assert render(plane.c1) == "3*h"
    assert render(plane.c2) == "3*h^2"
    print("criterion 8 (toric bundle suite): PASS")


def test_criterion_9_cli_contract(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    ok_job = write(
        "ok.json", {"variety": {"type": "product_projective", "dims": [2]}}
    )
    failing_job = write(
        "failing.json",
        {
            "variety": {"type": "product_projective", "dims": [1, 1]},
            "bundle": {
                "type": "twist_list",
                "classes": [["1", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            },
        },
    )
    malformed_job = write("malformed.json", {"variety": {"type": "weighted"}})
    degenerate_job = write(
        "degenerate.json",
        {
            "variety": {"type": "product_projective", "dims": [1, 1]},
            "ring": "qsc",
            "bundle": {
                "type": "tangent_deformation_p1p1",
                "epsilon": ["0", "1", "1"],
                "gamma": ["0", "1", "1"],
            },
        },
    )

    code, first, err = run(["present", "--input", ok_job])
    assert (code, err) == (0, "")
    code, second, _ = run(["present", "--input", ok_job])
    assert code == 0 and second == first

    code, _, _ = run(["check", "--input", failing_job])
    assert code == 1
    code, _, err = run(["present", "--input", malformed_job])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(["present", "--input", degenerate_job])
    assert code == 3 and "degenerate" in err

    for argv in (["present"], ["correlator", "H^2", "H^2", "H"]):
        base = [argv[0], "--input", ok_job]
        _, text_out, _ = run(base + argv[1:])
        _, json_out, _ = run(base + ["--format", "json"] + argv[1:])
        data = json.loads(json_out)
        assert render_output(data, "text") == text_out
    print("criterion 9 (command-line contract): PASS")
