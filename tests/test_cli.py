"""Command-line contract: output formats, exit codes, and job handling."""

import gc
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qcohom
from qcohom import cli, groebner, jobs, rings, toric
from qcohom.cli import main, render_output

from oracle_tools import build_parser
from output_digests import load_workloads


def job_doc(dims, ring="quantum", bundle=None, trace=None, queries=None):
    doc = {"variety": {"type": "product_projective", "dims": dims}, "ring": ring}
    if bundle is not None:
        doc["bundle"] = bundle
    if trace is not None:
        doc["trace"] = trace
    if queries is not None:
        doc["queries"] = queries
    return doc


def qsc_doc(eps, gam, **kwargs):
    return job_doc(
        [1, 1],
        ring="qsc",
        bundle={"type": "tangent_deformation_p1p1", "epsilon": eps, "gamma": gam},
        **kwargs,
    )


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def child_env():
    """The environment with the package's src directory first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module, name):
    """Record the calls of module.name through every qcohom binding of it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for m in (qcohom, cli, groebner, jobs, rings, toric):
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counting)
    return calls


class TestPresent:
    def test_text_output(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, out, err = run_cli(capsys, ["present", "--input", path])
        assert code == 0
        assert err == ""
        assert out == (
            "presentation: quantum cohomology of P^2\n"
            "variables: H (degree 1, generator), q (degree 3, instanton)\n"
            "relations:\n"
            "  H^3 - q\n"
            "module basis: 1, H, H^2\n"
            "graded dimensions: 1 1 1\n"
        )

    def test_json_output(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([1, 1]))
        code, out, _ = run_cli(
            capsys, ["present", "--input", path, "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "present"
        assert data["variety"] == "P^1 x P^1"
        assert data["relations"] == ["H1^2 - q1", "H2^2 - q2"]
        assert data["module_basis"] == ["1", "H2", "H1", "H1*H2"]
        assert data["graded_dimensions"] == [1, 2, 1]
        assert data["variables"][0] == {
            "name": "H1",
            "degree": 1,
            "block": "generator",
        }

    def test_degenerate_presentation_exits_3(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["0", "1", "1"], ["0", "1", "1"]))
        code, out, err = run_cli(capsys, ["present", "--input", path])
        assert code == 3
        assert out == ""
        assert err == "error: degenerate presentation\n"


class TestCorrelator:
    def test_arguments_and_coefficients(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, out, _ = run_cli(
            capsys,
            ["correlator", "--input", path, "--format", "json", "2/2*H^2", "H^2", "H"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["inputs"] == ["H^2", "H^2", "H"]
        assert data["value"] == "q"
        assert data["instanton_variables"] == ["q"]
        assert data["coefficients"] == [{"beta": [1], "coefficient": "1"}]

    def test_multi_degree_coefficients_sorted(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["1", "0", "0"], ["0", "0", "0"]))
        code, out, _ = run_cli(
            capsys,
            ["correlator", "--input", path, "--format", "json", "psi", "psi", "psi*psit"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "q1 + q2"
        assert data["coefficients"] == [
            {"beta": [0, 1], "coefficient": "1"},
            {"beta": [1, 0], "coefficient": "1"},
        ]

    def test_queries_fallback_matches_arguments(self, tmp_path, capsys):
        inputs = ["psi*psit", "psi*psit", "psi*psit"]
        with_queries = write_job(
            tmp_path,
            qsc_doc(
                ["0", "0", "0"],
                ["0", "0", "0"],
                queries=[{"command": "correlator", "inputs": inputs}],
            ),
            name="with_queries.json",
        )
        plain = write_job(
            tmp_path, qsc_doc(["0", "0", "0"], ["0", "0", "0"]), name="plain.json"
        )
        code_a, out_a, _ = run_cli(capsys, ["correlator", "--input", with_queries])
        code_b, out_b, _ = run_cli(capsys, ["correlator", "--input", plain] + inputs)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "value: q1*q2" in out_a

    def test_arguments_override_queries_entry(self, tmp_path, capsys):
        path = write_job(
            tmp_path,
            job_doc([2], queries=[{"command": "correlator", "inputs": ["1", "1", "H^2"]}]),
        )
        code, out, _ = run_cli(capsys, ["correlator", "--input", path, "H", "H^2", "H^2"])
        assert code == 0
        assert out.startswith("correlator <H, H^2, H^2>\nvalue: q\n")
        code, out, _ = run_cli(capsys, ["correlator", "--input", path])
        assert out.startswith("correlator <1, 1, H^2>\nvalue: 1\n")

    def test_wrong_argument_count(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, out, err = run_cli(capsys, ["correlator", "--input", path, "H", "H"])
        assert code == 2
        assert "three expressions" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, _, err = run_cli(capsys, ["correlator", "--input", path, "H", "H", "H$"])
        assert code == 2
        assert err.startswith("error:")
        assert "position" in err

    def test_non_ascii_digit_exits_2(self, tmp_path, capsys):
        # a fullwidth 3 is no exponent: every number in a job is ASCII
        path = write_job(tmp_path, job_doc([2]))
        code, out, err = run_cli(capsys, ["correlator", "--input", path, "H^\uff13", "H", "1"])
        assert (code, out) == (2, "")
        assert err == "error: unexpected character '\uff13' (at position 2)\n"

    def test_deep_nesting_exits_2(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([1]))
        deep = "(" * 5000 + "H" + ")" * 5000
        code, out, err = run_cli(capsys, ["correlator", "--input", path, deep, "H", "1"])
        assert (code, out) == (2, "")
        assert err == "error: parentheses nested deeper than 100 levels (at position 100)\n"
        # a large exponent is refused before any multiplication
        code, out, err = run_cli(
            capsys, ["correlator", "--input", path, "H^3000000", "H", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: exponent larger than 1000 (at position 2)\n"
        # so is a nested power whose degree exceeds the bound
        code, out, err = run_cli(
            capsys, ["correlator", "--input", path, "((H^1000)^1000)^1000", "H", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: total degree 1000000 larger than 1000 (at position 9)\n"
        # a unary minus chain parses without recursion: tr((-1)^5000 * H^3) = q
        minus = "-" * 5000 + "H"
        query = {"command": "correlator", "inputs": [minus, "H", "H"]}
        path = write_job(tmp_path, job_doc([1], queries=[query]))
        code, out, _ = run_cli(capsys, ["correlator", "--input", path])
        assert code == 0
        assert "value: q\n" in out

    def test_dense_power_exits_2(self, tmp_path, capsys):
        # 324,632 terms if expanded; only the string is built
        path = write_job(tmp_path, job_doc([1] * 6))
        code, out, err = run_cli(
            capsys, ["correlator", "--input", path, "(H1+H2+H3+H4+H5+H6)^30", "H1", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: expression needs more than 100000 term products (at position 19)\n"

    def test_product_over_term_budget_exits_2(self, tmp_path, capsys):
        # each input parses to 816 terms; a*b would take 816^2 = 665,856 term
        # products and is refused before it is multiplied
        path = write_job(tmp_path, job_doc([1] * 8))
        s = "(" + "+".join(f"H{i}+q{i}" for i in range(1, 9)) + ")^3"
        code, out, err = run_cli(capsys, ["correlator", "--input", path, s, s, s])
        assert (code, out) == (2, "")
        assert err == "error: correlator needs 665856 term products for a*b, more than 100000\n"

    def test_long_qsc_reductions_exit_2(self, tmp_path):
        # each input parses within its budget, but reducing it on the qsc ring
        # runs past the normal-form bound; unbounded, each took 30 s or more
        path = write_job(tmp_path, qsc_doc(["1", "2", "3"], ["1", "1", "1"]))
        children = [
            subprocess.Popen(
                [sys.executable, "-m", "qcohom.cli", "correlator", "--input", path, *inputs],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
            )
            for inputs in (
                ["psi^1000", "1", "1"], ["psi^500", "psit^500", "1"], ["(psi+psit)^300", "1", "1"]
            )
        ]
        try:
            results = [(child.communicate(timeout=20), child.returncode) for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait()
        for (out, err), code in results:
            assert (code, out) == (2, "")
            assert err == "error: normal form needs more than 25000 steps\n"

    def test_overlong_literal_exits_2(self, tmp_path, capsys):
        # a literal past MAX_DIGITS (4,300); only the string is built
        path = write_job(tmp_path, job_doc([1]))
        code, out, err = run_cli(
            capsys, ["correlator", "--input", path, "9" * 5000 + "*H", "H", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: integer literal of 5000 digits is too long (at position 0)\n"


class TestPairing:
    def test_text_output(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([1]))
        code, out, _ = run_cli(capsys, ["pairing", "--input", path])
        assert code == 0
        assert out == (
            "pairing matrix on module basis: 1, H\n"
            "  [0, 1]\n"
            "  [1, 0]\n"
            "determinant: -1\n"
            "constant term: -1\n"
            "nondegenerate: yes\n"
        )

    def test_explicit_trace_normalization(self, tmp_path, capsys):
        path = write_job(
            tmp_path, job_doc([1], trace={"reference": "2*H", "value": "1"})
        )
        code, out, _ = run_cli(
            capsys, ["pairing", "--input", path, "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["matrix"] == [["0", "1/2"], ["1/2", "0"]]
        assert data["determinant"] == "-1/4"

    def test_determinant_denominator_at_the_digit_bound(self, tmp_path, capsys):
        # on P^1 the Gram determinant is -t^2: a denominator of 10^2150 gives
        # one of 10^4300, a digit past MAX_DIGITS, and (10^2150 - 1)^2 has
        # exactly 4,300 digits; the child lifts Python's own digit limit, so
        # only the CLI's bound can refuse there
        refused = "1/1" + "0" * 2150
        printed = "1/" + "9" * 2150
        denominator = str((10**2150 - 1) ** 2)
        assert len(denominator) == 4300
        expected = {
            refused: (2, "", "error: the Gram determinant is too long to print\n"),
            printed: (0, (
                f"pairing matrix on module basis: 1, H\n  [0, {printed}]\n  [{printed}, 0]\n"
                f"determinant: -1/{denominator}\nconstant term: -1/{denominator}\n"
                "nondegenerate: yes\n"
            ), ""),
        }
        for value, result in expected.items():
            path = write_job(tmp_path, job_doc([1], trace={"reference": "H", "value": value}))
            assert run_cli(capsys, ["pairing", "--input", path]) == result
            assert run_module(["pairing", "--input", path]) == result

    def test_degenerate_trace_exits_3(self, tmp_path, capsys):
        path = write_job(
            tmp_path, job_doc([1, 1], trace={"reference": "q1", "value": "1"})
        )
        code, _, err = run_cli(capsys, ["pairing", "--input", path])
        assert code == 3
        assert "vanishes at q = 0" in err

    def test_zero_trace_value_exits_3(self, tmp_path, capsys):
        path = write_job(
            tmp_path, job_doc([1, 1], trace={"reference": "H1*H2", "value": "0"})
        )
        for argv in (["pairing"], ["check"], ["correlator", "H1", "H2", "1"]):
            code, out, err = run_cli(capsys, [argv[0], "--input", path] + argv[1:])
            assert (code, out) == (3, "")
            assert err == "error: trace degenerate: trace value is zero\n"


class TestCheck:
    def test_tangent_bundle_passes(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([1, 1], bundle={"type": "tangent"}))
        code, out, _ = run_cli(capsys, ["check", "--input", path, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert [c["name"] for c in data["checks"]] == [
            "deformation_validation",
            "bundle_regularity",
            "omalous",
            "frobenius",
            "closure",
            "gram_nondegenerate",
        ]
        assert all(c["passed"] for c in data["checks"])

    def test_qsc_deformation_passes(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["1", "0", "0"], ["0", "1", "-1/2"]))
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        assert "all passed: yes" in out

    @pytest.mark.parametrize("ring", ["quantum", "classical"])
    def test_non_bundle_deformation_fails_regularity_alone(self, tmp_path, capsys, ring):
        # eps = gam = (0, 1, 1): the sigma-determinants s0^2 - s1^2 and
        # s1^2 - s0^2 share the zeros s0 = +-s1, so the matrix drops rank
        # off the irrelevant locus
        bundle = {"type": "tangent_deformation_p1p1", "epsilon": ["0", "1", "1"],
                  "gamma": ["0", "1", "1"]}
        path = write_job(tmp_path, job_doc([1, 1], ring=ring, bundle=bundle))
        code, out, _ = run_cli(capsys, ["check", "--input", path, "--format", "json"])
        assert code == 1
        data = json.loads(out)
        assert data["all_passed"] is False
        assert {c["name"]: c["passed"] for c in data["checks"]} == {
            "deformation_validation": True,
            "bundle_regularity": False,
            "omalous": True,
            "frobenius": True,
            "closure": True,
            "gram_nondegenerate": True,
        }

    def test_builds_toric_data_and_quotient_once(self, tmp_path, capsys, monkeypatch):
        toric_calls = count_calls(monkeypatch, toric, "product_projective_toric")
        quotient_calls = count_calls(monkeypatch, rings, "quotient_algebra")
        path = write_job(tmp_path, job_doc([2, 2]))
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        assert out.endswith("all passed: yes\n")
        assert (len(toric_calls), len(quotient_calls)) == (1, 1)

    @pytest.mark.parametrize("bundle, runs", [("twist_list", 1), ("tangent", 2), ("qsc", 2)])
    def test_check_runs_buchberger(self, tmp_path, capsys, monkeypatch, bundle, runs):
        # the quotient's basis, and for a deformation the bundle regularity
        # test's; the Chern classes are truncated, not reduced
        gb_calls = count_calls(monkeypatch, groebner, "buchberger")
        classes = [["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"], ["0", "1"]]
        doc = {
            "twist_list": job_doc([1, 2], bundle={"type": "twist_list", "classes": classes}),
            "tangent": job_doc([1, 2], bundle={"type": "tangent"}),
            "qsc": qsc_doc(["1", "0", "0"], ["0", "1", "-1/2"]),
        }[bundle]
        code, out, _ = run_cli(capsys, ["check", "--input", write_job(tmp_path, doc)])
        assert code == 0
        assert out.endswith("all passed: yes\n")
        assert len(gb_calls) == runs

    @pytest.mark.parametrize(
        "argv, doc, determinants",
        [
            (["check"], job_doc([2, 2, 2]), 3),
            (["check"], qsc_doc(["1", "0", "0"], ["0", "1", "-1/2"]), 2),
            (["limit", "classical"], job_doc([2, 2, 2, 2]), 4),
        ],
        ids=["check-P2xP2xP2", "check-qsc", "limit-classical-P2xP2xP2xP2"],
    )
    def test_builds_each_matrix_and_its_determinants_once(
        self, tmp_path, capsys, monkeypatch, argv, doc, determinants
    ):
        # one deformation matrix per job, one determinant per factor block,
        # read by the regularity check and by every ring of the job; the
        # default trace is built from the dims, not parsed from text
        determinant_calls = count_calls(monkeypatch, toric, "determinant")
        parses = count_calls(monkeypatch, jobs, "parse_poly")
        builds, validate = [], toric.DeformationMatrix._validate
        monkeypatch.setattr(
            toric.DeformationMatrix, "_validate", lambda m: builds.append(m) or validate(m)
        )
        code, _, _ = run_cli(capsys, [*argv, "--input", write_job(tmp_path, doc)])
        assert code == 0
        assert (len(determinant_calls), len(builds), len(parses)) == (determinants, 1, 0)

    def test_long_twist_list_fails_with_exit_1(self, tmp_path, capsys):
        # 200 rows of (1, 2, 3) on (P^1)^3: c1 = 200*h1 + 400*h2 + 600*h3
        classes = [["1", "2", "3"]] * 200
        doc = job_doc([1, 1, 1], bundle={"type": "twist_list", "classes": classes})
        path = write_job(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["check", "--input", path, "--format", "json"])
        assert code == 1
        names = {c["name"]: c for c in json.loads(out)["checks"]}
        assert names["omalous"]["passed"] is False
        assert "bundle c1: 200*h1 + 400*h2 + 600*h3" in names["omalous"]["details"]

    def test_altered_twists_fail_with_exit_1(self, tmp_path, capsys):
        doc = job_doc(
            [1, 1],
            bundle={
                "type": "twist_list",
                "classes": [["1", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            },
        )
        path = write_job(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["check", "--input", path, "--format", "json"])
        assert code == 1
        data = json.loads(out)
        assert data["all_passed"] is False
        names = {c["name"]: c for c in data["checks"]}
        assert "deformation_validation" not in names
        assert names["omalous"]["passed"] is False
        assert "bundle c1: 3*h1 + 2*h2" in names["omalous"]["details"]
        assert "tangent c1: 2*h1 + 2*h2" in names["omalous"]["details"]
        assert names["gram_nondegenerate"]["passed"] is True

    def test_altered_twists_text_reports_failure(self, tmp_path, capsys):
        doc = job_doc(
            [1, 1],
            bundle={
                "type": "twist_list",
                "classes": [["1", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            },
        )
        path = write_job(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 1
        assert "omalous: FAIL" in out
        assert "all passed: no" in out


class TestLimit:
    def test_classical_limit_of_quantum(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "classical"])
        assert code == 0
        assert out == (
            "limit (classical) of quantum cohomology of P^2\n"
            "relations:\n"
            "  H^3\n"
            "graded dimensions: 1 1 1\n"
            "target: classical cohomology of P^2\n"
            "isomorphic: yes\n"
        )

    def test_classical_limit_of_qsc_has_no_target(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["1", "0", "0"], ["0", "0", "0"]))
        code, out, _ = run_cli(
            capsys, ["limit", "--input", path, "classical", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["relations"] == ["psi^2 + psi*psit", "psit^2"]
        assert data["target"] is None
        assert data["isomorphic"] is None

    @pytest.mark.parametrize(
        "doc",
        [job_doc([2, 2]), job_doc([1, 1], ring="classical")],
        ids=["quantum", "classical"],
    )
    def test_classical_limit_runs_two_buchbergers(
        self, tmp_path, capsys, monkeypatch, doc
    ):
        gb_calls = count_calls(monkeypatch, groebner, "buchberger")
        path = write_job(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "classical"])
        assert code == 0
        assert "isomorphic: yes" in out
        # the limit's basis and the target's; the renamed ring reuses the
        # limit's basis
        assert len(gb_calls) == 2

    def test_undeform_identifies_quantum_p1p1(self, tmp_path, capsys, monkeypatch):
        gb_calls = count_calls(monkeypatch, groebner, "buchberger")
        path = write_job(tmp_path, qsc_doc(["0", "0", "0"], ["0", "0", "0"]))
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "undeform"])
        assert code == 0
        assert "renaming: psi -> H1, psit -> H2" in out
        assert "isomorphic: yes" in out
        # the quotient's basis and the target's; the renamed ring reuses the
        # quotient's basis, re-tagged with the target's table
        assert len(gb_calls) == 2

    def test_undeform_detects_deformed_ring(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["1", "0", "0"], ["0", "0", "0"]))
        code, out, _ = run_cli(
            capsys, ["limit", "--input", path, "undeform", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["isomorphic"] is False

    def test_undeform_of_generic_draw_runs_two_buchbergers(
        self, tmp_path, capsys, monkeypatch
    ):
        gb_calls = count_calls(monkeypatch, groebner, "buchberger")
        path = write_job(tmp_path, qsc_doc(["1", "2", "3"], ["1/2", "-1", "2"]))
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "undeform"])
        assert code == 0
        assert "isomorphic: no" in out
        # the quotient's basis and the target's
        assert len(gb_calls) == 2

    def test_undeform_requires_qsc(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, _, err = run_cli(capsys, ["limit", "--input", path, "undeform"])
        assert code == 2
        assert "qsc" in err

    def test_mode_from_queries(self, tmp_path, capsys):
        path = write_job(
            tmp_path, job_doc([2], queries=[{"command": "limit", "mode": "classical"}])
        )
        code, out, _ = run_cli(capsys, ["limit", "--input", path])
        assert code == 0
        assert out.startswith("limit (classical)")

    def test_argument_overrides_queries_mode(self, tmp_path, capsys):
        doc = qsc_doc(
            ["0", "0", "0"],
            ["0", "0", "0"],
            queries=[{"command": "limit", "mode": "classical"}],
        )
        path = write_job(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "undeform"])
        assert code == 0
        assert out.startswith("limit (undeform)")
        assert "isomorphic: yes" in out

    def test_missing_mode_exits_2(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        code, _, err = run_cli(capsys, ["limit", "--input", path])
        assert code == 2
        assert "mode" in err


class TestGroebnerCommand:
    def test_deformed_qsc_basis(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["1", "0", "0"], ["1", "0", "0"]))
        code, out, _ = run_cli(capsys, ["gb", "--input", path])
        assert code == 0
        assert out == (
            "reduced Groebner basis (block order) of quantum sheaf cohomology of "
            "P^1 x P^1, eps=(1, 0, 0), gam=(1, 0, 0):\n"
            "  psi^2 - psit^2 - q1 + q2\n"
            "  psi*psit + psit^2 - q2\n"
            "  psit^2*q1 + psit^2*q2 - q2^2\n"
            "  -psit*q1 + psi*q2\n"
        )

    def test_classical_ring(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([1, 2], ring="classical"))
        code, out, _ = run_cli(capsys, ["gb", "--input", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["basis"] == ["H2^3", "H1^2"]


    def test_degenerate_qsc_basis(self, tmp_path, capsys):
        # no finite module basis (present exits 3), but the basis itself exists
        path = write_job(tmp_path, qsc_doc(["0", "1", "1"], ["0", "1", "1"]))
        code, out, err = run_cli(capsys, ["gb", "--input", path])
        assert (code, err) == (0, "")
        assert out == (
            "reduced Groebner basis (block order) of quantum sheaf cohomology of "
            "P^1 x P^1, eps=(0, 1, 1), gam=(0, 1, 1):\n"
            "  psi^2 - psit^2 + q2\n"
            "  q1 + q2\n"
        )


class TestInputHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["present", "--input", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[" * 100000 + "]" * 100000],
        ids=["malformed", "nested-too-deeply"],
    )
    def test_invalid_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, ["present", "--input", str(path)])
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_variety_exits_2(self, tmp_path, capsys):
        path = write_job(tmp_path, {"variety": {"type": "weighted", "dims": [2]}})
        code, _, err = run_cli(capsys, ["present", "--input", str(path)])
        assert code == 2
        assert "product_projective" in err

    def test_float_rational_rejected(self, tmp_path, capsys):
        doc = qsc_doc([0.5, "0", "0"], ["0", "0", "0"])
        path = write_job(tmp_path, doc)
        code, _, err = run_cli(capsys, ["present", "--input", path])
        assert code == 2
        assert "rational" in err

    @pytest.mark.parametrize("value", ["1e3", "0.5", "1_0", " 1", "1/2\n"])
    def test_rational_strings_are_a_or_a_over_b(self, tmp_path, capsys, value):
        # Fraction accepts each of these; the job format does not
        docs = {
            "trace value": job_doc([1, 1], trace={"reference": "H1*H2", "value": value}),
            "bundle epsilon[1]": qsc_doc(["0", value, "0"], ["0", "0", "0"]),
        }
        for label, doc in docs.items():
            path = write_job(tmp_path, doc)
            code, out, err = run_cli(capsys, ["pairing", "--input", path])
            assert (code, out) == (2, "")
            assert err == f'error: {label} is not a rational "a" or "a/b": {value!r}\n'
        for good in ("-3", "+3", "12/7", "-1/2"):
            path = write_job(tmp_path, qsc_doc(["0", good, "0"], ["0", "0", "0"]))
            assert run_cli(capsys, ["present", "--input", path])[0] == 0

    @pytest.mark.parametrize("value", ["9" * 5000, "-1/" + "7" * 5000], ids=["integer", "denominator"])
    def test_overlong_rational_exits_2_in_one_short_line(self, tmp_path, capsys, value):
        # past MAX_DIGITS (4,300); the value is not echoed
        docs = {
            "trace value": job_doc([1, 1], trace={"reference": "H1*H2", "value": value}),
            "bundle classes[1][0]": job_doc(
                [1, 1], bundle={"type": "twist_list", "classes": [["1", "0"], [value, "1"]]}
            ),
        }
        for label, doc in docs.items():
            code, out, err = run_cli(capsys, ["check", "--input", write_job(tmp_path, doc)])
            assert (code, out) == (2, "")
            assert err == f"error: {label} has an integer of 5000 digits, which is too long\n"
            assert len(err.encode()) < 200

    def test_overlong_json_number_exits_2_in_one_line(self, tmp_path, capsys):
        # the JSON reader refuses an integer past MAX_DIGITS (4,300)
        doc = job_doc([1, 1], trace={"reference": "H1*H2", "value": 12345})
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc).replace("12345", "9" * 5000), encoding="utf-8")
        code, out, err = run_cli(capsys, ["present", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: input is not valid JSON: a number has more than 4300 digits\n"

    def test_overlong_printed_value_exits_2_in_one_line(self, tmp_path, capsys):
        # a 4,000-digit trace value is accepted, but the Gram determinant on
        # P^1xP^1, its fourth power, is past the limit when printed
        value = "4" + "0" * 3999
        path = write_job(tmp_path, job_doc([1, 1], trace={"reference": "H1*H2", "value": value}))
        for command in ("pairing", "check"):
            code, out, err = run_cli(capsys, [command, "--input", path])
            assert (code, out) == (2, "")
            assert err == "error: the Gram determinant is too long to print\n"
        code, out, err = run_cli(capsys, ["correlator", "--input", path, "H1", "H2", "1"])
        assert (code, err) == (0, "")
        assert out == (
            f"correlator <H1, H2, 1>\nvalue: {value}\n"
            f"coefficients by instanton degree (q1, q2):\n  beta (0, 0): {value}\n"
        )
        # a 4,300-digit value is printable, three times it is not
        nines = "9" * 4300
        path = write_job(tmp_path, job_doc([1, 1], trace={"reference": "H1*H2", "value": nines}))
        cases = {
            ("3*H1", "H2", "1"): "the correlator value",
            (f"{nines}*{nines}*H1", "H2", "0"): "a correlator input",
        }
        for exprs, label in cases.items():
            code, out, err = run_cli(capsys, ["correlator", "--input", path, *exprs])
            assert (code, out) == (2, "")
            assert err == f"error: {label} is too long to print\n"
        # tr(psi^2) = -3 times the value on this qsc draw
        doc = qsc_doc(["3", "0", "0"], ["0", "0", "0"], trace={"reference": "psi*psit", "value": nines})
        code, out, err = run_cli(capsys, ["pairing", "--input", write_job(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == "error: a Gram matrix entry is too long to print\n"

    def test_overlong_relation_or_chern_class_exits_2_in_one_line(self, tmp_path, capsys):
        # 4,000-digit parameters load, but eps2*eps3 in the relations and c2 of
        # the twist list have about 8,000 digits
        big = "1" + "0" * 3999
        qsc = write_job(tmp_path, qsc_doc(["0", big, big], ["0", "0", "0"]), "qsc.json")
        bundle = {"type": "twist_list", "classes": [[big, "0"], ["0", big]]}
        twist = write_job(tmp_path, job_doc([1, 1], bundle=bundle), "twist.json")
        cases = {
            ("present", qsc): "a relation",
            ("gb", qsc): "a Groebner basis element",
            ("limit", qsc, "classical"): "a relation",
            ("check", twist): "the bundle c2",
        }
        for (command, path, *rest), label in cases.items():
            code, out, err = run_cli(capsys, [command, "--input", path, *rest])
            assert (code, out) == (2, "")
            assert err == f"error: {label} is too long to print\n"

    def test_output_file(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        out_path = tmp_path / "result.txt"
        code, out, _ = run_cli(
            capsys, ["present", "--input", path, "--output", str(out_path)]
        )
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, ["present", "--input", path])
        assert out_path.read_text(encoding="utf-8") == direct

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        out_path = tmp_path / "missing" / "result.txt"
        code, out, err = run_cli(
            capsys, ["present", "--input", path, "--output", str(out_path)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output:")
        assert err.count("\n") == 1

    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(job):
            raise RuntimeError("table corrupted")

        monkeypatch.setitem(cli.COMMANDS, "present", (broken, *cli.COMMANDS["present"][1:]))
        path = write_job(tmp_path, job_doc([2]))
        code, out, err = run_cli(capsys, ["present", "--input", path])
        assert (code, out) == (4, "")
        assert err == "error: internal error: RuntimeError: table corrupted\n"


class TestJobKeys:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({**job_doc([1]), "rnig": "classical"}, "unknown job key 'rnig'"),
            ({**job_doc([1]), "bundel": {"type": "tangent"}}, "unknown job key 'bundel'"),
            (
                {"variety": {"type": "product_projective", "dims": [1], "dim": [2]}},
                "unknown variety key 'dim'",
            ),
            (
                job_doc([1], bundle={"type": "tangent", "classes": [["1"]]}),
                "unknown tangent bundle key 'classes'",
            ),
            (
                job_doc([1], trace={"reference": "H", "value": "1", "val": "2"}),
                "unknown trace key 'val'",
            ),
            (job_doc([1], queries=[{"mode": "classical"}]), "each with a command"),
            (
                job_doc(
                    [1],
                    queries=[
                        {"command": "limit", "mode": "classical"},
                        {"command": "limit", "mode": "undeform"},
                    ],
                ),
                "more than one 'limit' entry",
            ),
            (
                job_doc([1], queries=[{"command": "corelator", "inputs": ["H", "H", "H"]}]),
                "unknown queries command 'corelator'",
            ),
            (
                job_doc([1], queries=[{"command": "correlator", "input": ["H", "H", "H"]}]),
                "unknown correlator query key 'input'",
            ),
            (
                job_doc([1], queries=[{"command": "limit", "mode": "clasical"}]),
                "limit query mode must be one of",
            ),
            (
                job_doc([1], queries=[{"command": "correlator", "inputs": ["H", "H"]}]),
                "inputs must list three expression strings",
            ),
            (
                job_doc([1], queries=[{"command": "correlator", "inputs": ["H", "H", 1]}]),
                "inputs must list three expression strings",
            ),
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, doc, message):
        path = write_job(tmp_path, doc)
        code, out, err = run_cli(capsys, ["present", "--input", path])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_documented_keys_accepted(self, tmp_path, capsys):
        doc = qsc_doc(
            ["1", "0", "0"],
            ["0", "0", "0"],
            trace={"reference": "psi*psit", "value": "1"},
            queries=[
                {"command": "limit", "mode": "undeform"},
                {"command": "correlator", "inputs": ["psi", "psi", "psi*psit"]},
            ],
        )
        path = write_job(tmp_path, doc)
        assert run_cli(capsys, ["limit", "--input", path])[0] == 0
        code, out, _ = run_cli(capsys, ["correlator", "--input", path])
        assert code == 0
        assert "value: q1 + q2" in out


class TestWorkLimit:
    """Sizes are refused from dims when the job loads, before any computation."""

    @pytest.mark.parametrize("dims", [[256], [1] * 9, [1] * 10, [1] * 20, [3, 3, 3, 3, 1]])
    def test_over_the_limit_exits_2_at_load(self, tmp_path, capsys, monkeypatch, dims):
        calls = count_calls(monkeypatch, groebner, "buchberger")
        path = write_job(tmp_path, job_doc(dims))
        for command in ("present", "check"):
            code, out, err = run_cli(capsys, [command, "--input", path])
            assert (code, out) == (2, "")
            assert err == (
                "error: variety dims exceed the work limit: "
                f"prod(n_i + 1) is above MAX_RANK = {jobs.MAX_RANK}\n"
            )
        assert calls == []

    def test_limit_admits_the_benchmark_varieties(self):
        assert jobs.MAX_RANK == 256
        for dims in ([255], [1] * 8, [3] * 4, [2] * 5, [2] * 4, [1] * 6, [3] * 3):
            job = jobs.job_from_dict(job_doc(dims))  # builds nothing yet
            assert job.dims == tuple(dims)

    def test_twist_list_over_the_limit_exits_2_at_load(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, groebner, "buchberger")
        bundle = {"type": "twist_list", "classes": [["1", "0"]] * (jobs.MAX_RANK + 1)}
        path = write_job(tmp_path, job_doc([1, 1], bundle=bundle))
        code, out, err = run_cli(capsys, ["check", "--input", path])
        assert (code, out) == (2, "")
        assert err == "error: twist_list bundle has 257 classes, more than MAX_RANK = 256\n"
        assert calls == []

    def test_twist_list_at_the_limit_loads(self):
        bundle = {"type": "twist_list", "classes": [["1", "0"]] * jobs.MAX_RANK}
        job = jobs.job_from_dict(job_doc([1, 1], bundle=bundle))
        assert len(job.twist_classes) == 256


class TestUsageErrors:
    """Command-line mistakes exit 2 through ``cli.read_args``, without a
    traceback, and the last line of stderr names the bad argument."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["presnet", "--input", "job.json"], "'presnet'"),
            (["limit", "sideways", "--input", "job.json"], "'sideways'"),
            (["present", "extra", "--input", "job.json"], "extra"),
            (["present"], "--input"),
            (["present", "--input", "job.json", "--format", "xml"], "'xml'"),
            (["present", "--input", "job.json", "--format"], "--format"),
            (["present", "--input", "job.json", "--output"], "--output"),
            (["present", "--input", "job.json", "--verbose"], "--verbose"),
            (["correlator", "--input", "job.json", "-H", "H", "H"], "-H"),
            ([], "command"),
        ],
        ids=[
            "unknown-command", "limit-mode", "extra-argument", "missing-input", "format",
            "format-value", "output-value", "unknown-option", "dash-expression", "no-command",
        ],
    )
    def test_usage_error_exits_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_info.value.code, out) == (2, "")
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("qcohom") and ": error: " in last
        assert named in last

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["present", "-h"]])
    def test_help_prints_the_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_info.value.code, err) == (0, "")
        assert out.startswith("usage: qcohom")
        assert all(f"\n  {name} " in out for name in cli.COMMANDS)


def argv_grid(command):
    """argv lists for one command: its positionals before, after, between and
    split by good and bad options, and after "--"."""
    positionals = {
        "correlator": [
            [], ["H"], ["H", "H^2"], ["H", "H", "1"], ["H", "H", "H", "H"],
            ["-2", "H", "H"], ["-H", "H", "H"], ["H", "-.5", "-1."], ["-H + 1", "-", ""],
        ],
        "limit": [[], ["classical"], ["undeform"], ["sideways"], ["classical", "undeform"], ["-2"]],
    }.get(command, [[], ["extra"], ["-"]])
    options = [
        ["--input", "job.json"],
        ["--input=job.json"],
        ["--input", "a.json", "--format", "json", "--input=b.json"],
        ["--format=json", "--input", "job.json", "--output", "out.txt", "--format", "text"],
        ["--input", "job.json", "--output="],
        ["--input", "-2"],
        ["--input=--format", "--format", "json"],
        ["--input=a b", "--output", "-x y"],
        ["--input", "job.json", "--format", "xml"],
        ["--input", "job.json", "--format="],
        ["--input", "job.json", "--format"],
        ["--input", "--format", "json"],
        ["--input", "job.json", "--output", "-H"],
        ["--input", "job.json", "--output", "--"],
        ["--input", "job.json", "--verbose"],
        ["--input", "job.json", "--verbose=1"],
        ["--input", "job.json", "-"],
        ["--format", "json"],
        [],
    ]
    for opts in options:
        for words in positionals:
            yield [command, *opts, *words]
            yield [command, *words, *opts]
            yield [command, *opts[:2], *words, *opts[2:]]
            yield [command, *words[:1], *opts, *words[1:]]
            yield [command, *opts, "--", *words]
            yield [command, *words, "--", *opts]
            yield [command, *opts, *words, "--"]


class TestArgumentReader:
    """``cli.read_args`` reads every argv as the argparse parser it replaced
    (``oracle_tools.build_parser``) did, but for abbreviations and the help."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_same_reading_as_argparse(self, capsys, command):
        parser = build_parser()
        mismatches, kinds = [], set()
        for argv in argv_grid(command):
            readings = []
            for read in (lambda a: vars(parser.parse_args(a)), cli.read_args):
                try:
                    readings.append(read(argv))
                except SystemExit as error:
                    readings.append(error.code)
            out, err = capsys.readouterr()
            kinds.add(type(readings[0]))
            if readings[0] != readings[1]:
                mismatches.append((argv, *readings))
            elif readings[1] == 2:
                assert out == "" and err.splitlines()[-1].startswith("qcohom"), argv
        assert mismatches == []
        assert kinds == {dict, int}  # argparse both read and refused some argv

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["present", "--inp", "job.json"], "--inp"),
            (["present", "--input", "job.json", "--form=json"], "--form=json"),
        ],
    )
    def test_abbreviations_are_refused(self, capsys, argv, word):
        assert vars(build_parser().parse_args(argv))["input"] == "job.json"
        with pytest.raises(SystemExit) as exit_info:
            cli.read_args(argv)
        out, err = capsys.readouterr()
        assert (exit_info.value.code, out) == (2, "")
        assert err == f"qcohom present: error: unrecognized option {word!r}\n"

    def test_benchmark_argv_never_tries_the_number_pattern(self, monkeypatch):
        # every word of these argv is a known option, a value or a positional
        # not led by "-", so _is_option decides it before the pattern
        workloads = load_workloads()
        argvs = {
            (*job.args, "--input", "job.json")
            for seed in (0, 7)
            for workload in workloads.WORKLOADS
            for job in workloads.generate(workload, seed)
        }
        readings = {argv: cli.read_args(list(argv)) for argv in argvs}

        def refused(*args):
            raise AssertionError("the number pattern was tried")

        monkeypatch.setattr(cli, "re", types.SimpleNamespace(match=refused))
        assert {argv: cli.read_args(list(argv)) for argv in argvs} == readings
        assert {argv[0] for argv in argvs} == set(cli.COMMANDS)


class TestOutputContract:
    COMMANDS = [
        ["present"],
        ["correlator", "H^2", "H^2", "H"],
        ["pairing"],
        ["gb"],
        ["limit", "classical"],
    ]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        for argv in self.COMMANDS:
            cmd = [argv[0], "--input", path] + argv[1:]
            _, first, _ = run_cli(capsys, cmd)
            _, second, _ = run_cli(capsys, cmd)
            assert first == second

    def test_text_renders_the_json_data(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([2]))
        for argv in self.COMMANDS:
            base = [argv[0], "--input", path]
            _, text_out, _ = run_cli(capsys, base + argv[1:])
            _, json_out, _ = run_cli(capsys, base + ["--format", "json"] + argv[1:])
            data = json.loads(json_out)
            assert render_output(data, "text") == text_out

    def test_module_entry_point(self, tmp_path):
        path = write_job(tmp_path, job_doc([2]))
        result = subprocess.run(
            [sys.executable, "-m", "qcohom.cli", "present", "--input", path,
             "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["relations"] == ["H^3 - q"]

    def test_present_job_loads_no_argparse_gettext_or_locale(self, tmp_path):
        path = write_job(tmp_path, job_doc([2]))
        argv = ["present", "--input", path, "--output", str(tmp_path / "out.txt")]
        show = "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"

        def loaded(code):
            result = subprocess.run(
                [sys.executable, "-c", f"import sys\n{code}\n{show}"],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert (result.returncode, result.stderr) == (0, "")
            return result.stdout

        bare = loaded("")  # what the interpreter loads before any qcohom code
        ran = loaded(f"from qcohom.cli import main\nassert main({argv!r}) == 0")
        assert ran == ("['locale']\n" if "locale" in bare else "[]\n")

    def test_module_entry_point_exit_code(self, tmp_path):
        path = write_job(tmp_path, qsc_doc(["0", "1", "1"], ["0", "1", "1"]))
        result = subprocess.run(
            [sys.executable, "-m", "qcohom.cli", "present", "--input", path],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 3
        assert "degenerate" in result.stderr


def run_module(argv, stdout=subprocess.PIPE, unbuffered=False, shell_prefix=()):
    """Exit code, stdout and stderr of a ``python -m qcohom.cli`` child."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    result = subprocess.run(
        [*shell_prefix, sys.executable, "-m", "qcohom.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )
    return result.returncode, result.stdout, result.stderr


class TestProcessEntry:
    """``entry`` freezes the collector before ``main``; ``main`` never does."""

    def test_entry_freezes_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: calls.append(f"digits {n}"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert (exit_info.value.code, calls) == (3, ["freeze", "digits 0", "main"])

    def test_entry_usage_error_exits_2(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: None)
        monkeypatch.setattr(sys, "argv", ["qcohom", "presnet"])
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        out, err = capsys.readouterr()
        assert (exit_info.value.code, calls, out) == (2, ["freeze"], "")
        assert err.startswith("qcohom: error: invalid command 'presnet'")

    def test_main_does_not_freeze(self, tmp_path, capsys):
        path = write_job(tmp_path, job_doc([1, 1]))
        before = gc.get_freeze_count()
        for command in ("present", "check"):
            assert run_cli(capsys, [command, "--input", path])[0] == 0
        assert gc.get_freeze_count() == before

    def test_main_leaves_the_interpreter_digit_limit(self, tmp_path, capsys):
        trace = {"reference": "H1*H2", "value": "7" * 700}
        path = write_job(tmp_path, job_doc([1, 1], trace=trace))
        before = sys.get_int_max_str_digits()
        assert run_cli(capsys, ["pairing", "--input", path])[0] == 0
        assert sys.get_int_max_str_digits() == before

    def test_digit_limit_does_not_depend_on_the_environment(self, tmp_path):
        # PYTHONINTMAXSTRDIGITS unset, 640 and 0 give the same stdout, stderr
        # and exit code: a 700-digit trace value prints (its Gram determinant
        # has 2,800 digits); 5,000 digits in a trace value, a correlator input
        # and a JSON integer are refused
        big = "9" * 5000
        trace = {"reference": "H1*H2", "value": 12345}
        json_int = tmp_path / "json-int.json"
        json_int.write_text(json.dumps(job_doc([1, 1], trace=trace)).replace("12345", big))
        docs = {
            name: write_job(tmp_path, job_doc([1, 1], trace={**trace, "value": value}), name)
            for name, value in (("700.json", "7" * 700), ("5000.json", big))
        }
        cases = {
            ("pairing", "--input", docs["700.json"]): (0, ""),
            ("pairing", "--input", docs["5000.json"]):
                (2, "error: trace value has an integer of 5000 digits, which is too long\n"),
            ("correlator", "--input", docs["700.json"], f"{big}*H1", "H2", "1"):
                (2, "error: integer literal of 5000 digits is too long (at position 0)\n"),
            ("present", "--input", str(json_int)):
                (2, "error: input is not valid JSON: a number has more than 4300 digits\n"),
        }
        for argv, (code, err) in cases.items():
            results = set()
            for limit in (None, "640", "0"):
                env = child_env()
                env.pop("PYTHONINTMAXSTRDIGITS", None)
                if limit is not None:
                    env["PYTHONINTMAXSTRDIGITS"] = limit
                result = subprocess.run(
                    [sys.executable, "-m", "qcohom.cli", *argv],
                    capture_output=True, text=True, env=env,
                )
                results.add((result.returncode, result.stdout, result.stderr))
            ((got_code, out, got_err),) = results
            assert (got_code, got_err) == (code, err)
            assert ("7" * 700 in out) == (code == 0)

    def test_module_exit_1_and_2(self, tmp_path):
        doc = job_doc([1, 1], bundle={"type": "twist_list", "classes": [[1, 0]] * 3})
        code, out, err = run_module(["check", "--input", write_job(tmp_path, doc)])
        assert (code, err) == (1, "")
        assert out.endswith("all passed: no\n")
        code, out, err = run_module(["present", "--input", str(tmp_path / "missing.json")])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("case", ["closed pipe", "full device", "closed fd 1"])
    def test_unwritable_stdout_exits_2(self, tmp_path, case, unbuffered):
        argv = ["present", "--input", write_job(tmp_path, job_doc([2]))]
        if case == "closed pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                code, _, err = run_module(argv, stdout=write_end, unbuffered=unbuffered)
            finally:
                os.close(write_end)
            reason = "[Errno 32] Broken pipe"
        elif case == "full device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "w") as full:
                code, _, err = run_module(argv, stdout=full, unbuffered=unbuffered)
            reason = "[Errno 28] No space left on device"
        else:
            closing = ("sh", "-c", 'exec "$@" >&-', "sh")
            code, _, err = run_module(argv, unbuffered=unbuffered, shell_prefix=closing)
            reason = "standard output is closed"
        assert (code, err) == (2, f"error: cannot write output: {reason}\n")


FUZZ_SEEDS = (
    job_doc([1]),
    job_doc([2], queries=[{"command": "correlator", "inputs": ["H", "H", "1"]}]),
    job_doc([1, 1], ring="classical"),
    job_doc([1, 2], trace={"reference": "H1*H2^2", "value": "2"}),
    job_doc([1, 1], bundle={"type": "twist_list", "classes": [[1, 0], [2, 0], [0, 2]]}),
    qsc_doc(["1", "0", "0"], ["0", "1/2", "1"], queries=[{"command": "limit", "mode": "undeform"}]),
    qsc_doc(["0", "1", "1"], ["0", "1", "1"]),  # degenerate
)
FUZZ_SCALARS = (
    0, 1, 2, 3, -1, "0", "1", "2", "-1", "1/2", "-2/3", "3", "1/0", "0/0", "2/-1", " 1", "1e3",
    None, True, 1.5, "", "x", "H^2", "psi*psit", "q1", "H^99999999", "product_projective",
    "qsc", "classical", "twist_list", "tangent_deformation_p1p1",
)
FUZZ_CONTAINERS = (
    [], [1], [1, 1], [2, 1], [1, 1, 1], ["1", "2"], [[1, 0], [0, 1]], {}, {"type": "tangent"},
    {"type": "twist_list", "classes": [[1]]}, {"command": "limit"},
)
FUZZ_KEYS = ("extra", "dims", "type", "value", "classes", "mode", "trace", "queries")
FUZZ_ARGV = (
    ["present"], ["gb"], ["pairing"], ["check"], ["limit"], ["limit", "classical"],
    ["limit", "undeform"], ["correlator"], ["correlator", "H", "H", "1"],
    ["correlator", "psi", "psit", "psi^2"], ["correlator", "H1*H2", "(", "1"],
)


def _slots(node):
    """Every (dict or list, key or index) inside a JSON value."""
    if isinstance(node, (dict, list)):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            yield node, key
            yield from _slots(node[key])


def mutated_job(rng) -> str:
    """The text of a valid job document after zero to two random edits of
    one slot each: a new value, a deletion, or a copy of a list entry or a
    new key beside it."""
    doc = json.loads(json.dumps(rng.choice(FUZZ_SEEDS)))
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = rng.choice(slots)
        edit = rng.random()
        value = json.loads(json.dumps(rng.choice(FUZZ_SCALARS if edit < 0.5 else FUZZ_CONTAINERS)))
        if edit < 0.6:
            node[key] = value
        elif edit < 0.75:
            del node[key]
        elif isinstance(node, list):
            node.append(json.loads(json.dumps(node[key])))
        else:
            node[rng.choice(FUZZ_KEYS)] = rng.choice(FUZZ_SCALARS)
    text = json.dumps(doc)
    if rng.random() < 0.05:
        text = text[: rng.randrange(len(text))]  # truncated: not JSON
    return text


class TestContractFuzz:
    """Seeded mutated job documents through ``main``: each ends with an exit
    code of the contract and at most one line on stderr."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_jobs_keep_the_exit_code_contract(self, tmp_path, capsys, seed):
        rng = random.Random(f"contract-fuzz/{seed}")
        codes = set()
        for i in range(400):
            path = tmp_path / f"job{i}.json"
            path.write_text(mutated_job(rng), encoding="utf-8")
            argv = rng.choice(FUZZ_ARGV)
            fmt = rng.choice([[], ["--format", "json"]])
            code, out, err = run_cli(capsys, [argv[0], "--input", str(path), *fmt, *argv[1:]])
            assert code in (0, 1, 2, 3), (argv, path.read_text(), err)
            if code in (0, 1):
                assert err == "" and out
            else:
                assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
            codes.add(code)
        assert codes == {0, 1, 2, 3}
