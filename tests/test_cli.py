"""Command-line contract: output formats, exit codes, and job handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcohom
from qcohom import cli, groebner, jobs, rings, toric
from qcohom.cli import main, render_output


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

    def test_overlong_literal_exits_2(self, tmp_path, capsys):
        # a literal past int()'s 4,300-digit limit; only the string is built
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

    def test_builds_toric_data_and_quotient_once(self, tmp_path, capsys, monkeypatch):
        toric_calls = count_calls(monkeypatch, toric, "product_projective_toric")
        quotient_calls = count_calls(monkeypatch, rings, "quotient_algebra")
        path = write_job(tmp_path, job_doc([2, 2]))
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        assert out.endswith("all passed: yes\n")
        assert (len(toric_calls), len(quotient_calls)) == (1, 1)

    def test_twist_list_builds_stanley_reisner_ring_once(
        self, tmp_path, capsys, monkeypatch
    ):
        gb_calls = count_calls(monkeypatch, groebner, "buchberger")
        sr_calls = count_calls(monkeypatch, rings, "stanley_reisner_ring")
        classes = [["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"], ["0", "1"]]
        doc = job_doc([1, 2], bundle={"type": "twist_list", "classes": classes})
        code, out, _ = run_cli(capsys, ["check", "--input", write_job(tmp_path, doc)])
        assert code == 0
        assert out.endswith("all passed: yes\n")
        # one basis for the quotient, one for the Stanley-Reisner ring shared
        # by the tangent and the bundle Chern classes
        assert (len(gb_calls), len(sr_calls)) == (2, 1)

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
        # the limit's basis and the target's; the renaming moves nothing, so
        # the limit's basis stands in for the renamed ring's
        assert len(gb_calls) == 2

    def test_undeform_identifies_quantum_p1p1(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["0", "0", "0"], ["0", "0", "0"]))
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "undeform"])
        assert code == 0
        assert "renaming: psi -> H1, psit -> H2" in out
        assert "isomorphic: yes" in out

    def test_undeform_detects_deformed_ring(self, tmp_path, capsys):
        path = write_job(tmp_path, qsc_doc(["1", "0", "0"], ["0", "0", "0"]))
        code, out, _ = run_cli(
            capsys, ["limit", "--input", path, "undeform", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["isomorphic"] is False

    def test_undeform_of_generic_draw_stops_at_first_inclusion(
        self, tmp_path, capsys, monkeypatch
    ):
        gb_calls = count_calls(monkeypatch, groebner, "buchberger")
        path = write_job(tmp_path, qsc_doc(["1", "2", "3"], ["1/2", "-1", "2"]))
        code, out, _ = run_cli(capsys, ["limit", "--input", path, "undeform"])
        assert code == 0
        assert "isomorphic: no" in out
        # the quotient's basis and the target's; a renamed relation outside
        # the target ideal settles it without the basis of the renamed ring
        assert len(gb_calls) <= 2

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
