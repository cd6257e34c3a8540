"""Batch command-line front-end.

Subcommands: ``present``, ``correlator``, ``pairing``, ``check``, ``limit``,
``gb``.  Every command reads a JSON job via ``--input`` and writes either
pretty text (default) or JSON (``--format json``) to stdout or ``--output``.
Text and JSON are rendered from the same data dictionary, so they carry the
same values, and fixed inputs produce byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 input, parse or output-file error,
3 degenerate algebra, 4 internal error (any other exception, reported in one
line).
"""

from __future__ import annotations

import argparse
import json
import sys

from .expr import ParseError, parse_poly, render
from .frobenius import (
    TraceDegenerateError,
    closure_check,
    frobenius_check,
    gram_matrix,
    three_point,
)
from .jobs import LIMIT_MODES, Job, JobError, load_job
from .poly import Polynomial
from .rings import (
    DegeneratePresentationError,
    _variety_name,
    classical_cohomology_products,
    presentations_isomorphic_by_renaming,
    quantum_cohomology_products,
    quotient_algebra,
    substitute,
)
from .toric import check_bundle_regularity, check_omalous, validate_deformation


def _monomial_string(table, monomial: int) -> str:
    return render(Polynomial(table, ((monomial, 1),)))


def _header(job: Job, command: str) -> dict:
    return {"command": command, "variety": _variety_name(job.dims), "ring": job.ring}


def run_present(job: Job) -> tuple[dict, int]:
    presentation, qa = job.presentation, job.quotient
    table = presentation.table
    data = {
        **_header(job, "present"),
        "description": presentation.description,
        "variables": [
            {"name": v.name, "degree": v.degree, "block": v.block}
            for v in table.entries
        ],
        "relations": [render(r) for r in presentation.relations],
        "module_basis": [_monomial_string(table, m) for m in qa.module_basis],
        "graded_dimensions": list(qa.graded_dimensions()),
    }
    return data, 0


def _presentation_text(data: dict) -> str:
    lines = [f"presentation: {data['description']}"]
    lines.append(
        "variables: "
        + ", ".join(
            f"{v['name']} (degree {v['degree']}, {v['block']})"
            for v in data["variables"]
        )
    )
    lines.append("relations:")
    for r in data["relations"]:
        lines.append(f"  {r}")
    lines.append("module basis: " + ", ".join(data["module_basis"]))
    lines.append(
        "graded dimensions: " + " ".join(str(d) for d in data["graded_dimensions"])
    )
    return "\n".join(lines) + "\n"


def run_correlator(job: Job) -> tuple[dict, int]:
    if len(job.correlator_inputs) != 3:
        raise JobError(
            "correlator needs exactly three expressions, as arguments or in a queries entry"
        )
    fa = job.frobenius
    table = job.presentation.table
    parsed = [parse_poly(t, table) for t in job.correlator_inputs]
    result = three_point(fa, *parsed)
    start, stop = table.block_spans[1]
    rows = []
    for m, c in sorted(result.value.terms, key=lambda t: (sum(t[0]), t[0])):
        rows.append(
            {
                "beta": list(m[start:stop]),
                "coefficient": str(c),
            }
        )
    data = {
        **_header(job, "correlator"),
        "inputs": [render(p) for p in parsed],
        "value": render(result.value),
        "instanton_variables": list(table.names[start:stop]),
        "coefficients": rows,
    }
    return data, 0


def _correlator_text(data: dict) -> str:
    lines = [f"correlator <{', '.join(data['inputs'])}>"]
    lines.append(f"value: {data['value']}")
    if data["coefficients"]:
        lines.append(
            "coefficients by instanton degree ("
            + ", ".join(data["instanton_variables"])
            + "):"
        )
        for row in data["coefficients"]:
            beta = ", ".join(str(b) for b in row["beta"])
            lines.append(f"  beta ({beta}): {row['coefficient']}")
    return "\n".join(lines) + "\n"


def run_pairing(job: Job) -> tuple[dict, int]:
    gram = gram_matrix(job.frobenius)
    table = job.presentation.table
    data = {
        **_header(job, "pairing"),
        "basis": [_monomial_string(table, m) for m in gram.basis],
        "matrix": [[render(e) for e in row] for row in gram.entries],
        "determinant": render(gram.determinant),
        "determinant_constant_term": str(gram.constant_term),
        "nondegenerate": gram.nondegenerate,
    }
    return data, 0


def _pairing_text(data: dict) -> str:
    lines = ["pairing matrix on module basis: " + ", ".join(data["basis"])]
    for row in data["matrix"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append(f"determinant: {data['determinant']}")
    lines.append(f"constant term: {data['determinant_constant_term']}")
    lines.append("nondegenerate: " + ("yes" if data["nondegenerate"] else "no"))
    return "\n".join(lines) + "\n"


def _check(name: str, passed: bool, details=()) -> dict:
    return {"name": name, "passed": passed, "details": list(details)}


def run_check(job: Job) -> tuple[dict, int]:
    checks = []
    matrix = job.matrix
    omalous = None
    if matrix is not None:
        violations = validate_deformation(matrix)
        checks.append(
            _check(
                "deformation_validation",
                not violations,
                (f"row {r} column {c}: {reason}" for r, c, reason in violations),
            )
        )
        regular = not violations and check_bundle_regularity(matrix)
        checks.append(_check("bundle_regularity", regular))
        if not violations:
            omalous = check_omalous(job.toric, matrix)
    else:
        omalous = check_omalous(job.toric, job.twist_classes)
    if omalous is None:
        checks.append(_check("omalous", False, ["skipped: invalid deformation matrix"]))
    else:
        checks.append(
            _check(
                "omalous",
                omalous.ok,
                [
                    f"bundle c1: {render(omalous.bundle_chern.c1)}",
                    f"tangent c1: {render(omalous.tangent_chern.c1)}",
                    f"bundle c2: {render(omalous.bundle_chern.c2)}",
                    f"tangent c2: {render(omalous.tangent_chern.c2)}",
                ],
            )
        )
    fa = job.frobenius
    report = frobenius_check(fa)
    checks.append(_check("frobenius", report.ok, report.compatibility_failures))
    checks.append(_check("closure", closure_check(fa)))
    gram = gram_matrix(fa)
    checks.append(
        _check(
            "gram_nondegenerate",
            gram.nondegenerate,
            [f"determinant constant term: {gram.constant_term}"],
        )
    )
    all_passed = all(c["passed"] for c in checks)
    data = {
        **_header(job, "check"),
        "bundle": job.bundle_type,
        "checks": checks,
        "all_passed": all_passed,
    }
    return data, 0 if all_passed else 1


def _check_text(data: dict) -> str:
    lines = [f"checks for {data['variety']} ({data['ring']} ring, {data['bundle']} bundle):"]
    for check in data["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"  {check['name']}: {status}")
        for detail in check["details"]:
            lines.append(f"    {detail}")
    lines.append("all passed: " + ("yes" if data["all_passed"] else "no"))
    return "\n".join(lines) + "\n"


def run_limit(job: Job) -> tuple[dict, int]:
    mode = job.limit_mode
    if mode is None:
        raise JobError("limit needs a mode: classical or undeform")
    presentation = job.presentation
    renaming: dict = {}
    target = None
    if mode == "classical":
        start, stop = presentation.table.block_spans[1]
        instanton_names = presentation.table.names[start:stop]
        limited = substitute(presentation, {n: 0 for n in instanton_names})
        if job.ring != "qsc":
            target = classical_cohomology_products(job.dims)
    else:
        if job.ring != "qsc":
            raise JobError("limit mode undeform requires the qsc ring")
        limited = presentation
        target = quantum_cohomology_products([1, 1])
        renaming = {"psi": "H1", "psit": "H2"}
    qa = quotient_algebra(limited)
    isomorphic = None
    if target is not None:
        isomorphic = presentations_isomorphic_by_renaming(limited, target, renaming)
    data = {
        "command": "limit",
        "mode": mode,
        "source": presentation.description,
        "result_description": limited.description,
        "relations": [render(r) for r in limited.relations],
        "graded_dimensions": list(qa.graded_dimensions()),
        "target": None if target is None else target.description,
        "renaming": renaming,
        "isomorphic": isomorphic,
    }
    return data, 0


def _limit_text(data: dict) -> str:
    lines = [f"limit ({data['mode']}) of {data['source']}"]
    lines.append("relations:")
    for r in data["relations"]:
        lines.append(f"  {r}")
    lines.append(
        "graded dimensions: " + " ".join(str(d) for d in data["graded_dimensions"])
    )
    if data["target"] is None:
        lines.append("target: none")
    else:
        lines.append(f"target: {data['target']}")
        if data["renaming"]:
            pairs = ", ".join(f"{a} -> {b}" for a, b in sorted(data["renaming"].items()))
            lines.append(f"renaming: {pairs}")
        lines.append("isomorphic: " + ("yes" if data["isomorphic"] else "no"))
    return "\n".join(lines) + "\n"


def run_gb(job: Job) -> tuple[dict, int]:
    presentation = job.presentation
    data = {
        **_header(job, "gb"),
        "description": presentation.description,
        "order": "block",
        "basis": [render(g) for g in presentation.gb.elements],
    }
    return data, 0


def _gb_text(data: dict) -> str:
    lines = [f"reduced Groebner basis ({data['order']} order) of {data['description']}:"]
    for g in data["basis"]:
        lines.append(f"  {g}")
    return "\n".join(lines) + "\n"


# command -> (run function, text renderer, help text, positional arguments)
COMMANDS = {
    "present": (run_present, _presentation_text, "render the ring presentation", {}),
    "correlator": (
        run_correlator,
        _correlator_text,
        "three-point correlator",
        {"exprs": {"nargs": "*", "help": "three polynomial expressions"}},
    ),
    "pairing": (run_pairing, _pairing_text, "Gram matrix of the trace pairing", {}),
    "check": (run_check, _check_text, "bundle and Frobenius validity checks", {}),
    "limit": (
        run_limit,
        _limit_text,
        "classical or undeformation limit",
        {"mode": {"nargs": "?", "choices": LIMIT_MODES, "help": "limit mode"}},
    ),
    "gb": (run_gb, _gb_text, "reduced Groebner basis of the relations", {}),
}


def render_output(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return COMMANDS[data["command"]][1](data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcohom",
        description="Exact quantum cohomology and quantum sheaf cohomology rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="path to a JSON job file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument("--output", help="write output to this file instead of stdout")
        for arg, options in positionals.items():
            p.add_argument(arg, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = load_job(args.input)
        # command-line arguments take precedence over the job's queries entry
        if getattr(args, "exprs", None):
            job = job.replace(correlator_inputs=tuple(args.exprs))
        if getattr(args, "mode", None):
            job = job.replace(limit_mode=args.mode)
        data, code = COMMANDS[args.command][0](job)
        text = render_output(data, args.format)
    except (DegeneratePresentationError, TraceDegenerateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (JobError, ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
