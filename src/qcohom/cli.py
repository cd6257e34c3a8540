"""Batch command-line front-end.

Commands ``present``, ``correlator``, ``pairing``, ``check``, ``limit`` and ``gb``
read a JSON job via ``--input`` and write text (default) or JSON (``--format
json``) to stdout or ``--output``, both rendered from one data dictionary, so
fixed inputs give byte-identical outputs.  ``read_args`` reads argv against the
``COMMANDS`` and ``OPTIONS`` tables without argparse, whose import and parser
build took longer than a small job's own work.

Exit codes: 0 success, 1 check failure, 2 usage, input, parse or output error
(an unwritable ``--output`` file or stdout), 3 degenerate algebra, 4 internal
error (any other exception, one line).
"""

from __future__ import annotations

import gc
import json
import re
import sys

from .expr import MAX_DIGITS, ParseError, parse_poly, render
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
    classical_limit,
    presentations_isomorphic_by_renaming,
    quotient_algebra,
)
from .toric import _euler_ring, _variety_name, check_bundle_regularity, check_omalous


def _monomial_string(table, monomial: int) -> str:
    return render(Polynomial(table, ((monomial, 1),)))


_TOO_LONG = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits


def _printed(label: str, show, value) -> str:
    """show(value) for a polynomial or a scalar; a numerator or denominator of
    more than MAX_DIGITS digits is a JobError naming it, before any is shown."""
    for _, c in value.packed if isinstance(value, Polynomial) else ((0, value),):
        if not -_TOO_LONG < c.numerator < _TOO_LONG or c.denominator >= _TOO_LONG:
            raise JobError(f"{label} is too long to print")
    return show(value)


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
        "relations": [_printed("a relation", render, r) for r in presentation.relations],
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
    value = three_point(fa, *parsed)
    value_text = _printed("the correlator value", render, value)  # then its coefficients print too
    start, stop = table.block_spans[1]
    rows = []
    for m, c in sorted(value.terms, key=lambda t: (sum(t[0]), t[0])):
        rows.append(
            {
                "beta": list(m[start:stop]),
                "coefficient": str(c),
            }
        )
    data = {
        **_header(job, "correlator"),
        "inputs": [_printed("a correlator input", render, p) for p in parsed],
        "value": value_text,
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
    matrix = []
    for row in gram.rows:  # an entry left out is zero, never too long to print
        printed = ["0"] * len(gram.basis)
        for l, e in row:
            printed[l] = _printed("a Gram matrix entry", render, e)
        matrix.append(printed)
    constant_term = gram.determinant.coefficient(0)
    data = {
        **_header(job, "pairing"),
        "basis": [_monomial_string(table, m) for m in gram.basis],
        "matrix": matrix,
        "determinant": _printed("the Gram determinant", render, gram.determinant),
        "determinant_constant_term": _printed("the Gram determinant", str, constant_term),
        "nondegenerate": bool(constant_term),
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
    if matrix is not None:
        # A DeformationMatrix is valid by construction, so this check cannot
        # fail, nor can "closure" below, whose staircase is derived from its
        # Groebner basis; the output-contract item of ROADMAP.md removes both.
        checks.append(_check("deformation_validation", True))
        checks.append(_check("bundle_regularity", check_bundle_regularity(matrix)))
    bundle, tangent = check_omalous(job.toric, job.twist_classes or None)
    chern = [
        f"{side} {c}: {_printed(f'the {side} {c}', render, getattr(classes, c))}"
        for c in ("c1", "c2")
        for side, classes in (("bundle", bundle), ("tangent", tangent))
    ]
    checks.append(_check("omalous", bundle == tangent, chern))
    fa = job.frobenius
    failures = frobenius_check(fa)
    checks.append(_check("frobenius", not failures, failures))
    checks.append(_check("closure", closure_check(fa)))
    constant_term = gram_matrix(fa).determinant.coefficient(0)
    details = [f"determinant constant term: {_printed('the Gram determinant', str, constant_term)}"]
    checks.append(_check("gram_nondegenerate", bool(constant_term), details))
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
        limited = classical_limit(presentation)
        if job.ring != "qsc":
            target = _euler_ring(job.toric)
    else:
        if job.ring != "qsc":
            raise JobError("limit mode undeform requires the qsc ring")
        limited = presentation
        target = _euler_ring(job.toric, quantum=True)
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
        "relations": [_printed("a relation", render, r) for r in limited.relations],
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
    basis = presentation.gb.elements
    data = {
        **_header(job, "gb"),
        "description": presentation.description,
        "order": "block",
        "basis": [_printed("a Groebner basis element", render, g) for g in basis],
    }
    return data, 0


def _gb_text(data: dict) -> str:
    lines = [f"reduced Groebner basis ({data['order']} order) of {data['description']}:"]
    for g in data["basis"]:
        lines.append(f"  {g}")
    return "\n".join(lines) + "\n"


# command -> (run function, text renderer, help text, {positional: None or its choices})
COMMANDS = {
    "present": (run_present, _presentation_text, "render the ring presentation", {}),
    "correlator": (run_correlator, _correlator_text, "three-point correlator", {"exprs": None}),
    "pairing": (run_pairing, _pairing_text, "Gram matrix of the trace pairing", {}),
    "check": (run_check, _check_text, "bundle and Frobenius validity checks", {}),
    "limit": (run_limit, _limit_text, "classical or undeformation limit", {"mode": LIMIT_MODES}),
    "gb": (run_gb, _gb_text, "reduced Groebner basis of the relations", {}),
}


def render_output(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return COMMANDS[data["command"]][1](data)


OPTIONS = {"--input": None, "--format": ("text", "json"), "--output": None}  # None: any value


def _is_option(word: str) -> bool:
    """As argparse: a word led by '-' is an option, unless '-', a negative number or spaced.
    The known names come first, so their argv never compiles the number pattern."""
    if word.partition("=")[0] in (*OPTIONS, "-h", "--help"):
        return True
    return word[:1] == "-" and word != "-" and " " not in word and not re.match(r"-\d*\.?\d+$", word)


def _fail(prog: str, message: str):
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _choose(prog: str, what: str, value: str, choices):
    if choices is not None and value not in choices:
        _fail(prog, f"invalid {what} {value!r} (choose from {', '.join(choices)})")
    return value


def _help():
    print("usage: qcohom COMMAND --input FILE [--format text|json] [--output FILE], or --opt=VALUE")
    for name, (_, _, help_text, pos) in COMMANDS.items():
        shown = "".join(f" [{'|'.join(c) if c else a.upper() + ' ...'}]" for a, c in pos.items())
        print(f"  {name + shown:28s}  {help_text}")
    raise SystemExit(0)


def read_args(argv: list[str]) -> dict:
    """argv's command, options and COMMANDS positionals, told apart as by argparse but not
    abbreviated.  -h prints the usage and exits 0; a usage error exits 2, naming the word."""
    if argv[:1] in (["-h"], ["--help"]):
        _help()
    if not argv:
        _fail("qcohom", f"a command is required (choose from {', '.join(COMMANDS)})")
    command = _choose("qcohom", "command", argv[0], COMMANDS)
    prog, words, i = f"qcohom {command}", argv[1:], 0
    args = {"command": command, "input": None, "format": "text", "output": None}
    runs = [[]]  # the positional words, in runs that the options split
    while i < len(words):
        word, i = words[i], i + 1
        if word == "--" or "--" in runs[-1] or not _is_option(word):
            runs[-1].append(word)
            continue
        if word in ("-h", "--help"):
            _help()
        name, equals, value = word.partition("=")
        if name not in OPTIONS:
            _fail(prog, f"unrecognized option {word!r}")
        if not equals:
            if i == len(words) or _is_option(words[i]):
                _fail(prog, f"{name} needs a value")
            value, i = words[i], i + 1
        args[name[2:]] = _choose(prog, name, value, OPTIONS[name])
        runs.append([])
    if args["input"] is None:
        _fail(prog, "the option --input is required")
    given, *later = [run for run in runs if run] or [[]]
    for arg, choices in COMMANDS[command][3].items():
        if "--" in given:  # as argparse, drop the first "--" the positional takes
            given.remove("--")
        taken = [_choose(prog, arg, v, choices) for v in given[: None if choices is None else 1]]
        given = given[len(taken):]
        args[arg] = taken if choices is None else next(iter(taken), None)
    if given or later:
        _fail(prog, "unrecognized arguments: " + " ".join(given + sum(later, [])))
    return args


def main(argv=None) -> int:
    args = read_args(sys.argv[1:] if argv is None else list(argv))
    try:
        job = load_job(args["input"])
        # command-line arguments take precedence over the job's queries entry
        if args.get("exprs"):
            job = job.replace(correlator_inputs=tuple(args["exprs"]))
        if args.get("mode"):
            job = job.replace(limit_mode=args["mode"])
        data, code = COMMANDS[args["command"]][0](job)
        text = render_output(data, args["format"])
    except (DegeneratePresentationError, TraceDegenerateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (JobError, ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    try:
        if args["output"]:
            with open(args["output"], "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            _write_stdout(text)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    return code


def _write_stdout(text: str) -> None:
    """Write and flush stdout.  On failure the broken stream is dropped from
    ``sys.stdout``, so the interpreter's flush at exit does not retry the
    write that ``main`` reported (an "Exception ignored" line and exit 120)."""
    if sys.stdout is None:  # file descriptor 1 was closed at start-up
        raise OSError("standard output is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        sys.stdout = None
        raise


def entry() -> None:
    """The process entry point, of ``python -m qcohom.cli`` and the ``qcohom`` script.

    ``gc.freeze()`` moves every object that start-up created to the
    collector's permanent generation, so neither the collections during the
    job nor those at interpreter shutdown walk them again: shutdown went from
    8.5 to 2.3 ms of a 55 ms ``present`` job (one CPU of a 2-vCPU host,
    Python 3.11).  Python's integer string-conversion limit is lifted, since
    the package bounds digits by ``MAX_DIGITS`` itself, so no output depends
    on ``PYTHONINTMAXSTRDIGITS``.  ``main`` does neither, since tests call it
    in process many times.
    """
    gc.freeze()
    sys.set_int_max_str_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    entry()
