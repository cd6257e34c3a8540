"""Print the output digest of every benchmark job, for comparing two trees.

Usage::

    PYTHONPATH=src python tests/output_digests.py [SEED ...]

For each seed (default 0) and each job of the workloads in
``benchmarks/workloads.py``, one line lists workload, seed, ident, exit
code, sha256(stdout) and sha256(stderr).  Then ``check`` on the tangent
bundle at the work limit, in text and in json, on the varieties of
``WORK_LIMIT_DIMS``, whose maximal minors the benchmark jobs never reach,
adds one line each under the workload name ``work-limit`` and the seed
``-``, and so does ``pairing`` on the quantum ring with trace value
``-2/3`` (a Gram determinant scaled by (-2/3)^256), and a dense
``correlator`` on two of them, (P^1)^8 and (P^3)^4, within the term budget
of ``three_point``: their normal forms of a*b are larger than any a
benchmark job reduces.  Three more quantum correlators follow: one whose
inputs hold instanton variables, one whose a*b holds them only after a long
run of terms without, and one past the normal-form step bound.  Last,
``present``, ``gb``, ``pairing``, ``correlator psi psi psit`` and ``limit
undeform`` run on two fixed qsc deformations with a zero resultant, so the
exit code and the error line of a degenerate presentation are pinned
whatever the seed, and ``check``, in text and in json, runs on the first of
them under the quantum and the classical ring, where the deformation fails
``bundle_regularity`` and the job exits 1.  Then two ``pairing`` jobs on
quantum P^1, under the workload name ``digit-limit``, put the Gram
determinant's denominator at the printing bound: one digit past
``MAX_DIGITS``, so the job exits 2, and exactly at it.  Five more jobs on
quantum P^1 under that name form a coefficient past ``MAX_DIGITS`` while
parsing, so each exits 2 at the power that forms it: four correlators
and a ``pairing`` whose trace reference is such a power.
Each job runs through ``qcohom.cli.main`` in this process, and then
through a ``python -m qcohom.cli`` child, with this process's environment,
whose line follows with ``-m`` after the ident: only the child goes through
``cli.entry`` and the interpreter's start-up and shutdown.
``tests/output_digests.txt`` holds the ``main`` lines for the seeds 0 and 7,
and ``tests/test_reference_outputs.py`` compares them with a new run that
skips the children.  A change that alters an output on purpose regenerates
that file::

    PYTHONPATH=src python tests/output_digests.py 0 7 | grep -v ' -m ' > tests/output_digests.txt
``benchmarks/workloads.py`` is loaded by path and only read.  Run it on two
trees and ``diff`` the outputs: a change that keeps every output
byte-identical prints the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from qcohom.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# (P^1)^8, P^1 x P^1 x P^63, P^31 x (P^1)^3, P^1 x P^127, P^255, P^15 x P^15
# and (P^3)^4: rank 256 each
WORK_LIMIT_DIMS = (
    [1] * 8, [1, 1, 63], [31, 1, 1, 1], [1, 127], [255], [15, 15], [3, 3, 3, 3]
)
# dims and the powers of the three correlator inputs, linear forms in every
# generator; terms(a) * terms(b) is 792 * 120 and 455 * 165
DENSE_CORRELATORS = (([1] * 8, (5, 3, 1)), ([3, 3, 3, 3], (12, 8, 1)))
# (ident, dims, inputs) of three more correlators: one whose inputs hold
# instanton variables, so their normal forms go through the heap; one whose
# a*b, a in the ideal, reduces to 0 in 301 heap steps, while its 301 terms
# free of q1 alone would count 45,602; and one whose NF(a*b) needs 90,601
# steps and so exits 2
OTHER_CORRELATORS = (
    ("correlator-instanton-inputs-1x1x1", [1, 1, 1],
     ["(H1+q1)^3", "(H2+q2+H3)^4", "(H3+2*q3*H1)^2"]),
    ("correlator-ideal-times-power-1x1", [1, 1], ["H1^2 - q1", "(H1+H2)^300", "1"]),
    ("correlator-step-bound-1x1", [1, 1], ["(H1+H2)^300", "(H1-H2)^300", "1"]),
)

# (ident, eps, gam) of two qsc deformations with a zero resultant: the first
# basis is psi^2 - psit^2 + q2, q1 + q2; the second holds
# -psit*q1 + psi*q2 - psit*q2, a leading monomial with an instanton variable
DEGENERATE_QSC = (
    ("qsc-degenerate-011-011", ["0", "1", "1"], ["0", "1", "1"]),
    ("qsc-degenerate-011-100", ["0", "1", "1"], ["1", "0", "0"]),
)
DEGENERATE_QSC_COMMANDS = (
    ("present",), ("gb",), ("pairing",), ("correlator", "psi", "psi", "psit"), ("limit", "undeform")
)
# the rings on which ``check`` runs the deformation eps = gam = (0, 1, 1), not
# a bundle: its sigma-determinants s0^2 - s1^2 and s1^2 - s0^2 share s0 = s1
NON_BUNDLE_RINGS = ("quantum", "classical")
# (ident, trace value) of the pairings on quantum P^1 whose Gram determinant,
# -value^2, has the denominator 10^4300 (4,301 digits) or (10^2150 - 1)^2
# (4,300 digits)
DIGIT_LIMIT_PAIRINGS = (
    ("pairing-P1-refused", "1/1" + "0" * 2150),
    ("pairing-P1-printed", "1/" + "9" * 2150),
)

# (ident, trace reference or None, command and its expressions) of the jobs
# on quantum P^1 whose parse forms a coefficient of more than MAX_DIGITS
# digits; with no bound in the parser the first three took 4 to 22 s
COEFFICIENT_LIMIT_JOBS = (
    ("correlator-P1-power-1000", None, ("correlator", "(10^1000)^1000", "H", "1")),
    ("correlator-P1-power-3000", None, ("correlator", "((10^1000)^1000)^3", "H", "1")),
    ("correlator-P1-power-10000", None, ("correlator", "((10^1000)^1000)^10", "H", "1")),
    ("correlator-P1-denominator", None, ("correlator", "((1/7)^1000)^10", "H", "1")),
    ("pairing-P1-trace-reference", "(10^1000)^1000", ("pairing",)),
)


def generator_names(dims) -> list[str]:
    return ["H"] if len(dims) == 1 else [f"H{i + 1}" for i in range(len(dims))]


def top_monomial(dims) -> str:
    """The product of the top powers of the generators, the trace reference."""
    return "*".join(f"{h}^{n}" for h, n in zip(generator_names(dims), dims))


def dense_inputs(dims, powers) -> list[str]:
    """Powers of linear forms in every generator, one per correlator input."""
    names = generator_names(dims)
    return [
        "(" + " + ".join(f"{(i + k) % 3 + 1}*{h}" for i, h in enumerate(names)) + f")^{power}"
        for k, power in enumerate(powers)
    ]


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "qcohom_benchmark_workloads", BENCHMARKS / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run_main(argv) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def run_child(argv) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one ``python -m qcohom.cli`` child."""
    result = subprocess.run(
        [sys.executable, "-m", "qcohom.cli", *argv], capture_output=True, stdin=subprocess.DEVNULL
    )
    return result.returncode, result.stdout, result.stderr


ROUTES = (("", run_main), (" -m", run_child))


def digest(workload, seed, ident, argv, routes) -> list[str]:
    """One line per route of one job: in process, then the child if it runs."""
    lines = []
    for route, run in routes:
        code, out, err = run(argv)
        lines.append(
            f"{workload} {seed} {ident}{route} {code} "
            f"{hashlib.sha256(out).hexdigest()} {hashlib.sha256(err).hexdigest()}"
        )
    return lines


def digest_lines(seeds, children=True) -> list[str]:
    workloads = load_workloads()
    lines = []
    routes = ROUTES if children else ROUTES[:1]
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                for job in workloads.generate(workload, seed):
                    argv = [*job.args, "--input", str(job.write(directory))]
                    lines.extend(digest(workload, seed, job.ident, argv, routes))
        for dims in WORK_LIMIT_DIMS:
            path = directory / "work-limit.json"
            path.write_text(json.dumps({"variety": {"type": "product_projective", "dims": dims}}))
            ident = "check-" + "x".join(map(str, dims))
            for fmt in ("text", "json"):
                argv = ["check", "--input", str(path), "--format", fmt]
                lines.extend(digest("work-limit", "-", f"{ident}-{fmt}", argv, routes))
            path = directory / "work-limit-pairing.json"
            path.write_text(json.dumps({
                "variety": {"type": "product_projective", "dims": dims},
                "ring": "quantum",
                "trace": {"reference": top_monomial(dims), "value": "-2/3"},
            }))
            ident = "pairing-" + "x".join(map(str, dims))
            for fmt in ("text", "json"):
                argv = ["pairing", "--input", str(path), "--format", fmt]
                lines.extend(digest("work-limit", "-", f"{ident}-{fmt}", argv, routes))
        correlators = [
            ("correlator-" + "x".join(map(str, dims)), dims, dense_inputs(dims, powers))
            for dims, powers in DENSE_CORRELATORS
        ]
        for ident, dims, inputs in correlators + list(OTHER_CORRELATORS):
            path = directory / "work-limit-correlator.json"
            path.write_text(json.dumps({
                "variety": {"type": "product_projective", "dims": dims},
                "ring": "quantum",
                "trace": {"reference": top_monomial(dims), "value": "3/2"},
                "queries": [{"command": "correlator", "inputs": inputs}],
            }))
            for fmt in ("text", "json"):
                argv = ["correlator", "--input", str(path), "--format", fmt]
                lines.extend(digest("work-limit", "-", f"{ident}-{fmt}", argv, routes))
        for ident, eps, gam in DEGENERATE_QSC:
            path = directory / "degenerate-qsc.json"
            path.write_text(json.dumps({
                "variety": {"type": "product_projective", "dims": [1, 1]},
                "ring": "qsc",
                "bundle": {"type": "tangent_deformation_p1p1", "epsilon": eps, "gamma": gam},
                "trace": {"reference": "psi*psit", "value": "1"},
            }))
            for command in DEGENERATE_QSC_COMMANDS:
                argv = [*command, "--input", str(path)]
                lines.extend(digest("degenerate", "-", f"{ident}-{command[0]}", argv, routes))
        _, eps, gam = DEGENERATE_QSC[0]
        for ring in NON_BUNDLE_RINGS:
            path = directory / "non-bundle.json"
            path.write_text(json.dumps({
                "variety": {"type": "product_projective", "dims": [1, 1]},
                "ring": ring,
                "bundle": {"type": "tangent_deformation_p1p1", "epsilon": eps, "gamma": gam},
            }))
            for fmt in ("text", "json"):
                argv = ["check", "--input", str(path), "--format", fmt]
                ident = f"non-bundle-011-011-{ring}-check-{fmt}"
                lines.extend(digest("degenerate", "-", ident, argv, routes))
        for ident, value in DIGIT_LIMIT_PAIRINGS:
            path = directory / "digit-limit.json"
            path.write_text(json.dumps({
                "variety": {"type": "product_projective", "dims": [1]},
                "ring": "quantum",
                "trace": {"reference": "H", "value": value},
            }))
            argv = ["pairing", "--input", str(path)]
            lines.extend(digest("digit-limit", "-", ident, argv, routes))
        for ident, reference, (command, *exprs) in COEFFICIENT_LIMIT_JOBS:
            doc = {"variety": {"type": "product_projective", "dims": [1]}, "ring": "quantum"}
            if reference is not None:
                doc["trace"] = {"reference": reference, "value": "1"}
            path = directory / "coefficient-limit.json"
            path.write_text(json.dumps(doc))
            argv = [command, "--input", str(path), *exprs]
            lines.extend(digest("digit-limit", "-", ident, argv, routes))
    return lines


if __name__ == "__main__":
    for line in digest_lines([int(s) for s in sys.argv[1:]] or [0]):
        print(line)
