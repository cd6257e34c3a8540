"""Self-test of the benchmark's output checker.

    python3 benchmarks/selftest.py

Runs a few real default-seed jobs through the CLI, then shows that the
checker accepts their true outputs and counts as failed: a correlator whose
value is deliberately wrong, a wrong exit code, a degenerate qsc job that
claims success, and any stdout that differs from the recorded reference.
It also checks the oracles themselves on cases known by hand.  Exits
nonzero on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from oracle import Checker, load_references, poincare, projective_correlator, twist_anomaly_free
from workloads import DEFAULT_SEED, generate


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def oracle_cases() -> None:
    expect(poincare((1, 2)) == [1, 2, 2, 1], "graded dimensions of P^1 x P^2")
    # <H, H, H> on P^1 with tr(H) = 1: H^3 = q H, so the value is q.
    expect(projective_correlator((1,), Fraction(1), [((1,), 3)]) == {(1,): 1}, "<H,H,H> = q on P^1")
    # (H1 + H2)^2 on P^1 x P^1 is 2 H1 H2, so tr = 2 * value.
    expect(
        projective_correlator((1, 1), Fraction(3, 2), [((1, 1), 2)]) == {(0, 0): 3},
        "tr((H1 + H2)^2) = 2 * 3/2 on P^1 x P^1",
    )
    expect(twist_anomaly_free((1, 1), [[0, 1], [1, 0], [0, 1], [1, 0]]), "Euler classes are anomaly-free")
    expect(not twist_anomaly_free((1, 1), [[1, 1], [1, 1]]), "O(1,1)^2 is not: c2 = 2 H1 H2")


def main() -> int:
    oracle_cases()
    jobs = {job.ident: job for job in generate("query-small", DEFAULT_SEED)}
    references = load_references("query-small")
    expect(bool(references), "reference digests are recorded for query-small")
    run.WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        runner = run.Runner(run_dir, run_dir / "pycache")
        outputs = {}
        for ident in ("correlator-P1xP2", "qsc2-pairing", "check-twist-P1xP1"):
            result = runner.cli(jobs[ident].write(run_dir), jobs[ident])
            outputs[ident] = (result["code"], result["stdout"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for checker, label in ((Checker(), "oracles"), (Checker(references), "oracles and reference")):
        for ident, (code, stdout) in outputs.items():
            expect(checker.check(jobs[ident], code, stdout) is None, f"{label} accept the real {ident} run")

    correlator = jobs["correlator-P1xP2"]
    code, stdout = outputs["correlator-P1xP2"]
    data = json.loads(stdout)
    if data["coefficients"]:
        data["coefficients"][0]["coefficient"] = str(Fraction(data["coefficients"][0]["coefficient"]) + 1)
    else:
        data["coefficients"].append({"beta": [0] * len(data["instanton_variables"]), "coefficient": "1"})
    wrong = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
    expect(Checker().check(correlator, code, wrong) is not None, "closed form rejects a wrong correlator value")
    expect(Checker(references).check(correlator, code, wrong) is not None, "reference rejects a wrong correlator value")
    expect(Checker().check(correlator, 1, stdout) is not None, "a wrong exit code is a failure")

    degenerate = jobs["qsc2-pairing"]
    expect(degenerate.expect["degenerate"] and outputs["qsc2-pairing"][0] == 3, "the degenerate qsc draw exits 3")
    expect(Checker().check(degenerate, 0, b"") is not None, "exit 0 on a degenerate qsc draw is a failure")

    tally = run.Tally(Checker(references))
    tally.record(correlator, {"code": code, "stdout": stdout, "stderr": b""})
    tally.record(correlator, {"code": code, "stdout": wrong, "stderr": b""})
    tally.record(correlator, {"code": 2, "stdout": b"", "stderr": b"error"})
    expect((tally.attempted, tally.failed) == (3, 2), "failed_frac counts the wrong value and the wrong exit code")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
