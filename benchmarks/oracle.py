"""Output checker: decides whether one CLI run gave the expected result.

Expected values come from oracles that do not use the Groebner or Frobenius
code under test:

* qsc deformations: the Sylvester resultant ``qsc_resultant`` from the test
  oracles.  Zero means every command that builds the quotient exits 3;
  nonzero means it exits 0 and ``check`` passes.
* Correlators on products of projective spaces: the closed form behind
  ``reduce_projective_power`` (H_i^(n_i+1) = q_i).  tr(prod H_i^a_i) is
  value * prod q_i^k_i when every a_i = k_i (n_i + 1) + n_i, and 0 otherwise.
  The inputs are expanded factor by factor with that reduction.
* Twist lists: c1 and c2 of the sum of line bundles against the tangent
  bundle, computed directly in Q[H_i] / (H_i^(n_i+1)).
* ``check`` on the ladder must report ``all_passed``; every pairing must be
  ``nondegenerate``.

For the default seed, stdout must also be byte-identical to the reference
digests recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from oracle_tools import reduce_projective_power
from workloads import Job, generator_names

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_references(workload: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload, {})


def poincare(dims) -> list[int]:
    """Graded dimensions of H^*(prod P^n_i): coefficients of prod (1 + ... + t^n_i)."""
    out = [1]
    for n in dims:
        new = [0] * (len(out) + n)
        for i, c in enumerate(out):
            for k in range(n + 1):
                new[i + k] += c
        out = new
    return out


def projective_correlator(dims, value: Fraction, factors) -> dict[tuple, Fraction]:
    """Closed-form correlator of prod (linear form)^power, keyed by q-degree."""
    m = len(dims)
    state = {((0,) * m, (0,) * m): Fraction(1)}
    for coeffs, power in factors:
        for _ in range(power):
            new: dict = {}
            for (res, qs), c in state.items():
                for i, a in enumerate(coeffs):
                    if not a:
                        continue
                    k, r = reduce_projective_power(res[i] + 1, dims[i])
                    key = (res[:i] + (r,) + res[i + 1 :], qs[:i] + (qs[i] + k,) + qs[i + 1 :])
                    new[key] = new.get(key, Fraction(0)) + c * a
            state = {key: c for key, c in new.items() if c}
    top = tuple(dims)
    return {qs: value * c for (res, qs), c in state.items() if res == top}


def _chern(dims, rows) -> tuple[tuple, dict]:
    """c1 (vector) and c2 (quadratic form) of a sum of line bundles on prod P^n_i."""
    m = len(dims)
    c1 = tuple(sum(Fraction(r[i]) for r in rows) for i in range(m))
    c2: dict = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            for i in range(m):
                for j in range(m):
                    key = (min(i, j), max(i, j))
                    if key[0] == key[1] and dims[key[0]] < 2:
                        continue  # H_i^2 = 0 on P^1
                    c2[key] = c2.get(key, Fraction(0)) + Fraction(rows[a][i]) * Fraction(rows[b][j])
    return c1, {k: v for k, v in c2.items() if v}


def twist_anomaly_free(dims, rows) -> bool:
    tangent = [[1 if j == i else 0 for j in range(len(dims))] for i, n in enumerate(dims) for _ in range(n + 1)]
    return _chern(dims, rows) == _chern(dims, tangent)


def expected_exit(job: Job) -> int:
    e = job.expect
    if e.get("qsc"):
        if job.command == "gb":
            return 0
        return 3 if e["degenerate"] else 0
    if job.command == "check" and "twist_classes" in e:
        return 0 if twist_anomaly_free(e["dims"], e["twist_classes"]) else 1
    return 0


def _text_field(text: str, label: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1 :].strip()
    return None


def _undeformed(e) -> bool:
    eps = [Fraction(v) for v in e["eps"]]
    gam = [Fraction(v) for v in e["gam"]]
    return eps[0] == 0 and eps[1] * eps[2] == 0 and gam[0] == 0 and gam[1] * gam[2] == 0


def _check_content(job: Job, text: str) -> str | None:
    """Reason the stdout of a successful run is wrong, or None."""
    e = job.expect
    cmd = job.command
    qsc = e.get("qsc", False)
    dims = (1, 1) if qsc else tuple(e["dims"])
    dims_line = " ".join(str(d) for d in ([1, 2, 1] if qsc else poincare(dims)))
    if cmd == "present":
        if _text_field(text, "graded dimensions") != dims_line:
            return "present: wrong graded dimensions"
    elif cmd == "gb":
        basis = [line.strip() for line in text.splitlines()[1:]]
        if qsc:
            return None if basis else "gb: empty basis"
        names = generator_names(dims)
        qs = ["q"] if len(dims) == 1 else [f"q{i + 1}" for i in range(len(dims))]
        want = sorted(f"{h}^{n + 1} - {q}" for h, n, q in zip(names, dims, qs))
        if sorted(basis) != want:
            return f"gb: basis {basis} is not {want}"
    elif cmd == "limit":
        mode = job.args[1]
        if _text_field(text, "graded dimensions") != dims_line:
            return "limit: wrong graded dimensions"
        if mode == "classical":
            want = "none" if qsc else "classical cohomology of " + " x ".join(f"P^{n}" for n in dims)
            if _text_field(text, "target") != want:
                return "limit classical: wrong target"
            if not qsc and _text_field(text, "isomorphic") != "yes":
                return "limit classical: not isomorphic to classical cohomology"
        elif _text_field(text, "isomorphic") != ("yes" if _undeformed(e) else "no"):
            return "limit undeform: wrong isomorphism verdict"
    else:
        data = json.loads(text)
        if cmd == "pairing":
            if data["nondegenerate"] is not True:
                return "pairing: degenerate Gram matrix"
            if len(data["basis"]) != math.prod(n + 1 for n in dims):
                return "pairing: wrong basis size"
        elif cmd == "check":
            if data["all_passed"] is not (expected_exit(job) == 0):
                return "check: wrong all_passed"
        elif cmd == "correlator" and not qsc:
            want = projective_correlator(dims, Fraction(e["trace_value"]), e["factors"])
            got = {tuple(r["beta"]): Fraction(r["coefficient"]) for r in data["coefficients"]}
            if got != want:
                return "correlator: value differs from the closed form"
    return None


class Checker:
    """Checks runs of one workload's jobs; ``references`` maps job id to the
    sha256 of its recorded stdout (used for the default seed only)."""

    def __init__(self, references: dict | None = None):
        self.references = references or {}
        self._verdicts: dict = {}

    def check(self, job: Job, code: int, stdout: bytes) -> str | None:
        """None when the run is correct, else a one-line reason."""
        key = (job.ident, code, digest(stdout))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(job, code, stdout, key[2])
        return self._verdicts[key]

    def _check(self, job: Job, code: int, stdout: bytes, sha: str) -> str | None:
        want = expected_exit(job)
        if code != want:
            return f"{job.ident}: exit code {code}, expected {want}"
        if job.ident in self.references and self.references[job.ident] != sha:
            return f"{job.ident}: stdout differs from the recorded reference"
        if code == 3:
            return None if not stdout else f"{job.ident}: output on a degenerate algebra"
        try:
            reason = _check_content(job, stdout.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as err:
            reason = f"unreadable output ({err})"
        return None if reason is None else f"{job.ident}: {reason}"
