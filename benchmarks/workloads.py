"""Seeded job generator for the three benchmark workloads.

Every job is a documented qcohom job document plus the command line that
runs it.  The seed picks the qsc deformation parameters, the trace
normalization values, the correlator inputs, the twist classes and the job
order; the varieties and the set of commands in a workload stay fixed, so
the work in one pass barely depends on the seed.

Only documented job keys are written (``variety``, ``ring``, ``bundle``,
``trace``, ``queries``), ``queries`` holds at most one entry per command, and
every trace value is nonzero, so stricter job validation does not turn a
benchmark job into a failure.

Why each workload exists:

* ``check-ladder``: ``check --format json`` on the quantum ladder P^1xP^1,
  P^2xP^2, (P^1)^3, P^2xP^2xP^1, (P^2)^3 with the tangent bundle, plus one
  seeded generic qsc deformation.  It is the batch validation users wait on
  longest; Buchberger (Rabinowitsch runs in bundle regularity) and the
  Frobenius check (n^3 triples) do nearly all the work.  The qsc draw is also
  queried once with ``limit undeform`` and once with ``correlator`` so that
  every layer's spans are exercised on this workload (about 1% of a pass).
* ``query-small``: many short interactive calls (``present``, ``gb``,
  ``correlator``, ``pairing``, ``limit``, and ``check`` on twist lists) on
  P^1, P^2, P^1xP^1, P^1xP^2 and on seeded qsc deformations, one of them
  degenerate (expected exit 3).  Start-up, job loading, parsing and
  rendering dominate; Groebner and Frobenius work is small.  It bypasses
  the Buchberger and structure-constant work, so the prediction for those
  optimizations here is no change, and it exposes eager import-time set-up.
* ``query-large``: ``pairing`` on (P^2)^3, (P^3)^3, (P^1)^6, (P^2)^4
  (n = 27, 64, 64, 81) and ``correlator`` on dense seeded inputs (powers of
  seeded linear forms with fixed coefficient sizes, at and above the top
  degree) on the same algebras.
  Groebner work is trivial; the time goes to n^2 pairings, one-off traces,
  polynomial multiplication, Fraction arithmetic and normal forms.  An
  eagerly built structure-constant table would cost n^2 reductions here
  before the first correlator.  ``present`` and ``limit classical`` on
  (P^2)^4 and one ``check`` on P^1xP^1 keep every layer's spans nonzero on
  this workload; with them a pass has an odd number of jobs (15) whose
  middle one sits among the short jobs, so ``job_p50_s`` does not jump
  between two job sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from oracle_tools import qsc_resultant

WORKLOADS = ("check-ladder", "query-small", "query-large")
DEFAULT_SEED = 0

LADDER = ((1, 1), (2, 2), (1, 1, 1), (2, 2, 1), (2, 2, 2))
SMALL_VARIETIES = ((1,), (2,), (1, 1), (1, 2))
LARGE_VARIETIES = ((2, 2, 2), (3, 3, 3), (1, 1, 1, 1, 1, 1), (2, 2, 2, 2))

# Deformation parameters are drawn from this set; it contains 0, so both
# generic and degenerate draws occur and rejection sampling ends quickly.
QSC_VALUES = ("0", "1", "-1", "2", "-2", "1/2", "3")
TRACE_VALUES = ("1", "2", "-1", "3", "1/2", "-2/3", "5/4")
LINEAR_COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m qcohom.cli <args> --input <file>``.

    ``ident`` is stable across seeds and orders; ``expect`` holds what the
    checker needs (the variety, the trace value, correlator factors, ...).
    """

    ident: str
    args: tuple[str, ...]
    doc: dict
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.args[0]

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.ident}.json"
        path.write_text(json.dumps(self.doc, indent=1, sort_keys=True), encoding="utf-8")
        return path


def variety_name(dims) -> str:
    return "x".join(f"P{n}" for n in dims)


def generator_names(dims) -> list[str]:
    return ["H"] if len(dims) == 1 else [f"H{i + 1}" for i in range(len(dims))]


def top_cell(dims) -> str:
    names = generator_names(dims)
    return "*".join(f"{h}^{n}" if n > 1 else h for h, n in zip(names, dims))


def linear_form(names, coeffs) -> str:
    text = ""
    for name, c in zip(names, coeffs):
        if c == 0:
            continue
        term = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if not text:
            text = term if c > 0 else f"-{term}"
        else:
            text += f" {'+' if c > 0 else '-'} {term}"
    return text


def factor_text(names, coeffs, power) -> str:
    return f"({linear_form(names, coeffs)})" + (f"^{power}" if power > 1 else "")


def projective_doc(dims, trace_value=None, queries=None, bundle=None) -> dict:
    doc = {"variety": {"type": "product_projective", "dims": list(dims)}, "ring": "quantum"}
    if bundle is not None:
        doc["bundle"] = bundle
    if trace_value is not None:
        doc["trace"] = {"reference": top_cell(dims), "value": trace_value}
    if queries:
        doc["queries"] = queries
    return doc


def qsc_doc(eps, gam, trace_value=None, queries=None) -> dict:
    doc = {
        "variety": {"type": "product_projective", "dims": [1, 1]},
        "ring": "qsc",
        "bundle": {"type": "tangent_deformation_p1p1", "epsilon": list(eps), "gamma": list(gam)},
    }
    if trace_value is not None:
        doc["trace"] = {"reference": "psi*psit", "value": trace_value}
    if queries:
        doc["queries"] = queries
    return doc


def trace_reference_vanishes(eps, gam) -> bool:
    """psi*psit lies in the span of the two classical quadrics.

    In the basis psi^2, psi*psit, psit^2 the quadrics are (1, e1, -e2 e3) and
    (-g2 g3, g1, 1); with (0, 1, 0) their determinant is e2 e3 g2 g3 - 1.
    The default trace normalization tr(psi*psit) is then impossible (exit 3
    even though the resultant is nonzero), so generic draws avoid it.
    """
    e2e3 = Fraction(eps[1]) * Fraction(eps[2])
    g2g3 = Fraction(gam[1]) * Fraction(gam[2])
    return e2e3 * g2g3 == 1


def draw_qsc(rng: random.Random, degenerate: bool) -> tuple[list[str], list[str]]:
    """Deformation parameters whose resultant is zero exactly when asked."""
    for _ in range(10_000):
        eps = [rng.choice(QSC_VALUES) for _ in range(3)]
        gam = [rng.choice(QSC_VALUES) for _ in range(3)]
        if (qsc_resultant(eps, gam) == 0) == degenerate and not trace_reference_vanishes(eps, gam):
            return eps, gam
    raise RuntimeError("no qsc draw found")


def correlator_factors(rng: random.Random, nvars: int, powers, dense: bool):
    """One (coefficients, power) factor per correlator slot.

    Dense factors use every variable, with the magnitudes 1, 2, 3, 1, 2, ...
    in a seeded order and with seeded signs: the seed moves the inputs but
    barely the size of the work, which grows with the coefficients' size.
    Sparse ones use one or two variables with seeded coefficients.
    """
    factors = []
    for power in powers:
        if dense:
            coeffs = [(i % 3 + 1) * rng.choice((-1, 1)) for i in range(nvars)]
            rng.shuffle(coeffs)
        else:
            coeffs = [0] * nvars
            for i in rng.sample(range(nvars), min(nvars, rng.choice((1, 2)))):
                coeffs[i] = rng.choice(LINEAR_COEFFS)
        factors.append((tuple(coeffs), power))
    return factors


def projective_correlator(ident, dims, rng, powers, dense) -> Job:
    names = generator_names(dims)
    factors = correlator_factors(rng, len(dims), powers, dense)
    value = rng.choice(TRACE_VALUES)
    inputs = [factor_text(names, c, k) for c, k in factors]
    doc = projective_doc(dims, value, [{"command": "correlator", "inputs": inputs}])
    return Job(
        ident,
        ("correlator", "--format", "json"),
        doc,
        {"dims": dims, "trace_value": value, "factors": factors},
    )


def qsc_jobs(prefix, rng, eps, gam, commands) -> list[Job]:
    degenerate = qsc_resultant(eps, gam) == 0
    base = {"qsc": True, "eps": eps, "gam": gam, "degenerate": degenerate}
    jobs = []
    for command in commands:
        value = rng.choice(TRACE_VALUES)
        queries = None
        if command == "correlator":
            lin = [linear_form(("psi", "psit"), (rng.choice(LINEAR_COEFFS), rng.choice(LINEAR_COEFFS))) for _ in range(2)]
            queries = [{"command": "correlator", "inputs": [f"({lin[0]})^2", lin[1], "psi"]}]
            args = ("correlator", "--format", "json")
        elif command in ("pairing", "check"):
            args = (command, "--format", "json")
        elif command.startswith("limit-"):
            args = ("limit", command.split("-", 1)[1])
        else:
            args = (command,)
        jobs.append(Job(f"{prefix}-{command}", args, qsc_doc(eps, gam, value, queries), dict(base)))
    return jobs


def twist_classes(rng: random.Random, dims) -> list[list[int]]:
    """Either the Euler-sequence classes in seeded order (anomaly-free) or a
    seeded random list of classes (usually not); the checker decides which."""
    if rng.random() < 0.5:
        rows = [[1 if j == i else 0 for j in range(len(dims))] for i, n in enumerate(dims) for _ in range(n + 1)]
        rng.shuffle(rows)
        return rows
    count = rng.randint(1, sum(n + 1 for n in dims))
    return [[rng.randint(0, 2) for _ in dims] for _ in range(count)]


def check_ladder(rng: random.Random) -> list[Job]:
    jobs = [
        Job(f"check-{variety_name(d)}", ("check", "--format", "json"), projective_doc(d), {"dims": d})
        for d in LADDER
    ]
    eps, gam = draw_qsc(rng, degenerate=False)
    jobs += qsc_jobs("qsc", rng, eps, gam, ("check", "limit-undeform", "correlator"))
    return jobs


def query_small(rng: random.Random) -> list[Job]:
    jobs = []
    for d in SMALL_VARIETIES:
        name = variety_name(d)
        top = sum(d)
        jobs.append(Job(f"present-{name}", ("present",), projective_doc(d), {"dims": d}))
        jobs.append(Job(f"gb-{name}", ("gb",), projective_doc(d), {"dims": d}))
        extra = rng.choice([0] + [n + 1 for n in d])
        powers = _split_degree(rng, top + extra)
        jobs.append(projective_correlator(f"correlator-{name}", d, rng, powers, dense=False))
        jobs.append(
            Job(
                f"pairing-{name}",
                ("pairing", "--format", "json"),
                projective_doc(d, rng.choice(TRACE_VALUES)),
                {"dims": d},
            )
        )
        jobs.append(Job(f"limit-classical-{name}", ("limit", "classical"), projective_doc(d), {"dims": d}))
        classes = twist_classes(rng, d)
        jobs.append(
            Job(
                f"check-twist-{name}",
                ("check", "--format", "json"),
                projective_doc(d, bundle={"type": "twist_list", "classes": [[str(v) for v in row] for row in classes]}),
                {"dims": d, "twist_classes": classes},
            )
        )
    commands = ("present", "gb", "pairing", "correlator", "limit-undeform", "limit-classical", "check")
    for k, degenerate in enumerate((False, False, True)):
        eps, gam = draw_qsc(rng, degenerate)
        jobs += qsc_jobs(f"qsc{k}", rng, eps, gam, commands)
    return jobs


def _split_degree(rng: random.Random, degree: int) -> list[int]:
    """Three positive slot degrees summing to ``degree`` (at least 3)."""
    degree = max(degree, 3)
    cuts = sorted(rng.sample(range(1, degree), 2))
    return [cuts[0], cuts[1] - cuts[0], degree - cuts[1]]


# Slot powers per large algebra: one correlator at the top degree and one
# well above it, by a multiple of n + 1 so that its value is nonzero.  Each
# takes 0.4-0.6 s, except the dense quartics on (P^1)^6 (about 2.5 s).
LARGE_POWERS = {
    (2, 2, 2): ((2, 2, 2), (10, 10, 10)),
    (3, 3, 3): ((3, 3, 3), (11, 11, 11)),
    (1, 1, 1, 1, 1, 1): ((2, 2, 2), (4, 4, 4)),
    (2, 2, 2, 2): ((3, 3, 2), (6, 6, 5)),
}


def query_large(rng: random.Random) -> list[Job]:
    jobs = []
    for d in LARGE_VARIETIES:
        name = variety_name(d)
        jobs.append(
            Job(
                f"pairing-{name}",
                ("pairing", "--format", "json"),
                projective_doc(d, rng.choice(TRACE_VALUES)),
                {"dims": d},
            )
        )
        for k, powers in enumerate(LARGE_POWERS[d]):
            jobs.append(projective_correlator(f"correlator{k}-{name}", d, rng, powers, dense=True))
    big = (2, 2, 2, 2)
    jobs.append(Job("present-P2xP2xP2xP2", ("present",), projective_doc(big), {"dims": big}))
    jobs.append(Job("limit-classical-P2xP2xP2xP2", ("limit", "classical"), projective_doc(big), {"dims": big}))
    jobs.append(Job("check-P1xP1", ("check", "--format", "json"), projective_doc((1, 1)), {"dims": (1, 1)}))
    return jobs


GENERATORS = {"check-ladder": check_ladder, "query-small": query_small, "query-large": query_large}


def generate(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed, in the seeded run order."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def probe_job() -> Job:
    """Fixed cheap job for the cold first CLI call of set-up."""
    return Job("probe-present-P1", ("present",), projective_doc((1,)), {"dims": (1,)})
