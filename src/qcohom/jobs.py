"""Job descriptions: the JSON input document and its assembly into objects.

A job selects a variety (product of projective spaces), a ring flavor
(classical, quantum, or quantum sheaf cohomology), a bundle (the tangent
bundle, a tangent deformation of P^1 x P^1, or a plain list of line-bundle
twists), an optional trace normalization, and under ``queries`` the
default inputs of ``correlator`` and mode of ``limit``.  Rationals are written
as strings ``"a"`` or ``"a/b"`` of ASCII digits, a sign allowed in front
(plain integers are also exact and accepted); floats, exponents, decimal
points, underscores and spaces are rejected.  A :class:`Job` builds each object it names (ring
presentation, quotient, Frobenius algebra, toric data, deformation matrix) on
first use and keeps it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .expr import parse_poly
from .frobenius import FrobeniusAlgebra, make_frobenius
from .poly import Record
from .rings import (
    QuotientAlgebra,
    RingPresentation,
    _check_dims,
    _generator_names,
    classical_cohomology_products,
    qsc_presentation_p1p1,
    quantum_cohomology_products,
    quotient_algebra,
)
from .toric import (
    DeformationMatrix,
    ToricData,
    euler_matrix_default,
    p1p1_deformation,
    product_projective_toric,
)

RINGS = ("classical", "quantum", "qsc")
BUNDLE_KEYS = {
    "tangent": ("type",),
    "tangent_deformation_p1p1": ("type", "epsilon", "gamma"),
    "twist_list": ("type", "classes"),
}
BUNDLES = tuple(BUNDLE_KEYS)
QUERY_KEYS = {
    "correlator": ("command", "inputs"),
    "limit": ("command", "mode"),
}
LIMIT_MODES = ("classical", "undeform")
# The work limit, checked from ``dims`` when a job loads: the module basis rank
# prod(n_i + 1), also the number of irrelevant generators.  The Frobenius work
# grows as its square; within it the most maximal minors are C(16, 8) = 12,870.
MAX_RANK = 256


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class JobError(ValueError):
    """Malformed or inconsistent job description."""


def parse_rational(value, label: str) -> Fraction:
    """Exact rational from a string "a" or "a/b", or a JSON integer."""
    if isinstance(value, bool):
        raise JobError(f"{label} must be a rational string or integer")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise JobError(f'{label} is not a rational "a" or "a/b": {value!r}')
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise JobError(f"{label} is not a rational: {value!r} ({e})") from None
    raise JobError(
        f"{label} must be a rational string or integer, not {type(value).__name__}"
    )


def _check_keys(doc: dict, allowed: Sequence[str], label: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise JobError(
            f"unknown {label} key {unknown[0]!r}; allowed: {', '.join(allowed)}"
        )


def _rational_list(values, count: int | None, label: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise JobError(f"{label} must be a list")
    if count is not None and len(values) != count:
        raise JobError(f"{label} must have {count} entries")
    return tuple(parse_rational(v, f"{label}[{i}]") for i, v in enumerate(values))


class Job(Record):
    """A validated job; each object it names is built on first use and kept."""

    dims: tuple[int, ...]
    ring: str
    bundle_type: str
    epsilon: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    twist_classes: tuple[tuple[Fraction, ...], ...]
    trace_reference: str | None
    trace_value: Fraction | None
    correlator_inputs: tuple[str, ...]
    limit_mode: str | None

    @cached_property
    def presentation(self) -> RingPresentation:
        if self.ring == "classical":
            return classical_cohomology_products(self.dims)
        if self.ring == "quantum":
            return quantum_cohomology_products(self.dims)
        return qsc_presentation_p1p1(self.epsilon, self.gamma)

    @cached_property
    def quotient(self) -> QuotientAlgebra:
        return quotient_algebra(self.presentation)

    @cached_property
    def frobenius(self) -> FrobeniusAlgebra:
        """The job's trace, or by default tr(top cell) = 1.

        The top cell of a product of projective spaces is the product of the
        H_i^(n_i); for tangent deformations of P^1 x P^1 it is psi*psit.
        """
        qa = self.quotient
        text, value = self.trace_reference, self.trace_value
        if text is None:
            if self.ring == "qsc":
                text = "psi*psit"
            else:
                names = _generator_names(self.dims, "H")
                text = "*".join(
                    f"{n}^{d}" if d > 1 else n for n, d in zip(names, self.dims)
                )
            value = Fraction(1)
        return make_frobenius(qa, parse_poly(text, qa.presentation.table), value)

    @cached_property
    def toric(self) -> ToricData:
        return product_projective_toric(self.dims)

    @cached_property
    def matrix(self) -> DeformationMatrix | None:
        """Deformation matrix of the job's bundle; None for a twist list."""
        if self.bundle_type == "tangent":
            return euler_matrix_default(self.toric)
        if self.bundle_type == "tangent_deformation_p1p1":
            return p1p1_deformation(self.epsilon, self.gamma)
        return None


def job_from_dict(doc) -> Job:
    if not isinstance(doc, dict):
        raise JobError("job document must be a JSON object")
    _check_keys(doc, ("variety", "ring", "bundle", "trace", "queries"), "job")
    variety = doc.get("variety")
    if not isinstance(variety, dict) or variety.get("type") != "product_projective":
        raise JobError('variety must be {"type": "product_projective", "dims": [...]}')
    _check_keys(variety, ("type", "dims"), "variety")
    dims = variety.get("dims")
    try:
        dims = _check_dims(dims if isinstance(dims, list) else ())
    except ValueError:
        raise JobError(
            "variety dims must be a nonempty list of positive integers"
        ) from None
    rank = 1
    for n in dims:  # stops at the first factor past the limit
        rank *= n + 1
        if rank > MAX_RANK:
            raise JobError(
                "variety dims exceed the work limit: "
                f"prod(n_i + 1) is above MAX_RANK = {MAX_RANK}"
            )

    ring = doc.get("ring", "quantum")
    if ring not in RINGS:
        raise JobError(f"ring must be one of {RINGS}")

    bundle = doc.get("bundle", {"type": "tangent"})
    if not isinstance(bundle, dict) or bundle.get("type") not in BUNDLES:
        raise JobError(f"bundle type must be one of {BUNDLES}")
    bundle_type = bundle["type"]
    _check_keys(bundle, BUNDLE_KEYS[bundle_type], f"{bundle_type} bundle")
    epsilon = gamma = twist_classes = ()
    if bundle_type == "tangent_deformation_p1p1":
        if dims != (1, 1):
            raise JobError("tangent_deformation_p1p1 requires variety dims [1, 1]")
        epsilon = _rational_list(bundle.get("epsilon"), 3, "bundle epsilon")
        gamma = _rational_list(bundle.get("gamma"), 3, "bundle gamma")
    elif bundle_type == "twist_list":
        classes = bundle.get("classes")
        if not isinstance(classes, list) or not classes:
            raise JobError("twist_list bundle requires a nonempty classes list")
        twist_classes = tuple(
            _rational_list(row, len(dims), f"bundle classes[{i}]")
            for i, row in enumerate(classes)
        )

    if ring == "qsc" and (dims != (1, 1) or bundle_type != "tangent_deformation_p1p1"):
        raise JobError(
            "qsc ring requires variety dims [1, 1] and a tangent_deformation_p1p1 bundle"
        )

    trace_reference = trace_value = None
    trace = doc.get("trace")
    if trace is not None:
        if not isinstance(trace, dict) or "reference" not in trace or "value" not in trace:
            raise JobError('trace must be {"reference": "...", "value": "..."}')
        _check_keys(trace, ("reference", "value"), "trace")
        if not isinstance(trace["reference"], str):
            raise JobError("trace reference must be an expression string")
        trace_reference = trace["reference"]
        trace_value = parse_rational(trace["value"], "trace value")

    queries = doc.get("queries", [])
    if not isinstance(queries, list) or any(
        not isinstance(p, dict) or not isinstance(p.get("command"), str) for p in queries
    ):
        raise JobError("queries must be a list of objects, each with a command")
    entries: dict = {}
    for entry in queries:
        command = entry["command"]
        if command not in QUERY_KEYS:
            raise JobError(
                f"unknown queries command {command!r}; allowed: {', '.join(QUERY_KEYS)}"
            )
        if command in entries:
            raise JobError(f"queries has more than one {command!r} entry")
        _check_keys(entry, QUERY_KEYS[command], f"{command} query")
        entries[command] = entry
    correlator_inputs: tuple[str, ...] = ()
    if "correlator" in entries:
        inputs = entries["correlator"].get("inputs")
        if not isinstance(inputs, list) or len(inputs) != 3 or any(
            not isinstance(s, str) for s in inputs
        ):
            raise JobError("correlator query inputs must list three expression strings")
        correlator_inputs = tuple(inputs)
    limit_mode = None
    if "limit" in entries:
        limit_mode = entries["limit"].get("mode")
        if limit_mode not in LIMIT_MODES:
            raise JobError(f"limit query mode must be one of {LIMIT_MODES}")

    return Job(
        dims, ring, bundle_type, epsilon, gamma, twist_classes,
        trace_reference, trace_value, correlator_inputs, limit_mode,
    )


def load_job(path: str) -> Job:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as e:
            raise JobError(f"input is not valid JSON: {e}") from None
        except RecursionError:
            raise JobError("input is not valid JSON: nested too deeply") from None
    return job_from_dict(doc)
