"""Toric data for products of projective spaces and tangent-bundle deformations.

A toric variety is recorded through its homogeneous coordinates, the grading
matrix of divisor classes (one row per coordinate, one column per Picard
class), its primitive collections, and the generators of the irrelevant
ideal.  Deformations of the tangent bundle are square-free matrices over the
coordinate ring, read as maps in an Euler-type sequence; validity requires
every entry to be homogeneous of the class of its row coordinate.  The
degeneracy locus of a deformation is controlled by the ideal of maximal
minors, and the bundle condition asks that every irrelevant generator lies in
its radical.  The condition is decided from one Groebner basis of the minors
ideal: a generator that lies in the ideal lies in its radical, and only the
others go through the Rabinowitsch trick.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .groebner import buchberger, ideal_member, radical_member
from .poly import (
    GENERATOR,
    Polynomial,
    Record,
    Scalar,
    VariableTable,
    determinant,
)
from .rings import (
    RingPresentation,
    _check_dims,
    _class_polynomials,
    _rational_triple,
    stanley_reisner_ring,
)


class ToricData(Record):
    """Combinatorial record of a toric variety.

    ``grading_matrix`` rows give the divisor class of each coordinate;
    ``irrelevant_generators`` are monomials in the coordinates, stored as
    exponent vectors over :attr:`coordinate_table`.  The coordinate table and
    the Stanley-Reisner presentation are built on first use and kept.
    """

    coordinates: tuple[str, ...]
    picard_rank: int
    grading_matrix: tuple[tuple[Fraction, ...], ...]
    primitive_collections: tuple[tuple[str, ...], ...]
    irrelevant_generators: tuple[tuple[int, ...], ...]

    @cached_property
    def coordinate_table(self) -> VariableTable:
        return VariableTable.make((n, 1, GENERATOR) for n in self.coordinates)

    @cached_property
    def stanley_reisner(self) -> RingPresentation:
        return stanley_reisner_ring(self)


class DeformationMatrix(Record):
    """Square-free matrix over the coordinate ring, one row per coordinate."""

    toric: ToricData
    entries: tuple[tuple[Polynomial, ...], ...]


class ChernData(Record):
    """First and second Chern classes in the Stanley-Reisner presentation."""

    presentation: RingPresentation
    c1: Polynomial
    c2: Polynomial


class OmalousReport(Record):
    """Outcome of the anomaly-cancellation comparison against the tangent bundle."""

    bundle_chern: ChernData
    tangent_chern: ChernData
    c1_matches: bool
    c2_matches: bool

    @property
    def ok(self) -> bool:
        return self.c1_matches and self.c2_matches


def product_projective_toric(dims: Sequence[int]) -> ToricData:
    """Toric data of P^(n1) x ... x P^(nr).

    Coordinates are x0, x1, ... grouped by factor; each factor's coordinate
    set is a primitive collection; the irrelevant ideal is generated by the
    products picking one coordinate from each factor.
    """
    dims = _check_dims(dims)
    rank = len(dims)
    coordinates: list[str] = []
    groups: list[list[str]] = []
    for n in dims:
        group = [f"x{len(coordinates) + i}" for i in range(n + 1)]
        coordinates.extend(group)
        groups.append(group)
    rows = []
    for factor, group in enumerate(groups):
        for _ in group:
            rows.append(
                tuple(Fraction(1 if j == factor else 0) for j in range(rank))
            )
    index = {name: i for i, name in enumerate(coordinates)}
    irrelevant = []
    for pick in itertools.product(*groups):
        exps = [0] * len(coordinates)
        for name in pick:
            exps[index[name]] = 1
        irrelevant.append(tuple(exps))
    return ToricData(
        coordinates=tuple(coordinates),
        picard_rank=rank,
        grading_matrix=tuple(rows),
        primitive_collections=tuple(tuple(g) for g in groups),
        irrelevant_generators=tuple(irrelevant),
    )


def euler_matrix_default(toric: ToricData) -> DeformationMatrix:
    """Undeformed Euler-sequence matrix: block diagonal, entry x_rho in the
    column of the factor containing rho."""
    table = toric.coordinate_table
    rank = toric.picard_rank
    zero = Polynomial.zero(table)
    rows = []
    for i, name in enumerate(toric.coordinates):
        row = [zero] * rank
        column = _class_column(toric, i)
        row[column] = Polynomial.variable(table, name)
        rows.append(tuple(row))
    return DeformationMatrix(toric, tuple(rows))


def _class_column(toric: ToricData, coordinate_index: int) -> int:
    """Column of the unit class of a coordinate; rows of product families are
    unit vectors."""
    row = toric.grading_matrix[coordinate_index]
    nonzero = [j for j, c in enumerate(row) if c]
    if len(nonzero) != 1 or row[nonzero[0]] != 1:
        raise ValueError("coordinate class is not a unit vector")
    return nonzero[0]


def p1p1_deformation(
    eps: Sequence[Scalar], gam: Sequence[Scalar]
) -> DeformationMatrix:
    """Six-parameter tangent deformation of P^1 x P^1.

    Rows over (x0, x1, x2, x3)::

        (x0,                 eps1*x0 + eps2*x1)
        (x1,                 eps3*x0          )
        (gam1*x2 + gam2*x3,  x2               )
        (gam3*x2,            x3               )
    """
    eps = _rational_triple(eps, "eps")
    gam = _rational_triple(gam, "gam")
    toric = product_projective_toric([1, 1])
    table = toric.coordinate_table
    x0 = Polynomial.variable(table, "x0")
    x1 = Polynomial.variable(table, "x1")
    x2 = Polynomial.variable(table, "x2")
    x3 = Polynomial.variable(table, "x3")
    rows = (
        (x0, eps[0] * x0 + eps[1] * x1),
        (x1, eps[2] * x0),
        (gam[0] * x2 + gam[1] * x3, x2),
        (gam[2] * x2, x3),
    )
    return DeformationMatrix(toric, rows)


def _multidegree(toric: ToricData, exps) -> tuple[Fraction, ...]:
    """Divisor class of a coordinate monomial: sum of row classes weighted by
    exponents."""
    rank = toric.picard_rank
    out = [Fraction(0)] * rank
    for i, e in enumerate(exps):
        if e:
            for j in range(rank):
                out[j] += e * toric.grading_matrix[i][j]
    return tuple(out)


def validate_deformation(matrix: DeformationMatrix) -> list[tuple[int, int, str]]:
    """Well-formedness violations of a deformation matrix; empty means valid.

    Checks the shape (one row per coordinate, picard_rank columns), the
    shared coordinate table, and that every nonzero entry is homogeneous of
    the divisor class of its row coordinate.
    """
    toric = matrix.toric
    table = toric.coordinate_table
    violations: list[tuple[int, int, str]] = []
    if len(matrix.entries) != len(toric.coordinates):
        return [(-1, -1, "matrix must have one row per coordinate")]
    for i, row in enumerate(matrix.entries):
        if len(row) != toric.picard_rank:
            violations.append((i, -1, "row must have picard_rank entries"))
            continue
        expected = _multidegree(
            toric, tuple(1 if k == i else 0 for k in range(len(toric.coordinates)))
        )
        for j, entry in enumerate(row):
            if entry.table != table:
                violations.append((i, j, "entry over a different coordinate table"))
                continue
            if entry.is_zero():
                continue
            classes = {_multidegree(toric, m) for m, _ in entry.terms}
            if len(classes) != 1 or next(iter(classes)) != expected:
                violations.append(
                    (i, j, "entry is not homogeneous of the row coordinate class")
                )
    return violations


def minors_ideal(matrix: DeformationMatrix) -> tuple[Polynomial, ...]:
    """The nonzero maximal (picard_rank-sized) minors of the deformation
    matrix: generators of their ideal over the coordinate table.

    Row subsets are enumerated in lexicographic order; identically zero
    minors are dropped, duplicates are kept.
    """
    toric = matrix.toric
    table = toric.coordinate_table
    rank = toric.picard_rank
    generators = []
    for rows in itertools.combinations(range(len(toric.coordinates)), rank):
        sub = [
            [matrix.entries[r][c] for c in range(rank)] for r in rows
        ]
        minor = determinant(table, sub)
        if not minor.is_zero():
            generators.append(minor)
    return tuple(generators)


def check_bundle_regularity(matrix: DeformationMatrix) -> bool:
    """Does the matrix define a bundle off the irrelevant locus?

    True when every irrelevant generator lies in the radical of the ideal of
    maximal minors, so the degeneracy locus is contained in the irrelevant
    locus.  The matrix must validate first.  One Groebner basis of the minors
    ideal is computed; a generator it reduces to zero lies in the ideal and
    so in its radical, and only a generator outside the ideal falls back to
    :func:`radical_member`, one Rabinowitsch basis each.
    """
    violations = validate_deformation(matrix)
    if violations:
        raise ValueError(f"invalid deformation matrix: {violations[0][2]}")
    toric = matrix.toric
    table = toric.coordinate_table
    minors = minors_ideal(matrix)
    gb = buchberger(table, minors)
    for exps in toric.irrelevant_generators:
        m = Polynomial.monomial(table, exps)
        if not (ideal_member(m, gb) or radical_member(m, minors)):
            return False
    return True


def chern_of_twisted_sum(
    toric: ToricData, twists: Sequence[Sequence[Scalar]] | None = None
) -> ChernData:
    """c1 and c2 of a direct sum of line bundles, reduced in the
    Stanley-Reisner ring.

    With ``twists`` omitted the summands are the coordinate classes, the
    Euler-sequence presentation of the tangent bundle.  The total class is
    the product of (1 + class) over the summands; c1 and c2 are its degree
    one and two parts after normal-form reduction.
    """
    presentation = toric.stanley_reisner
    if twists is None:
        twists = toric.grading_matrix
    table = presentation.table
    classes = _class_polynomials(table, twists)
    total = Polynomial.constant(table, 1)
    for cls in classes:
        total = total * (Polynomial.constant(table, 1) + cls)
    reduced = presentation.gb.reduce(total)

    def part(degree: int) -> Polynomial:
        return Polynomial.from_packed(
            table, ((m, c) for m, c in reduced.packed if table.weighted_degree(m) == degree)
        )

    return ChernData(presentation, part(1), part(2))


def check_omalous(
    toric: ToricData,
    bundle: DeformationMatrix | Sequence[Sequence[Scalar]],
) -> OmalousReport:
    """Anomaly-freeness of a bundle against the tangent bundle.

    Requires c2(bundle) = c2(tangent) and c1(bundle) equal to the sum of the
    coordinate classes.  A deformation matrix is validated and contributes
    the coordinate classes themselves (deformations do not move the twists);
    a twist list contributes its own classes.
    """
    tangent = chern_of_twisted_sum(toric)
    if isinstance(bundle, DeformationMatrix):
        if bundle.toric != toric:
            raise ValueError("deformation matrix belongs to a different toric variety")
        violations = validate_deformation(bundle)
        if violations:
            raise ValueError(f"invalid deformation matrix: {violations[0][2]}")
        bundle_chern = tangent
    else:
        bundle_chern = chern_of_twisted_sum(toric, bundle)
    return OmalousReport(
        bundle_chern=bundle_chern,
        tangent_chern=tangent,
        c1_matches=bundle_chern.c1 == tangent.c1,
        c2_matches=bundle_chern.c2 == tangent.c2,
    )
