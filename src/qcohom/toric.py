"""Toric data for products of projective spaces and tangent-bundle deformations.

The toric variety P^(n1) x ... x P^(nr) is recorded by its ``dims``; its
homogeneous coordinates, the factor (and so the divisor class) of each
coordinate and its Stanley-Reisner ring Q[h_i]/(h_i^(n_i + 1)) are derived
from them.  Deformations of the
tangent bundle are square-free matrices over the coordinate ring, read as
maps in an Euler-type sequence; a :class:`DeformationMatrix` is valid by
construction, every entry homogeneous of the class of its row coordinate.
The deformation is a bundle, its degeneracy locus inside the irrelevant
locus, exactly when the determinants of its factor blocks, the left-hand
sides of the quantum sheaf cohomology relations (McOrist & Melnikov,
arXiv:0712.3272), have no common zero but 0.  The Chern classes c1 and c2 of
a sum of line bundles are the first two elementary symmetric functions of
their classes, in closed form; the anomaly comparison returns the bundle's
and the tangent bundle's pair of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .groebner import buchberger
from .poly import (
    GENERATOR,
    Polynomial,
    Record,
    Scalar,
    VariableTable,
    determinant,
    exact_rational,
    sparse_sums,
)
from .rings import (
    RingPresentation,
    _check_dims,
    _rational_triple,
    classical_cohomology_products,
)


class ToricData(Record):
    """P^(n1) x ... x P^(nr) as a toric variety, recorded by its ``dims``.

    Coordinates x0, x1, ... are grouped by factor, and the divisor class of a
    coordinate is the hyperplane class of its factor.  Every other attribute
    is derived from ``dims`` on first use and kept.
    """

    dims: tuple[int, ...]

    @property
    def picard_rank(self) -> int:
        return len(self.dims)

    @cached_property
    def factors(self) -> tuple[int, ...]:
        """The factor of each coordinate."""
        return tuple(f for f, n in enumerate(self.dims) for _ in range(n + 1))

    @cached_property
    def coordinates(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(len(self.factors)))

    @cached_property
    def factor_coordinates(self) -> tuple[tuple[int, ...], ...]:
        """The indices of the coordinates of each factor."""
        return tuple(
            tuple(i for i, f in enumerate(self.factors) if f == factor)
            for factor in range(self.picard_rank)
        )

    @cached_property
    def coordinate_table(self) -> VariableTable:
        return VariableTable.make((n, 1, GENERATOR) for n in self.coordinates)

    @cached_property
    def stanley_reisner(self) -> RingPresentation:
        """The Stanley-Reisner ring, the cohomology ring in the classes h_i."""
        return classical_cohomology_products(self.dims, "h")


class DeformationMatrix(Record):
    """Square-free matrix over the coordinate ring: one row per coordinate,
    ``picard_rank`` entries per row, each over the coordinate table and, when
    nonzero, homogeneous of the divisor class of its row coordinate (a linear
    form in the coordinates of that factor).  Anything else raises
    ``ValueError`` naming the row, the column and the reason."""

    toric: ToricData
    entries: tuple[tuple[Polynomial, ...], ...]

    def _validate(self) -> None:
        toric = self.toric
        width = VariableTable.field_width
        if len(self.entries) != len(toric.coordinates):
            raise ValueError("invalid deformation matrix: matrix must have one row per coordinate")
        for i, row in enumerate(self.entries):
            if len(row) != toric.picard_rank:
                raise ValueError(
                    f"invalid deformation matrix: row {i}: row must have picard_rank entries"
                )
            for j, entry in enumerate(row):
                if entry.table != toric.coordinate_table:
                    reason = "entry over a different coordinate table"
                # A packed x_k is one set bit, the lowest of field k.
                elif any(
                    m & (m - 1)
                    or m.bit_length() % width != 1
                    or toric.factors[m.bit_length() // width] != toric.factors[i]
                    for m, _ in entry.packed
                ):
                    reason = "entry is not homogeneous of the row coordinate class"
                else:
                    continue
                raise ValueError(f"invalid deformation matrix: row {i} column {j}: {reason}")


class ChernData(Record):
    """c1 and c2 in the Stanley-Reisner ring :attr:`ToricData.stanley_reisner`."""

    c1: Polynomial
    c2: Polynomial


def product_projective_toric(dims: Sequence[int]) -> ToricData:
    """Toric data of P^(n1) x ... x P^(nr)."""
    return ToricData(_check_dims(dims))


def euler_matrix_default(toric: ToricData) -> DeformationMatrix:
    """Undeformed Euler-sequence matrix: block diagonal, entry x_rho in the
    column of the factor containing rho."""
    table = toric.coordinate_table
    zero = Polynomial.zero(table)
    rows = []
    for name, factor in zip(toric.coordinates, toric.factors):
        row = [zero] * toric.picard_rank
        row[factor] = Polynomial.variable(table, name)
        rows.append(tuple(row))
    return DeformationMatrix(toric, tuple(rows))


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


def _nonsingular(rows) -> bool:
    """Is the square rational matrix in sparse {column: coefficient} rows
    nonsingular?  Exact row echelon form, each pivot its row's least column."""
    pivots: dict = {}
    for row in rows:
        while row and (p := min(row)) in pivots:
            row = sparse_sums([*row.items(), *((j, -row[p] * e) for j, e in pivots[p].items())])
        if not row:
            return False
        pivots[p] = {j: Fraction(e) / row[p] for j, e in row.items()}
    return True


def check_bundle_regularity(matrix: DeformationMatrix) -> bool:
    """Does the matrix define a bundle off the irrelevant locus?

    The rows of factor a read M_a(sigma) x_a, M_a(sigma) = sum_k sigma_k A_a^(k)
    square, so the matrix drops rank where every x_a != 0 exactly when some
    sigma != 0 makes every M_a(sigma) singular: it is regular when each
    Q_a = det M_a(sigma) is nonzero and every sigma_k has a pure power among
    the leading monomials of one Groebner basis of them.  A block sigma_k A
    has Q_a = det(A) sigma_k^(n_a + 1); exact elimination decides det(A) != 0
    there, where the subset dynamic programming of :func:`determinant` is slow.
    """
    toric, width = matrix.toric, VariableTable.field_width
    sigma = VariableTable.make((f"s{k}", 1, GENERATOR) for k in range(toric.picard_rank))
    forms = []
    for coords in toric.factor_coordinates:
        # block[i][j]: the (packed sigma_k, coefficient of x_j in entry (i, k))
        # terms of M_a; a packed x_j is the lowest bit of field j
        block = [{} for _ in coords]
        for row, i in zip(block, coords):
            for k, entry in enumerate(matrix.entries[i]):
                for m, c in entry.packed:
                    j = m.bit_length() // width - coords[0]
                    row.setdefault(j, []).append((1 << width * k, c))
        sigmas = {s for row in block for terms in row.values() for s, _ in terms}
        if len(sigmas) == 1:
            scalars = ({j: c for j, ((_, c),) in row.items()} for row in block)
            power = len(coords) * sigmas.pop()  # sigma_k^(n_a + 1), packed
            forms.append(Polynomial(sigma, ((power, 1),) if _nonsingular(scalars) else ()))
        else:
            rows = [{j: Polynomial.from_packed(sigma, t) for j, t in row.items()} for row in block]
            forms.append(determinant(sigma, rows))
    return all(forms) and None not in buchberger(sigma, forms).pure_powers


def chern_of_twisted_sum(
    toric: ToricData, twists: Sequence[Sequence[Scalar]] | None = None
) -> ChernData:
    """c1 and c2 of a direct sum of line bundles, reduced in the
    Stanley-Reisner ring.

    With ``twists`` omitted the summands are the coordinate classes, the
    Euler-sequence presentation of the tangent bundle.  Each twist row is the
    class sum_k c_k*h_k of one summand.  c1 and c2 are the first two
    elementary symmetric functions of the classes, the degree one and two
    parts of the product of (1 + class).  The Stanley-Reisner relations are
    monomials of degree at least two, so c1 is already reduced and c2 takes
    the one normal form.
    """
    presentation = toric.stanley_reisner
    table = presentation.table
    rank = toric.picard_rank
    if twists is None:
        twists = [[int(j == f) for j in range(rank)] for f in toric.factors]
    h = [1 << table.field_width * k for k in range(rank)]  # packed h_k
    c1 = c2 = Polynomial.zero(table)
    for row in twists:
        row = tuple(map(exact_rational, row))
        if len(row) != rank:
            raise ValueError("class vector length must equal the Picard rank")
        cls = Polynomial.from_packed(table, zip(h, row))
        c1, c2 = c1 + cls, c2 + c1 * cls
    return ChernData(c1, presentation.gb.reduce(c2))


def check_omalous(
    toric: ToricData,
    bundle: DeformationMatrix | Sequence[Sequence[Scalar]],
) -> tuple[ChernData, ChernData]:
    """The (bundle, tangent) Chern data of the anomaly comparison.

    The bundle is anomaly-free when the two are equal: c2(bundle) =
    c2(tangent) and c1(bundle) is the sum of the coordinate classes.  A
    deformation matrix contributes the coordinate classes themselves
    (deformations do not move the twists); a twist list contributes its own
    classes.
    """
    tangent = chern_of_twisted_sum(toric)
    if isinstance(bundle, DeformationMatrix):
        if bundle.toric != toric:
            raise ValueError("deformation matrix belongs to a different toric variety")
        return tangent, tangent
    return chern_of_twisted_sum(toric, bundle), tangent
