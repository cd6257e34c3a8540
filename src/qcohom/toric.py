"""Toric data for products of projective spaces, tangent-bundle deformations,
and the cohomology rings that both define.

The toric variety P^(n1) x ... x P^(nr) is recorded by its ``dims``; its
homogeneous coordinates and the factor (and so the divisor class) of each
coordinate are derived from them.  Deformations of the tangent bundle are
square-free matrices over the coordinate ring, read as maps in an Euler-type
sequence; a :class:`DeformationMatrix` is valid by construction, every entry
homogeneous of the class of its row coordinate.  The determinants
Q_a = det M_a(sigma) of its factor blocks, its ``sigma_forms``, are the
left-hand sides of the quantum sheaf cohomology relations det M_a(psi) = q_a
(McOrist & Melnikov, arXiv:0712.3272): :func:`deformation_ring` builds the
ring from them, and the deformation is a bundle, its degeneracy locus inside
the irrelevant locus, exactly when they have no common zero but 0.  The Chern
classes c1 and c2 of a sum of line bundles are the first two elementary
symmetric functions of their classes, in closed form, taken in the
cohomology ring Q[h_i]/(h_i^(n_i + 1)) by dropping every term with an
exponent above its n_i; the anomaly comparison returns the bundle's and the
tangent bundle's pair of them.

Supported constructions: classical and quantum cohomology of products of
projective spaces (the Euler matrix), the quantum sheaf cohomology of
tangent deformations of P^1 x P^1, and the ring of any deformation matrix;
every relation is a sigma-determinant, none is written by hand.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .groebner import buchberger
from .poly import (
    GENERATOR,
    INSTANTON,
    Polynomial,
    Record,
    Scalar,
    VariableTable,
    determinant,
    exact_rational,
    monomial_divides,
    sparse_sums,
)
from .rings import RingPresentation


class ToricData(Record):
    """P^(n1) x ... x P^(nr) as a toric variety, recorded by its ``dims``.

    Coordinates x0, x1, ... are grouped by factor, and the divisor class of a
    coordinate is the hyperplane class of its factor.  Every other attribute
    is derived from ``dims`` on first use and kept.
    """

    dims: tuple[int, ...]

    def _validate(self) -> None:
        if type(self.dims) is not tuple or not self.dims or any(
            type(n) is not int or n < 1 for n in self.dims
        ):
            raise ValueError("dims must be a nonempty tuple of positive integers")

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
    def euler_matrix(self) -> DeformationMatrix:
        """The undeformed Euler-sequence matrix: block diagonal, x_i in the
        column of its factor, a packed x_i being the lowest bit of field i."""
        table = self.coordinate_table
        zero = Polynomial.zero(table)
        return DeformationMatrix(self, tuple(
            tuple(
                Polynomial(table, ((1 << table.field_width * i, 1),)) if k == f else zero
                for k in range(self.picard_rank)
            )
            for i, f in enumerate(self.factors)
        ))


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

    @cached_property
    def sigma_forms(self) -> tuple[Polynomial, ...]:
        """Q_a = det M_a(sigma) of each factor block, over the table s0, ...,
        s(r-1) of the sigma_k: the rows of factor a read M_a(sigma) x_a,
        M_a(sigma) = sum_k sigma_k A_a^(k) square, and every block goes
        through :func:`determinant`.
        """
        rank = self.toric.picard_rank
        table = VariableTable.make((f"s{k}", 1, GENERATOR) for k in range(rank))
        width = table.field_width
        # entry (i, k) adds c sigma_k to M_a[i][j] for each term c x_j of it, a
        # packed x_j being the lowest bit of field j
        return tuple(
            determinant(table, [
                sparse_sums(
                    (m.bit_length() // width - coords[0], Polynomial(table, ((1 << width * k, c),)))
                    for k, entry in enumerate(self.entries[i])
                    for m, c in entry.packed
                )
                for i in coords
            ])
            for coords in self.toric.factor_coordinates
        )


class ChernData(Record):
    """c1 and c2 in Q[h_i]/(h_i^(n_i + 1)), over the generators h (one
    factor) or h1, h2, ..., each of degree 1."""

    c1: Polynomial
    c2: Polynomial


def product_projective_toric(dims: Sequence[int]) -> ToricData:
    """Toric data of P^(n1) x ... x P^(nr)."""
    return ToricData(tuple(dims))


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


def _rational_triple(values: Sequence[Scalar], label: str) -> tuple[Fraction, ...]:
    values = tuple(map(exact_rational, values))
    if len(values) != 3:
        raise ValueError(f"{label} must have exactly three entries")
    return values


def check_bundle_regularity(matrix: DeformationMatrix) -> bool:
    """Does the matrix define a bundle off the irrelevant locus?

    The matrix drops rank where every x_a != 0 exactly when some sigma != 0
    makes every M_a(sigma) singular: it is regular when each sigma-form Q_a
    is nonzero and every sigma_k has a pure power among the leading
    monomials of one Groebner basis of them.
    """
    forms = matrix.sigma_forms
    return all(forms) and None not in buchberger(forms[0].table, forms).pure_powers


def _variety_name(dims: Sequence[int]) -> str:
    return " x ".join(f"P^{n}" for n in dims)


def _generator_names(dims: Sequence[int], stem: str) -> list[str]:
    if len(dims) == 1:
        return [stem]
    return [f"{stem}{i + 1}" for i in range(len(dims))]


def deformation_ring(
    matrix: DeformationMatrix, names: Sequence[str], description: str
) -> RingPresentation:
    """The ring of a deformation: one generator of degree 1 per factor, named
    by ``names`` and playing sigma_k, one instanton variable q_a of degree
    n_a + 1 per factor (``q``, or ``q1``, ``q2``, ...), and the relations
    Q_a - q_a.  The matrix's ``sigma_forms`` are re-tagged with this table:
    its generators are a prefix, so packed monomials and their order carry
    over, as in :func:`qcohom.rings.classical_limit`.
    """
    dims = matrix.toric.dims
    if len(names) != len(dims):
        raise ValueError("deformation ring needs one generator name per factor")
    q_names = _generator_names(dims, "q")
    table = VariableTable.make(
        [(n, 1, GENERATOR) for n in names]
        + [(q, n + 1, INSTANTON) for q, n in zip(q_names, dims)]
    )
    relations = tuple(
        Polynomial(table, f.packed) - Polynomial.variable(table, q)
        for f, q in zip(matrix.sigma_forms, q_names)
    )
    return RingPresentation(table, relations, description)


def _euler_ring(toric: ToricData, quantum: bool = False) -> RingPresentation:
    """Classical or quantum cohomology of the product, the ring of its Euler
    matrix, in generators H (one factor) or H1, H2, ...; the classical
    relations are the re-tagged sigma-forms, as in :func:`deformation_ring`."""
    names = _generator_names(toric.dims, "H")
    matrix = toric.euler_matrix
    variety = _variety_name(toric.dims)
    if quantum:
        return deformation_ring(matrix, names, f"quantum cohomology of {variety}")
    table = VariableTable.make((n, 1, GENERATOR) for n in names)
    forms = tuple(Polynomial(table, f.packed) for f in matrix.sigma_forms)
    return RingPresentation(table, forms, f"classical cohomology of {variety}")


def classical_cohomology_products(dims: Sequence[int]) -> RingPresentation:
    """Cohomology of a product of projective spaces: one relation H_i^(n_i + 1),
    the sigma-form of the Euler matrix's factor block, per factor.
    """
    return _euler_ring(product_projective_toric(dims))


def quantum_cohomology_products(dims: Sequence[int]) -> RingPresentation:
    """Quantum cohomology of a product of projective spaces, the ring of the
    Euler matrix: one relation H_i^(n_i + 1) - q_i per factor, with deg q_i =
    n_i + 1.
    """
    return _euler_ring(product_projective_toric(dims), quantum=True)


def _p1p1_ring(
    matrix: DeformationMatrix, eps: Sequence[Fraction], gam: Sequence[Fraction]
) -> RingPresentation:
    """The ring of ``matrix``, the P^1 x P^1 deformation with parameters
    ``eps`` and ``gam``, in generators psi, psit."""
    eps_text = ", ".join(str(v) for v in eps)
    gam_text = ", ".join(str(v) for v in gam)
    return deformation_ring(
        matrix,
        ("psi", "psit"),
        f"quantum sheaf cohomology of P^1 x P^1, eps=({eps_text}), gam=({gam_text})",
    )


def qsc_presentation_p1p1(
    eps: Sequence[Scalar], gam: Sequence[Scalar]
) -> RingPresentation:
    """Quantum sheaf cohomology of a tangent deformation of P^1 x P^1, the
    ring of :func:`p1p1_deformation`.

    Relations in psi, psit with instanton variables q1, q2 of degree 2::

        psi^2  + eps1*psi*psit - eps2*eps3*psit^2 - q1
        psit^2 + gam1*psi*psit - gam2*gam3*psi^2  - q2

    The deformation parameters enter as exact rationals.
    """
    eps = _rational_triple(eps, "eps")
    gam = _rational_triple(gam, "gam")
    return _p1p1_ring(p1p1_deformation(eps, gam), eps, gam)


def chern_of_twisted_sum(
    toric: ToricData, twists: Sequence[Sequence[Scalar]] | None = None
) -> ChernData:
    """c1 and c2 of a direct sum of line bundles in Q[h_i]/(h_i^(n_i + 1)).

    With ``twists`` omitted the summands are the coordinate classes, the
    Euler-sequence presentation of the tangent bundle.  Each twist row is the
    class sum_k c_k*h_k of one summand.  c1 and c2 are the first two
    elementary symmetric functions of the classes, the degree one and two
    parts of the product of (1 + class).  The ideal (h_i^(n_i + 1)) is
    monomial, so the normal form of c2 keeps exactly its terms that divide
    the top class h_1^(n_1)*...*h_r^(n_r); c1 is already reduced.
    """
    names = _generator_names(toric.dims, "h")
    table = VariableTable.make((n, 1, GENERATOR) for n in names)
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
    top = table.pack(toric.dims)  # the top class
    kept = tuple((m, c) for m, c in c2.packed if monomial_divides(table, m, top))
    return ChernData(c1, Polynomial(table, kept))


def check_omalous(
    toric: ToricData, twists: Sequence[Sequence[Scalar]] | None
) -> tuple[ChernData, ChernData]:
    """The (bundle, tangent) Chern data of the anomaly comparison.

    The bundle is anomaly-free when the two are equal: c2(bundle) =
    c2(tangent) and c1(bundle) is the sum of the coordinate classes.  A
    twist list contributes its own classes; ``twists`` is None for a
    deformation of the tangent bundle, whose summands are the coordinate
    classes themselves (deformations do not move the twists).
    """
    tangent = chern_of_twisted_sum(toric)
    return (tangent if twists is None else chern_of_twisted_sum(toric, twists)), tangent
