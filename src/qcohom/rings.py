"""Cohomology ring presentations and their quotient algebras.

A presentation is a graded polynomial ring (generator variables, optionally
instanton and parameter variables) together with homogeneous relations.  The
quotient algebra carries a reduced Groebner basis under the block order and a
finite module basis (the staircase of generator-block monomials outside the
leading-term ideal).  When the staircase is infinite the presentation does not
define a finite free module over the instanton coefficients and a
``degenerate presentation`` error is raised.

Supported constructions: classical and quantum cohomology of products of
projective spaces, the quantum sheaf cohomology of tangent deformations of
P^1 x P^1, and Stanley-Reisner presentations of toric varieties.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .groebner import GroebnerBasis, buchberger, ideal_member
from .poly import (
    GENERATOR,
    INSTANTON,
    Polynomial,
    Record,
    Scalar,
    VariableTable,
    monomial_divides,
)


class DegeneratePresentationError(ValueError):
    """The staircase is infinite: no finite module basis exists."""


class RingPresentation(Record):
    """Graded variable table plus homogeneous relations."""

    table: VariableTable
    relations: tuple[Polynomial, ...]
    description: str

    def _validate(self) -> None:
        for r in self.relations:
            if r.table != self.table:
                raise ValueError("relation over a different table")
            if r.is_zero():
                raise ValueError("relations must be nonzero")
            if r.graded_degree() is None:
                raise ValueError(f"relation {r} is not homogeneous")

    @cached_property
    def gb(self) -> GroebnerBasis:
        """Reduced Groebner basis of the relations under the block order."""
        return buchberger(self.table, self.relations)


class QuotientAlgebra(Record):
    """Presentation with its reduced Groebner basis and staircase module basis.

    ``module_basis`` lists the packed generator-block monomials ascending
    under the block order.
    """

    presentation: RingPresentation
    gb: GroebnerBasis
    module_basis: tuple[int, ...]

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form of p against the Groebner basis."""
        return self.gb.reduce(p)

    def basis_degrees(self) -> tuple[int, ...]:
        return tuple(map(self.presentation.table.weighted_degree, self.module_basis))

    def graded_dimensions(self) -> tuple[int, ...]:
        """Number of module basis monomials in each degree, from 0 to the top."""
        degs = self.basis_degrees()
        top = max(degs)
        counts = [0] * (top + 1)
        for d in degs:
            counts[d] += 1
        return tuple(counts)


def _variety_name(dims: Sequence[int]) -> str:
    return " x ".join(f"P^{n}" for n in dims)


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(dims)
    if not dims or any(
        not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in dims
    ):
        raise ValueError("dims must be a nonempty list of positive integers")
    return dims


def _generator_names(dims: Sequence[int], stem: str) -> list[str]:
    if len(dims) == 1:
        return [stem]
    return [f"{stem}{i + 1}" for i in range(len(dims))]


def classical_cohomology_products(dims: Sequence[int]) -> RingPresentation:
    """Cohomology of a product of projective spaces: one relation H_i^(n_i + 1)."""
    dims = _check_dims(dims)
    names = _generator_names(dims, "H")
    table = VariableTable.make((n, 1, GENERATOR) for n in names)
    relations = tuple(
        Polynomial.variable(table, names[i]) ** (dims[i] + 1) for i in range(len(dims))
    )
    return RingPresentation(
        table, relations, f"classical cohomology of {_variety_name(dims)}"
    )


def quantum_cohomology_products(dims: Sequence[int]) -> RingPresentation:
    """Quantum cohomology of a product of projective spaces.

    One relation H_i^(n_i + 1) - q_i per factor, with deg q_i = n_i + 1.
    """
    dims = _check_dims(dims)
    h_names = _generator_names(dims, "H")
    q_names = _generator_names(dims, "q")
    table = VariableTable.make(
        [(n, 1, GENERATOR) for n in h_names]
        + [(q_names[i], dims[i] + 1, INSTANTON) for i in range(len(dims))]
    )
    relations = tuple(
        Polynomial.variable(table, h_names[i]) ** (dims[i] + 1)
        - Polynomial.variable(table, q_names[i])
        for i in range(len(dims))
    )
    return RingPresentation(
        table, relations, f"quantum cohomology of {_variety_name(dims)}"
    )


def _rational_triple(values: Sequence[Scalar], label: str) -> tuple[Fraction, ...]:
    values = tuple(Fraction(v) for v in values)
    if len(values) != 3:
        raise ValueError(f"{label} must have exactly three entries")
    return values


def qsc_presentation_p1p1(
    eps: Sequence[Scalar], gam: Sequence[Scalar]
) -> RingPresentation:
    """Quantum sheaf cohomology of a tangent deformation of P^1 x P^1.

    Relations in psi, psit with instanton variables q1, q2 of degree 2::

        psi^2  + eps1*psi*psit - eps2*eps3*psit^2 - q1
        psit^2 + gam1*psi*psit - gam2*gam3*psi^2  - q2

    The deformation parameters enter as exact rationals.
    """
    e1, e2, e3 = _rational_triple(eps, "eps")
    g1, g2, g3 = _rational_triple(gam, "gam")
    table = VariableTable.make(
        [("psi", 1, GENERATOR), ("psit", 1, GENERATOR), ("q1", 2, INSTANTON), ("q2", 2, INSTANTON)]
    )
    psi = Polynomial.variable(table, "psi")
    psit = Polynomial.variable(table, "psit")
    q1 = Polynomial.variable(table, "q1")
    q2 = Polynomial.variable(table, "q2")
    relations = (
        psi * psi + e1 * psi * psit - (e2 * e3) * psit * psit - q1,
        psit * psit + g1 * psi * psit - (g2 * g3) * psi * psi - q2,
    )
    eps_text = ", ".join(str(v) for v in (e1, e2, e3))
    gam_text = ", ".join(str(v) for v in (g1, g2, g3))
    return RingPresentation(
        table,
        relations,
        f"quantum sheaf cohomology of P^1 x P^1, eps=({eps_text}), gam=({gam_text})",
    )


def quotient_algebra(presentation: RingPresentation) -> QuotientAlgebra:
    """Groebner basis under the block order plus the staircase module basis.

    Raises :class:`DegeneratePresentationError` when some generator variable
    has no pure power among the generator-supported leading monomials, which
    is exactly when the staircase is infinite.
    """
    table, gb = presentation.table, presentation.gb
    stop = table.block_spans[0][1]  # the generator block is a prefix
    gen_lms = [lm for lm, _ in gb.leading_terms if not lm & ~table.generator_mask]

    gen_exps = [table.unpack(lm) for lm in gen_lms]
    bounds = []
    for i in range(stop):
        powers = [e[i] for e in gen_exps if 0 < e[i] == sum(e)]
        if not powers:
            raise DegeneratePresentationError("degenerate presentation")
        bounds.append(min(powers))

    rest = (0,) * (len(table) - stop)
    basis = []
    for combo in itertools.product(*(range(b) for b in bounds)):
        m = table.pack(combo + rest)
        if any(monomial_divides(table, lm, m) for lm in gen_lms):
            continue
        basis.append(m)
    basis.sort(key=table.block_order.key)
    return QuotientAlgebra(presentation, gb, tuple(basis))


def substitute(
    presentation: RingPresentation, assignments: Mapping[str, Scalar]
) -> RingPresentation:
    """Evaluate instanton or parameter variables at exact rationals.

    The assigned variables leave the table; relations that become zero are
    dropped.  Assigning a nonzero value to a positive-degree variable makes a
    relation inhomogeneous and is rejected by presentation validation.
    """
    table = presentation.table
    for name in assignments:
        block = table.entries[table.index(name)].block
        if block == GENERATOR:
            raise ValueError(f"cannot substitute generator variable {name!r}")
    new_relations = []
    for r in presentation.relations:
        s = r.substitute(assignments)
        if not s.is_zero():
            new_relations.append(s)
    new_table = Polynomial.zero(table).substitute(assignments).table
    assigned = ", ".join(
        f"{name}={Fraction(assignments[name])}" for name in sorted(assignments)
    )
    return RingPresentation(
        new_table,
        tuple(new_relations),
        f"{presentation.description} [{assigned}]",
    )


def presentations_isomorphic_by_renaming(
    a: RingPresentation, b: RingPresentation, rename: Mapping[str, str]
) -> bool:
    """Do the presentations define the same ideal after renaming a's variables?

    ``rename`` maps names of a to names of b; unmapped names pass through
    unchanged.  The completed map must be a degree- and block-preserving
    bijection onto b's variables.  Over b's table, the renamed relations of a
    must lie in b's ideal, and then the two ideals are equal exactly when
    their reduced Groebner bases are, since a reduced basis is canonical.
    """
    table_a, table_b = a.table, b.table
    if len(table_a) != len(table_b):
        raise ValueError("rename is not a bijection between the variable tables")
    full = {}
    for v in table_a.entries:
        target = rename.get(v.name, v.name)
        try:
            w = table_b.entries[table_b.index(target)]
        except KeyError:
            raise ValueError(f"rename target {target!r} is not a variable of b") from None
        if (v.degree, v.block) != (w.degree, w.block):
            raise ValueError(
                f"rename {v.name!r} -> {target!r} does not preserve degree and block"
            )
        full[v.name] = target
    if len(set(full.values())) != len(table_b):
        raise ValueError("rename is not a bijection between the variable tables")

    relations = tuple(r.transport(table_b, full) for r in a.relations)
    moved = RingPresentation(table_b, relations, a.description)
    if moved == a:  # nothing moved: reuse a's basis
        moved = a
    if not all(ideal_member(r, b.gb) for r in moved.relations):
        return False
    return moved.gb == b.gb


def stanley_reisner_ring(toric) -> RingPresentation:
    """Stanley-Reisner presentation of a ``toric.ToricData`` in divisor-class variables.

    One degree-1 generator per Picard class (h, or h1..hr); one relation per
    primitive collection, the product of the classes of its coordinates.
    """
    rank = toric.picard_rank
    rows = [tuple(Fraction(x) for x in row) for row in toric.grading_matrix]
    if len(rows) != len(toric.coordinates):
        raise ValueError("grading matrix must have one row per coordinate")
    if any(len(r) != rank for r in rows):
        raise ValueError("grading matrix rows must have picard_rank entries")
    if _column_rank(rows) != rank:
        raise ValueError("grading matrix rank deficiency")
    names = ["h"] if rank == 1 else [f"h{i + 1}" for i in range(rank)]
    table = VariableTable.make((n, 1, GENERATOR) for n in names)
    classes = _class_polynomials(table, rows)
    coord_index = {name: i for i, name in enumerate(toric.coordinates)}
    relations = []
    for collection in toric.primitive_collections:
        rel = Polynomial.constant(table, 1)
        for coord in collection:
            rel = rel * classes[coord_index[coord]]
        relations.append(rel)
    return RingPresentation(
        table,
        tuple(relations),
        f"Stanley-Reisner presentation, coordinates ({', '.join(toric.coordinates)})",
    )


def _class_polynomials(
    table: VariableTable, classes: Sequence[Sequence[Scalar]]
) -> list[Polynomial]:
    """Linear forms sum_k c_k*h_k in the degree-1 class variables, one per row."""
    rank = len(table)
    units = [tuple(1 if j == k else 0 for j in range(rank)) for k in range(rank)]
    out = []
    for row in classes:
        row = tuple(Fraction(v) for v in row)
        if len(row) != rank:
            raise ValueError("class vector length must equal the Picard rank")
        out.append(Polynomial.from_terms(table, zip(units, row)))
    return out


def _column_rank(rows: Sequence[tuple[Fraction, ...]]) -> int:
    """Rank of an exact rational matrix by Gaussian elimination."""
    work = [list(r) for r in rows]
    cols = len(work[0]) if work else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank
