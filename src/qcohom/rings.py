"""Cohomology ring presentations and their quotient algebras.

A presentation is a graded polynomial ring (generator variables, optionally
instanton variables) together with homogeneous relations.  The quotient
algebra is the presentation with its reduced Groebner basis under the block
order; its finite module basis, the staircase of generator-block monomials
outside the leading-term ideal, is derived from that basis when the algebra
is built, so no normal form leaves it.  A staircase element is named by its
packed monomial, which keys the multiplication matrices and the generator
parts of a normal form.  The algebra must be a finite free module over the
instanton coefficients, with the staircase as its basis: when the staircase
is infinite, or a leading monomial of the basis holds an instanton
variable, a ``degenerate presentation`` error is raised.  The rings of
products of projective spaces and of their deformations are built in
:mod:`qcohom.toric`, which this module does not import.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property

from .groebner import GroebnerBasis, buchberger
from .poly import (
    Polynomial,
    Record,
    VariableTable,
    _sorted_terms,
    monomial_divides,
)


class DegeneratePresentationError(ValueError):
    """The quotient is not a finite free module over the instanton
    coefficients on its staircase: the staircase is infinite, or a leading
    monomial of the Groebner basis holds an instanton variable."""


class RingPresentation(Record):
    """Graded variable table plus homogeneous relations."""

    table: VariableTable
    relations: tuple[Polynomial, ...]
    description: str

    def _validate(self) -> None:
        for r in self.relations:
            if r.table != self.table:
                raise ValueError("relation over a different table")
            if not r:
                raise ValueError("relations must be nonzero")
            if r.graded_degree() is None:
                raise ValueError(f"relation {r} is not homogeneous")

    @cached_property
    def gb(self) -> GroebnerBasis:
        """Reduced Groebner basis of the relations under the block order."""
        return buchberger(self.table, self.relations)


class QuotientAlgebra(Record):
    """Presentation with its reduced Groebner basis; the staircase module
    basis is derived from the basis, so every normal form lies on it.

    ``module_basis`` lists the packed generator-block monomials e_l ascending
    under the block order; each e_l is named by its packed monomial alone.
    """

    presentation: RingPresentation
    gb: GroebnerBasis

    def _validate(self) -> None:
        self.module_basis  # a basis that is not free raises here

    @cached_property
    def module_basis(self) -> tuple[int, ...]:
        """The generator-block monomials outside the leading-term ideal.

        Raises :class:`DegeneratePresentationError` when some generator has
        no pure power among the leading monomials, so that the staircase is
        infinite, and then when a leading monomial holds an instanton
        variable.  So every leading monomial is generator-only: a normal form
        reduces over the instanton monomials, and the staircase is a basis of
        a free module.
        """
        table = self.presentation.table
        stop = table.block_spans[0][1]  # the generator block is a prefix
        bounds = self.gb.pure_powers[:stop]
        if None in bounds:
            raise DegeneratePresentationError("degenerate presentation")
        lms = [lm for lm, _ in self.gb.leading_terms]
        for lm in lms:
            if lm & ~table.generator_mask:
                name = Polynomial(table, ((lm, 1),))
                raise DegeneratePresentationError(
                    f"degenerate presentation: leading monomial {name} holds an instanton variable"
                )
        rest = (0,) * (len(table) - stop)
        box = (table.pack(combo + rest) for combo in itertools.product(*map(range, bounds)))
        basis = [m for m in box if not any(monomial_divides(table, lm, m) for lm in lms)]
        return tuple(sorted(basis, key=table.block_key))

    @cached_property
    def matrices(self) -> tuple[dict[int, list], ...]:
        """The multiplication matrix M_v of each generator x_v (as in FGLM:
        Faugere, Gianni, Lazard & Mora, J. Symbolic Comput. 16, 1993), by
        column in table order: column e_l lists (e_j, M_v[j][l]) over its
        nonzero entries in basis order, M_v[j][l] being the coefficient of
        e_l in NF(x_v*e_j).  Each M_v takes at most n normal forms."""
        table, basis = self.presentation.table, self.module_basis
        one = Polynomial.constant(table, 1)
        matrices = []
        for v in range(table.block_spans[0][1]):
            x = 1 << table.field_width * v
            columns = {m: [] for m in basis}
            for m in basis:
                if m + x in columns:
                    columns[m + x].append((m, one))
                    continue
                for e, c in self.gb.parts(((m + x, 1),)).items():
                    columns[e].append((m, _sorted_terms(table, c)))
            matrices.append(columns)
        return tuple(matrices)

    @cached_property
    def basis_degrees(self) -> tuple[int, ...]:
        return tuple(map(self.presentation.table.weighted_degree, self.module_basis))

    def graded_dimensions(self) -> tuple[int, ...]:
        """Number of module basis monomials in each degree, from 0 to the top."""
        return tuple(map(self.basis_degrees.count, range(max(self.basis_degrees) + 1)))


def quotient_algebra(presentation: RingPresentation) -> QuotientAlgebra:
    """The presentation with its Groebner basis under the block order.

    Raises :class:`DegeneratePresentationError` as :class:`QuotientAlgebra`
    does: on an infinite staircase or a leading monomial that holds an
    instanton variable.
    """
    return QuotientAlgebra(presentation, presentation.gb)


def classical_limit(presentation: RingPresentation) -> RingPresentation:
    """The presentation at q = 0, every instanton variable set to zero.

    Only the generator-only terms of each relation survive, and relations
    that become zero are dropped.  The generator block is a prefix of the
    table and the term order is degrevlex over positions, so the surviving
    terms keep their packed monomials and their order on the generator table.
    """
    table = presentation.table
    stop = table.block_spans[0][1]
    generators = VariableTable(table.entries[:stop])
    relations = []
    for r in presentation.relations:
        kept = tuple(t for t in r.packed if not t[0] & ~table.generator_mask)
        if kept:
            relations.append(Polynomial(generators, kept))
    assigned = ", ".join(f"{name}=0" for name in sorted(table.names[stop:]))
    return RingPresentation(
        generators,
        tuple(relations),
        f"{presentation.description} [{assigned}]",
    )


def presentations_isomorphic_by_renaming(
    a: RingPresentation, b: RingPresentation, rename: Mapping[str, str]
) -> bool:
    """Do the presentations define the same ideal after renaming a's variables?

    ``rename`` maps names of a to names of b; unmapped names pass through
    unchanged.  Renaming a's variables must give exactly b's table: the same
    names in the same order, with the same degrees and blocks.  A packed
    monomial and the block order read positions alone, so a's reduced
    Groebner basis, re-tagged with b's table, is a reduced basis over b; the
    two ideals are equal exactly when the bases are, since a reduced basis is
    canonical.
    """
    renamed = tuple(v.replace(name=rename.get(v.name, v.name)) for v in a.table.entries)
    if renamed != b.table.entries:
        raise ValueError("renaming the variables of a does not give the table of b")
    return [(lm, g.packed) for lm, g in a.gb.leading_terms] == [
        (lm, g.packed) for lm, g in b.gb.leading_terms
    ]
