"""The trace, pairings and correlators on quotient algebras.

The trace is fixed by a single normalization: the user names a homogeneous
reference element of top degree and its trace value.  Reducing the reference
and setting the instanton variables to zero must leave a nonzero multiple of
the unique top-degree staircase monomial; the trace of that monomial, the
top coefficient, is then derived from the requested value and every other
staircase monomial of lower degree traces to zero.  Instanton monomials pass
through the trace as factors, so traces, pairings and three-point functions
are polynomials in the instanton variables with exact rational coefficients.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .poly import Polynomial, Record, Scalar, determinant, exact_rational
from .rings import QuotientAlgebra


class TraceDegenerateError(ValueError):
    """The requested normalization does not determine a trace."""


class StructureTable(Record):
    """Structure constants of a Frobenius algebra on its staircase basis e_0..e_(n-1).

    ``mul[i][j]`` lists the staircase coordinates of the reduced product
    e_i*e_j as ``(l, coefficient)`` pairs, ascending in l, with nonzero
    coefficients that are polynomials in the instanton variables.
    ``escaped`` holds the index pairs whose reduced product has a generator
    part outside the staircase; their coordinates omit those terms.
    ``pairing[i][j]`` is tr(e_i*e_j): the coordinate of ``mul[i][j]`` on the
    top monomial times the top coefficient.
    """

    mul: tuple[tuple[tuple[tuple[int, Polynomial], ...], ...], ...]
    escaped: frozenset[tuple[int, int]]
    pairing: tuple[tuple[Polynomial, ...], ...]


class FrobeniusAlgebra(Record):
    """A quotient algebra with its trace: tr(top_monomial) = top_coefficient,
    and every other staircase monomial traces to zero."""

    algebra: QuotientAlgebra
    top_monomial: int  # packed
    top_coefficient: Fraction

    @cached_property
    def structure(self) -> StructureTable:
        """The structure-constant table, built on first use and kept."""
        return _structure_table(self)


class GramMatrix(Record):
    """Pairing matrix on the module basis, with its exact determinant."""

    basis: tuple[int, ...]  # packed staircase monomials
    entries: tuple[tuple[Polynomial, ...], ...]
    determinant: Polynomial

    @property
    def constant_term(self) -> Scalar:
        """The determinant with the instanton variables at zero."""
        return self.determinant.coefficient(0)

    @property
    def nondegenerate(self) -> bool:
        return bool(self.constant_term)


def make_frobenius(
    qa: QuotientAlgebra, reference_element: Polynomial, reference_value: Scalar
) -> FrobeniusAlgebra:
    """Derive the trace from one normalization tr(reference) = value.

    The reference must be homogeneous of the top staircase degree.  Raises
    :class:`TraceDegenerateError` when the top-degree staircase component is
    not one-dimensional, the reduced reference vanishes at q = 0 or the value
    is zero.
    """
    table = qa.presentation.table
    if reference_element.table != table:
        raise ValueError("reference element over a different table")
    value = exact_rational(reference_value)
    if not value:
        raise TraceDegenerateError("trace degenerate: trace value is zero")
    degrees = qa.basis_degrees()
    top = max(degrees)
    if reference_element.graded_degree() != top:
        raise ValueError(
            f"reference element must be homogeneous of top degree {top}"
        )
    top_monomials = [m for m, d in zip(qa.module_basis, degrees) if d == top]
    if len(top_monomials) != 1:
        raise TraceDegenerateError(
            "trace degenerate: top-degree staircase component is not one-dimensional"
        )
    top_monomial = top_monomials[0]
    classical = 0
    for m, c in qa.reduce(reference_element).packed:
        if m & ~table.generator_mask:
            continue
        if m != top_monomial:
            raise TraceDegenerateError(
                "trace degenerate: reference reduces outside the top staircase monomial"
            )
        classical += c
    if not classical:
        raise TraceDegenerateError("trace degenerate: reference vanishes at q = 0")
    return FrobeniusAlgebra(qa, top_monomial, value / classical)


def trace(fa: FrobeniusAlgebra, x: Polynomial) -> Polynomial:
    """Trace of x: instanton-variable polynomial, linear over q-monomials."""
    table = fa.algebra.presentation.table
    top = fa.top_monomial
    gen_mask = table.generator_mask
    scale = fa.top_coefficient
    return Polynomial.from_packed(
        table,
        ((m ^ top, c * scale) for m, c in fa.algebra.reduce(x).packed if (m & gen_mask) == top),
    )


def quantum_product(fa: FrobeniusAlgebra, a: Polynomial, b: Polynomial) -> Polynomial:
    """Product in the quotient algebra: the normal form of a*b."""
    return fa.algebra.reduce(a * b)


def pairing(fa: FrobeniusAlgebra, a: Polynomial, b: Polynomial) -> Polynomial:
    """tr(a*b), a polynomial in the instanton variables."""
    return trace(fa, a * b)


def three_point(
    fa: FrobeniusAlgebra, a: Polynomial, b: Polynomial, c: Polynomial
) -> Polynomial:
    """Three-point correlator tr(a*b*c), a polynomial in the instanton variables."""
    return trace(fa, a * b * c)


def instanton_coefficient(value: Polynomial, beta: Sequence[int]) -> Scalar:
    """Coefficient of q^beta; beta indexes the instanton variables in order."""
    table = value.table
    start, stop = table.block_spans[1]
    beta = tuple(beta)
    if len(beta) != stop - start:
        raise ValueError(
            f"beta must have {stop - start} entries, one per instanton variable"
        )
    return value.coefficient(
        table.pack((0,) * start + beta + (0,) * (len(table) - stop))
    )


def gram_matrix(fa: FrobeniusAlgebra) -> GramMatrix:
    """Pairing matrix over the module basis with its exact determinant.

    The entries are read from the structure table.  Nondegeneracy is judged
    by the constant term of the determinant (its value with all instanton
    variables at zero).
    """
    table = fa.algebra.presentation.table
    entries = fa.structure.pairing
    det = determinant(table, entries)
    return GramMatrix(fa.algebra.module_basis, entries, det)


def _structure_table(fa: FrobeniusAlgebra) -> StructureTable:
    """Reduce each basis product e_i*e_j, i <= j, once.

    A staircase monomial is its own normal form, so tr(e_l) is zero off the
    top monomial; a top monomial outside the staircase pairs to zero.
    """
    qa = fa.algebra
    table = qa.presentation.table
    index = {m: l for l, m in enumerate(qa.module_basis)}
    top = index.get(fa.top_monomial)
    gen_mask = table.generator_mask
    polys = [Polynomial(table, ((m, 1),)) for m in qa.module_basis]
    n = len(polys)
    zero = Polynomial.zero(table)
    mul: list[list] = [[()] * n for _ in range(n)]
    pair: list[list] = [[None] * n for _ in range(n)]
    escaped = set()
    for i in range(n):
        for j in range(i, n):
            coordinates: dict[int, list] = {}
            for m, c in quantum_product(fa, polys[i], polys[j]).packed:
                gen_part = m & gen_mask
                if gen_part in index:
                    coordinates.setdefault(index[gen_part], []).append((m ^ gen_part, c))
                else:
                    escaped.update(((i, j), (j, i)))
            products = {
                l: Polynomial.from_packed(table, coordinates[l]) for l in sorted(coordinates)
            }
            mul[i][j] = mul[j][i] = tuple(products.items())
            pair[i][j] = pair[j][i] = products.get(top, zero) * fa.top_coefficient
    return StructureTable(
        tuple(map(tuple, mul)), frozenset(escaped), tuple(map(tuple, pair))
    )


def frobenius_check(fa: FrobeniusAlgebra) -> tuple[str, ...]:
    """Compatibility failures tr((a*b)*c) != tr(a*(b*c)) over every basis
    triple; an empty tuple means all hold.

    Symmetry, the unit law and the grading of the trace hold by construction
    for every algebra :func:`make_frobenius` returns, so only compatibility
    is checked.

    It is read from the structure table: compatibility on e_i, e_j, e_k is the
    identity sum_l mul[i][j][l]*pairing[l][k] = sum_l pairing[i][l]*mul[j][k][l],
    and a triple whose product e_i*e_j or e_j*e_k leaves the staircase fails
    it.  For each i both sides are summed over nonzero table entries only,
    into dicts keyed by (j, k), and compared on every key either dict holds;
    no symmetry of ``mul`` or ``pairing`` is assumed.  The table stands in for
    tr((e_i*e_j)*e_k) only when the trace is linear over instanton monomials,
    tr(q^a*x) = q^a*tr(x).  That holds when every leading monomial of the
    Groebner basis is generator-only: multiplying a normal form by q^a then
    leaves it a normal form.  An algebra that breaks this raises
    ``ValueError``.
    """
    qa = fa.algebra
    table = qa.presentation.table
    for lm, g in qa.gb.leading_terms:
        if lm & ~table.generator_mask:
            raise ValueError(
                "Frobenius check needs generator-only Groebner leading monomials, "
                f"but {g} has an instanton variable in its leading term"
            )
    st = fa.structure
    n = len(qa.module_basis)
    names = [str(Polynomial(table, ((m, 1),))) for m in qa.module_basis]
    rows = [[(k, c) for k, c in enumerate(row) if c] for row in st.pairing]
    # products by staircase coordinate: l -> [(j, k, mul[j][k][l])]
    by_coordinate: list[list] = [[] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for l, c in st.mul[j][k]:
                by_coordinate[l].append((j, k, c))
    compatibility = []
    for i in range(n):
        left = _sparse_sums(
            ((j, k), c * p)
            for j in range(n)
            for l, c in st.mul[i][j]
            for k, p in rows[l]
        )
        right = _sparse_sums(
            ((j, k), p * c) for l, p in rows[i] for j, k, c in by_coordinate[l]
        )
        failing = {
            key
            for key in left.keys() | right.keys()
            if left.get(key) != right.get(key)
        }
        failing.update(st.escaped)  # e_j*e_k escaped
        failing.update(
            (j, k) for j in range(n) if (i, j) in st.escaped for k in range(n)
        )
        for j, k in sorted(failing):
            compatibility.append(
                f"tr(({names[i]}*{names[j]})*{names[k]}) != "
                f"tr({names[i]}*({names[j]}*{names[k]}))"
            )
    return tuple(compatibility)


def _sparse_sums(items) -> dict:
    """Sum the polynomials sharing a key; keys whose sum is zero are dropped."""
    sums: dict = {}
    for key, value in items:
        total = sums[key] + value if key in sums else value
        if total:
            sums[key] = total
        else:
            sums.pop(key, None)
    return sums


def closure_check(fa: FrobeniusAlgebra) -> bool:
    """Every product of basis monomials reduces into the staircase span.

    The normal form of each pairwise product must be supported on module
    basis monomials with instanton-only coefficient monomials attached; the
    structure table records the products that are not.
    """
    return not fa.structure.escaped
