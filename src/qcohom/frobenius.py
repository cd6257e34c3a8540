"""The trace, pairings and correlators on quotient algebras.

The trace is fixed by a single normalization: the user names a homogeneous
reference element of top degree and its trace value.  Reducing the reference
and setting the instanton variables to zero must leave a nonzero multiple of
the unique top-degree staircase monomial; the trace of that monomial, the
top coefficient, is then derived from the requested value and every other
staircase monomial of lower degree traces to zero.  Instanton monomials pass
through the trace as factors, so traces, pairings and three-point functions
are polynomials in the instanton variables with exact rational coefficients.

The Gram matrix and the three-point correlators read the pairing rows
tr(e_i*e_j), which are built from one multiplication matrix per generator
(as in FGLM: Faugere, Gianni, Lazard & Mora, J. Symbolic Comput. 16, 1993)
rather than from a reduced product per basis pair.  Both need the trace to be
linear over instanton monomials, which holds when every Groebner leading
monomial is generator-only; :func:`trace` and :func:`pairing` reduce their
own argument and need nothing of the kind.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .poly import (
    Polynomial,
    Record,
    Scalar,
    determinant,
    exact_rational,
    monomial_divides,
)
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

    @cached_property
    def pairing_rows(self) -> PairingRows:
        """The pairing rows tr(e_i*e_j), each built on first use and kept."""
        return PairingRows(self)


class PairingRows(dict):
    """The pairing by rows: ``rows[i]`` maps each j with tr(e_i*e_j) != 0 to
    that polynomial in the instanton variables, built on first use and kept.

    Row 0, of the unit, is the trace: the top coefficient at the top
    monomial.  Row i, with e_i = x_v*e_i' and i' < i, is

        tr(e_i*e_j) = tr(e_i'*NF(x_v*e_j)) = sum_l M_v[j][l]*tr(e_i'*e_l),

    with M_v[j][l] the coordinate of NF(x_v*e_j) on e_l; the middle step is
    tr(q^a*x) = q^a*tr(x), which :func:`_require_linear_trace` guards.  Each
    M_v takes n normal forms at most (none for a product inside the
    staircase, its own normal form) and is kept by column l, so row i is
    filled over the nonzero entries of row i' only.
    """

    def __init__(self, fa: FrobeniusAlgebra) -> None:
        qa = self.algebra = fa.algebra
        table = qa.presentation.table
        self.index = {m: l for l, m in enumerate(qa.module_basis)}
        top = self.index.get(fa.top_monomial)
        unit = {} if top is None else {top: Polynomial.constant(table, fa.top_coefficient)}
        super().__init__({0: unit})
        width = table.field_width
        self._generators = [1 << width * v for v in range(table.block_spans[0][1])]
        self._columns: dict[int, list] = {}  # packed x_v -> M_v by column

    def __missing__(self, i: int) -> dict[int, Polynomial]:
        table = self.algebra.presentation.table
        m = self.algebra.module_basis[i]
        # the staircase holds every divisor of e_i, and the basis ascends
        x = next(x for x in self._generators if monomial_divides(table, x, m))
        columns = self._matrix(x)
        row = self[i] = _sparse_sums(
            (j, c * p) for l, p in self[self.index[m - x]].items() for j, c in columns[l]
        )
        return row

    def coordinates(self, p: Polynomial) -> dict[int, Polynomial]:
        """Staircase coordinates of a normal form: l -> coefficient of e_l."""
        return _coordinates(self.algebra.presentation.table, self.index, p)[0]

    def _matrix(self, x: int) -> list:
        """M_v by column: l -> [(j, M_v[j][l]) for its nonzero entries]."""
        columns = self._columns.get(x)
        if columns is None:
            qa = self.algebra
            table = qa.presentation.table
            one = Polynomial.constant(table, 1)
            columns = self._columns[x] = [[] for _ in qa.module_basis]
            for j, m in enumerate(qa.module_basis):
                if m + x in self.index:
                    columns[self.index[m + x]].append((j, one))
                    continue
                for l, c in self.coordinates(qa.reduce(Polynomial(table, ((m + x, 1),)))).items():
                    columns[l].append((j, c))
        return columns


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
    """Three-point correlator tr(a*b*c), a polynomial in the instanton variables.

    Only a*b and c are reduced.  With x and y their staircase coordinates,
    tr(a*b*c) = sum x_l*y_k*tr(e_l*e_k), read from the pairing rows of the
    side with fewer coordinates; the triple product is never expanded.
    Raises ``ValueError`` unless :func:`_require_linear_trace` holds.
    """
    qa = fa.algebra
    _require_linear_trace(qa)
    rows = fa.pairing_rows
    x = rows.coordinates(qa.reduce(a * b))
    y = rows.coordinates(qa.reduce(c))
    if len(x) > len(y):
        x, y = y, x
    terms = []
    for l, xl in x.items():
        for k, p in rows[l].items():
            if k in y:
                terms += (xl * p * y[k]).packed
    return Polynomial.from_packed(qa.presentation.table, terms)


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

    The entries are read from the pairing rows, so ``ValueError`` is raised
    unless :func:`_require_linear_trace` holds.  Nondegeneracy is judged by
    the constant term of the determinant (its value with all instanton
    variables at zero).
    """
    qa = fa.algebra
    _require_linear_trace(qa)
    table = qa.presentation.table
    zero = Polynomial.zero(table)
    rows = fa.pairing_rows
    n = len(qa.module_basis)
    entries = tuple(tuple(rows[i].get(j, zero) for j in range(n)) for i in range(n))
    return GramMatrix(qa.module_basis, entries, determinant(table, entries))


def _require_linear_trace(qa: QuotientAlgebra) -> None:
    """Raise ``ValueError`` unless every Groebner leading monomial is
    generator-only.  Then q^a times a normal form is a normal form, so
    tr(q^a*x) = q^a*tr(x), as the pairing rows and the Frobenius check need."""
    table = qa.presentation.table
    for lm, g in qa.gb.leading_terms:
        if lm & ~table.generator_mask:
            raise ValueError(
                "pairing rows and the Frobenius check need generator-only Groebner "
                f"leading monomials, but {g} has an instanton variable in its leading term"
            )


def _coordinates(table, index: dict, p: Polynomial) -> tuple[dict[int, Polynomial], bool]:
    """Staircase coordinates of a normal form p, l -> its coefficient of e_l
    (a polynomial in the instanton variables), and whether p has a term
    outside the staircase, which they leave out.  Terms sharing a generator
    part stay sorted when it is taken off."""
    gen_mask = table.generator_mask
    coordinates: dict[int, list] = {}
    escaped = False
    for m, c in p.packed:
        gen_part = m & gen_mask
        if gen_part in index:
            coordinates.setdefault(index[gen_part], []).append((m ^ gen_part, c))
        else:
            escaped = True
    return {l: Polynomial(table, tuple(t)) for l, t in coordinates.items()}, escaped


def _structure_table(fa: FrobeniusAlgebra) -> StructureTable:
    """Reduce each basis product e_i*e_j, i <= j, once.

    A staircase monomial is its own normal form, so tr(e_l) is zero off the
    top monomial; a top monomial outside the staircase pairs to zero.
    """
    qa = fa.algebra
    table = qa.presentation.table
    index = {m: l for l, m in enumerate(qa.module_basis)}
    top = index.get(fa.top_monomial)
    polys = [Polynomial(table, ((m, 1),)) for m in qa.module_basis]
    n = len(polys)
    zero = Polynomial.zero(table)
    mul: list[list] = [[()] * n for _ in range(n)]
    pair: list[list] = [[None] * n for _ in range(n)]
    escaped = set()
    for i in range(n):
        for j in range(i, n):
            products, left = _coordinates(table, index, quantum_product(fa, polys[i], polys[j]))
            if left:
                escaped.update(((i, j), (j, i)))
            mul[i][j] = mul[j][i] = tuple(sorted(products.items()))
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
    tr(q^a*x) = q^a*tr(x); an algebra where :func:`_require_linear_trace`
    fails raises ``ValueError``.
    """
    qa = fa.algebra
    table = qa.presentation.table
    _require_linear_trace(qa)
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
