"""The trace, pairings and correlators on quotient algebras.

The trace is fixed by a single normalization: the user names a homogeneous
reference element of top degree and its trace value.  Reducing the reference
and setting the instanton variables to zero must leave a nonzero multiple of
the unique top-degree staircase monomial; the trace of that monomial, the
top coefficient, is then derived from the requested value and every other
staircase monomial of lower degree traces to zero.  Instanton monomials pass
through the trace as factors, so traces, pairings and three-point functions
are polynomials in the instanton variables with exact rational coefficients.

The multiplication matrices M_v belong to
:class:`~qcohom.rings.QuotientAlgebra`; this module adds the trace.  Like
them, it keys each staircase element e_i by its packed monomial, and only
:func:`gram_matrix` gives e_i a position.  A :class:`FrobeniusAlgebra` keeps
``pairing_rows``, the pairing tr(e_i*e_j) at top coefficient 1, built from
the matrices row by row on first use.  The Gram matrix and the correlators
read the rows and scale once; the Frobenius check is the commuting test
M_u*M_v = M_v*M_u over every generator pair; closure holds by construction,
since the staircase is derived from the Groebner basis.  A ``check`` takes
at most n*g normal forms for n basis elements and g generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from .expr import MAX_TERM_PRODUCTS
from .poly import (
    Polynomial,
    Record,
    Scalar,
    _check_product_degree,
    _product_terms,
    _sorted_terms,
    determinant,
    exact_rational,
    sparse_sums,
)
from .rings import QuotientAlgebra


class TraceDegenerateError(ValueError):
    """The requested normalization does not determine a trace."""


class FrobeniusAlgebra(Record):
    """A quotient algebra with its trace: tr(top_monomial) = top_coefficient,
    and every other staircase monomial traces to zero."""

    algebra: QuotientAlgebra
    top_monomial: int  # packed
    top_coefficient: Fraction

    @cached_property
    def pairing_rows(self) -> dict[int, dict[int, Polynomial]]:
        """The pairing by rows, in basis order: the row of e_i maps each e_j
        with tr(e_i*e_j) != 0 to that polynomial in the instanton variables.

        The unit's row is 1 at the top monomial, empty when the top monomial
        is off the staircase: the trace at top coefficient 1, scaled by its
        users at the exit, so on products of projective spaces every entry
        has int coefficients.  The row of e_i, with x_v the first generator
        dividing e_i and e_i = x_v*e_i', is

            tr(e_i*e_j) = tr(e_i'*NF(x_v*e_j)) = sum_l M_v[j][l]*tr(e_i'*e_l),

        by tr(q^a*x) = q^a*tr(x), summed over the nonzero entries of the row
        of e_i'.  The staircase holds e_i', which comes before e_i.
        """
        qa = self.algebra
        table = qa.presentation.table
        width, top = table.field_width, self.top_monomial
        rows = {0: {top: Polynomial.constant(table, 1)} if top in qa.module_basis else {}}
        for m in qa.module_basis[1:]:
            v = ((m & -m).bit_length() - 1) // width  # the lowest nonzero field of m
            earlier, columns = rows[m - (1 << width * v)], qa.matrices[v]
            rows[m] = sparse_sums((j, c * p) for l, p in earlier.items() for j, c in columns[l])
        return rows


class GramMatrix(Record):
    """The trace pairing on the module basis by its nonzero entries, with its
    exact determinant.  Row i holds one (l, tr(e_i*e_l)) pair per nonzero
    entry, l ascending; every entry it leaves out is zero."""

    basis: tuple[int, ...]  # packed staircase monomials
    rows: tuple[tuple[tuple[int, Polynomial], ...], ...]
    determinant: Polynomial


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
    degrees = qa.basis_degrees
    top = max(degrees)
    if reference_element.graded_degree() != top:
        raise ValueError(f"reference element must be homogeneous of top degree {top}")
    top_monomials = [m for m, d in zip(qa.module_basis, degrees) if d == top]
    if len(top_monomials) != 1:
        raise TraceDegenerateError(
            "trace degenerate: top-degree staircase component is not one-dimensional"
        )
    top_monomial = top_monomials[0]
    # the instanton-free terms of NF(reference) are staircase monomials of top degree
    classical = qa.gb.parts(reference_element.packed).get(top_monomial, {}).get(0, 0)
    if not classical:
        raise TraceDegenerateError("trace degenerate: reference vanishes at q = 0")
    return FrobeniusAlgebra(qa, top_monomial, value / classical)


def trace(fa: FrobeniusAlgebra, x: Polynomial) -> Polynomial:
    """Trace of x, the top coefficient times the top coordinate of NF(x): an
    instanton polynomial, zero when the top monomial is off the staircase."""
    table, top = fa.algebra.presentation.table, fa.top_monomial
    if x.table != table:
        raise ValueError("reduce with mixed variable tables")
    return _sorted_terms(table, fa.algebra.gb.parts(x.packed).get(top, {})) * fa.top_coefficient


def quantum_product(fa: FrobeniusAlgebra, a: Polynomial, b: Polynomial) -> Polynomial:
    """Product in the quotient algebra: the normal form of a*b."""
    return fa.algebra.gb.reduce(a * b)


def three_point(
    fa: FrobeniusAlgebra, a: Polynomial, b: Polynomial, c: Polynomial
) -> Polynomial:
    """Three-point correlator tr(a*b*c), a polynomial in the instanton variables.

    Only a*b, one dict of terms, and c are reduced.  With x and y their
    normal-form parts, tr(a*b*c) = sum x_l*y_k*tr(e_l*e_k), read from the
    pairing rows of the side with fewer parts and scaled once;
    the triple product is never expanded.  Raises ``ValueError`` as a
    product past the degree bound does, and, before any multiplication, when
    a*b takes more than
    :data:`~qcohom.expr.MAX_TERM_PRODUCTS` term products, terms(a) * terms(b).
    """
    qa, table = fa.algebra, fa.algebra.presentation.table
    if any(p.table != table for p in (a, b, c)):
        raise ValueError("reduce with mixed variable tables")
    products = len(a.packed) * len(b.packed)
    if products > MAX_TERM_PRODUCTS:
        raise ValueError(
            f"correlator needs {products} term products for a*b, "
            f"more than {MAX_TERM_PRODUCTS}"
        )
    rows = fa.pairing_rows
    _check_product_degree(table, a.total_degree() + b.total_degree())
    x = qa.gb.parts(_product_terms(a.packed, b.packed).items())
    y = qa.gb.parts(c.packed)
    if len(x) > len(y):
        x, y = y, x
    degree = table.degree  # of each part once, for the guard of every pair
    x_degrees, y_degrees = ({k: max(map(degree, d)) for k, d in side.items()} for side in (x, y))
    acc: dict = {}
    for l, xl in x.items():
        for k in rows[l].keys() & y.keys():
            p, yk = rows[l][k], y[k]
            xp_degree = x_degrees[l] + p.total_degree()
            _check_product_degree(table, xp_degree)  # as xl * p * yk would raise
            _check_product_degree(table, xp_degree + y_degrees[k])
            for (mx, cx), (mp, cp) in product(xl.items(), p.packed):
                mxp, cxp = mx + mp, cx * cp
                for my, cy in yk.items():
                    acc[mxp + my] = acc.get(mxp + my, 0) + cxp * cy
    return _sorted_terms(table, acc) * fa.top_coefficient


def gram_matrix(fa: FrobeniusAlgebra) -> GramMatrix:
    """Pairing matrix over the module basis with its exact determinant.

    The rows and the determinant are read from the sparse pairing rows and
    scaled at the end, each entry by the top coefficient and the determinant
    by its n-th power; the place of e_l in the module basis is its column.
    No zero entry is stored or multiplied.  Nondegeneracy is judged by the
    constant term of the determinant, its value with all instanton
    variables at zero.
    """
    qa = fa.algebra
    t, basis = fa.top_coefficient, qa.module_basis
    column = {m: l for l, m in enumerate(basis)}
    rows = [{column[m]: p for m, p in row.items()} for row in fa.pairing_rows.values()]
    scaled = tuple(tuple((l, row[l] * t) for l in sorted(row)) for row in rows)
    return GramMatrix(basis, scaled, determinant(qa.presentation.table, rows) * t ** len(basis))


def frobenius_check(fa: FrobeniusAlgebra) -> tuple[str, ...]:
    """Failures x_u*(x_v*e_j) != x_v*(x_u*e_j) over every generator pair and
    basis element; an empty tuple means all hold.

    The matrices M_v of :attr:`QuotientAlgebra.matrices` commute exactly
    when the normal form onto the staircase comes from a Groebner (border)
    basis (Mourrain, ISSAC 1999; Kehrein, Kreuzer & Robbiano, J. Algebra 285,
    2005), so reduction is then a product on the staircase span and the trace
    is compatible with it: tr((a*b)*c) = tr(a*(b*c)).  Symmetry, the unit law
    and the grading of the trace hold by construction for every algebra
    :func:`make_frobenius` returns.  The row of e_k in M_u*M_v and in
    M_v*M_u, its coefficient, is summed over nonzero matrix entries only and
    compared on every basis element either side reaches; the failing
    elements are named in basis order.
    """
    qa = fa.algebra
    table = qa.presentation.table
    matrices = list(zip(table.names, qa.matrices))
    failures = []
    for a, (u, mu) in enumerate(matrices):
        for v, mv in matrices[a + 1 :]:
            failing = set()
            for k in qa.module_basis:
                # the coefficient of e_k in x_u*(x_v*e_j) and x_v*(x_u*e_j)
                left = sparse_sums((j, c * d) for l, c in mu[k] for j, d in mv[l])
                right = sparse_sums((j, c * d) for l, c in mv[k] for j, d in mu[l])
                failing.update(j for j in left.keys() | right.keys() if left.get(j) != right.get(j))
            for m in qa.module_basis:
                if m in failing:
                    e = str(Polynomial(table, ((m, 1),)))  # named only on failure
                    failures.append(f"{u}*({v}*{e}) != {v}*({u}*{e})")
    return tuple(failures)


def closure_check(fa: FrobeniusAlgebra) -> bool:
    """Every product of basis monomials reduces into the staircase span:
    always true.  A normal-form term is divisible by no leading monomial,
    each generator-only, so neither is its generator part; each generator
    has a pure power among them, and the staircase is derived from them."""
    return True
