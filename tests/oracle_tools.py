"""Independent oracles used by the tests.

The tuple kernel (exponent tuples, ``Fraction`` coefficients, a dict
product and a heap normal form) is the reference for the packed one.
Membership is decided by brute-force coefficient matching and exact linear
algebra, degeneracy of the P^1 x P^1 sheaf-cohomology family by a Sylvester
resultant, the ring relations that the library builds from deformation
matrices by hand, spot reductions by direct substitution, and Chern classes
by truncated expansion; none of these calls the Groebner machinery under
test.
The maximal minors come one determinant per row subset, and every
determinant from subset dynamic programming, not the library's elimination.
The reference Frobenius checks, Gram matrix, correlator and bundle-regularity verdict do: they reduce every basis triple or pair or the expanded triple
product directly, sum a table of every reduced basis product densely over
every index, or run one Rabinowitsch basis per irrelevant generator.  The
command-line reader is compared with the argparse parser that it replaced.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

from qcohom.frobenius import (
    FrobeniusAlgebra,
    GramMatrix,
    quantum_product,
    trace,
)
from qcohom.groebner import radical_member
from qcohom.poly import Polynomial, sparse_sums
from qcohom.toric import DeformationMatrix, product_projective_toric


def monomial_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: tuple, b: tuple) -> tuple:
    """Exponent vector of a/b; requires b | a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError("monomial division with negative exponent")
    return out


def _degrevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def tuple_order_key(spans, exps: tuple):
    """The order on exponent tuples that compares the ``(start, stop)`` spans
    in turn, each by degrevlex: one degrevlex tuple key per span.  The spans
    of ``VariableTable.block_spans`` give the block order, the one span over
    the whole table the term order."""
    return tuple(_degrevlex_key(exps[a:b]) for a, b in spans)


def tuple_product(a: Polynomial, b: Polynomial) -> tuple:
    """Terms of a*b from exponent tuples, sorted descending by degrevlex."""
    acc: dict = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            m = monomial_mul(ma, mb)
            c = acc.get(m, Fraction(0)) + ca * cb
            if c:
                acc[m] = c
            else:
                del acc[m]
    ordered = sorted(acc.items(), key=lambda t: _degrevlex_key(t[0]), reverse=True)
    return tuple(ordered)


class _MaxEntry:
    """heapq wrapper that pops the largest order key first."""

    __slots__ = ("key", "monomial")

    def __init__(self, key, monomial):
        self.key = key
        self.monomial = monomial

    def __lt__(self, other) -> bool:
        return self.key > other.key


def tuple_normal_form(p: Polynomial, basis, spans) -> Polynomial:
    """Remainder of full division of p by the basis, on exponent tuples, under
    the order of :func:`tuple_order_key` on the ``(start, stop)`` spans.

    The first basis element whose leading monomial divides the largest live
    term rewrites it, as ``qcohom.groebner.GroebnerBasis.reduce`` does.
    """
    reducers = []
    for g in basis:
        lm, lc = max(g.terms, key=lambda t: tuple_order_key(spans, t[0]))
        reducers.append((lm, lc, g))
    live = {m: c for m, c in p.terms}
    heap = [_MaxEntry(tuple_order_key(spans, m), m) for m in live]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = heapq.heappop(heap).monomial
        c = live.pop(m, None)
        if c is None:
            continue
        for lm, lc, g in reducers:
            if monomial_divides(lm, m):
                shift = monomial_div(m, lm)
                scale = Fraction(c) / lc
                for gm, gc in g.terms:
                    t = monomial_mul(gm, shift)
                    if t == m:
                        continue
                    nc = live.get(t, Fraction(0)) - scale * gc
                    if nc:
                        if t not in live:
                            heapq.heappush(heap, _MaxEntry(tuple_order_key(spans, t), t))
                        live[t] = nc
                    else:
                        live.pop(t, None)
                break
        else:
            remainder[m] = c
    return Polynomial.from_terms(p.table, remainder.items())


def solvable(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> bool:
    """Consistency of a sparse exact linear system (one dict per equation)."""
    pivots: list[tuple[int, dict[int, Fraction], Fraction]] = []
    order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    for i in order:
        row = dict(rows[i])
        b = rhs[i]
        for col, prow, pb in pivots:
            factor = row.get(col)
            if factor:
                for c, v in prow.items():
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                b -= factor * pb
        if row:
            col = min(row)
            inv = Fraction(1) / row[col]
            row = {c: v * inv for c, v in row.items()}
            pivots.append((col, row, b * inv))
        elif b:
            return False
    return True


def monomials_up_to(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for exps in itertools.product(range(degree + 1), repeat=num_vars):
        if sum(exps) <= degree:
            out.append(exps)
    return out


def witness_member(p: Polynomial, generators: list[Polynomial]) -> bool:
    """Brute-force ideal membership: search for p = sum h_i g_i.

    Cofactor degrees are capped at deg p + max deg g_i + 2 and the resulting
    exact linear system is solved by Gaussian elimination.
    """
    if p.is_zero():
        return True
    num_vars = len(p.table)
    bound = p.total_degree() + max(g.total_degree() for g in generators) + 2
    columns: list[tuple[int, tuple[int, ...]]] = []
    for gi in range(len(generators)):
        for m in monomials_up_to(num_vars, bound):
            columns.append((gi, m))
    # rows indexed by product monomials; fill the sparse system column by column
    row_of: dict[tuple[int, ...], int] = {}
    rows: list[dict[int, Fraction]] = []

    def row_index(monomial):
        if monomial not in row_of:
            row_of[monomial] = len(rows)
            rows.append({})
        return row_of[monomial]

    for ci, (gi, shift) in enumerate(columns):
        for gm, gc in generators[gi].terms:
            r = row_index(monomial_mul(gm, shift))
            rows[r][ci] = rows[r].get(ci, Fraction(0)) + gc
    rhs_map = {row_index(m): c for m, c in p.terms}
    rhs = [rhs_map.get(i, Fraction(0)) for i in range(len(rows))]
    return solvable(rows, rhs)


def qsc_resultant(eps, gam) -> Fraction:
    """Sylvester resultant of the two classical quadratic forms of the
    P^1 x P^1 tangent-deformation family; zero exactly on the degenerate
    parameter locus."""
    e = [Fraction(v) for v in eps]
    g = [Fraction(v) for v in gam]
    a = (Fraction(1), e[0], -e[1] * e[2])
    b = (-g[1] * g[2], g[0], Fraction(1))
    m = [
        [a[0], a[1], a[2], Fraction(0)],
        [Fraction(0), a[0], a[1], a[2]],
        [b[0], b[1], b[2], Fraction(0)],
        [Fraction(0), b[0], b[1], b[2]],
    ]
    return _det(m)


def projective_relations(table, dims) -> tuple[Polynomial, ...]:
    """H_i^(n_i + 1) - q_i per factor, written by hand over a table of the
    generators H_i then the instanton variables q_i; H_i^(n_i + 1) alone on a
    table of the generators only."""
    r = len(dims)
    relations = []
    for i, n in enumerate(dims):
        power = Polynomial.variable(table, table.names[i]) ** (n + 1)
        quantum = len(table) > r
        relations.append(power - Polynomial.variable(table, table.names[r + i]) if quantum else power)
    return tuple(relations)


def qsc_relations(table, eps, gam) -> tuple[Polynomial, Polynomial]:
    """The two quantum sheaf cohomology relations of the P^1 x P^1 family,
    written by hand in the parameters eps and gam."""
    e1, e2, e3 = map(Fraction, eps)
    g1, g2, g3 = map(Fraction, gam)
    psi, psit, q1, q2 = (Polynomial.variable(table, n) for n in ("psi", "psit", "q1", "q2"))
    return (
        psi * psi + e1 * psi * psit - (e2 * e3) * psit * psit - q1,
        psit * psit + g1 * psi * psit - (g2 * g3) * psi * psi - q2,
    )


def _det(matrix) -> Fraction:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j]:
            sub = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
            term = matrix[0][j] * _det(sub)
            total += term if j % 2 == 0 else -term
    return total


def reduce_projective_power(k: int, n: int) -> tuple[int, int]:
    """Hand reduction of H^k in QH(P^n): H^(n+1) = q, so H^k = q^a H^r."""
    a, r = divmod(k, n + 1)
    return a, r


def chern_by_truncation(dims, rows) -> tuple[dict, dict]:
    """c1 and c2 of the sum of line bundles with classes ``rows`` on the
    product of the P^(n_i), as ``{exponent tuple: Fraction}`` dicts.

    The product of (1 + class) over the rows is expanded in
    Q[h]/(h_i^(n_i + 1)) by dropping every term with an exponent above its
    n_i after each factor; no Groebner basis is used.
    """
    rank = len(dims)
    units = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
    total = {(0,) * rank: Fraction(1)}
    for row in rows:
        factor = [((0,) * rank, Fraction(1))]
        factor += [(u, Fraction(c)) for u, c in zip(units, row) if c]
        product: dict = {}
        for m, a in total.items():
            for u, c in factor:
                e = monomial_mul(m, u)
                if all(x <= n for x, n in zip(e, dims)):
                    product[e] = product.get(e, 0) + a * c
        total = product
    c1, c2 = ({m: c for m, c in total.items() if sum(m) == d and c} for d in (1, 2))
    return c1, c2


def frobenius_check_by_reduction(fa: FrobeniusAlgebra) -> tuple[str, ...]:
    """Compatibility tr((a*b)*c) = tr(a*(b*c)) with four normal forms per triple.

    Failures name basis triples, straight from the definition: O(n^3)
    reductions.  Its verdict, empty or not, is that of
    ``qcohom.frobenius.frobenius_check``, whose failures name generator pairs.
    """
    table = fa.algebra.presentation.table
    polys = [Polynomial(table, ((m, 1),)) for m in fa.algebra.module_basis]
    names = [str(p) for p in polys]
    compatibility = []
    for a, b, c in itertools.product(range(len(polys)), repeat=3):
        left = trace(fa, quantum_product(fa, polys[a], polys[b]) * polys[c])
        right = trace(fa, polys[a] * quantum_product(fa, polys[b], polys[c]))
        if left != right:
            compatibility.append(
                f"tr(({names[a]}*{names[b]})*{names[c]}) != "
                f"tr({names[a]}*({names[b]}*{names[c]}))"
            )
    return tuple(compatibility)


def structure_table(fa: FrobeniusAlgebra) -> tuple[list, list, set]:
    """(mul, pairing, escaped) from one reduced product per basis pair.

    ``mul[i][j]`` maps each staircase index l to the coefficient of e_l in
    NF(e_i*e_j), a polynomial in the instanton variables; ``pairing[i][j]``
    is its coefficient of the top monomial times the top coefficient, which
    is tr(e_i*e_j); ``escaped`` holds the pairs (i, j) whose normal form has
    a term outside the staircase, left out of ``mul``.
    """
    qa = fa.algebra
    table = qa.presentation.table
    index = {m: l for l, m in enumerate(qa.module_basis)}
    top = index.get(fa.top_monomial)
    polys = [Polynomial(table, ((m, 1),)) for m in qa.module_basis]
    n = len(polys)
    zero = Polynomial.zero(table)
    mul = [[{} for _ in range(n)] for _ in range(n)]
    pair = [[zero] * n for _ in range(n)]
    escaped = set()
    g = table.block_spans[0][1]  # the generators come first
    for i, j in itertools.product(range(n), repeat=2):
        terms: dict = {}
        for m, c in quantum_product(fa, polys[i], polys[j]).terms:
            gen = table.pack(m[:g] + (0,) * (len(m) - g))
            if gen not in index:
                escaped.add((i, j))
                continue
            terms.setdefault(index[gen], []).append((table.pack((0,) * g + m[g:]), c))
        for l, t in terms.items():
            mul[i][j][l] = Polynomial.from_packed(table, t)
        pair[i][j] = mul[i][j].get(top, zero) * fa.top_coefficient
    return mul, pair, escaped


def frobenius_check_dense(fa: FrobeniusAlgebra) -> tuple[str, ...]:
    """Compatibility from :func:`structure_table`, summed densely over every
    index.

    For each basis triple, sum_l mul[i][j][l]*pairing[l][k] against
    sum_l pairing[i][l]*mul[j][k][l] with n^3 sums; failures name basis
    triples as :func:`frobenius_check_by_reduction` does.  Products leaving
    the staircase are left to the closure check.
    """
    qa = fa.algebra
    table = qa.presentation.table
    mul, pair, _ = structure_table(fa)
    n = len(qa.module_basis)
    names = [str(Polynomial(table, ((m, 1),))) for m in qa.module_basis]
    compatibility = []
    for i in range(n):
        for j in range(n):
            left_row = [
                sum_of_products(table, ((c, pair[l][k]) for l, c in mul[i][j].items()))
                for k in range(n)
            ]
            for k in range(n):
                right = sum_of_products(table, ((pair[i][l], c) for l, c in mul[j][k].items()))
                if left_row[k] != right:
                    compatibility.append(
                        f"tr(({names[i]}*{names[j]})*{names[k]}) != "
                        f"tr({names[i]}*({names[j]}*{names[k]}))"
                    )
    return tuple(compatibility)


def sum_of_products(table, pairs) -> Polynomial:
    """Sum of a*b over the (a, b) polynomial pairs."""
    total = Polynomial.zero(table)
    for a, b in pairs:
        total = total + a * b
    return total


def determinant_by_subsets(table, rows) -> Polynomial:
    """Exact determinant of a square polynomial matrix in sparse {column:
    entry} rows, missing columns zero, by subset dynamic programming: the
    reference for ``qcohom.poly.determinant``.  dp[mask] is the nonzero
    determinant on the first popcount(mask) rows and the columns of mask,
    built row by row by Laplace expansion; placing column j flips the sign
    once per used column above j, the new row's inversions.  It is
    exponential on a dense matrix."""
    dp = {0: Polynomial.constant(table, 1)}
    for row in rows:
        dp = sparse_sums(
            (mask | 1 << j, -(sub * entry) if (mask >> j).bit_count() & 1 else sub * entry)
            for mask, sub in dp.items()
            for j, entry in row.items()
            if not mask >> j & 1
        )
    return dp.get((1 << len(rows)) - 1, Polynomial.zero(table))


def sigma_forms_by_subsets(matrix: DeformationMatrix, sigma) -> tuple[Polynomial, ...]:
    """det M_a(sigma) of each factor block by subset dynamic programming, the
    blocks read off the exponent tuples of the entries: the (i, j) entry of
    M_a is the sum over k of sigma_k times the coefficient of x_j in entry
    (i, k)."""
    forms = []
    for coords in matrix.toric.factor_coordinates:
        rows = []
        for i in coords:
            row: dict = {}
            for k, entry in enumerate(matrix.entries[i]):
                s = Polynomial.variable(sigma, sigma.names[k])
                for exps, c in entry.terms:
                    j = exps.index(1) - coords[0]
                    row[j] = row.get(j, Polynomial.zero(sigma)) + c * s
            rows.append(row)
        forms.append(determinant_by_subsets(sigma, rows))
    return tuple(forms)


DEFORMATION_VALUES = (0, 1, -1, 2, -2, Fraction(1, 2), 3)


def random_deformation(rng, dims, density=1) -> DeformationMatrix:
    """A seeded deformation matrix on the product of the P^(n_i): every entry
    a linear form over its row's factor, each coordinate of which enters with
    probability ``density`` (every one at density 1, drawing nothing for it)
    and a coefficient from ``DEFORMATION_VALUES``, zero included.  A draw may
    be singular."""
    toric = product_projective_toric(dims)
    table = toric.coordinate_table
    return DeformationMatrix(toric, tuple(
        tuple(
            Polynomial.from_packed(table, (
                (1 << table.field_width * j, rng.choice(DEFORMATION_VALUES))
                for j in toric.factor_coordinates[f]
                if density == 1 or rng.random() < density
            ))
            for _ in dims
        )
        for f in toric.factors
    ))


def packed_with_types(polynomials):
    """The packed terms of each polynomial with the type of each coefficient."""
    return [[(m, c, type(c)) for m, c in p.packed] for p in polynomials]


def minors_by_subset(matrix: DeformationMatrix) -> tuple[Polynomial, ...]:
    """The nonzero maximal minors, one determinant per row subset, the subsets
    in lexicographic order: generators of the ideal whose radical decides
    bundle regularity."""
    toric = matrix.toric
    table = toric.coordinate_table
    minors = (
        determinant_by_subsets(
            table, [{j: e for j, e in enumerate(matrix.entries[r]) if e} for r in rows]
        )
        for rows in itertools.combinations(range(len(toric.coordinates)), toric.picard_rank)
    )
    return tuple(m for m in minors if m)


def irrelevant_generators(toric) -> tuple[tuple[int, ...], ...]:
    """The products picking one coordinate from each factor, as exponent
    vectors over the coordinate table, the picks in lexicographic order."""
    n = len(toric.coordinates)
    return tuple(
        tuple(int(i in pick) for i in range(n))
        for pick in itertools.product(*toric.factor_coordinates)
    )


def bundle_regularity_by_radical(matrix: DeformationMatrix) -> bool:
    """Bundle regularity with one Rabinowitsch basis per irrelevant generator.

    The reference for ``qcohom.toric.check_bundle_regularity``: every
    irrelevant generator lies in the radical of the ideal of maximal minors,
    so the degeneracy locus lies in the irrelevant locus.  It reads the
    minors of the N x r matrix, where the library reads the determinants of
    its square blocks.
    """
    toric = matrix.toric
    table = toric.coordinate_table
    minors = minors_by_subset(matrix)
    for exps in irrelevant_generators(toric):
        if not radical_member(Polynomial.monomial(table, exps), minors):
            return False
    return True


def three_point_by_reduction(fa: FrobeniusAlgebra, a, b, c) -> Polynomial:
    """tr(a*b*c) by reducing the expanded triple product."""
    return trace(fa, a * b * c)


def gram_matrix_by_reduction(fa: FrobeniusAlgebra) -> GramMatrix:
    """The Gram matrix with one trace of a reduced product per entry: n^2
    reductions, the zero entries dropped afterwards."""
    basis = fa.algebra.module_basis
    table = fa.algebra.presentation.table
    polys = [Polynomial(table, ((m, 1),)) for m in basis]
    dense = [[trace(fa, a * b) for b in polys] for a in polys]
    rows = tuple(tuple((l, e) for l, e in enumerate(row) if e) for row in dense)
    det = determinant_by_subsets(table, [dict(row) for row in rows])
    return GramMatrix(basis, rows, det)


def build_parser():
    """The argparse parser the CLI read its arguments with, from the same COMMANDS
    table: the reference that ``cli.read_args`` is compared against."""
    import argparse

    from qcohom.cli import COMMANDS

    parser = argparse.ArgumentParser(
        prog="qcohom",
        description="Exact quantum cohomology and quantum sheaf cohomology rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="path to a JSON job file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument("--output", help="write output to this file instead of stdout")
        for arg, choices in positionals.items():
            if choices is None:
                p.add_argument(arg, nargs="*", help="three polynomial expressions")
            else:
                p.add_argument(arg, nargs="?", choices=choices, help="limit mode")
    return parser
