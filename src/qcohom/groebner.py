"""Buchberger's algorithm, normal forms and ideal membership over the rationals.

The pair-selection strategy is the normal one (minimal lcm total degree,
ties broken by pair index), served from a heap so that each step costs
O(log P) in the number P of pending pairs.  Both classical pruning criteria
apply: S-pairs with coprime leading monomials are skipped, and the chain
criterion drops a pair when a third basis element divides the lcm and both
companion pairs are no longer pending.  Output bases are reduced (minimal,
interreduced, monic) and sorted descending by leading monomial, so they are
canonical for the ideal: any permutation of the input generators produces
the identical basis.  The order is always the block order of the variable
table, which keeps instanton and parameter variables as coefficients.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .poly import (
    GENERATOR,
    Polynomial,
    Record,
    Variable,
    VariableTable,
    monomial_divides,
    monomial_lcm,
)


class GroebnerBasis(Record):
    """Reduced Groebner basis under the table's block order; elements monic,
    sorted descending by leading monomial.

    ``leading_terms`` holds one record (packed leading monomial, monic
    element) per element, as :func:`buchberger` keeps them.
    """

    table: VariableTable
    leading_terms: tuple[tuple[int, Polynomial], ...]

    @cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        return tuple(g for _, g in self.leading_terms)

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form of p: the remainder of full division by the basis.

        No term of the result is divisible by a leading monomial of the basis.
        """
        if p.table != self.table:
            raise ValueError("reduce with mixed variable tables")
        return _normal_form(p, self.leading_terms)


def s_polynomial(a: tuple, b: tuple) -> Polynomial:
    """lcm(m, n) / m * f  -  lcm(m, n) / n * g for records a = (m, f), b = (n, g)
    of monic elements and their leading monomials."""
    (mf, f), (mg, g) = a, b
    if f.is_zero() or g.is_zero():
        raise ValueError("s_polynomial of a zero polynomial")
    lcm = monomial_lcm(f.table, mf, mg)
    left = Polynomial(f.table, ((lcm - mf, 1),))
    right = Polynomial(g.table, ((lcm - mg, 1),))
    return left * f - right * g


def _normal_form(p: Polynomial, records) -> Polynomial:
    """Full division of p by (leading monomial, monic element) records, the
    largest live term first; the first record whose leading monomial divides
    a term rewrites it."""
    table = p.table
    guard = table.guard_mask
    key = table.block_order.key
    live = dict(p.packed)
    # (negated order key, monomial): distinct monomials have distinct keys, so
    # heapq pops the largest live monomial first on int comparisons alone
    heap = [(-key(m), m) for m in live]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = live.pop(m, None)
        if c is None:
            continue
        for lm, g in records:
            shift = m - lm
            if shift & guard:
                continue  # lm does not divide m
            top = g.packed[0][0]
            # only a tail term of larger total degree than lm can raise it
            if top != lm and table.degree(top + shift) > table.max_degree:
                raise ValueError(f"reduction above total degree {table.max_degree}")
            for gm, gc in g.packed:
                t = gm + shift
                if t == m:
                    continue
                d = c * gc
                old = live.get(t)
                if old is None:
                    heapq.heappush(heap, (-key(t), t))
                    live[t] = -d
                elif old == d:
                    del live[t]
                else:
                    live[t] = old - d
            break
        else:
            remainder[m] = c
    return Polynomial.from_packed(table, remainder.items())


def _monic_record(g: Polynomial):
    """(leading monomial, g made monic): the record of one basis element."""
    lm, lc = g.leading()
    return lm, g if lc == 1 else g * (Fraction(1) / lc)


def _minimalize(table: VariableTable, records: list) -> list:
    kept: list = []
    # sorted is stable, so records with equal leading monomials keep basis order
    for record in sorted(records, key=lambda r: table.block_order.key(r[0])):
        if not any(monomial_divides(table, k[0], record[0]) for k in kept):
            kept.append(record)
    return kept


def _interreduce(records: list) -> list:
    """Reduce the tail of each record against the other records.

    In a minimal basis no other leading monomial divides a record's own, and
    reduction only rewrites smaller terms, so each leading term, monic, and
    its record stay as they are.
    """
    out = list(records)
    for i, (lm, g) in enumerate(out):
        out[i] = (lm, _normal_form(g, out[:i] + out[i + 1 :]))
    return out


def buchberger(table: VariableTable, generators: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis, under the table's block order, of the ideal
    that the nonzero generators over the table span."""
    # One (leading monomial, monic element) record per basis element, in
    # basis order; the list is also the reducer list.
    records: list = []
    for g in generators:
        if g.table != table:
            raise ValueError("ideal generator over a different table")
        if g.is_zero():
            raise ValueError("ideal generators must be nonzero")
        record = _monic_record(g)
        if all(record[1] != h for _, h in records):
            records.append(record)

    # The heap pops pairs by (lcm total degree, i, j), the normal selection
    # strategy; ``pending`` mirrors its contents for the chain criterion.
    queue: list = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(table, records[i][0], records[j][0])
            heapq.heappush(queue, (table.degree(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(len(records)):
        add_pairs(j)

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == records[i][0] + records[j][0]:
            continue  # coprime leading monomials
        if any(
            k not in (i, j)
            and monomial_divides(table, lm_k, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (lm_k, _) in enumerate(records)
        ):
            continue  # chain criterion
        r = _normal_form(s_polynomial(records[i], records[j]), records)
        if r.is_zero():
            continue
        records.append(_monic_record(r))
        add_pairs(len(records) - 1)

    reduced = _interreduce(_minimalize(table, records))
    reduced.sort(key=lambda record: table.block_order.key(record[0]), reverse=True)
    return GroebnerBasis(table, tuple(reduced))


def ideal_member(p: Polynomial, gb: GroebnerBasis) -> bool:
    """Exact ideal membership: the normal form against the basis vanishes."""
    return gb.reduce(p).is_zero()


def _fresh_name(taken, stem: str = "t") -> str:
    if stem not in taken:
        return stem
    i = 0
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def rabinowitsch_ideal(
    p: Polynomial, generators: Sequence[Polynomial]
) -> tuple[VariableTable, tuple[Polynomial, ...]]:
    """The ideal of the generators extended by 1 - t*p for a fresh variable t,
    as (table, generators).

    Grading and blocks are irrelevant to membership of 1, so the extension
    lives over a fresh all-generator table with t placed last, whose block
    order is degrevlex.
    """
    if any(g.table != p.table for g in generators):
        raise ValueError("rabinowitsch_ideal with mixed variable tables")
    t_name = _fresh_name(set(p.table.names))
    flat = VariableTable(
        tuple(Variable(n, 1, GENERATOR) for n in p.table.names)
        + (Variable(t_name, 1, GENERATOR),)
    )
    lifted = tuple(g.transport(flat) for g in generators)
    t = Polynomial.variable(flat, t_name)
    return flat, lifted + (Polynomial.constant(flat, 1) - t * p.transport(flat),)


def radical_member(p: Polynomial, generators: Sequence[Polynomial]) -> bool:
    """Membership of p in the radical of the ideal of the generators, by the
    Rabinowitsch trick: 1 lies in :func:`rabinowitsch_ideal` of p."""
    if any(g.table != p.table for g in generators):
        raise ValueError("radical_member with mixed variable tables")
    if p.is_zero():
        return True
    flat, extended = rabinowitsch_ideal(p, generators)
    return ideal_member(Polynomial.constant(flat, 1), buchberger(flat, extended))
