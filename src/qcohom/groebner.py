"""Buchberger's algorithm, normal forms and ideal membership over the rationals.

The pair-selection strategy is the normal one (minimal lcm total degree,
ties broken by pair index), served from a heap so that each step costs
O(log P) in the number P of pending pairs.  Both classical pruning criteria
apply: S-pairs with coprime leading monomials are skipped, and the chain
criterion drops a pair when a third basis element divides the lcm and both
companion pairs are no longer pending.  Output bases are reduced (minimal,
interreduced, monic) and sorted descending by leading monomial, so they are
canonical for the ideal and the order: any permutation of the input
generators produces the identical basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .poly import (
    GENERATOR,
    MonomialOrder,
    Polynomial,
    Variable,
    VariableTable,
    degrevlex,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


@dataclass(frozen=True)
class IdealPresentation:
    """Finite generating set of an ideal together with a monomial order."""

    table: VariableTable
    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.table != self.table:
                raise ValueError("ideal generator over a different table")
            if g.is_zero():
                raise ValueError("ideal generators must be nonzero")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; elements monic, sorted descending by leading monomial."""

    table: VariableTable
    elements: tuple[Polynomial, ...]
    order: MonomialOrder

    @cached_property
    def leading_terms(self) -> tuple:
        """(leading monomial, leading coefficient, element) of each element."""
        return tuple(_prepare(self.elements, self.order))

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form of p against the basis, as :func:`normal_form` gives it."""
        if p.table != self.table:
            raise ValueError("reduce with mixed variable tables")
        return _normal_form(p, self.leading_terms, self.order)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm(LM f, LM g) / LT f * f  -  lcm(LM f, LM g) / LT g * g."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s_polynomial of a zero polynomial")
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    lcm = monomial_lcm(mf, mg)
    left = Polynomial.monomial(f.table, monomial_div(lcm, mf), Fraction(1) / cf)
    right = Polynomial.monomial(g.table, monomial_div(lcm, mg), Fraction(1) / cg)
    return left * f - right * g


class _MaxEntry:
    """heapq wrapper that pops the largest order key first."""

    __slots__ = ("key", "monomial")

    def __init__(self, key, monomial):
        self.key = key
        self.monomial = monomial

    def __lt__(self, other) -> bool:
        return self.key > other.key


def _prepare(basis: Sequence[Polynomial], order: MonomialOrder):
    reducers = []
    for g in basis:
        if g.is_zero():
            continue
        lm, lc = g.leading(order)
        reducers.append((lm, lc, g))
    return reducers


def _normal_form(p: Polynomial, reducers, order: MonomialOrder) -> Polynomial:
    live = {m: c for m, c in p.terms}
    heap = [_MaxEntry(order.key(m), m) for m in live]
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
                scale = c / lc
                for gm, gc in g.terms:
                    t = monomial_mul(gm, shift)
                    if t == m:
                        continue
                    nc = live.get(t, Fraction(0)) - scale * gc
                    if nc:
                        if t not in live:
                            heapq.heappush(heap, _MaxEntry(order.key(t), t))
                        live[t] = nc
                    else:
                        live.pop(t, None)
                break
        else:
            remainder[m] = c
    return Polynomial.from_terms(p.table, remainder.items())


def normal_form(
    p: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Remainder of full division of p by the basis.

    No term of the result is divisible by any basis leading monomial; at each
    step the first dividing basis element in list order is used, so the result
    is deterministic for a fixed basis list.
    """
    for g in basis:
        if g.table != p.table:
            raise ValueError("normal_form with mixed variable tables")
    return _normal_form(p, _prepare(basis, order), order)


def _monic_record(g: Polynomial, order: MonomialOrder):
    """(leading monomial, 1, g made monic): the record of one basis element."""
    lm, lc = g.leading(order)
    return lm, Fraction(1), g if lc == 1 else g * (1 / lc)


def _minimalize(records: list, order: MonomialOrder) -> list:
    kept: list = []
    # sorted is stable, so records with equal leading monomials keep basis order
    for record in sorted(records, key=lambda r: order.key(r[0])):
        if not any(monomial_divides(k[0], record[0]) for k in kept):
            kept.append(record)
    return kept


def _interreduce(records: list, order: MonomialOrder) -> list:
    """Reduce the tail of each record against the other records.

    In a minimal basis no other leading monomial divides a record's own, and
    reduction only rewrites smaller terms, so each leading term, monic, and
    its record stay as they are.
    """
    out = list(records)
    for i, (lm, lc, g) in enumerate(out):
        out[i] = (lm, lc, _normal_form(g, out[:i] + out[i + 1 :], order))
    return out


def buchberger(ideal: IdealPresentation) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under its monomial order."""
    order = ideal.order
    # One (leading monomial, leading coefficient, element) record per basis
    # element, in basis order; the list is also the reducer list.
    records: list = []
    for g in ideal.generators:
        record = _monic_record(g, order)
        if all(record[2] != h for _, _, h in records):
            records.append(record)

    # The heap pops pairs by (lcm total degree, i, j), the normal selection
    # strategy; ``pending`` mirrors its contents for the chain criterion.
    queue: list = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(records[i][0], records[j][0])
            heapq.heappush(queue, (sum(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(len(records)):
        add_pairs(j)

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == monomial_mul(records[i][0], records[j][0]):
            continue  # coprime leading monomials
        if any(
            k not in (i, j)
            and monomial_divides(lm_k, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (lm_k, _, _) in enumerate(records)
        ):
            continue  # chain criterion
        s = s_polynomial(records[i][2], records[j][2], order)
        r = _normal_form(s, records, order)
        if r.is_zero():
            continue
        records.append(_monic_record(r, order))
        add_pairs(len(records) - 1)

    reduced = _interreduce(_minimalize(records, order), order)
    reduced.sort(key=lambda record: order.key(record[0]), reverse=True)
    return GroebnerBasis(ideal.table, tuple(g for _, _, g in reduced), order)


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


def rabinowitsch_ideal(p: Polynomial, ideal: IdealPresentation) -> IdealPresentation:
    """The ideal extended by 1 - t*p for a fresh variable t.

    Grading and blocks are irrelevant to membership of 1, so the extension
    lives over a fresh all-generator table with t placed last, under
    degrevlex.
    """
    if p.table != ideal.table:
        raise ValueError("rabinowitsch_ideal with mixed variable tables")
    t_name = _fresh_name(set(ideal.table.names))
    flat = VariableTable(
        tuple(Variable(n, 1, GENERATOR) for n in ideal.table.names)
        + (Variable(t_name, 1, GENERATOR),)
    )
    lifted = [g.transport(flat) for g in ideal.generators]
    t = Polynomial.variable(flat, t_name)
    one = Polynomial.constant(flat, 1)
    return IdealPresentation(
        flat, tuple(lifted) + (one - t * p.transport(flat),), degrevlex(flat)
    )


def radical_member(p: Polynomial, ideal: IdealPresentation) -> bool:
    """Membership of p in the radical of the ideal, by the Rabinowitsch trick:
    1 lies in :func:`rabinowitsch_ideal` of p."""
    if p.table != ideal.table:
        raise ValueError("radical_member with mixed variable tables")
    if p.is_zero():
        return True
    extended = rabinowitsch_ideal(p, ideal)
    return ideal_member(Polynomial.constant(extended.table, 1), buchberger(extended))
