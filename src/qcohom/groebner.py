"""Buchberger's algorithm, normal forms and radical membership over the rationals.

The pair-selection strategy is the normal one (minimal lcm total degree,
ties broken by pair index), served from a heap so that each step costs
O(log P) in the number P of pending pairs.  Both classical pruning criteria
apply: S-pairs with coprime leading monomials are skipped, and the chain
criterion drops a pair when a third basis element divides the lcm and both
companion pairs are no longer pending.  An ideal of monomials forms no pair
at all: its minimal generators are its reduced basis.  One pass over the
records, ascending by leading monomial, keeps the minimal ones and reduces
each kept tail against the records kept before it; a monomial takes no normal
form.  Output bases are reduced (minimal, interreduced, monic) and sorted
descending by leading monomial, so they are canonical for the ideal: any
permutation of the input generators produces the identical basis.  The order
is always the block order of the variable table, which keeps instanton
variables as coefficients.

Normal forms against a basis go through :meth:`GroebnerBasis.parts`, in closed
form on the bases of :attr:`GroebnerBasis.powers` (quantum products of projective
spaces), else on the heap of :func:`_normal_form`, which :func:`buchberger` uses.
A polynomial p lies in the ideal exactly when ``not gb.reduce(p)``.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .expr import MAX_NORMAL_FORM_STEPS
from .poly import (
    GENERATOR,
    Polynomial,
    Record,
    Variable,
    VariableTable,
    _sorted_terms,
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

    @cached_property
    def mask(self) -> int:
        """The bits of the parts a normal form keeps on its heap: the generator
        fields when every leading monomial is generator-only, else all."""
        gen = self.table.generator_mask
        return gen if all(not lm & ~gen for lm, _ in self.leading_terms) else -1

    @cached_property
    def reducers(self) -> tuple:
        """The :func:`_reducer` of each record under ``mask``, split once."""
        return tuple(_reducer(lm, g, self.mask) for lm, g in self.leading_terms)

    @cached_property
    def pure_powers(self) -> tuple:
        """For each variable x_v, the least e with x_v^e a leading monomial,
        or None: the staircase is finite exactly when none is None.  A packed
        pure power of x_v is a nonzero monomial whose bits all lie in field v."""
        width, least = self.table.field_width, [None] * len(self.table)
        for lm in sorted((lm for lm, _ in self.leading_terms if lm), reverse=True):
            v = (lm.bit_length() - 1) // width  # the top nonzero field
            if lm == lm >> width * v << width * v:
                least[v] = lm >> width * v  # the last, and least, power of x_v
        return tuple(least)

    @cached_property
    def powers(self):
        """(rules, offset) when every element is x_v^d - c*t, t an instanton monomial
        of lower degree on variables no other tail uses, else None: rules[guard bit
        of field v] = (shift of field v, d, t, c); m + offset sets it iff x_v^d | m."""
        table, width = self.table, self.table.field_width
        gen, guard = table.generator_mask, table.guard_mask
        low = guard - (guard >> width - 1)  # the largest exponent in every field
        rules, offset, used = {}, 0, 0
        for lm, g in self.leading_terms:
            bit = (lm + low) & guard  # the guard bit of each nonzero field
            if len(g.packed) != 2 or not lm or lm & ~gen or bit & bit - 1:
                return None
            ((t, rc),) = (term for term in g.packed if term[0] != lm)
            tail = (t + low) & guard
            if not t or t & gen or tail & used or table.degree(t) >= table.degree(lm):
                return None
            used |= tail
            shift = bit.bit_length() - width
            rules[bit] = (shift, lm >> shift, t, -rc)
            offset += ((1 << width - 1) - (lm >> shift)) << shift
        return rules, offset

    def parts(self, terms) -> dict:
        """The normal form of a collection of (packed monomial, coefficient)
        terms, distinct monomials, by part: {m & mask: {m & ~mask: c}}.

        With :attr:`powers` set and no instanton variable in the terms, each
        term reduces alone, x_v^e -> c^k t^k x_v^(e - kd) for k = e div d, in
        1 + (sum of k) steps, as on the heap, where no two such chains meet.
        """
        if self.powers is None:
            return _normal_form(self.table, terms, self.reducers, self.mask)
        table, (rules, offset) = self.table, self.powers
        instanton, guard = ~table.generator_mask, table.guard_mask
        field = (1 << table.field_width) - 1
        remainder, steps = {}, 0
        for m, c in terms:
            if m & instanton:
                return _normal_form(table, terms, self.reducers, self.mask)
            if not c:
                continue
            steps += 1
            rest, over = 0, (m + offset) & guard
            while over:  # the guard bit of each field with e >= d
                bit = over & -over
                over ^= bit
                shift, d, t, rc = rules[bit]
                k = (m >> shift & field) // d
                m -= k * d << shift
                rest += k * t
                steps += k
                if rc != 1:
                    c *= rc**k
            remainder.setdefault(m, {})[rest] = c
        # only now: a later term with an instanton variable sends the input to the heap
        if steps > MAX_NORMAL_FORM_STEPS:
            raise ValueError(f"normal form needs more than {MAX_NORMAL_FORM_STEPS} steps")
        return remainder

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form of p: the remainder of full division by the basis.

        No term of the result is divisible by a leading monomial of the basis.
        """
        if p.table != self.table:
            raise ValueError("reduce with mixed variable tables")
        return _sorted_terms(self.table, _joined(self.parts(p.packed)))


def s_polynomial(a: tuple, b: tuple) -> Polynomial:
    """lcm(m, n) / m * f  -  lcm(m, n) / n * g for records a = (m, f), b = (n, g)
    of monic elements and their leading monomials."""
    (mf, f), (mg, g) = a, b
    if not f or not g:
        raise ValueError("s_polynomial of a zero polynomial")
    lcm = monomial_lcm(f.table, mf, mg)
    left = Polynomial(f.table, ((lcm - mf, 1),))
    right = Polynomial(g.table, ((lcm - mg, 1),))
    return left * f - right * g


def _reducer(lm: int, g: Polynomial, mask: int = -1) -> tuple:
    """(lm, first term's monomial, tail as (m & mask, m & ~mask, c)) of a record."""
    return lm, g.packed[0][0], tuple((m & mask, m & ~mask, c) for m, c in g.packed if m != lm)


def _joined(parts: dict) -> dict:
    """The {packed monomial: coefficient} terms of a normal form held by part."""
    return {g + rest: c for g, part in parts.items() for rest, c in part.items()}


def _normal_form(table: VariableTable, terms, reducers, mask: int = -1) -> dict:
    """Full division of (packed monomial, coefficient) terms, distinct
    monomials, by :func:`_reducer` records, the largest live term first; the
    first record whose leading monomial divides a term rewrites it.

    The heap, and the remainder returned, hold parts ``m & mask`` of the
    monomials, each with a {rest of m: coefficient} dict.  With ``mask`` the
    generator fields and every leading monomial generator-only, a step
    rewrites a whole part, else one term; the step bound counts terms.
    """
    guard = table.guard_mask
    key = table.block_key
    live: dict = {}
    for m, c in terms:
        if c:
            live.setdefault(m & mask, {})[m & ~mask] = c
    # (negated order key, part): distinct parts have distinct keys, so heapq
    # pops the largest live part first on int comparisons alone
    heap = [(-key(g), g) for g in live]
    heapq.heapify(heap)
    remainder: dict = {}
    steps = 0
    while heap:
        g = heapq.heappop(heap)[1]
        part = live.pop(g)
        if not part:
            continue  # every term cancelled: no step
        steps += len(part)
        if steps > MAX_NORMAL_FORM_STEPS:
            raise ValueError(f"normal form needs more than {MAX_NORMAL_FORM_STEPS} steps")
        for lm, top, tail in reducers:
            shift = g - lm
            if shift & guard:
                continue  # lm does not divide the part
            # only a tail term of larger total degree than lm can raise it
            if top != lm and any(
                table.degree(top + shift + rest) > table.max_degree for rest in part
            ):
                raise ValueError(f"reduction above total degree {table.max_degree}")
            for head, t, rc in tail:
                head += shift
                target = live.get(head)
                if target is None:  # a new part: no term to merge with
                    live[head] = {t + rest: -c * rc for rest, c in part.items()}
                    heapq.heappush(heap, (-key(head), head))
                    continue
                get = target.get
                for rest, c in part.items():
                    u = t + rest
                    v = get(u, 0) - c * rc  # nonzero when u is new: c and rc are
                    if v:
                        target[u] = v
                    else:
                        del target[u]
            break
        else:
            remainder[g] = part
    return remainder


def _monic_record(g: Polynomial):
    """(leading monomial, g made monic): the record of one basis element."""
    lm, lc = g.leading()
    return lm, g if lc == 1 else g * (Fraction(1) / lc)


def buchberger(table: VariableTable, generators: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis, under the table's block order, of the ideal
    that the nonzero generators over the table span."""
    for g in generators:
        if g.table != table:
            raise ValueError("ideal generator over a different table")
        if not g:
            raise ValueError("ideal generators must be nonzero")
    # One (leading monomial, monic element) record per basis element, in
    # basis order, duplicates dropped, and beside it its reducer, split once.
    # Every element is over ``table``, so its terms alone tell it apart.
    records = list({g.packed: (lm, g) for lm, g in map(_monic_record, generators)}.values())
    reducers = [_reducer(*record) for record in records]

    # The heap pops pairs by (lcm total degree, i, j), the normal selection
    # strategy; ``pending`` mirrors its contents for the chain criterion.
    queue: list = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(table, records[i][0], records[j][0])
            heapq.heappush(queue, (table.degree(lcm), i, j, lcm))
            pending.add((i, j))

    # the minimal generators of a monomial ideal are already its reduced basis
    if any(len(g.packed) > 1 for _, g in records):
        for j in range(len(records)):
            add_pairs(j)

    guard = table.guard_mask
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == records[i][0] + records[j][0]:
            continue  # coprime leading monomials
        # the inline divisibility test rejects most k before the pending lookups
        if any(
            not ((lcm - lm_k) & guard)
            and k not in (i, j)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (lm_k, _) in enumerate(records)
        ):
            continue  # chain criterion
        r = _normal_form(table, s_polynomial(records[i], records[j]).packed, reducers)
        if not r:
            continue
        records.append(_monic_record(_sorted_terms(table, _joined(r))))
        reducers.append(_reducer(*records[-1]))
        add_pairs(len(records) - 1)

    # One pass, ascending: keep each record whose leading monomial no kept one
    # divides (sorted is stable, so of equal leading monomials the first in
    # basis order stays), then reduce its tail.  A tail term lies below its
    # leading monomial, so only the records kept before it can divide it; a
    # monomial has no tail.
    key = table.block_key
    reduced: list = []
    kept: list = []  # the reducers of the reduced records
    for lm, g in sorted(records, key=lambda record: key(record[0])):
        if any(not ((lm - lm_k) & guard) for lm_k, _ in reduced):
            continue
        if len(g.packed) > 1:
            tail = _normal_form(table, (t for t in g.packed if t[0] != lm), kept)
            g = _sorted_terms(table, {lm: 1, **_joined(tail)})
        reduced.append((lm, g))
        kept.append(_reducer(lm, g))
    return GroebnerBasis(table, tuple(reversed(reduced)))


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
    t_name, i = "t", 0  # t, else the first free t0, t1, ...
    while t_name in p.table.names:
        t_name, i = f"t{i}", i + 1
    flat = VariableTable(
        tuple(Variable(n, 1, GENERATOR) for n in p.table.names)
        + (Variable(t_name, 1, GENERATOR),)
    )
    # t is the last field: each packed term keeps its int and its term-order place
    lifted = tuple(Polynomial(flat, g.packed) for g in generators)
    t = Polynomial.variable(flat, t_name)
    return flat, lifted + (Polynomial.constant(flat, 1) - t * Polynomial(flat, p.packed),)


def radical_member(p: Polynomial, generators: Sequence[Polynomial]) -> bool:
    """Membership of p in the radical of the ideal of the generators, by the
    Rabinowitsch trick: 1 lies in :func:`rabinowitsch_ideal` of p."""
    if any(g.table != p.table for g in generators):
        raise ValueError("radical_member with mixed variable tables")
    if not p:
        return True
    flat, extended = rabinowitsch_ideal(p, generators)
    return not buchberger(flat, extended).reduce(Polynomial.constant(flat, 1))
