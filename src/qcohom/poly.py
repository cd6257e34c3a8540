"""Exact multivariate polynomials over the rationals with graded variable tables.

A polynomial is a finite sum of terms ``coefficient * monomial`` where the
coefficient is a ``fractions.Fraction`` and the monomial is an exponent vector
over a fixed :class:`VariableTable`.  Tables carry a grading (an integer degree
per variable) and a block label per variable:

* ``generator`` variables present the ring (degree >= 1),
* ``instanton`` variables count curve classes (degree >= 1),
* ``parameter`` variables are deformation coefficients (degree 0).

Blocks appear in the table in that order; monomial orders and staircase
extraction rely on it.  Terms are stored sorted in descending degree
reverse lexicographic order over the full table, so equal polynomials are
structurally equal and render identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

GENERATOR = "generator"
INSTANTON = "instanton"
PARAMETER = "parameter"

_BLOCK_RANK = {GENERATOR: 0, INSTANTON: 1, PARAMETER: 2}

Monomial = tuple  # exponent vector, one entry per table variable
Scalar = Union[Fraction, int]


class TableMismatchError(ValueError):
    """Raised when an operation mixes polynomials over different variable tables."""


@dataclass(frozen=True)
class Variable:
    name: str
    degree: int
    block: str


@dataclass(frozen=True)
class VariableTable:
    """Ordered, graded list of variables: generator, then instanton, then parameter."""

    entries: tuple[Variable, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in table")
        ranks = []
        for v in self.entries:
            if v.block not in _BLOCK_RANK:
                raise ValueError(f"unknown block {v.block!r} for variable {v.name!r}")
            ranks.append(_BLOCK_RANK[v.block])
            if v.block == PARAMETER:
                if v.degree != 0:
                    raise ValueError(f"parameter variable {v.name!r} must have degree 0")
            elif v.degree < 1:
                raise ValueError(f"variable {v.name!r} must have degree >= 1")
        if ranks != sorted(ranks):
            raise ValueError("blocks must appear in order generator, instanton, parameter")

    @staticmethod
    def make(specs: Iterable[tuple[str, int, str]]) -> "VariableTable":
        """Build a table from ``(name, degree, block)`` triples."""
        return VariableTable(tuple(Variable(n, d, b) for n, d, b in specs))

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.entries)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(v.degree for v in self.entries)

    @cached_property
    def _index(self) -> dict:
        return {v.name: i for i, v in enumerate(self.entries)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable named {name!r} in table") from None

    @cached_property
    def block_spans(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """Half-open index ranges of the generator, instanton and parameter blocks."""
        bounds = []
        start = 0
        for block in (GENERATOR, INSTANTON, PARAMETER):
            stop = start
            while stop < len(self.entries) and self.entries[stop].block == block:
                stop += 1
            bounds.append((start, stop))
            start = stop
        return tuple(bounds)  # type: ignore[return-value]

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.entries)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of a/b; requires b | a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError("monomial division with negative exponent")
    return out


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _degrevlex_key(exps: Sequence[int]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _lex_key(exps: Sequence[int]):
    return tuple(exps)


_KEY_FN = {"degrevlex": _degrevlex_key, "lex": _lex_key}


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order given by comparison spans.

    ``spans`` is a sequence of ``(start, stop, subkind)`` triples compared in
    order; a plain degrevlex or lex order has a single span covering the whole
    table, a block order has one span per nonempty block.
    """

    kind: str
    length: int
    spans: tuple[tuple[int, int, str], ...]

    def key(self, exps: Monomial):
        if len(exps) != self.length:
            raise TableMismatchError("exponent vector length does not match order")
        return tuple(_KEY_FN[sub](exps[a:b]) for a, b, sub in self.spans)

    def compare(self, a: Monomial, b: Monomial) -> int:
        """-1, 0 or 1 as a is below, equal to or above b."""
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0


def degrevlex(table: VariableTable) -> MonomialOrder:
    n = len(table)
    return MonomialOrder("degrevlex", n, ((0, n, "degrevlex"),))


def lex_order(table: VariableTable) -> MonomialOrder:
    n = len(table)
    return MonomialOrder("lex", n, ((0, n, "lex"),))


def block_order(table: VariableTable) -> MonomialOrder:
    """Generator block compared first (degrevlex), then instanton, then parameter."""
    spans = tuple(
        (a, b, "degrevlex") for a, b in table.block_spans if b > a
    )
    if not spans:
        spans = ((0, 0, "degrevlex"),)
    return MonomialOrder("block", len(table), spans)


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial with canonically sorted terms.

    ``terms`` holds ``(monomial, coefficient)`` pairs with nonzero
    coefficients, sorted descending under degrevlex over the full table.
    """

    table: VariableTable
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_terms(
        table: VariableTable, terms: Iterable[tuple[Monomial, Scalar]]
    ) -> "Polynomial":
        acc: dict = {}
        width = len(table)
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != width:
                raise TableMismatchError("exponent vector length does not match table")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in monomial")
            c = acc.get(exps, Fraction(0)) + _as_fraction(coeff)
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        ordered = sorted(acc.items(), key=lambda t: _degrevlex_key(t[0]), reverse=True)
        return Polynomial(table, tuple(ordered))

    @staticmethod
    def zero(table: VariableTable) -> "Polynomial":
        return Polynomial(table, ())

    @staticmethod
    def constant(table: VariableTable, value: Scalar) -> "Polynomial":
        v = _as_fraction(value)
        if not v:
            return Polynomial.zero(table)
        return Polynomial(table, ((table.unit_monomial(), v),))

    @staticmethod
    def variable(table: VariableTable, name: str) -> "Polynomial":
        i = table.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(table)))
        return Polynomial(table, ((exps, Fraction(1)),))

    @staticmethod
    def monomial(table: VariableTable, exps: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return Polynomial.from_terms(table, [(tuple(exps), coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_table(self, other: "Polynomial") -> None:
        if self.table != other.table:
            raise TableMismatchError("polynomials over different variable tables")

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            self._check_table(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.table, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial.from_terms(self.table, itertools.chain(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        negated = ((m, -c) for m, c in other.terms)
        return Polynomial.from_terms(self.table, itertools.chain(self.terms, negated))

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_table(other)
            acc: dict = {}
            for ma, ca in self.terms:
                for mb, cb in other.terms:
                    m = monomial_mul(ma, mb)
                    c = acc.get(m, Fraction(0)) + ca * cb
                    if c:
                        acc[m] = c
                    else:
                        del acc[m]
            ordered = sorted(acc.items(), key=lambda t: _degrevlex_key(t[0]), reverse=True)
            return Polynomial(self.table, tuple(ordered))
        if isinstance(other, (int, Fraction)):
            v = _as_fraction(other)
            if not v:
                return Polynomial.zero(self.table)
            return Polynomial(self.table, tuple((m, c * v) for m, c in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial.constant(self.table, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def coefficient(self, exps: Monomial) -> Fraction:
        exps = tuple(exps)
        for m, c in self.terms:
            if m == exps:
                return c
        return Fraction(0)

    def leading(self, order: MonomialOrder) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under the given order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=lambda t: order.key(t[0]))

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, lc = self.leading(order)
        if lc == 1:
            return self
        inv = Fraction(1) / lc
        return Polynomial(self.table, tuple((m, c * inv) for m, c in self.terms))

    def graded_degree(self):
        """Common weighted degree of all terms, or None when inhomogeneous.

        The zero polynomial reports degree 0.
        """
        if not self.terms:
            return 0
        degrees = self.table.degrees
        seen = None
        for m, _ in self.terms:
            d = sum(e * w for e, w in zip(m, degrees))
            if seen is None:
                seen = d
            elif d != seen:
                return None
        return seen

    def total_degree(self) -> int:
        """Maximal unweighted exponent sum; 0 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=0)

    def substitute(self, assignments: Mapping[str, Scalar]) -> "Polynomial":
        """Evaluate some variables at exact rationals, dropping them from the table.

        Returns a polynomial over the reduced table (original order preserved).
        """
        if not assignments:
            return self
        values = {}
        for name, value in assignments.items():
            values[self.table.index(name)] = _as_fraction(value)
        keep = [i for i in range(len(self.table)) if i not in values]
        new_table = VariableTable(tuple(self.table.entries[i] for i in keep))
        out: list[tuple[Monomial, Fraction]] = []
        for m, c in self.terms:
            scale = c
            for i, v in values.items():
                if m[i]:
                    scale *= v ** m[i]
            if scale:
                out.append((tuple(m[i] for i in keep), scale))
        return Polynomial.from_terms(new_table, out)

    def transport(
        self, target: VariableTable, rename: Mapping[str, str] | None = None
    ) -> "Polynomial":
        """Rewrite over another table, matching variables by (renamed) name.

        Every variable actually used must exist in the target table; unused
        variables may be absent.
        """
        rename = rename or {}
        width = len(target)
        column: dict[int, int] = {}
        out = []
        for m, c in self.terms:
            exps = [0] * width
            for i, e in enumerate(m):
                if not e:
                    continue
                if i not in column:
                    name = self.table.entries[i].name
                    column[i] = target.index(rename.get(name, name))
                exps[column[i]] = e
            out.append((tuple(exps), c))
        return Polynomial.from_terms(target, out)

    def __str__(self) -> str:
        from .expr import render

        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.__str__()!r})"


def determinant(table: VariableTable, rows) -> Polynomial:
    """Exact determinant of a square polynomial matrix by subset dynamic programming.

    dp[mask] is the determinant of the submatrix on the first popcount(mask)
    rows and the column set mask, built one row at a time with sign-tracked
    Laplace expansion.
    """
    n = len(rows)
    dp = {0: Polynomial.constant(table, 1)}
    for r in range(n):
        nxt: dict[int, Polynomial] = {}
        for mask, sub in dp.items():
            if sub.is_zero():
                continue
            # sign of placing column j: parity of used columns above j,
            # the inversions the new row introduces
            sign = 1
            for j in range(n - 1, -1, -1):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                entry = rows[r][j]
                if not entry.is_zero():
                    term = sub * entry
                    if sign < 0:
                        term = -term
                    new_mask = mask | bit
                    if new_mask in nxt:
                        nxt[new_mask] = nxt[new_mask] + term
                    else:
                        nxt[new_mask] = term
        dp = nxt
        if not dp:
            return Polynomial.zero(table)
    return dp.get((1 << n) - 1, Polynomial.zero(table))
