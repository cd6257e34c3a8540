"""Exact multivariate polynomials over the rationals with graded variable tables.

A polynomial is a finite sum of terms ``coefficient * monomial`` over a fixed
:class:`VariableTable`.  A coefficient is an ``int`` while it is integral and
a ``fractions.Fraction`` otherwise, never a float.  Tables carry a grading
(an integer degree per variable) and a block label per variable:

* ``generator`` variables present the ring (degree >= 1),
* ``instanton`` variables count curve classes (degree >= 1),
* ``parameter`` variables are deformation coefficients (degree 0).

Blocks appear in the table in that order.  A table has two monomial orders.
Terms are stored sorted descending under :attr:`VariableTable.term_order`,
degrevlex over the full table, so equal polynomials are structurally equal
and render identically.  :attr:`VariableTable.block_order` keeps instanton
and parameter variables as coefficients; it orders every Groebner basis and
leading term.

A monomial is its exponent vector packed into one ``int`` (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): the exponent of variable i fills field i, bits
``[W*i, W*(i+1))`` with ``W = VariableTable.field_width``, and the top bit of
every field is a guard bit that stays clear.  Multiplying monomials adds
their ints, and a divides b exactly when ``b - a`` sets no guard bit.  The
total degree of every monomial is at most ``VariableTable.max_degree``; a
product that would exceed it raises ``ValueError`` instead of spilling into
the next field.  The packed int is the one monomial format the package
passes between modules; the unit monomial is ``0``.  Exponent tuples appear
only at the text and input boundary: :meth:`VariableTable.pack`,
:meth:`VariableTable.unpack`, :attr:`Polynomial.terms`,
:meth:`Polynomial.from_terms` and :meth:`Polynomial.monomial`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property

GENERATOR = "generator"
INSTANTON = "instanton"
PARAMETER = "parameter"

_BLOCK_RANK = {GENERATOR: 0, INSTANTON: 1, PARAMETER: 2}

Monomial = tuple  # exponent vector, one entry per table variable
Scalar = Fraction | int


class TableMismatchError(ValueError):
    """Raised when an operation mixes polynomials over different variable tables."""


class Record:
    """Immutable value record whose fields are the names annotated in the
    class body.  The constructor takes every field, by position or keyword,
    then runs ``_validate``.  Records compare and hash by field values, refuse
    attribute assignment, and keep a ``__dict__`` for ``cached_property``."""

    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self.__dict__.update(values)
        self._validate()

    def _validate(self) -> None:
        """Reject invalid field values; subclasses override it."""

    def replace(self, **changes) -> "Record":
        """A copy with some fields changed, validated again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({values})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Variable(Record):
    name: str
    degree: int
    block: str


def _ones(count: int) -> int:
    """A 1 in each of the lowest ``count`` packed fields."""
    width = VariableTable.field_width
    return ((1 << width * count) - 1) // ((1 << width) - 1)


class VariableTable(Record):
    """Ordered, graded list of variables: generator, then instanton, then parameter.

    The table also fixes how its monomials are packed into ints.
    """

    entries: tuple[Variable, ...]

    field_width = 16  # bits per exponent field, guard bit included
    # Largest total degree of a monomial.  It keeps every exponent, and every
    # prefix sum that MonomialOrder.key forms, below the guard bit of a field.
    max_degree = (1 << (field_width - 1)) - 1

    def _validate(self) -> None:
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

    @cached_property
    def guard_mask(self) -> int:
        """The guard bit of every field."""
        return _ones(len(self.entries)) << (self.field_width - 1)

    @cached_property
    def generator_mask(self) -> int:
        """Every bit of the generator fields, a prefix of the table."""
        return (1 << self.field_width * self.block_spans[0][1]) - 1

    @cached_property
    def term_order(self) -> "MonomialOrder":
        """Degrevlex over the full table, the order polynomial terms are stored in."""
        return MonomialOrder(((0, len(self.entries)),))

    @cached_property
    def block_order(self) -> "MonomialOrder":
        """The Groebner order: the generator block compared first (degrevlex),
        then the instanton block, then the parameter block.  On a table of
        generators only it is :attr:`term_order`."""
        return MonomialOrder(tuple((a, b) for a, b in self.block_spans if b > a))

    def pack(self, exps: Monomial) -> int:
        """The packed monomial of an exponent vector."""
        exps = tuple(exps)
        if len(exps) != len(self.entries):
            raise TableMismatchError("exponent vector length does not match table")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in monomial")
        if sum(exps) > self.max_degree:
            raise ValueError(f"monomial of total degree above {self.max_degree}")
        packed = 0
        for e in reversed(exps):
            packed = (packed << self.field_width) | e
        return packed

    def unpack(self, packed: int) -> Monomial:
        """The exponent vector of a packed monomial."""
        width = self.field_width
        field = (1 << width) - 1
        return tuple((packed >> width * i) & field for i in range(len(self.entries)))

    def degree(self, packed: int) -> int:
        """Total (unweighted) degree of a packed monomial."""
        top_field = max(len(self.entries) - 1, 0)  # the key's top field is the degree
        return self.term_order.key(packed) >> self.field_width * top_field

    def weighted_degree(self, packed: int) -> int:
        """Degree of a packed monomial in the table's grading."""
        return sum(e * w for e, w in zip(self.unpack(packed), self.degrees))


def monomial_divides(table: VariableTable, a: int, b: int) -> bool:
    """Does packed monomial a divide b?  Then no field of b - a borrows."""
    return not ((b - a) & table.guard_mask)


def monomial_lcm(table: VariableTable, a: int, b: int) -> int:
    """Field-wise maximum of two packed monomials.

    ``(b | guard) - a`` borrows across no field and keeps a field's guard bit
    exactly where b's exponent is at least a's; spreading each kept guard bit
    over the bits below it selects b's field there and a's elsewhere.
    """
    guard = table.guard_mask
    pick = ((b | guard) - a) & guard
    pick -= pick >> (table.field_width - 1)
    return (b & pick) | (a & ~pick)


class MonomialOrder(Record):
    """Total multiplicative monomial order given by comparison spans.

    ``spans`` holds ``(start, stop)`` index ranges compared in turn, each by
    degrevlex; :attr:`VariableTable.term_order` has one span covering the
    whole table, :attr:`VariableTable.block_order` one per nonempty block.
    """

    spans: tuple[tuple[int, int], ...]

    @cached_property
    def _span_codes(self) -> tuple[tuple[int, int, int, int], ...]:
        width = VariableTable.field_width
        return tuple(
            (width * a, (1 << width * (b - a)) - 1, _ones(b - a), width * (b - a))
            for a, b in self.spans
        )

    def key(self, packed: int) -> int:
        """The order as one int: a larger key is a larger monomial.

        A span's fields x_1..x_k times ``_ones(k)`` hold the prefix sums
        S_i = x_1 + ... + x_i in fields i - 1; keeping the low k fields leaves
        (S_k, S_(k-1), ..., S_1), total degree on top, and with equal totals a
        larger S_(k-1) is a smaller x_k, and so on down: degrevlex.  The spans'
        keys are joined with the first span on top.
        """
        key = 0
        for shift, low, ones, width in self._span_codes:
            key = (key << width) | (((packed >> shift) & low) * ones & low)
        return key


def _exact(value: Scalar) -> Scalar:
    """An integral Fraction as an int; any other coefficient as it is."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _as_scalar(value: Scalar) -> Scalar:
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _sorted_terms(table: VariableTable, acc: dict) -> "Polynomial":
    """The polynomial of a {packed monomial: coefficient} dict, zeros dropped."""
    key = table.term_order.key
    kept = sorted((m for m, c in acc.items() if c), key=key, reverse=True)
    return Polynomial(table, tuple((m, _exact(acc[m])) for m in kept))


class Polynomial(Record):
    """Immutable polynomial with canonically sorted terms.

    ``packed`` holds ``(packed monomial, coefficient)`` pairs with nonzero
    coefficients, sorted descending under degrevlex over the full table;
    ``terms`` is the same list with exponent tuples.
    """

    table: VariableTable
    packed: tuple[tuple[int, Scalar], ...]

    def __init__(self, table: VariableTable, packed: tuple) -> None:
        # written out: the kernel's loops build many polynomials
        fields = self.__dict__
        fields["table"] = table
        fields["packed"] = packed

    @cached_property
    def terms(self) -> tuple[tuple[Monomial, Scalar], ...]:
        unpack = self.table.unpack
        return tuple((unpack(m), c) for m, c in self.packed)

    @staticmethod
    def from_terms(
        table: VariableTable, terms: Iterable[tuple[Monomial, Scalar]]
    ) -> "Polynomial":
        return Polynomial.from_packed(
            table, ((table.pack(exps), _as_scalar(c)) for exps, c in terms)
        )

    @staticmethod
    def from_packed(
        table: VariableTable, terms: Iterable[tuple[int, Scalar]]
    ) -> "Polynomial":
        """Sum of ``(packed monomial, int or Fraction coefficient)`` terms."""
        acc: dict = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + c
        return _sorted_terms(table, acc)

    @staticmethod
    def zero(table: VariableTable) -> "Polynomial":
        return Polynomial(table, ())

    @staticmethod
    def constant(table: VariableTable, value: Scalar) -> "Polynomial":
        v = _as_scalar(value)
        if not v:
            return Polynomial.zero(table)
        return Polynomial(table, ((0, v),))

    @staticmethod
    def variable(table: VariableTable, name: str) -> "Polynomial":
        i = table.index(name)
        return Polynomial(table, ((1 << table.field_width * i, 1),))

    @staticmethod
    def monomial(table: VariableTable, exps: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return Polynomial.from_terms(table, [(exps, coeff)])

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

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
        return Polynomial.from_packed(self.table, self.packed + other.packed)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, tuple((m, -c) for m, c in self.packed))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_table(other)
            table = self.table
            if not (self.packed and other.packed):
                return Polynomial.zero(table)
            # The first term of each factor has its largest total degree.
            degree = table.degree(self.packed[0][0]) + table.degree(other.packed[0][0])
            if degree > table.max_degree:
                raise ValueError(
                    f"product of total degree {degree} exceeds {table.max_degree}"
                )
            acc: dict = {}
            get = acc.get
            right = other.packed
            for ma, ca in self.packed:
                for mb, cb in right:
                    m = ma + mb
                    acc[m] = get(m, 0) + ca * cb
            return _sorted_terms(table, acc)
        if isinstance(other, (int, Fraction)):
            v = _as_scalar(other)
            if not v:
                return Polynomial.zero(self.table)
            return Polynomial(self.table, tuple((m, _exact(c * v)) for m, c in self.packed))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial.constant(self.table, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def coefficient(self, monomial: int) -> Scalar:
        """Coefficient of a packed monomial, 0 when it is not a term."""
        return next((c for m, c in self.packed if m == monomial), 0)

    def leading(self) -> tuple[int, Scalar]:
        """Leading (packed monomial, coefficient) under the table's block order."""
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        key = self.table.block_order.key
        return max(self.packed, key=lambda t: key(t[0]))

    def graded_degree(self):
        """Common weighted degree of all terms, or None when inhomogeneous.

        The zero polynomial reports degree 0.
        """
        degrees = {self.table.weighted_degree(m) for m, _ in self.packed} or {0}
        return degrees.pop() if len(degrees) == 1 else None

    def total_degree(self) -> int:
        """Maximal unweighted exponent sum; 0 for the zero polynomial."""
        return self.table.degree(self.packed[0][0]) if self.packed else 0

    def substitute(self, assignments: Mapping[str, Scalar]) -> "Polynomial":
        """Evaluate some variables at exact rationals, dropping them from the table.

        Returns a polynomial over the reduced table (original order preserved).
        """
        if not assignments:
            return self
        values = {}
        for name, value in assignments.items():
            values[self.table.index(name)] = _as_scalar(value)
        keep = [i for i in range(len(self.table)) if i not in values]
        new_table = VariableTable(tuple(self.table.entries[i] for i in keep))
        out: list[tuple[Monomial, Scalar]] = []
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
