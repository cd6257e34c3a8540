"""Exact multivariate polynomials over the rationals with graded variable tables.

A polynomial is a finite sum of terms ``coefficient * monomial`` over a fixed
:class:`VariableTable`.  A coefficient is an ``int`` while it is integral and
a ``fractions.Fraction`` otherwise, never a float.  Tables carry a grading
(an integer degree per variable) and a block label per variable:

* ``generator`` variables present the ring,
* ``instanton`` variables count curve classes.

Every degree is at least 1, and the generator block comes first.  A table
has two monomial orders, each a key function from a packed monomial to an
int, a larger key a larger monomial.  Terms are stored sorted descending
under :attr:`VariableTable.term_key`, degrevlex over the full table, so
equal polynomials are structurally equal and render identically.
:attr:`VariableTable.block_key` keeps instanton variables as coefficients;
it orders every Groebner basis and leading term.

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
:func:`determinant` is the one determinant routine, of every sigma-block and
every Gram matrix.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property

GENERATOR = "generator"
INSTANTON = "instanton"

_BLOCK_RANK = {GENERATOR: 0, INSTANTON: 1}

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
    """Ordered, graded list of variables: generator, then instanton.

    The table also fixes how its monomials are packed into ints.
    """

    entries: tuple[Variable, ...]

    field_width = 16  # bits per exponent field, guard bit included
    # Largest total degree of a monomial.  It keeps every exponent, and every
    # prefix sum that an order key forms, below the guard bit of a field.
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
            if v.degree < 1:
                raise ValueError(f"variable {v.name!r} must have degree >= 1")
        if ranks != sorted(ranks):
            raise ValueError("blocks must appear in order generator, instanton")

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
    def block_spans(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Half-open index ranges of the generator and instanton blocks."""
        stop = sum(v.block == GENERATOR for v in self.entries)  # a prefix
        return ((0, stop), (stop, len(self.entries)))

    @cached_property
    def guard_mask(self) -> int:
        """The guard bit of every field."""
        return _ones(len(self.entries)) << (self.field_width - 1)

    @cached_property
    def generator_mask(self) -> int:
        """Every bit of the generator fields, a prefix of the table."""
        return (1 << self.field_width * self.block_spans[0][1]) - 1

    @cached_property
    def term_key(self):
        """Degrevlex over the full table, the order polynomial terms are stored in."""
        return _order_key(len(self.entries), len(self.entries))

    @cached_property
    def block_key(self):
        """The Groebner order: the generator block compared first (degrevlex),
        then the instanton block.  On a table of generators only it is
        :attr:`term_key`."""
        stop, end = self.block_spans[1]
        return self.term_key if stop == end else _order_key(stop, end)

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

    @cached_property
    def degree(self):
        """Total (unweighted) degree of a packed monomial: the top field of
        :attr:`term_key`, as a function."""
        ones, field = _ones(len(self.entries)), (1 << self.field_width) - 1
        shift = self.field_width * max(len(self.entries) - 1, 0)
        return lambda packed: packed * ones >> shift & field

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


def _order_key(stop: int, end: int):
    """Degrevlex on fields [0, stop), then degrevlex on fields [stop, end),
    as one int, a function of the packed monomial: a larger key is a larger
    monomial.

    A span's fields x_1..x_k times ``_ones(k)`` hold the prefix sums
    S_i = x_1 + ... + x_i in fields i - 1; keeping the low k fields leaves
    (S_k, S_(k-1), ..., S_1), total degree on top, and with equal totals a
    larger S_(k-1) is a smaller x_k, and so on down: degrevlex.  The first
    span's key goes on top of the second's; with ``stop == end`` the second
    span is empty.
    """
    width = VariableTable.field_width
    low, ones = (1 << width * stop) - 1, _ones(stop)
    shift, size = width * stop, width * (end - stop)
    low2, ones2 = (1 << size) - 1, _ones(end - stop)

    def key(packed: int) -> int:
        return (packed * ones & low) << size | (packed >> shift) * ones2 & low2

    return key


def _exact(value: Scalar) -> Scalar:
    """An integral Fraction as an int; any other coefficient as it is."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def exact_rational(value) -> Fraction:
    """``Fraction(value)`` for an int, a Fraction or a rational string; a
    float, whose binary value is rarely the number meant, raises TypeError."""
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational, got the float {value!r}")
    return Fraction(value)


def _as_scalar(value: Scalar) -> Scalar:
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _sorted_terms(table: VariableTable, acc: dict) -> "Polynomial":
    """The polynomial of a {packed monomial: coefficient} dict, zeros dropped."""
    key = table.term_key
    kept = sorted((m for m, c in acc.items() if c), key=key, reverse=True)
    return Polynomial(table, tuple((m, _exact(acc[m])) for m in kept))


def _check_product_degree(table: VariableTable, degree: int) -> None:
    """ValueError for a product whose total degree passes the table's bound."""
    if degree > table.max_degree:
        raise ValueError(f"product of total degree {degree} exceeds {table.max_degree}")


def _product_terms(left, right) -> dict:
    """The {packed monomial: coefficient} sums of left*right, term sequences; 0s kept."""
    acc: dict = {}
    get = acc.get
    for ma, ca in left:
        for mb, cb in right:
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb
    return acc


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
            if self.packed == ((0, 1),):
                return other
            if other.packed == ((0, 1),):
                return self
            _check_product_degree(self.table, self.total_degree() + other.total_degree())
            return _sorted_terms(self.table, _product_terms(self.packed, other.packed))
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
        key = self.table.block_key
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

    def __str__(self) -> str:
        from .expr import render

        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.__str__()!r})"


def sparse_sums(items) -> dict:
    """Sum the polynomials sharing a key; keys whose sum is zero are dropped."""
    sums: dict = {}
    for key, value in items:
        total = sums[key] + value if key in sums else value
        if total:
            sums[key] = total
        else:
            sums.pop(key, None)
    return sums


def _exact_quotient(p: Polynomial, d: Polynomial) -> Polynomial:
    """p / d for a d that divides p, by leading terms under ``term_key``."""
    (dm, dc), quotient = d.packed[0], []
    while p:
        m, c = p.packed[0]
        quotient.append((m - dm, _exact(Fraction(c) / dc)))
        p -= Polynomial(p.table, (quotient[-1],)) * d
    return Polynomial(d.table, tuple(quotient))


def determinant(table: VariableTable, rows) -> Polynomial:
    """Exact determinant of a square polynomial matrix in sparse {column:
    entry} rows, missing columns zero: Laplace expansion along each row with
    one entry, as long as taking its column out leaves such rows (an empty
    one gives 0), then fraction-free elimination (Bareiss, Math. Comp. 22,
    1968), each 2x2 minor on a pivot divided exactly by the previous pivot."""
    rows = [{j: e for j, e in row.items() if e} for row in rows]
    zero, n, holders = Polynomial.zero(table), len(rows), {}  # column -> rows with an entry
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, []).append(i)
    live = cols = (1 << n) - 1  # the rows and the columns left
    terms, degree, parity = {0: 1}, 0, 0  # the product of the expanded entries
    single = [i for i, row in enumerate(rows) if len(row) < 2]
    while single:
        if live >> (i := single.pop()) & 1:
            if not rows[i]:
                return zero
            j, e = rows[i].popitem()  # so the rows left are the nonempty ones
            live, cols = live ^ 1 << i, cols ^ 1 << j
            parity += (live & (1 << i) - 1).bit_count() + (cols & (1 << j) - 1).bit_count()
            terms, degree = _product_terms(terms.items(), e.packed), degree + e.total_degree()
            for r in holders[j]:
                rows[r].pop(j, None)
            single += (r for r in holders[j] if len(rows[r]) < 2)
    _check_product_degree(table, degree)
    core = [[row.get(j, zero) for j in range(n) if cols >> j & 1] for row in rows if row]
    pivot = Polynomial.constant(table, 1)
    for k in range(len(core)):
        if (swap := next((i for i in range(k, len(core)) if core[i][k]), None)) is None:
            return zero
        core[k], core[swap], parity = core[swap], core[k], parity + (swap != k)
        for row in core[k + 1:]:
            for j in range(k + 1, len(core)):
                row[j] = _exact_quotient(row[j] * core[k][k] - row[k] * core[k][j], pivot)
        pivot = core[k][k]
    return _sorted_terms(table, terms) * pivot * (-1) ** parity
