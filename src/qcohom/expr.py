"""Parsing and canonical rendering of polynomial expressions.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' NAT)?
    atom   := IDENT | INT ('/' INT)? | '(' expr ')'

Identifiers must name table variables.  ``NAT`` and ``INT`` are ASCII digits,
``[0-9]+``.  Rational literals are written ``a`` or ``a/b``; there is no
general division.  Exponents are literal non-negative integers.  Rendering
produces the canonical form parsed by this grammar: terms sorted descending
under degrevlex over the full table, coefficients as reduced fractions, ``*``
between factors and ``^`` for powers.
Parentheses nest at most :data:`MAX_DEPTH` levels deep, exponents are at
most :data:`MAX_EXPONENT`, and integer literals have at most
:data:`MAX_DIGITS` digits.  A power or product whose total degree exceeds
:data:`MAX_EXPONENT` is a :class:`ParseError` at its operator, raised before
it is multiplied out.  So is a product (each step of a power included) that
would take the parse past :data:`MAX_TERM_PRODUCTS` term products in all,
each product of p and q counting terms(p) * terms(q).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, VariableTable, _product_terms, _sorted_terms


class ParseError(ValueError):
    """Syntax or lookup error, carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup  # "num", "ident" or "op"
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


MAX_DEPTH = 100  # parenthesis levels; each level costs the parser five stack frames
MAX_EXPONENT = 1000  # bound on an exponent literal and on the degree of a power or product
MAX_TERM_PRODUCTS = 100_000  # bound on the term products one parse forms
MAX_NORMAL_FORM_STEPS = 25_000  # bound on the terms one normal form takes off its heap
MAX_DIGITS = 4300  # bound on the digits of an integer read or printed, whatever Python's own


def _literal(tok) -> int:
    """Value of a number token; one of more than MAX_DIGITS digits is a ParseError."""
    if len(tok[1]) > MAX_DIGITS:
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long", tok[2])
    return int(tok[1])


def _check_degree(degree: int, tok) -> None:
    """A power or product above MAX_EXPONENT is a ParseError at its operator."""
    if degree > MAX_EXPONENT:
        raise ParseError(f"total degree {degree} larger than {MAX_EXPONENT}", tok[2])


class _Parser:
    def __init__(self, text: str, table: VariableTable):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.term_products = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {op!r}", pos)
        self.i += 1

    def charge(self, products: int, tok) -> None:
        """Count term products; past the budget, a ParseError at operator tok."""
        self.term_products += products
        if self.term_products > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"expression needs more than {MAX_TERM_PRODUCTS} term products", tok[2]
            )

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        terms = list(p.packed)  # a sum is built once, from all its terms
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.i += 1
            q = self.term()
            terms += q.packed if tok[1] == "+" else ((m, -c) for m, c in q.packed)
        if len(terms) == len(p.packed):
            return p
        return Polynomial.from_packed(self.table, terms)

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return p
            self.i += 1
            q = self.factor()
            _check_degree(p.total_degree() + q.total_degree(), tok)
            self.charge(len(p.packed) * len(q.packed), tok)
            p = p * q

    def factor(self) -> Polynomial:
        negate = False
        while (tok := self.peek()) is not None and tok[:2] == ("op", "-"):
            self.i += 1
            negate = not negate
        p = self.power()
        return -p if negate else p

    def power(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            etok = self.peek()
            if etok is None or etok[0] != "num":
                pos = etok[2] if etok else len(self.text)
                raise ParseError("exponent must be a non-negative integer literal", pos)
            self.i += 1
            exponent = _literal(etok)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", etok[2])
            _check_degree(base.total_degree() * exponent, tok)
            # expanded in one dict, zeros dropped after each step, sorted once
            result = {0: 1}
            for _ in range(exponent):
                self.charge(len(result) * len(base.packed), tok)
                result = {m: c for m, c in _product_terms(result.items(), base.packed).items() if c}
            return _sorted_terms(self.table, result)
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        kind, text, pos = tok
        if kind == "ident":
            try:
                return Polynomial.variable(self.table, text)
            except KeyError:
                raise ParseError(f"unknown variable {text!r}", pos) from None
        if kind == "num":
            numerator = _literal(tok)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.i += 1
                dtok = self.peek()
                if dtok is None or dtok[0] != "num":
                    dpos = dtok[2] if dtok else len(self.text)
                    raise ParseError("expected integer denominator", dpos)
                self.i += 1
                denominator = _literal(dtok)
                if denominator == 0:
                    raise ParseError("zero denominator", dtok[2])
                return Polynomial.constant(self.table, Fraction(numerator, denominator))
            return Polynomial.constant(self.table, numerator)
        if kind == "op" and text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_DEPTH} levels", pos
                )
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected {text!r}", pos)


def parse_poly(text: str, table: VariableTable) -> Polynomial:
    """Parse an expression into a polynomial over the given table."""
    return _Parser(text, table).parse()


def _monomial_text(table: VariableTable, m: int) -> str:
    """The factors of a packed monomial, read up to its last nonzero field."""
    parts, width, field = [], table.field_width, (1 << table.field_width) - 1
    for name in table.names:
        if not m:
            break
        e, m = m & field, m >> width
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render(p: Polynomial) -> str:
    """Canonical text form; parse_poly(render(p), p.table) == p."""
    if not p.packed:
        return "0"
    pieces = []
    for m, coeff in p.packed:
        mono = _monomial_text(p.table, m)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)
