"""Sparse multivariate polynomials over an exact field.

A monomial is one packed ``int`` (Monagan & Pearce, CASC 2007): variable
``x_i`` owns an ``EXP_BITS``-bit field at bit ``(EXP_BITS + 1) * i`` holding
``EXP_MAX - e_i``, with a guard bit above it that stays zero, and the total
degree sits above all fields.  Integer order is then graded reverse
lexicographic (grevlex) order with ``x0 > x1 > ... > x{n-1}``, a product
is ``a + b - ring.unit``, a quotient ``a - b + ring.unit``, ``a`` divides
``b`` when ``(a & exp_mask | guards) - (b & exp_mask)`` keeps every guard
bit, and an lcm takes the smaller stored field per variable (the Groebner
driver forms S-pair lcms so, see :mod:`.groebner`).  Packing a degree above
``EXP_MAX`` raises :class:`PackingOverflowError`.

Terms are kept as a tuple of ``(monomial, coefficient)`` pairs sorted
strictly descending.  Everything is immutable; a :class:`PolyRing` fixes
the coefficient field and the number of variables, owns the monomial
layout and acts as the factory for all values.

The expression parser accepts ``+ - * ^``, parentheses, integer and
``a/b`` rational literals, and variables ``x0 .. x{n-1}``.  Multiplication
is always explicit (``2*x1``, never ``2x1``).  One regular expression scans
the text, skipping whitespace; numbers and variable indices are runs of
decimal digits, exactly what ``int`` reads (never ``²``), and any other
character is refused with a :class:`ParseError` at its offset, as is a QQ
coefficient with more digits than ``str`` prints.
"""

from __future__ import annotations

import re
import sys
from math import lcm
from operator import add
from typing import Iterable, Iterator, Sequence

from .fields import check_same_field


EXP_BITS = 8
EXP_MAX = (1 << EXP_BITS) - 1


class PackingOverflowError(ValueError):
    """A monomial or term does not fit the field widths of the packed layout."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


def monomials_of_degree(nvars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in no particular order."""
    if degree < 0:
        return
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in monomials_of_degree(nvars - 1, degree - head):
            yield (head,) + tail


def _check_degree(degree: int) -> None:
    if degree > EXP_MAX:
        raise PackingOverflowError(
            f"monomial of degree {degree} exceeds the packed degree bound {EXP_MAX}"
        )


class ParseError(ValueError):
    """Syntax problem in a polynomial expression; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PolyRing:
    """Polynomial ring context: coefficient field plus a fixed variable count."""

    __slots__ = ("field", "nvars", "shifts", "exp_mask", "guards", "deg_shift", "unit", "variables")

    def __init__(self, field, nvars: int = 4):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.field = field
        self.nvars = nvars
        self.shifts = tuple((EXP_BITS + 1) * i for i in range(nvars))
        self.exp_mask = sum(EXP_MAX << s for s in self.shifts)
        self.guards = sum(1 << (s + EXP_BITS) for s in self.shifts)
        self.deg_shift = (EXP_BITS + 1) * nvars
        self.unit = self.exp_mask
        # the packed monomials x0, ..., x{n-1}
        self.variables = tuple(self.unit + (1 << self.deg_shift) - (1 << s) for s in self.shifts)

    def pack(self, exps: tuple[int, ...]) -> int:
        """The packed monomial of an exponent tuple."""
        deg = sum(exps)
        _check_degree(deg)
        m = self.unit + (deg << self.deg_shift)
        for e, s in zip(exps, self.shifts):
            m -= e << s
        return m

    def unpack(self, m: int) -> tuple[int, ...]:
        return tuple(EXP_MAX - ((m >> s) & EXP_MAX) for s in self.shifts)

    def divides(self, a: int, b: int) -> bool:
        """Whether the packed monomial a divides the packed monomial b."""
        mask, g = self.exp_mask, self.guards
        return ((a & mask | g) - (b & mask)) & g == g

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.nvars == self.nvars
        )

    def __hash__(self):
        return hash((self.field, self.nvars))

    def __repr__(self):
        return f"PolyRing({self.field!r}, nvars={self.nvars})"

    def poly(self, items: Iterable[tuple[int, object]]) -> "Polynomial":
        """Build a polynomial from (monomial, coefficient) pairs, merging duplicates."""
        acc: dict[int, object] = {}
        for m, c in items:
            acc[m] = acc[m] + c if m in acc else c
        coeffs = map(self.field.reduce, acc.values())
        terms = sorted(((m, c) for m, c in zip(acc, coeffs) if c), reverse=True)
        return Polynomial(self, tuple(terms))

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        if not c:
            return self.zero()
        return Polynomial(self, ((self.unit, c),))

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index out of range: {i}")
        return Polynomial(self, ((self.variables[i], self.field.one),))

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)

    def random_homogeneous(self, degree: int, rng) -> "Polynomial":
        """Dense random homogeneous polynomial with uniform coefficients.

        Over a prime field every coefficient is uniform in [0, p); over the
        rationals, uniform integers in [-9, 9].
        """
        items = []
        for exps in monomials_of_degree(self.nvars, degree):
            if self.field.characteristic:
                c = self.field.of(rng.randrange(self.field.characteristic))
            else:
                c = self.field.of(rng.randint(-9, 9))
            if c:
                items.append((self.pack(exps), c))
        return self.poly(items)


class Polynomial:
    """Immutable sparse polynomial; packed monomials strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return self.terms[0][0] >> self.ring.deg_shift

    def is_homogeneous(self) -> bool:
        # the degree is the top field, so the last term has the least degree
        s = self.ring.deg_shift
        return not self.terms or self.terms[0][0] >> s == self.terms[-1][0] >> s

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self.ring.poly(self.terms + other.terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self.ring.poly(self.terms + tuple((m, -c) for m, c in other.terms))

    def __neg__(self) -> "Polynomial":
        reduce = self.ring.field.reduce
        return Polynomial(self.ring, tuple((m, reduce(-c)) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(self.ring.field.of(other))
        return dot((self,), (other,))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(self.ring.field.of(other))
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scaled(self, c) -> "Polynomial":
        reduce = self.ring.field.reduce
        c = reduce(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, reduce(coef * c)) for m, coef in self.terms))

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.ring.nvars:
            raise ValueError(f"variable index out of range: {i}")
        reduce = self.ring.field.reduce
        s = self.ring.shifts[i]
        # dividing by x_i raises its field by one and keeps the order
        step = (1 << s) - (1 << self.ring.deg_shift)
        items = []
        for m, c in self.terms:
            k = EXP_MAX - ((m >> s) & EXP_MAX)
            if k:
                c = reduce(c * k)
                if c:
                    items.append((m + step, c))
        return Polynomial(self.ring, tuple(items))

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<poly {format_polynomial(self)}>"

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        check_same_field(self.ring.field, other.ring.field)
        if other.ring.nvars != self.ring.nvars:
            raise ValueError("mixed variable counts")


def integer_terms(terms, field) -> tuple[list, int]:
    """(integer terms, s) with terms / s the field values; s is 1 over GF(p)."""
    if field.characteristic:
        return terms, 1
    s = lcm(*[c.denominator for _, c in terms])
    if s == 1:
        return [(m, c.numerator) for m, c in terms], 1
    return [(m, c.numerator * (s // c.denominator)) for m, c in terms], s


def dot(left: Sequence[Polynomial], right: Sequence[Polynomial]) -> Polynomial:
    """sum_i left[i] * right[i]: every product term joins one integer
    accumulator over a common denominator, reduced and sorted once."""
    if not left or len(left) != len(right):
        raise ValueError(f"dot of {len(left)} left and {len(right)} right factors")
    ring, field = left[0].ring, left[0].ring.field
    for p in (*left[1:], *right):
        left[0]._check(p)
    factors = []
    for a, b in zip(left, right):
        if a.terms and b.terms:
            _check_degree(a.degree + b.degree)
            factors.append((*integer_terms(a.terms, field), *integer_terms(b.terms, field)))
    scale = lcm(*[sa * sb for _, sa, _, sb in factors])
    acc: dict[int, int] = {}
    get = acc.get
    for ta, sa, tb, sb in factors:
        w = scale // (sa * sb)
        for ma, ca in ta:
            ma -= ring.unit
            ca *= w
            for mb, cb in tb:
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
    terms = [(m, c) for m, a in acc.items() if (c := field.of(a, scale))]
    return Polynomial(ring, tuple(sorted(terms, reverse=True)))


# ---------------------------------------------------------------------------
# canonical printer


def _format_term(exps: tuple[int, ...], coeff) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    body = "*".join(factors)
    cs = str(coeff)
    if not body:
        return cs
    if cs == "1":
        return body
    return f"{cs}*{body}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: descending grevlex terms, explicit * and ^."""
    if not p.terms:
        return "0"
    pieces = []
    for idx, (m, c) in enumerate(p.terms):
        negative = c < 0
        mag = -c if negative else c
        body = _format_term(p.ring.unpack(m), mag)
        if idx == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"\s*((\d+)|x(\d+)|([-+*^()/])|\S)")


class _Parser:
    """Recursive descent over (kind, value, offset) tokens, whose kind is "int",
    "var" (valued by its index), an operator's own character, or "" at the end."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.limit = sys.get_int_max_str_digits()  # digits int and str convert, 0: any
        self.tokens = [self._token(match) for match in _TOKEN.finditer(text)]
        self.tokens.append(("", None, len(text)))
        self.pos = 0

    def _token(self, match):
        other, number, index, op = match.groups()
        off = match.start(1)
        if len(number or index or "") > self.limit > 0:
            raise ParseError(f"number has more than {self.limit} digits", off)
        if number is not None:
            return "int", int(number), off
        if op is not None:
            return op, op, off
        if index is not None:
            if int(index) < self.ring.nvars:
                return "var", int(index), off
            other = f"x{int(index)}"
        elif not other.isalpha():
            raise ParseError(f"unexpected character {other!r}", off)
        raise ParseError(f"unknown variable {other!r}", off)

    def peek(self):
        return self.tokens[self.pos]

    def check_printable(self, terms, off: int, exp: int = 1) -> None:
        """Over QQ, refuse a term coefficient whose power exp has more than L =
        ``self.limit`` digits, which ``str`` cannot print; as 8**L < 10**L <
        16**L, only a power near L is built to decide."""
        bits = 0 if self.ring.field.characteristic else 3 * self.limit
        for n in (abs(x) for _, c in terms for x in (c.numerator, c.denominator)):
            if exp * n.bit_length() > bits > 0:
                if exp * (n.bit_length() - 1) > 4 * self.limit or n**exp >= 10**self.limit:
                    raise ParseError(f"coefficient has more than {self.limit} digits", off)

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expression(self) -> Polynomial:
        """The sum of its terms, merged in one ``ring.poly``; the sign before a
        term is read by ``factor``."""
        items = []
        while True:
            items += self.term().terms
            if self.peek()[0] not in ("+", "-"):
                return self.ring.poly(items)

    def term(self) -> Polynomial:
        """The product of its factors: numbers, variables and their powers fold
        into one term, and only parenthesized factors multiply as polynomials."""
        ring = self.ring
        coeff, exps, product = 1, (0,) * ring.nvars, None
        while True:
            f = self.factor()
            if isinstance(f, Polynomial):
                product = f if product is None else product * f
            else:
                coeff, exps = coeff * f[0], tuple(map(add, exps, f[1]))
            kind, _, off = self.peek()
            if kind == "*":
                self.advance()
            elif kind in ("int", "var", "("):
                raise ParseError("missing '*' between factors", off)
            else:
                monomial = ring.poly([(ring.pack(exps), ring.field.of(coeff))])
                return monomial if product is None else monomial * product

    def factor(self):
        """A Polynomial, or (coefficient, exponents) for a number, a variable
        or a power of one, where only a QQ fraction is not a plain int."""
        sign = self.peek()[0]
        if sign in ("+", "-"):
            self.advance()
            f = self.factor()
            if sign == "+":
                return f
            return -f if isinstance(f, Polynomial) else (-f[0], f[1])
        base = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            kind, exp, off = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", off)
            # the lead of a power is the power of the lead: a long one is refused unbuilt
            lead = base.terms[:1] if isinstance(base, Polynomial) else [(0, base[0])]
            self.check_printable(lead, off, exp)
            if isinstance(base, Polynomial):
                return base**exp
            # modular powering keeps a huge exponent cheap over GF(p)
            p = self.ring.field.characteristic
            return pow(base[0], exp, p) if p else base[0] ** exp, [e * exp for e in base[1]]
        return base

    def primary(self):
        kind, val, off = self.advance()
        ring = self.ring
        if kind == "int":
            kind2, _, off2 = self.peek()
            if kind2 == "/":
                self.advance()
                kind3, den, off3 = self.advance()
                if kind3 != "int":
                    raise ParseError("division is only allowed in rational literals", off2)
                try:
                    return ring.field.of(val, den), (0,) * ring.nvars
                except ZeroDivisionError:
                    raise ParseError(f"denominator {den} vanishes in {ring.field!r}", off3) from None
            return val, (0,) * ring.nvars
        if kind == "var":
            return 1, tuple(int(i == val) for i in range(ring.nvars))
        if kind == "(":
            inner = self.expression()
            kind2, _, off2 = self.advance()
            if kind2 != ")":
                raise ParseError("expected ')'", off2)
            return inner
        if kind == "/":
            raise ParseError("division is only allowed in rational literals", off)
        raise ParseError("expected a number, variable or '('", off)


def _parse(ring: PolyRing, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result = parser.expression()
    parser.check_printable(result.terms, 0)
    kind, val, off = parser.peek()
    if kind:
        if kind == "/":
            raise ParseError("division is only allowed in rational literals", off)
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return result
