"""Sparse multivariate polynomials over an exact field.

A monomial is one packed ``int`` (Monagan & Pearce, CASC 2007): variable
``x_i`` owns an ``EXP_BITS``-bit field at bit ``(EXP_BITS + 1) * i`` holding
``EXP_MAX - e_i``, with a guard bit above it that stays zero, and the total
degree sits above all fields.  Integer order is then graded reverse
lexicographic (grevlex) order with ``x0 > x1 > ... > x{n-1}``, a product of
monomials is ``a + b - ring.unit``, and ``a`` divides ``b`` exactly when
``(a & exp_mask | guards) - (b & exp_mask)`` keeps every guard bit.  Total
degrees above ``EXP_MAX`` raise :class:`PackingOverflowError`.

Terms are kept as a tuple of ``(monomial, coefficient)`` pairs sorted
strictly descending.  Everything is immutable; a :class:`PolyRing` fixes
the coefficient field and the number of variables, owns the monomial
layout and acts as the factory for all values.

The expression parser accepts ``+ - * ^``, parentheses, integer and
``a/b`` rational literals, and variables ``x0 .. x{n-1}``.  Multiplication
is always explicit (``2*x1``, never ``2x1``).
"""

from __future__ import annotations

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


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


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
    """Syntax problem in a polynomial expression; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PolyRing:
    """Polynomial ring context: coefficient field plus a fixed variable count."""

    __slots__ = ("field", "nvars", "shifts", "exp_mask", "guards", "deg_shift", "unit")

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
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((self.pack(exps), self.field.one),))

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

_TOK_INT = "int"
_TOK_VAR = "var"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(ring: PolyRing, text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_TOK_INT, int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("unknown variable 'x'", i)
            idx = int(text[i + 1 : j])
            if idx >= ring.nvars:
                raise ParseError(f"unknown variable 'x{idx}'", i)
            tokens.append((_TOK_VAR, idx, i))
            i = j
            continue
        if ch.isalpha():
            raise ParseError(f"unknown variable {ch!r}", i)
        if ch in "+-*^()/":
            tokens.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.tokens = _tokenize(ring, text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expression(self) -> Polynomial:
        """The sum of its terms, merged in one ``ring.poly``."""
        items = []
        kind, sign, off = self.peek()
        if kind == _TOK_OP and sign in "+-":
            self.advance()
        while True:
            terms = self.term().terms
            items += [(m, -c) for m, c in terms] if sign == "-" else terms
            kind, sign, off = self.peek()
            if not (kind == _TOK_OP and sign in "+-"):
                return self.ring.poly(items)
            self.advance()

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
            kind, val, off = self.peek()
            if kind == _TOK_OP and val == "*":
                self.advance()
            elif kind in (_TOK_INT, _TOK_VAR) or (kind == _TOK_OP and val == "("):
                raise ParseError("missing '*' between factors", off)
            else:
                monomial = ring.poly([(ring.pack(exps), ring.field.of(coeff))])
                return monomial if product is None else monomial * product

    def factor(self):
        """A Polynomial, or (coefficient, exponents) for a number, a variable
        or a power of one, where only a QQ fraction is not a plain int."""
        kind, val, off = self.peek()
        if kind == _TOK_OP and val in "+-":
            self.advance()
            f = self.factor()
            if val == "+":
                return f
            return -f if isinstance(f, Polynomial) else (-f[0], f[1])
        base = self.primary()
        kind, val, off = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            kind, exp, off2 = self.peek()
            if kind != _TOK_INT:
                raise ParseError("exponent must be a non-negative integer", off2)
            self.advance()
            if isinstance(base, Polynomial):
                return base**exp
            # modular powering keeps a huge exponent cheap over GF(p)
            p = self.ring.field.characteristic
            return pow(base[0], exp, p) if p else base[0] ** exp, [e * exp for e in base[1]]
        return base

    def primary(self):
        kind, val, off = self.advance()
        ring = self.ring
        if kind == _TOK_INT:
            kind2, val2, off2 = self.peek()
            if kind2 == _TOK_OP and val2 == "/":
                self.advance()
                kind3, den, off3 = self.peek()
                if kind3 != _TOK_INT:
                    raise ParseError("division is only allowed in rational literals", off2)
                self.advance()
                field = ring.field
                try:
                    return field.of(val, den), (0,) * ring.nvars
                except ZeroDivisionError:
                    raise ParseError(f"denominator {den} vanishes in {field!r}", off3) from None
            return val, (0,) * ring.nvars
        if kind == _TOK_VAR:
            return 1, tuple(int(i == val) for i in range(ring.nvars))
        if kind == _TOK_OP and val == "(":
            inner = self.expression()
            kind2, val2, off2 = self.advance()
            if not (kind2 == _TOK_OP and val2 == ")"):
                raise ParseError("expected ')'", off2)
            return inner
        if kind == _TOK_OP and val == "/":
            raise ParseError("division is only allowed in rational literals", off)
        raise ParseError("expected a number, variable or '('", off)


def _parse(ring: PolyRing, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result = parser.expression()
    kind, val, off = parser.peek()
    if kind != _TOK_END:
        if kind == _TOK_OP and val == "/":
            raise ParseError("division is only allowed in rational literals", off)
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return result
