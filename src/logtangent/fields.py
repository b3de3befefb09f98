"""Exact coefficient fields.

Two fields are supported: arbitrary-precision rationals (the default working
field) and odd prime fields with a word-sized modulus (used for randomized
searches, where exact rational growth would be wasted effort).

Coefficients are plain numbers combined with Python's ``+ - *``: over QQ an
``int`` when the value is an integer and a ``Fraction`` (denominator above 1)
otherwise, over GF(p) an ``int``.  A field object only makes values: ``of``
builds one from a fraction, ``inv`` inverts, and ``reduce`` brings the result
of ``+ - *`` back to the canonical form that is stored and tested for zero
(an integral ``Fraction`` becomes its numerator over QQ, ``x % p`` over
GF(p), whose values lie in [0, p)).  Stored polynomials hold these values.
The Groebner engine works on integers: a Vector it hands back builds its
entries with ``of`` when they are read, and re-enters from its integer terms
(see :mod:`.groebner`).
"""

from __future__ import annotations

from fractions import Fraction

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldMismatchError(ValueError):
    """Two values attached to different coefficient fields were combined."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of exact rationals; a value is an ``int`` when it is an
    integer and a ``fractions.Fraction`` with denominator above 1 otherwise.
    The two print, compare and hash alike (``str(3) == str(Fraction(3))``)."""

    characteristic = 0
    zero = 0
    one = 1

    def of(self, numerator, denominator=1):
        if denominator == 1 and type(numerator) is int:
            return numerator
        if numerator % denominator:
            return Fraction(numerator, denominator)
        return numerator // denominator

    def reduce(self, x):
        return x.numerator if x.denominator == 1 else x

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.of(1, a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo an odd prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime, got {p!r}")
        if p >= 1 << 62:
            raise ValueError(f"modulus too large for a machine word: {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def of(self, numerator, denominator=1):
        v = numerator % self.p
        if denominator != 1:
            v = v * self.inv(denominator % self.p) % self.p
        return v

    def reduce(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def check_same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"mixed coefficient fields: {a!r} vs {b!r}")
