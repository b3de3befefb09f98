"""Graded free modules and their elements.

A :class:`FreeModule` of rank r over a polynomial ring stores one integer
twist per component; component i represents R(-a_i), so its basis vector
has degree a_i and an element is homogeneous of degree D exactly when entry
i is homogeneous of degree D - a_i (or zero).
"""

from __future__ import annotations

from typing import Iterable

from .poly import PolyRing


class FreeModule:
    __slots__ = ("ring", "twists")

    def __init__(self, ring: PolyRing, twists: Iterable[int]):
        self.ring = ring
        self.twists = tuple(twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def zero(self) -> "Vector":
        z = self.ring.zero()
        return Vector(self, (z,) * self.rank)

    def basis_vector(self, i: int) -> "Vector":
        if not 0 <= i < self.rank:
            raise ValueError(f"component index out of range: {i}")
        z = self.ring.zero()
        entries = tuple(self.ring.one() if j == i else z for j in range(self.rank))
        return Vector(self, entries)

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and other.ring == self.ring
            and other.twists == self.twists
        )

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"FreeModule(twists={self.twists})"


class Vector:
    """Element of a graded free module: one polynomial per component.  A kernel
    output builds them on first read, and re-enters as its integer terms."""

    __slots__ = ("module", "entries")

    def __init__(self, module: FreeModule, entries: tuple):
        self.module = module
        self.entries = entries

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    @property
    def degree(self) -> int | None:
        """Degree of a homogeneous element, None for the zero element."""
        degs = {
            p.degree + a
            for p, a in zip(self.entries, self.module.twists)
            if not p.is_zero()
        }
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self) -> bool:
        degs = set()
        for p, a in zip(self.entries, self.module.twists):
            if p.is_zero():
                continue
            if not p.is_homogeneous():
                return False
            degs.add(p.degree + a)
        return len(degs) <= 1

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.module, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.module, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(self.module, tuple(-p for p in self.entries))

    def scaled(self, c) -> "Vector":
        return Vector(self.module, tuple(p.scaled(c) for p in self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and other.module == self.module
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.module, self.entries))

    def __repr__(self):
        return "(" + ", ".join(str(p) for p in self.entries) + ")"

    def _check(self, other):
        if self.module != other.module:
            raise ValueError("vectors live in different modules")
