"""Exact matrix rank over a field, by fraction-free row echelon form (tiny
systems only)."""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .poly import integer_terms


def matrix_rank(rows: Sequence[Sequence], field) -> int:
    """Rank of the matrix with the given rows of field elements, with no
    division (Bareiss, Math. Comp. 1968).

    Each row becomes a dict from column to nonzero integer, cleared of its
    denominators over QQ.  At its largest column, where a pivot row has a
    and it has b, the row becomes a * row - b * pivot, until it is zero or
    leads at a new column, where it becomes a pivot row; the rank counts the
    pivots.  After each step the entries are reduced mod p over GF(p), and
    over QQ divided by their gcd, which keeps the integers small.
    """
    pivots: dict = {}
    for r in rows:
        row = dict(integer_terms([(j, c) for j, c in enumerate(r) if c], field)[0])
        while row:
            lead = max(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            pivot = pivots[lead]
            a, b = pivot[lead], row[lead]
            row = {
                t: c for t in row | pivot if (c := field.reduce(a * row.get(t, 0) - b * pivot.get(t, 0)))
            }
            if row and not field.characteristic:
                g = gcd(*row.values())
                row = {t: c // g for t, c in row.items()}
    return len(pivots)
