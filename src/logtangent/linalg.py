"""Exact matrix rank over a field, by row echelon form (tiny systems only)."""

from __future__ import annotations

from typing import Sequence


def matrix_rank(rows: Sequence[Sequence], field) -> int:
    """Rank of the matrix with the given rows of field elements.

    Each row, as a dict from column to nonzero value, is reduced by the
    monic pivot rows at its largest column until it is zero or leads at a
    new column, where it becomes a pivot row; the rank counts the pivots.
    """
    pivots: dict = {}
    for r in rows:
        row = {j: c for j, c in enumerate(r) if c}
        while row:
            lead = max(row)
            if lead not in pivots:
                inv = field.inv(row[lead])
                pivots[lead] = {t: field.reduce(c * inv) for t, c in row.items()}
                break
            c = row[lead]
            for t, b in pivots[lead].items():
                row[t] = field.reduce(row.get(t, 0) - c * b)
                if not row[t]:
                    del row[t]
    return len(pivots)
