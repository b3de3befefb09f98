"""Exact row echelon forms over a field, row by row (tiny systems only)."""

from __future__ import annotations

from typing import Sequence


def extends_span(pivots: dict, row: dict, field) -> bool:
    """Add row to the echelon rows unless it lies in their span.

    A row maps keys to nonzero field values and leads with its largest key;
    ``pivots`` maps each lead to its monic row.  The row is consumed.
    """
    while row:
        lead = max(row)
        if lead not in pivots:
            inv = field.inv(row[lead])
            pivots[lead] = {t: field.reduce(c * inv) for t, c in row.items()}
            return True
        c = row[lead]
        for t, b in pivots[lead].items():
            row[t] = field.reduce(row.get(t, 0) - c * b)
            if not row[t]:
                del row[t]
    return False


def matrix_rank(rows: Sequence[Sequence], field) -> int:
    """Rank of the matrix with the given rows of field elements."""
    pivots: dict = {}
    return sum(
        extends_span(pivots, {j: c for j, c in enumerate(r) if c}, field) for r in rows
    )
