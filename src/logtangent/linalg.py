"""Dense linear algebra over an exact field (tiny systems only)."""

from __future__ import annotations

from typing import Sequence


def matrix_rank(rows: Sequence[Sequence], field) -> int:
    """Rank by Gaussian elimination; rows are sequences of field elements."""
    m = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.reduce(x * inv) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [field.reduce(x - factor * y) for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank
