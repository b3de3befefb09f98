"""Minimal graded free resolutions, Betti tables and module duals.

Resolutions are built by iterated syzygy computation with a minimal
generating set extracted at every homological step (degree-ascending
membership pruning), which yields the minimal resolution directly: no
differential can contain a nonzero constant once every step uses minimal
generators.

The resolution length is capped at four, the bound for a polynomial ring in
four variables; exceeding the cap signals a kernel bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groebner import (
    groebner_basis,
    kernel_of_map,
    normal_form,
    syzygy_basis,
)
from .modules import FreeModule, Vector, apply_columns
from .poly import Polynomial

MAX_LENGTH = 4


class ResolutionLengthError(RuntimeError):
    """Internal error: resolution exceeded the syzygy-theorem bound."""


def minimal_generators(gens: Sequence[Vector]) -> list[Vector]:
    """Minimal generating set of a graded submodule, processed by degree.

    Homogeneous candidates are scanned in ascending degree; one is kept
    exactly when it is not contained in the span of those already kept,
    which by the graded Nakayama lemma gives a minimal generating set.
    """
    items = [g for g in gens if not g.is_zero()]
    items.sort(key=lambda g: g.degree)
    kept: list[Vector] = []
    kept_gb: list[Vector] = []
    for g in items:
        if kept and normal_form(g, kept_gb).is_zero():
            continue
        kept.append(g)
        kept_gb = groebner_basis(kept)
    return kept


@dataclass
class FreeResolution:
    """Chain F_l -> ... -> F_1 -> F_0 with maps recorded as column lists.

    ``gens`` are the images of the F_0 basis: the minimal generators of the
    resolved submodule inside its ambient free module.
    """

    modules: list[FreeModule]
    diffs: list[list[Vector]]
    gens: list[Vector]

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def betti(self) -> "BettiTable":
        return BettiTable(tuple(tuple(sorted(m.twists)) for m in self.modules))

    def check_complex(self) -> bool:
        """d_i composed with d_{i+1} vanishes (including the augmentation)."""
        for i, cols in enumerate(self.diffs):
            upstream = self.gens if i == 0 else self.diffs[i - 1]
            for col in cols:
                if not apply_columns(upstream, col.entries).is_zero():
                    return False
        return True

    def is_minimal(self) -> bool:
        for cols in self.diffs:
            for col in cols:
                for entry in col.entries:
                    if not entry.is_zero() and entry.degree == 0:
                        return False
        return True


class BettiTable:
    """Generator degrees of a minimal resolution, one sorted tuple per step."""

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[tuple[int, ...], ...]):
        self.columns = columns

    @property
    def exponents(self) -> tuple[int, ...]:
        return self.columns[0] if self.columns else ()

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.columns == self.columns

    def __repr__(self):
        return f"BettiTable({self.columns})"

    def format_grid(self) -> str:
        """Text grid in the usual homological layout.

        Column i lists the free module F_i; row j counts generators of
        degree i + j, so a row collects the strands of a single regularity
        slope.  A dot marks a zero entry.
        """
        if not self.columns or not any(self.columns):
            return "(zero module)"
        width = len(self.columns)
        rows = range(
            min(min(c) - i for i, c in enumerate(self.columns) if c),
            max(max(c) - i for i, c in enumerate(self.columns) if c) + 1,
        )
        header = ["      "] + [f"{i:>4}" for i in range(width)]
        lines = ["".join(header)]
        totals = ["total:"] + [f"{len(c):>4}" for c in self.columns]
        lines.append("".join(totals))
        for j in rows:
            cells = [f"{j:>5}:"]
            for i, c in enumerate(self.columns):
                n = sum(1 for d in c if d == i + j)
                cells.append(f"{n:>4}" if n else "   .")
            lines.append("".join(cells))
        return "\n".join(lines)


def resolve_submodule(module: FreeModule, gens: Sequence[Vector]) -> FreeResolution:
    """Minimal free resolution of the submodule generated by gens."""
    ring = module.ring
    g0 = minimal_generators(gens)
    if not g0:
        return FreeResolution(modules=[], diffs=[], gens=[])
    modules = [FreeModule(ring, [g.degree for g in g0])]
    diffs: list[list[Vector]] = []
    current = g0
    while True:
        syz_module, syz = syzygy_basis(current, degrees=modules[-1].twists)
        msyz = minimal_generators(syz)
        if not msyz:
            break
        if len(modules) > MAX_LENGTH:
            raise ResolutionLengthError("resolution exceeded length bound")
        modules.append(FreeModule(ring, [g.degree for g in msyz]))
        diffs.append(msyz)
        current = msyz
    return FreeResolution(modules=modules, diffs=diffs, gens=g0)


def module_dual(
    source: FreeModule, target: FreeModule, columns: Sequence[Vector]
) -> tuple[FreeModule, list[Vector]]:
    """Hom(M, R) for M presented by columns : source -> target.

    Computed as the kernel of the transposed matrix between the dual free
    modules (all twists negated); returned as generators inside target-dual.
    """
    ring = target.ring
    dual_target = FreeModule(ring, tuple(-a for a in target.twists))
    dual_source = FreeModule(ring, tuple(-a for a in source.twists))
    transposed = [
        Vector(dual_source, tuple(col.entries[i] for col in columns))
        for i in range(target.rank)
    ]
    return dual_target, kernel_of_map(transposed, dual_target)


def verify_lifting(
    res_t: FreeResolution, res_b: FreeResolution, e: int, d: int
) -> bool:
    """Check that two minimal resolutions match after removing a marked generator.

    The first resolution must contain a generator of degree e in homological
    step zero; the second, twisted by d - e, must reproduce the first with
    that one generator removed, in every homological degree.
    """
    bt = res_t.betti().columns
    if not bt or e not in bt[0]:
        raise ValueError(f"no generator of degree {e} to mark")
    bb = res_b.betti().columns
    shift = d - e
    length = max(len(bt), len(bb))
    for i in range(length):
        t_col = list(bt[i]) if i < len(bt) else []
        b_col = [x + shift for x in bb[i]] if i < len(bb) else []
        if i == 0:
            t_col.remove(e)
        if sorted(t_col) != sorted(b_col):
            return False
    return True


def resolve_ideal(ring, gens: Sequence[Polynomial]) -> FreeResolution:
    """Minimal resolution of a homogeneous ideal as a rank-one submodule."""
    module = FreeModule(ring, (0,))
    vectors = [Vector(module, (p,)) for p in gens if not p.is_zero()]
    return resolve_submodule(module, vectors)


def is_complete_intersection_resolution(res: FreeResolution) -> bool:
    """Codimension-two complete intersection shape: two generators, one relation."""
    bt = res.betti().columns
    if len(bt) != 2 or len(bt[0]) != 2 or len(bt[1]) != 1:
        return False
    a, b = bt[0]
    return bt[1][0] == a + b
