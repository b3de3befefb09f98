"""Minimal graded free resolutions, Betti tables and module duals.

Resolutions are built by iterated syzygy computation with a minimal
generating set extracted at every homological step (degree-ascending
membership pruning), which yields the minimal resolution directly: no
differential can contain a nonzero constant once every step uses minimal
generators.

A resolution stops where its Hilbert series proves it exact: the series of
a graded module is the alternating sum of those of the free modules in any
resolution of it, and a nonzero module has a nonzero series (Eisenbud, The
Geometry of Syzygies, Ch. 1).  Its length is at most two for the pipeline's
two inputs.  The kernel K of the Jacobian map is a second syzygy module, so
depth K >= 2 and pd K <= 2 by Auslander-Buchsbaum.  The Bourbaki curve's
ideal I is saturated, so depth R/I >= 1 and pd I <= 2.  Betti numbers that
disagree with the series by then signal a kernel bug, not bad input.

A caller that knows syzygies of the generators, as Buchsbaum-Rim gives
for K when m = 0, seeds them into the first step: being syzygies, they
leave its span and output as they are, and only cut the pairs reduced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby, zip_longest
from operator import is_
from typing import Iterable, Sequence

from .groebner import ReducerIndex, groebner_basis, normal_form, syzygy_basis
from .modules import FreeModule, Vector
from .poly import ConsistencyError, Polynomial

MAX_LENGTH = 2


def minimal_generators(gens: Sequence[Vector]) -> list[Vector]:
    """Minimal generating set of a graded submodule, processed by degree.

    Homogeneous candidates are scanned in ascending degree; one is kept
    exactly when it is not contained in the span of those already kept,
    which by the graded Nakayama lemma gives a minimal generating set.
    Each degree d takes one Groebner basis, of the submodule N the kept
    candidates of lower degree generate, truncated at the top candidate
    degree: a normal form in degree d only meets members of degree at most
    d, so the truncation changes none.  Within degree d the normal form of
    each kept candidate joins the basis's ``ReducerIndex``.  No reducer lead
    divides its terms and its lead differs from those before it, so the
    leads span the initial space of N_d plus the kept candidates of degree
    d.  A candidate's normal form is therefore zero exactly when it lies in
    that space: the normal form is the only span test.
    """
    items = sorted((g for g in gens if not g.is_zero()), key=lambda g: g.degree)
    if not items:
        return []
    kept, top, in_gb = items[:1], items[-1].degree, 1  # kept[:in_gb] is indexed as a basis
    index = ReducerIndex(items[0].module, kept)
    for _, group in groupby(items[1:], key=lambda g: g.degree):
        if len(kept) > in_gb:
            index, in_gb = ReducerIndex(index.module, groebner_basis(kept, up_to=top)), len(kept)
        for g in group:
            if not normal_form(g, index).is_zero():  # and so joins the index
                kept.append(g)
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


def resolve_submodule(
    module: FreeModule, gens: Sequence[Vector], quotient: Iterable[tuple[int, int]], known=()
) -> FreeResolution:
    """Minimal free resolution of the submodule M generated by gens, given
    the Hilbert numerator of module/M as (degree, coefficient) pairs.

    ``left``, M's numerator less the alternating sum of the steps so far, is
    up to sign the kernel's of the last map: a step runs only while it is
    nonzero, and neither an empty step nor the length bound may leave it so.

    ``known``, syzygies of gens, seed the first syzygy step (``syzygy_basis``)
    when gens are minimal as given, which changes no output.
    """
    left = Counter(module.twists)
    for j, c in quotient:
        left[j] -= c
    g0 = current = minimal_generators(gens)
    if len(g0) != len(gens) or not all(map(is_, g0, gens)):
        known = ()  # the seeds' coordinates refer to gens
    modules: list[FreeModule] = []
    diffs: list[list[Vector]] = []
    while any(left.values()) and len(modules) <= MAX_LENGTH:
        if modules:
            syz = syzygy_basis(current, degrees=modules[-1].twists, known=known)[1]
            current, known = minimal_generators(syz), ()
            diffs.append(current)
        if not current:
            break
        for g in current:
            left[g.degree] -= (-1) ** len(modules)
        modules.append(FreeModule(module.ring, [g.degree for g in current]))
    res = FreeResolution(modules=modules, diffs=diffs, gens=g0)
    if any(left.values()):
        raise ConsistencyError(
            f"Betti numbers {res.betti().columns} disagree with the Hilbert series"
        )
    return res


def module_dual(
    source: FreeModule, target: FreeModule, columns: Sequence[Vector]
) -> tuple[FreeModule, list[Vector]]:
    """Hom(M, R) for M presented by columns : source -> target.

    Computed as ``syzygy_basis`` of the rows, the kernel of the transposed
    matrix between the dual free modules (all twists negated); returned as
    generators inside target-dual.  A target of rank zero is a ValueError.
    """
    ring = target.ring
    dual_target = FreeModule(ring, tuple(-a for a in target.twists))
    dual_source = FreeModule(ring, tuple(-a for a in source.twists))
    transposed = [
        Vector(dual_source, tuple(col.entries[i] for col in columns))
        for i in range(target.rank)
    ]
    return syzygy_basis(transposed, degrees=dual_target.twists)


def verify_lifting(res_t: FreeResolution, res_b: FreeResolution, e: int, d: int) -> bool:
    """Check that two minimal resolutions match after removing a marked generator.

    The first resolution must contain a generator of degree e in homological
    step zero; the second, twisted by d - e, must reproduce the first with
    that one generator removed, in every homological degree.
    """
    bt = [list(column) for column in res_t.betti().columns]
    if not bt or e not in bt[0]:
        raise ValueError(f"no generator of degree {e} to mark")
    bt[0].remove(e)
    bb = [[x + d - e for x in column] for column in res_b.betti().columns]
    return all(t == b for t, b in zip_longest(bt, bb, fillvalue=[]))


def resolve_ideal(ring, gens: Sequence[Polynomial], quotient) -> FreeResolution:
    """Minimal resolution of a homogeneous ideal I as a rank-one submodule;
    quotient is the Hilbert numerator of R/I."""
    module = FreeModule(ring, (0,))
    vectors = [Vector(module, (p,)) for p in gens if not p.is_zero()]
    return resolve_submodule(module, vectors, quotient)


def is_complete_intersection_resolution(res: FreeResolution) -> bool:
    """Codimension-two complete intersection shape: two generators, one relation."""
    bt = res.betti().columns
    if len(bt) != 2 or len(bt[0]) != 2 or len(bt[1]) != 1:
        return False
    a, b = bt[0]
    return bt[1][0] == a + b
