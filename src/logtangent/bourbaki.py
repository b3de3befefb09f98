"""Bourbaki scheme of a non-free pair.

Quotienting the syzygy module by a minimal-degree generator leaves a module
whose sheaf is a twisted ideal sheaf of a pure one-dimensional scheme B.
Dualizing the pruned presentation recovers the embedding: Hom of the
quotient into the ring must be free of rank one with its generator in
degree e - d, and the entries of that generator span an ideal whose
saturation cuts out B.  Degree and arithmetic genus then come off the
Hilbert polynomial of the quotient ring, and the resolution of the ideal
must reproduce the resolution of the syzygy module with the chosen
generator removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import saturate_ideal
from .hilbert import hilbert_of_ideal_quotient, linear_hilbert_polynomial
from .invariants import InvariantReport
from .modules import FreeModule, Vector
from .poly import Polynomial
from .resolution import (
    FreeResolution,
    is_complete_intersection_resolution,
    minimal_generators,
    module_dual,
    resolve_ideal,
    verify_lifting,
)
from .sequences import Sequence


class BourbakiExtractionError(RuntimeError):
    """The dual of the quotient module is not free of rank one."""


@dataclass
class BourbakiData:
    generator_index: int
    generator_degree: int
    ideal: tuple[Polynomial, ...]
    degree: int
    genus: int
    complete_intersection: bool
    lifting_ok: bool
    ideal_resolution: FreeResolution

    def c3_from_curve(self, d: int, e: int) -> int:
        """Third Chern class predicted by the curve: 2g - 2 + deg * (4 + d - 2e)."""
        return 2 * self.genus - 2 + self.degree * (4 + d - 2 * e)


def minimal_generator_choices(report: InvariantReport) -> list[int]:
    res = report.resolution
    return [i for i, a in enumerate(res.modules[0].twists) if a == report.e]


def bourbaki_data(
    seq: Sequence, report: InvariantReport, generator_index: int | None = None
) -> BourbakiData | None:
    """Bourbaki scheme data for a non-free pair; None when the pair is free."""
    if report.free:
        return None
    res = report.resolution
    choices = minimal_generator_choices(report)
    idx = choices[0] if generator_index is None else generator_index
    if idx not in choices:
        raise ValueError(f"generator {idx} does not have minimal degree {report.e}")

    ring = seq.ring
    f0 = res.modules[0]
    # presentation of the quotient by the chosen generator: delete its row;
    # the relation matrix keeps no unit entries because the resolution is minimal
    quotient_target = FreeModule(
        ring, tuple(a for i, a in enumerate(f0.twists) if i != idx)
    )
    quotient_columns = [
        Vector(quotient_target, tuple(p for i, p in enumerate(col.entries) if i != idx))
        for col in res.diffs[0]
    ]
    f1 = res.modules[1]

    dual_target, dual_gens = module_dual(f1, quotient_target, quotient_columns)
    dual_min = minimal_generators(dual_gens)
    if len(dual_min) != 1:
        degrees = sorted(v.degree for v in dual_min)
        raise BourbakiExtractionError(
            f"dual of the quotient is not free of rank one: "
            f"{len(dual_min)} generators of degrees {degrees}"
        )
    w = dual_min[0]
    expected = report.e - report.d
    if w.degree != expected:
        raise BourbakiExtractionError(
            f"dual generator has degree {w.degree}, expected {expected}"
        )

    entries = [p for p in w.entries if not p.is_zero()]
    ideal = saturate_ideal(ring, entries)
    h = hilbert_of_ideal_quotient(ring, ideal)
    deg_b, b = linear_hilbert_polynomial(h)
    genus = 1 - b
    if deg_b != report.bour:
        raise BourbakiExtractionError(
            f"curve degree {deg_b} disagrees with Bourbaki degree {report.bour}"
        )

    ideal_res = resolve_ideal(ring, ideal, h.numerator)
    return BourbakiData(
        generator_index=idx,
        generator_degree=report.e,
        ideal=ideal,
        degree=deg_b,
        genus=genus,
        complete_intersection=is_complete_intersection_resolution(ideal_res),
        lifting_ok=verify_lifting(res, ideal_res, report.e, report.d),
        ideal_resolution=ideal_res,
    )
