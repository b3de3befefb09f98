"""Discrete invariants of a normal pair and the constraint validator.

The report gathers everything computed from one pair: the m-invariant and
third Chern character of the Jacobian cokernel (from its Hilbert
polynomial), the generator degrees of the syzygy module (from its minimal
resolution), Chern classes (by additivity of the Chern character along the
four-term exact sequence of the Jacobian map), the freeness /
nearly-free / 3-generator classification, slope stability, and optionally
the two saturated scheme structures supported on the Jacobian locus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groebner import annihilator_of_cokernel, ideal_equals, saturate_ideal
from .hilbert import (
    ConsistencyError,
    HilbertData,
    dimension_degree,
    hilbert_of_quotient,
    linear_hilbert_polynomial,
)
from .modules import FreeModule
from .poly import Polynomial
from .resolution import FreeResolution, resolve_submodule
from .sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
    constant_kernel_dimension,
    jacobian_analysis,
    jacobian_minors,
)

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class SchemeSummary:
    """Saturated scheme structure on the Jacobian support: dimension and degree."""

    dim: int
    degree: int
    ideal: tuple[Polynomial, ...]


@dataclass
class InvariantReport:
    df: int
    dg: int
    d: int
    m0: int
    normal: bool
    compressible: bool
    h0: int
    exponents: tuple[int, ...]
    e: int
    m: int
    ch3_q: int
    c1: int
    c2: int
    c3: int
    bour: int
    gpdim: int
    generator_count: int
    free: bool
    nearly_free: bool
    three_syzygy: bool
    stability: str
    slope: Fraction
    fitting_scheme: SchemeSummary | None = None
    annihilator_scheme: SchemeSummary | None = None
    schemes_equal: bool | None = None
    resolution: FreeResolution | None = field(default=None, repr=False)
    cokernel_hilbert: HilbertData | None = field(default=None, repr=False)


def stability_class(e: int, d: int) -> str:
    """Slope stability of a rank-two subsheaf of O^4 with c1 = -d.

    A syzygy of degree k embeds O(-k); the smallest one destabilizes exactly
    when its slope -e beats -d/2.
    """
    half = Fraction(d, 2)
    if e > half:
        return STABLE
    if e == half:
        return STRICTLY_SEMISTABLE
    return UNSTABLE


def chern_classes(df: int, dg: int, m: int, ch3_q: int) -> tuple[int, int, int]:
    """(c1, c2, c3) of the kernel sheaf via Chern-character additivity.

    ch(T) = ch(O^4) - ch(O(df)) - ch(O(dg)) + ch(Q) with ch(Q) = (0, 0, m, ch3_q).
    """
    c1 = -(df + dg)
    ch2 = Fraction(-(df**2 + dg**2), 2) + m
    ch3 = Fraction(-(df**3 + dg**3), 6) + ch3_q
    c2 = Fraction(c1 * c1, 2) - ch2
    c3 = 2 * ch3 + c1 * c2 - Fraction(c1**3, 3)
    if c2.denominator != 1 or c3.denominator != 1:
        raise ConsistencyError(f"Chern classes c2 = {c2}, c3 = {c3} are not integral")
    return c1, int(c2), int(c3)


def _check_betti_hilbert(
    res: FreeResolution, source: FreeModule, target: FreeModule, cokernel: HilbertData
) -> None:
    """The resolution of K = ker(source -> target) against the Hilbert series.

    From 0 -> K -> source -> target -> coker -> 0, the numerator of the
    series of K over (1 - t)^n is N(source) - N(target) + N(coker), and the
    minimal resolution F of K gives it as sum_i (-1)^i sum_j t^(b_ij).  A
    dropped generator or syzygy breaks the equality.
    """
    n = dict(cokernel.numerator)
    signed = [(1, source), (-1, target)]
    signed += [((-1) ** (i + 1), module) for i, module in enumerate(res.modules)]
    for sign, module in signed:
        for a in module.twists:
            n[a] = n.get(a, 0) + sign
    if any(n.values()):
        raise ConsistencyError(
            f"Betti numbers {res.betti().columns} disagree with the Hilbert series"
        )


def invariants(seq: Sequence, with_schemes: bool = True) -> InvariantReport:
    """Full invariant report of a normal pair.

    Both refusals are read off the Hilbert series of the Jacobian cokernel.
    DependentSequenceError when its pole order is the number of variables:
    the cokernel has positive rank, which over any field is the same as all
    2x2 minors vanishing.  NonNormalSequenceError (with the divisor degree)
    when the Jacobian scheme has a codimension-one component.
    """
    analysis = jacobian_analysis(seq)
    hq = hilbert_of_quotient(analysis.target, analysis.image_gb)
    if hq.pole_order == seq.ring.nvars:
        raise DependentSequenceError("all Jacobian minors vanish")
    if hq.pole_order > 2:
        raise NonNormalSequenceError(divisor_degree=hq.degree)

    m, b = linear_hilbert_polynomial(hq)
    ch3_q = b - 2 * m

    res = resolve_submodule(analysis.kernel.module, analysis.kernel.gens)
    _check_betti_hilbert(res, analysis.kernel.module, analysis.target, hq)
    betti = res.betti()
    exponents = tuple(sorted(betti.exponents))
    if not exponents:
        raise ConsistencyError("kernel of an independent pair cannot be zero")
    e = exponents[0]
    generator_count = len(exponents)

    h0 = constant_kernel_dimension(seq)
    zero_exponents = sum(1 for x in exponents if x == 0)
    if h0 != zero_exponents:
        raise ConsistencyError(
            f"constant-kernel dimension {h0} disagrees with zero exponents {zero_exponents}"
        )

    c1, c2, c3 = chern_classes(seq.df, seq.dg, m, ch3_q)
    if c2 != seq.m0 - m:
        raise ConsistencyError(f"c2 = {c2} disagrees with m0 - m = {seq.m0 - m}")

    bour = e * (e - seq.d) + seq.m0 - m
    free = bour == 0
    if free != (generator_count == 2):
        raise ConsistencyError(
            f"degree count {generator_count} inconsistent with Bourbaki degree {bour}"
        )

    report = InvariantReport(
        df=seq.df,
        dg=seq.dg,
        d=seq.d,
        m0=seq.m0,
        normal=True,
        compressible=(e == 0),
        h0=h0,
        exponents=exponents,
        e=e,
        m=m,
        ch3_q=ch3_q,
        c1=c1,
        c2=c2,
        c3=c3,
        bour=bour,
        gpdim=res.length,
        generator_count=generator_count,
        free=free,
        nearly_free=(bour == 1),
        three_syzygy=(generator_count == 3),
        stability=stability_class(e, seq.d),
        slope=Fraction(-seq.d, 2),
        resolution=res,
        cokernel_hilbert=hq,
    )

    if with_schemes:
        ring = seq.ring
        minors = [p for p in jacobian_minors(seq).values() if not p.is_zero()]
        fitting_sat = saturate_ideal(ring, minors)
        ann = annihilator_of_cokernel(analysis.target, analysis.columns)
        ann_sat = saturate_ideal(ring, ann)
        fdim, fdeg = dimension_degree(ring, fitting_sat)
        adim, adeg = dimension_degree(ring, ann_sat)
        report.fitting_scheme = SchemeSummary(fdim, fdeg, fitting_sat)
        report.annihilator_scheme = SchemeSummary(adim, adeg, ann_sat)
        report.schemes_equal = ideal_equals(ring, fitting_sat, ann_sat)

    return report


def validate_constraints(report: InvariantReport) -> list[str]:
    """Check the proven numeric constraints; returns the violated ones.

    An empty list is the expected outcome for every normal pair in
    characteristic zero; violations are data, not exceptions, so a caller
    can surface them (a hit over a small prime field may be a bad prime
    rather than a counterexample).
    """
    v: list[str] = []
    e, d, m, m0, bour = report.e, report.d, report.m, report.m0, report.bour

    if not 0 <= e <= d:
        v.append(f"initial degree {e} outside [0, {d}]")
    if not 0 <= m <= m0:
        v.append(f"m = {m} outside [0, m0 = {m0}]")
    if (m == m0) != (e == 0):
        v.append(f"m = m0 = {m0} must coincide with initial degree 0 (e = {e})")
    if (e == 0) != report.compressible:
        v.append("compressibility flag disagrees with initial degree")
    if not 0 <= bour <= m0:
        v.append(f"Bourbaki degree {bour} outside [0, m0 = {m0}]")
    if e == 1 and bour not in (0, 1, 2):
        v.append(f"initial degree 1 forces Bourbaki degree in {{0,1,2}}, got {bour}")
    if e == 2 and bour > 5:
        v.append(f"initial degree 2 forces Bourbaki degree <= 5, got {bour}")
    if report.free != (bour == 0):
        v.append("freeness flag disagrees with Bourbaki degree")
    if (report.c1 * report.c2 - report.c3) % 2 != 0:
        v.append(f"parity failure: c1*c2 = {report.c1 * report.c2} vs c3 = {report.c3}")

    if (report.df, report.dg) == (2, 2):
        if m > 12:
            v.append(f"cubic pencil with m = {m} > 12")
        if report.free != (m in (12, 9, 8)):
            v.append(f"cubic pencil freeness must mean m in {{12,9,8}}, got m = {m}")
        if report.free and (m, e) not in ((12, 0), (9, 1), (8, 2)):
            v.append(f"free cubic pencil with unexpected (m, e) = ({m}, {e})")
        if m <= 6 and report.stability == UNSTABLE:
            v.append(f"cubic pencil with m = {m} <= 6 cannot be unstable")
        if m <= 2 and report.stability != STABLE:
            v.append(f"cubic pencil with m = {m} <= 2 must be stable")

    if (report.df, report.dg) == (1, 2):
        if m > 7:
            v.append(f"quadric-cubic pair with m = {m} > 7")
        if report.free != (m in (7, 5)):
            v.append(f"quadric-cubic freeness must mean m in {{7,5}}, got m = {m}")
        if report.free and (m, e) not in ((7, 0), (5, 1)):
            v.append(f"free quadric-cubic pair with unexpected (m, e) = ({m}, {e})")
        if m <= 3 and report.stability != STABLE:
            v.append(f"quadric-cubic pair with m = {m} <= 3 must be stable")

    return v
