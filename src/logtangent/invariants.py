"""Discrete invariants of a normal pair and the constraint validator.

The report gathers everything computed from one pair: the m-invariant and
third Chern character of the Jacobian cokernel (from its Hilbert
polynomial), the generator degrees of the syzygy module (from its minimal
resolution, which the same series checks), Chern classes (by additivity of
the Chern character along the four-term exact sequence of the Jacobian
map), the freeness / nearly-free / 3-generator classification, slope
stability, and optionally the two saturated scheme structures supported on
the Jacobian locus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groebner import (
    annihilator_of_cokernel,
    ideal_equals,
    ideal_groebner,
    saturate_ideal,
)
from .hilbert import dimension_degree, linear_hilbert_polynomial
from .poly import ConsistencyError, Polynomial
from .resolution import FreeResolution, resolve_submodule
from .sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
    constant_kernel_dimension,
    jacobian_analysis,
)

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"
# the classification flags of a report, in the order reports list them
FLAGS = ("free", "nearly_free", "three_syzygy")


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
    """(c1, c2, c3) of the kernel sheaf T, in closed form.

    Additivity of ch along 0 -> T -> O^4 -> O(df) + O(dg) -> Q -> 0, with
    ch(Q) = (0, 0, m, ch3_q), gives c1 = -d, ch2 = m - (df^2 + dg^2)/2 and
    ch3 = ch3_q - (df^3 + dg^3)/6.  So c2 = c1^2/2 - ch2 = df^2 + df*dg +
    dg^2 - m, which is m0 - m, and c3 = 2*ch3 + c1*c2 - c1^3/3 =
    2*ch3_q - d*(c2 - df*dg), as d^3 - df^3 - dg^3 = 3*df*dg*d.
    """
    d = df + dg
    c2 = df * df + df * dg + dg * dg - m
    return -d, c2, 2 * ch3_q - d * (c2 - df * dg)


def invariants(seq: Sequence, with_schemes: bool = True) -> InvariantReport:
    """Full invariant report of a normal pair.

    Both refusals are read off the Hilbert series of the Jacobian cokernel,
    which ``jacobian_analysis`` returns with the kernel it chose by that
    series.  DependentSequenceError when its pole order is the number of
    variables: the cokernel has positive rank, which over any field is the
    same as all 2x2 minors vanishing.  NonNormalSequenceError (with the
    divisor degree) when the Jacobian scheme has a codimension-one component.
    K is resolved against the series of source/K, the image, so Betti numbers
    that disagree with it are a ConsistencyError.
    The Fitting scheme saturates Fitt_0, the nonzero values of ``seq.minors``.
    Its Basis is built once, by the series ``jacobian_analysis`` gives when
    there is one, and handed to the annihilator too, which takes it as each
    colon whose other gradient row is a regular sequence.
    Equal schemes have their dimension and degree counted once.
    """
    analysis = jacobian_analysis(seq)
    hq = analysis.cokernel_hilbert
    if hq.pole_order == seq.ring.nvars:
        raise DependentSequenceError("all Jacobian minors vanish")
    if hq.pole_order > 2:
        raise NonNormalSequenceError(divisor_degree=hq.degree)

    m, b = linear_hilbert_polynomial(hq)
    ch3_q = b - 2 * m

    # source/K is the image of the Jacobian map: the target less the cokernel
    image = [(a, 1) for a in seq.jacobian_target().twists] + [(j, -c) for j, c in hq.numerator]
    kernel = analysis.kernel
    res = resolve_submodule(kernel.module, kernel.gens, image, analysis.relations)
    # nonempty: K has rank 2, so an empty resolution fails the series identity
    exponents = res.betti().exponents
    e = exponents[0]
    generator_count = len(exponents)

    h0 = constant_kernel_dimension(seq)
    zero_exponents = sum(1 for x in exponents if x == 0)
    if h0 != zero_exponents:
        raise ConsistencyError(
            f"constant-kernel dimension {h0} disagrees with zero exponents {zero_exponents}"
        )

    c1, c2, c3 = chern_classes(seq.df, seq.dg, m, ch3_q)

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
    )

    if with_schemes:
        ring = seq.ring
        minors = [p for p in seq.minors.values() if not p.is_zero()]
        fitt0 = ideal_groebner(ring, minors, analysis.fitting_hilbert)
        fitting_sat = saturate_ideal(ring, fitt0)
        ann = annihilator_of_cokernel(seq.jacobian_target(), seq.jacobian_columns, hq, fitt0)
        ann_sat = saturate_ideal(ring, ann)
        report.schemes_equal = ideal_equals(ring, fitting_sat, ann_sat)
        fitting = dimension_degree(ring, fitting_sat)
        annihilator = fitting if report.schemes_equal else dimension_degree(ring, ann_sat)
        report.fitting_scheme = SchemeSummary(*fitting, fitting_sat)
        report.annihilator_scheme = SchemeSummary(*annihilator, ann_sat)

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
