"""Built-in worked-example corpus with pinned invariants.

Each fixture records only values stated in the source examples: selected
invariants everywhere, full generator-degree tables where a resolution is
displayed, ideal generators where an ideal is displayed.  ``run_fixture``
recomputes everything over a chosen field and reports mismatches row by
row, so the corpus doubles as the regression gate of the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .bourbaki import BourbakiData, bourbaki_data
from .fields import QQ
from .invariants import InvariantReport, invariants, validate_constraints
from .groebner import ideal_equals
from .poly import PolyRing
from .sequences import Sequence


@dataclass(frozen=True)
class Fixture:
    name: str
    f: str
    g: str
    e: int | None = None
    m: int | None = None
    bour: int | None = None
    c3: int | None = None
    exponents: tuple[int, ...] | None = None
    betti: tuple[tuple[int, ...], ...] | None = None
    gpdim: int | None = None
    generator_count: int | None = None
    compressible: bool | None = None
    free: bool | None = None
    nearly_free: bool | None = None
    three_syzygy: bool | None = None
    stability: str | None = None
    annihilator_saturation: tuple[str, ...] | None = None
    fitting_saturation: tuple[str, ...] | None = None
    scheme_degrees: frozenset[int] | None = None
    bourbaki_degree: int | None = None
    bourbaki_genus: int | None = None
    complete_intersection: bool | None = None
    notes: str | None = None


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="schematic-difference",
        f="2*x1*x3 - x1^2",
        g="3*x2*x3^2 - 3*x0*x1*x3 + x1^3",
        exponents=(1, 2),
        m=5,
        free=True,
        annihilator_saturation=("x3^2", "x1*x3", "x0*x1^2 - x1^3"),
        fitting_saturation=(
            "x3^3",
            "x1*x3^2",
            "x1^2*x3",
            "x0*x1^2 - x1^3 - 2*x1*x2*x3 + 2*x2*x3^2",
        ),
        scheme_degrees=frozenset({4, 6}),
        notes=(
            "source displays x3^2 as the first generator of Fitt0, but the "
            "minors generate in degrees >= 3 and the displayed ideal would "
            "have degree 5, clashing with the stated degree pair {4, 6}; "
            "x3^3 is the verified generator"
        ),
    ),
    Fixture(
        name="pencils-cubics-genericpencil",
        f="x3*(x0*x2 - x1^2) - (x0 - 2*x1)*(3*x1 - x0 - 2*x2)*(x1 - 2*x2)",
        g="x3*(x0*x2 - x1^2) - x1^2*(x0 - x1)",
        m=0,
        bour=12,
        c3=32,
        betti=((4, 4, 4, 4), (6, 6)),
    ),
    Fixture(
        name="compressible-pencilcubics",
        f="x0^3 + x1^3 + x0*x1*x3",
        g="x0*x1*x3",
        m=12,
        exponents=(0, 4),
        compressible=True,
        free=True,
    ),
    Fixture(
        name="free-incompressible-m9",
        f="x1*(x2^2 - x1^2)",
        g="x3*x2*(x0 - x1)",
        exponents=(1, 3),
        m=9,
        free=True,
        compressible=False,
    ),
    Fixture(
        name="free-incompressible-m8",
        f="x0^2*x1 + x3^3",
        g="x0^3 + x0*x2*x3 + x3^3",
        exponents=(2, 2),
        m=8,
        free=True,
        compressible=False,
    ),
    Fixture(
        name="nearly-free-cubics",
        f="x0^2*(x1 - x2) + x2^2*(x1 - x0 + x3)",
        g="-x1*x2*x3 + x2^2*x3",
        e=2,
        m=7,
        bour=1,
        c3=2,
        nearly_free=True,
        stability="strictly_semistable",
    ),
    Fixture(
        name="pcubics-pog-not-nf",
        f="x2*x3*(x0 - x1)",
        g="x0*(x0^2 + x1^2 + x2^2 + x3^2)",
        e=3,
        bour=4,
        m=5,
        c3=8,
        three_syzygy=True,
        betti=((3, 3, 3), (5,)),
        bourbaki_degree=4,
        complete_intersection=True,
    ),
    Fixture(
        name="pencilcubics-Bour4-m5-notpog",
        f="x0^2*x2 + x0*x1*x3 + x3^3",
        g="x2^3 + x1*x2*x3 + x3^3",
        e=3,
        bour=4,
        m=5,
        c3=8,
        gpdim=1,
        generator_count=4,
        three_syzygy=False,
    ),
    Fixture(
        name="pencilcubics-Bour4-m5-pog-c3-8",
        f="x0^3 + x0*x1*x3 + x3^3",
        g="x3^3 + x1*x3^2 + x0*x1*x3 + x0^2*x2",
        e=3,
        bour=4,
        m=5,
        c3=4,
        gpdim=2,
        notes=(
            "source prose claims c3 = 8 (same total Chern class as the "
            "3-syzygy twin), but its own displayed resolutions give "
            "p_a(B) = -1, deg(B) = 4 and hence c3 = 4; confirmed by direct "
            "rank computation of the cokernel Hilbert function"
        ),
    ),
    Fixture(
        name="pencil-of-cubics-bour2",
        f="x0*x1^2 + x2^3 + x2^2*x3",
        g="x2*x3*(x2 - x1)",
        e=3,
        m=7,
        bour=2,
        gpdim=2,
    ),
    Fixture(
        name="strictly-sst-pencil-cubics",
        f="x0^3 + x1^3 + x2^3 + x3^3",
        g="x0^3 + x1^3 + x2*x3^2",
        e=2,
        bour=4,
        m=4,
        c3=16,
        three_syzygy=True,
        stability="strictly_semistable",
    ),
    Fixture(
        name="compressible-mixeddegrees",
        f="x0*(x1 - x2)",
        g="x0^3 + x1^3 + x2^3",
        exponents=(0, 3),
        compressible=True,
        free=True,
    ),
    Fixture(
        name="mixeddegrees-m5",
        f="x0*x1",
        g="x3*x2*(x0 - x1)",
        exponents=(1, 2),
        m=5,
        free=True,
        compressible=False,
    ),
    Fixture(
        name="nearly-free-mixed-degrees-e1",
        f="x0^2 + x3^2",
        g="x0^3 + x0*x1*x2 + x3^3",
        e=1,
        m=4,
        bour=1,
        c3=3,
        betti=((1, 3, 3), (4,)),
        nearly_free=True,
        stability="unstable",
    ),
    Fixture(
        name="nearly-free-mixed-degrees-e2",
        f="x0*x1 - x2*x3",
        g="x1*x3*(x0 - x2)",
        e=2,
        m=4,
        bour=1,
        c3=1,
        betti=((2, 2, 2), (3,)),
        nearly_free=True,
        stability="stable",
        bourbaki_degree=1,
        bourbaki_genus=0,
    ),
    Fixture(
        name="B2-mixed-degrees-c3-2",
        f="x3*(x0 - x1)",
        g="x0^2*x2 + x0*x1*x3 + x3^3",
        e=2,
        bour=2,
        m=3,
        c3=2,
    ),
    Fixture(
        name="B2-mixed-degrees-c3-4",
        f="x0^2 + x1^2 + x2^2 + x3^2",
        g="x3*(x2 - x3)*(x0 - x1)",
        e=2,
        bour=2,
        m=3,
        c3=4,
    ),
    Fixture(
        name="B3-mixed-degrees-e-2",
        f="-x0*x1 + x1*x2 - x2*x3",
        g="x0*x1^2 + x2^3 + x2^2*x3",
        e=2,
        bour=3,
        m=2,
        c3=7,
    ),
    Fixture(
        name="B5-mixed-degrees-e-3",
        f="x2*x3 - x0*x1",
        g="x0^2*x2 + x0*x1*x3 + x2*x3^2 + x3^3",
        e=3,
        bour=5,
        m=2,
        c3=3,
    ),
    Fixture(
        name="free-nearlyfree-family-k2",
        f="x0^3 + x0*x1*x2 + x3^3",
        g="x0^3 + x3^3",
        exponents=(1, 3),
        m=9,
        free=True,
    ),
    Fixture(
        name="free-nearlyfree-family-k3",
        f="x0^3 + x0*x1*x2 + x3^3",
        g="x0^4 + x3^4",
        e=1,
        nearly_free=True,
        betti=((1, 5, 5), (6,)),
    ),
    Fixture(
        name="free-nearlyfree-family-k4",
        f="x0^3 + x0*x1*x2 + x3^3",
        g="x0^5 + x3^5",
        e=1,
        nearly_free=True,
        betti=((1, 6, 6), (7,)),
    ),
)


# Each pinned Fixture field, with its mismatch label and how the value it pins
# is read off the report, or off the Bourbaki data for BOURBAKI_PINS (None for
# a free pair).  The schemes are computed only when a SCHEME_PINS field is set.
REPORT_PINS = {
    name: (name, attrgetter(name))
    for name in ("e", "m", "bour", "c3", "exponents", "gpdim", "generator_count",
                 "compressible", "free", "nearly_free", "three_syzygy", "stability")
} | {"betti": ("betti", lambda report: report.resolution.betti().columns)}
SCHEME_PINS = {
    "annihilator_saturation": (
        "annihilator saturation", attrgetter("annihilator_scheme.ideal")),
    "fitting_saturation": ("fitting saturation", attrgetter("fitting_scheme.ideal")),
    "scheme_degrees": ("scheme degree set", lambda report: frozenset(
        {report.fitting_scheme.degree, report.annihilator_scheme.degree})),
}
BOURBAKI_PINS = {
    "bourbaki_degree": ("bourbaki degree", attrgetter("degree")),
    "bourbaki_genus": ("bourbaki genus", attrgetter("genus")),
    "complete_intersection": ("complete intersection", attrgetter("complete_intersection")),
}
# pins that list generators of an ideal, compared as ideals
IDEAL_PINS = ("annihilator_saturation", "fitting_saturation")


@dataclass
class FixtureResult:
    fixture: Fixture
    passed: bool
    mismatches: list[str]
    violations: list[str]
    report: InvariantReport | None = field(default=None, repr=False)
    bourbaki: BourbakiData | None = field(default=None, repr=False)
    error: str | None = None


def run_fixture(fx: Fixture, field_obj=QQ) -> FixtureResult:
    ring = PolyRing(field_obj, 4)
    try:
        seq = Sequence.parse(ring, fx.f, fx.g)
        with_schemes = any(getattr(fx, name) is not None for name in SCHEME_PINS)
        report = invariants(seq, with_schemes=with_schemes)
        bd = bourbaki_data(seq, report)
    except Exception as exc:  # a crash is a failed row, not a failed corpus run
        return FixtureResult(
            fixture=fx, passed=False, mismatches=[], violations=[], error=repr(exc)
        )

    mismatches: list[str] = []
    for pins, source in ((REPORT_PINS, report), (SCHEME_PINS, report), (BOURBAKI_PINS, bd)):
        for name, (label, computed) in pins.items():
            pinned = getattr(fx, name)
            if pinned is None:
                continue
            got = None if source is None else computed(source)
            if name in IDEAL_PINS:
                if not ideal_equals(ring, got, [ring.parse(s) for s in pinned]):
                    mismatches.append(f"{label} differs from pinned ideal")
            elif got != pinned:
                mismatches.append(f"{label}: expected {pinned}, computed {got}")

    violations = validate_constraints(report)
    passed = not mismatches and not violations
    return FixtureResult(
        fixture=fx,
        passed=passed,
        mismatches=mismatches,
        violations=violations,
        report=report,
        bourbaki=bd,
    )


def run_corpus(field_obj=QQ, fixtures=FIXTURES):
    return [run_fixture(fx, field_obj) for fx in fixtures]
