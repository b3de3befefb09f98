"""Acceptance gate: every stated criterion at its stated tolerance.

All comparisons are exact integer or exact-ideal equality.  One criterion
is marked as a strict expected failure: the c3 pin of the
pencilcubics-Bour4-m5-pog-c3-8 row, whose source value 8 contradicts the
source's own displayed resolutions and two independent computations here
(the verified value is 4; see the fixture note).  Each criterion prints a
PASS line on success so a plain `pytest -s tests/test_acceptance.py -v`
reads as a checklist.
"""

import hashlib
import random

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import run_corpus
from logtangent.groebner import (
    _as_vectors,
    annihilator_of_cokernel,
    fitting_ideal_0,
    groebner_basis,
    ideal_groebner,
    saturate_ideal,
    spoly_reduces_to_zero,
)
from logtangent.hilbert import (
    hilbert_from_numerator,
    hilbert_of_ideal_quotient,
    hilbert_of_quotient,
)
from logtangent.invariants import invariants
from logtangent.modules import FreeModule, Vector
from logtangent.plane import tjurina_plane
from logtangent.poly import PolyRing
from logtangent.resolution import resolve_submodule
from logtangent.search import run_search
from logtangent.sequences import Sequence
from oracles import ideal_contains

SEED = 20260808
PRIME = 32003
# sha256 of SearchResult.to_json() for the two 500-sample searches below, as
# first recorded; a kernel rewrite must reproduce the search output byte for byte
DIGEST_4A = "262be8819b4f0f100ac26a44bb6f39df2115be1877f17400d78dffd375d777a8"
DIGEST_4B = "3eb442d3e37de7556f5b59fb9bdd65ac670f845459cde19a3f42bea97d7b9b0b"


def _digest(result):
    return hashlib.sha256(result.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus_qq():
    return run_corpus(QQ)


def _report_failures(results):
    bad = []
    for r in results:
        if not r.passed:
            detail = r.error or "; ".join(r.mismatches + r.violations)
            bad.append(f"{r.fixture.name}: {detail}")
    return bad


def test_criterion_1_corpus_over_rationals(corpus_qq):
    bad = _report_failures(corpus_qq)
    assert not bad, "\n".join(bad)
    print(f"\nACCEPTANCE 1: PASS - {len(corpus_qq)} fixtures reproduce pinned values over the rationals")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated pin c3 = 8 for pencilcubics-Bour4-m5-pog-c3-8 contradicts the "
        "source's own displayed resolutions (p_a(B) = -1, deg(B) = 4 give "
        "c3 = 4) and a direct rank computation of the cokernel Hilbert "
        "function; verified value is 4"
    ),
)
def test_criterion_1_pog_c3_as_stated(corpus_qq):
    row = next(r for r in corpus_qq if r.fixture.name == "pencilcubics-Bour4-m5-pog-c3-8")
    assert row.report.c3 == 8


def test_criterion_1_corpus_over_prime_field():
    results = run_corpus(PrimeField(PRIME))
    bad = _report_failures(results)
    assert not bad, "\n".join(bad)
    print(f"\nACCEPTANCE 1 (prime rerun): PASS - same integers over GF({PRIME})")


def test_criterion_2_cross_checks(corpus_qq):
    checked = 0
    for r in corpus_qq:
        rep = r.report
        assert rep is not None, r.fixture.name
        if rep.free:
            assert r.bourbaki is None
            continue
        bd = r.bourbaki
        assert bd is not None, r.fixture.name
        assert bd.degree == rep.bour, r.fixture.name
        assert bd.c3_from_curve(rep.d, rep.e) == rep.c3, r.fixture.name
        assert bd.lifting_ok, r.fixture.name
        checked += 1
    assert checked >= 14
    print(f"\nACCEPTANCE 2: PASS - curve degree, genus formula and resolution lifting on {checked} non-free fixtures")


def test_criterion_3_plane_curve_reduction(qq3, qq4):
    curves = [
        ("x1^2*x2 - x0^2*(x0 + x2)", 1),
        ("x1^2*x2 - x0^3", 2),
        ("x0*x2 - x1^2", 0),
    ]
    for text, tau_expected in curves:
        tau = tjurina_plane(qq3.parse(text))
        assert tau == tau_expected, text
        rep = invariants(Sequence.parse(qq4, "x3", text), with_schemes=False)
        assert rep.m == tau, text
        dg = rep.dg
        assert rep.bour == rep.e * (rep.e - dg) + dg * dg - tau, text
    print("\nACCEPTANCE 3: PASS - plane-curve reduction on node, cusp and smooth conic")


def test_criterion_4_randomized_validation_cubic_pencils():
    result = run_search(df=2, dg=2, count=500, seed=SEED, p=PRIME)
    violations = [a for a in result.anomalies() if "violation" in a["anomaly"]]
    assert violations == []
    kept = result.kept
    generic = sum(
        1 for row in kept if (row.m, row.e, row.bour, row.c3) == (0, 4, 12, 32)
    )
    rate = generic / len(kept)
    assert rate >= 0.95
    # calibrated once for this seed: every kept draw landed on the open stratum
    assert (len(kept), generic) == (500, 500)
    assert _digest(result) == DIGEST_4A
    print(f"\nACCEPTANCE 4a: PASS - 500 cubic pencils, no violations, generic rate {rate:.3f}")


def test_criterion_4_randomized_validation_quadric_cubic():
    result = run_search(df=1, dg=2, count=500, seed=SEED, p=PRIME)
    violations = [a for a in result.anomalies() if "violation" in a["anomaly"]]
    assert violations == []
    assert len(result.kept) + sum(result.skipped.values()) == 500
    assert _digest(result) == DIGEST_4B
    print("\nACCEPTANCE 4b: PASS - 500 quadric-cubic pairs, no violations")


# --- criterion 5: kernel property suites, independent of the domain layer ----


def _random_poly(ring, rng, dmin=1, dmax=2):
    return ring.random_homogeneous(rng.randint(dmin, dmax), rng)


def test_criterion_5_spolynomials_reduce_to_zero():
    ring = PolyRing(PrimeField(PRIME), 4)
    rng = random.Random(SEED)
    runs = 0
    while runs < 200:
        if runs % 2 == 0:
            gens = _as_vectors(ring, [_random_poly(ring, rng) for _ in range(3)])
        else:
            F = FreeModule(ring, (0, rng.randint(0, 1)))
            gens = [
                Vector(F, (_random_poly(ring, rng), _random_poly(ring, rng)))
                for _ in range(2)
            ]
            gens = [g for g in gens if not g.is_zero() and g.is_homogeneous()]
        if not gens:
            continue
        gb = groebner_basis(gens)
        assert spoly_reduces_to_zero(gb)
        runs += 1
    print("\nACCEPTANCE 5a: PASS - S-pair reduction to zero on 200 random ideals/modules")


def test_criterion_5_resolutions_exact_and_euler_consistent():
    ring = PolyRing(PrimeField(PRIME), 4)
    rng = random.Random(SEED + 1)
    h_free_cache = {}
    runs = 0
    while runs < 100:
        twists = tuple(rng.randint(0, 1) for _ in range(2))
        F = FreeModule(ring, twists)
        gens = []
        for _ in range(2):
            d = rng.randint(1, 2)
            entries = tuple(
                ring.random_homogeneous(d - a, rng) if d - a >= 0 else ring.zero()
                for a in twists
            )
            v = Vector(F, entries)
            if not v.is_zero():
                gens.append(v)
        if not gens:
            continue
        res = resolve_submodule(F, gens)
        assert res.check_complex()
        assert res.is_minimal()
        gb = groebner_basis(gens)
        hq = hilbert_of_quotient(F, gb)
        if F not in h_free_cache:
            h_free_cache[F] = hilbert_of_quotient(F, [])
        h_free = h_free_cache[F]
        for t in range(0, 7):
            module_dim = h_free.function_value(t) - hq.function_value(t)
            alt = sum(
                (-1) ** i * hilbert_of_quotient(mod, []).function_value(t)
                for i, mod in enumerate(res.modules)
            )
            assert alt == module_dim
        runs += 1
    print("\nACCEPTANCE 5b: PASS - exactness and Euler characteristic on 100 random modules")


def _same_hilbert_polynomial(ring, a, b) -> bool:
    """The functions of R/a and R/b agree in all large degrees exactly when
    the difference of their numerators leaves no pole at z = 1."""
    diff = dict(hilbert_of_ideal_quotient(ring, a).numerator)
    for j, c in hilbert_of_ideal_quotient(ring, b).numerator:
        diff[j] = diff.get(j, 0) - c
    return hilbert_from_numerator(diff, ring.nvars).pole_order <= 0


def test_criterion_5_saturation_idempotent():
    ring = PolyRing(PrimeField(PRIME), 4)
    rng = random.Random(SEED + 2)
    for _ in range(25):
        gens = [p for p in (_random_poly(ring, rng, 1, 3) for _ in range(2)) if not p.is_zero()]
        if not gens:
            continue
        sat = saturate_ideal(ring, gens)
        assert saturate_ideal(ring, sat) == sat
        gb = ideal_groebner(ring, gens)
        for p in gb:
            assert ideal_contains(ring, sat, p)
        # agreement in all large degrees: identical Hilbert polynomials
        assert _same_hilbert_polynomial(ring, gens, sat)
    # negative control: two lines against one of them
    x = [ring.variable(i) for i in range(4)]
    assert not _same_hilbert_polynomial(ring, [x[0], x[1] * x[2]], [x[0], x[1]])
    print("\nACCEPTANCE 5c: PASS - saturation idempotent, contains the input, same Hilbert polynomial")


def test_criterion_5_fitting_inside_annihilator():
    ring = PolyRing(PrimeField(PRIME), 4)
    rng = random.Random(SEED + 3)
    runs = 0
    while runs < 100:
        d1, d2 = rng.randint(1, 2), rng.randint(1, 2)
        rows = [
            [ring.random_homogeneous(d1, rng) for _ in range(4)],
            [ring.random_homogeneous(d2, rng) for _ in range(4)],
        ]
        fitt = fitting_ideal_0(rows)
        if not fitt:
            continue
        target = FreeModule(ring, (-d1, -d2))
        columns = [
            Vector(target, (rows[0][j], rows[1][j])) for j in range(4)
        ]
        ann_gb = ideal_groebner(ring, annihilator_of_cokernel(target, columns))
        for p in fitt:
            assert ideal_contains(ring, ann_gb, p)
        runs += 1
    print("\nACCEPTANCE 5d: PASS - Fitting ideal inside the annihilator on 100 random matrices")
