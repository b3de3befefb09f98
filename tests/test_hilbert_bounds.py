"""Bases built under a bound on their Hilbert function, capped in degree.

``jacobian_analysis`` builds the plane-section certificate of m = 0 under
the Buchsbaum-Rim image series and stops at degree d + dg - 2;
``_koszul_exact`` builds a row's basis under the complete-intersection
series and stops at sum(a_i - 1) + 1.  A degree left short of the bound
raises ``HilbertShortfall`` and means "not certified" or "not regular".
Both verdicts are compared with the ones read off full bases built with no
bound (``oracles``), and the Traverso check is pinned on a bound one too
large, one too small, and an exact series that is wrong.
"""

import random

import pytest

import logtangent.sequences as sequences
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    HilbertShortfall,
    _as_vectors,
    _free_hilbert,
    _koszul_exact,
    groebner_basis,
    ideal_groebner,
)
from logtangent.hilbert import hilbert_of_ideal_quotient
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence, jacobian_analysis

from oracles import koszul_exact_by_pure_powers, section_pole_order
from test_plane_certificate import singular_line_pair

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]
SHAPES = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]


def certificate(monkeypatch, seq):
    """How ``jacobian_analysis`` decides seq: whether it certifies m = 0
    (no elimination runs) and whether its bounded basis fell short."""
    calls, shortfalls = [], []
    build, eliminate = sequences.groebner_basis, sequences.module_gb_and_syzygies

    def bounded(gens, **kwargs):
        try:
            return build(gens, **kwargs)
        except HilbertShortfall:
            shortfalls.append(gens)
            raise

    def eliminating(gens, **kwargs):
        calls.append(gens)
        return eliminate(gens, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "groebner_basis", bounded)
        patch.setattr(sequences, "module_gb_and_syzygies", eliminating)
        jacobian_analysis(seq)
    return not calls, bool(shortfalls)


def assert_verdict_is_the_full_basis_verdict(monkeypatch, seq, label):
    certified, short = certificate(monkeypatch, seq)
    assert certified == (section_pole_order(seq) <= 1), label
    assert not (certified and short), label
    return certified, short


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_rows(monkeypatch, field):
    ring = PolyRing(field, 4)
    certified = []
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        passed, short = assert_verdict_is_the_full_basis_verdict(monkeypatch, seq, fx.name)
        if passed:
            certified.append(fx.name)
        else:
            # every m > 0 row ends a degree short of the Buchsbaum-Rim series
            assert short, fx.name
    assert certified == ["pencils-cubics-genericpencil"]


@pytest.mark.parametrize("df, dg", SHAPES)
def test_seeded_dense_pairs(monkeypatch, df, dg):
    # drawn as test_plane_certificate's dense pairs are
    for field, count in ((PrimeField(32003), 12), (QQ, 2)):
        ring = PolyRing(field, 4)
        for index in range(count):
            seq = Sequence.of(*sample_pair(ring, df, dg, 24, index))
            label = (field, df, dg, index)
            verdict = assert_verdict_is_the_full_basis_verdict(monkeypatch, seq, label)
            assert verdict == (True, False), label


def test_pairs_singular_along_a_line(monkeypatch):
    ring, rng = PolyRing(PrimeField(32003), 4), random.Random(10)
    for sample in range(8):
        seq = singular_line_pair(ring, rng)
        verdict = assert_verdict_is_the_full_basis_verdict(monkeypatch, seq, sample)
        assert verdict == (False, True), sample


@pytest.mark.parametrize("field", FIELDS)
def test_cone_pairs_fall_back_with_m_zero(monkeypatch, field):
    # the cone's vertex (1 : 0 : 0 : 1) lies on the plane, so the section
    # fails although m = 0, and the elimination's series is the closed form
    ring, rng = PolyRing(field, 4), random.Random(5)
    for sample in range(2):
        cone = ring.parse("(x0 - x3)^2 + x1^2 + x2^2")
        seq = Sequence.of(cone, ring.random_homogeneous(3, rng))
        certified, _ = assert_verdict_is_the_full_basis_verdict(monkeypatch, seq, sample)
        assert not certified and jacobian_analysis(seq).cokernel_hilbert.pole_order == 1, sample


def test_a_wrong_closed_form_is_refused_on_the_fallback(monkeypatch):
    # one more dimension at degree 2 makes the bound one too small there: the
    # certificate drops pairs it needed and falls short at degree 3, and the
    # elimination's series is then not the closed form
    ring = PolyRing(PrimeField(32003), 4)
    seq = Sequence.of(*sample_pair(ring, 2, 2, 7, 0))
    real = sequences.hilbert_from_numerator

    def perturbed(numerator, nvars):
        n = dict(numerator)
        for j, c in enumerate((1, -4, 6, -4, 1)):  # z^2 (1 - z)^4
            n[2 + j] = n.get(2 + j, 0) + c
        return real({j: c for j, c in n.items() if c}, nvars)

    monkeypatch.setattr(sequences, "hilbert_from_numerator", perturbed)
    # the cached closed forms stay right; the uncached function reads the perturbed one
    monkeypatch.setattr(sequences, "_grade_three_series", sequences._grade_three_series.__wrapped__)
    with pytest.raises(ConsistencyError, match="image leads disagree"):
        certificate(monkeypatch, seq)


def monomial_ideal_gens(ring):
    # the S-pair of x0*x1 and x0*x2 has degree 3 and reduces to zero
    return _as_vectors(ring, [ring.parse("x0*x1"), ring.parse("x0*x2")])


def exact_series(ring, gens):
    quotient = hilbert_of_ideal_quotient(ring, [v.entries[0] for v in gens])
    return _free_hilbert(ring.nvars, (0,), lambda d: -quotient.function_value(d))


def test_a_bound_too_large_falls_short(qq4):
    gens = monomial_ideal_gens(qq4)
    exact = exact_series(qq4, gens)
    assert groebner_basis(gens, span_hilbert=exact) == groebner_basis(gens)
    with pytest.raises(HilbertShortfall, match="degree 3"):
        groebner_basis(gens, span_hilbert=lambda d: exact(d) + (d == 3))


def test_a_bound_too_small_is_an_excess(qq4):
    gens = monomial_ideal_gens(qq4)
    exact = exact_series(qq4, gens)
    with pytest.raises(ConsistencyError, match="degree 3") as raised:
        groebner_basis(gens, span_hilbert=lambda d: exact(d) - (d == 3))
    assert not isinstance(raised.value, HilbertShortfall)


@pytest.mark.parametrize("field", FIELDS)
def test_an_exact_caller_given_a_wrong_series_still_raises(field):
    # Fitt_0 of an m > 0 row under the grade-three series of its shape
    ring = PolyRing(field, 4)
    fx = next(fx for fx in FIXTURES if fx.name == "nearly-free-cubics")
    seq = Sequence.parse(ring, fx.f, fx.g)
    minors = [p for p in seq.minors.values() if not p.is_zero()]
    with pytest.raises(ConsistencyError):
        ideal_groebner(ring, minors, sequences._grade_three_series(seq.df, seq.dg)[1])


def assert_koszul_agrees(ring, row, label):
    verdict = _koszul_exact(ring, row)
    assert verdict == koszul_exact_by_pure_powers(ring, row), label
    return verdict


@pytest.mark.parametrize("field", FIELDS)
def test_koszul_on_corpus_gradients(field):
    ring = PolyRing(field, 4)
    for fx in FIXTURES:
        for row in Sequence.parse(ring, fx.f, fx.g).gradient_rows:
            assert_koszul_agrees(ring, row, fx.name)


@pytest.mark.parametrize("df, dg", [(1, 2), (2, 2)])
def test_koszul_on_seeded_dense_pairs(df, dg):
    ring = PolyRing(PrimeField(32003), 4)
    for index in range(16):
        seq = Sequence.of(*sample_pair(ring, df, dg, 25, index))
        for row in seq.gradient_rows:
            assert assert_koszul_agrees(ring, row, (df, dg, index))


def test_koszul_on_rows_that_are_not_regular(qq4):
    node = qq4.parse("x3*(x0^2 + x1^2 + x2^2) + x0^3 + x1^3 + x2^3")  # singular at (0:0:0:1)
    line = qq4.parse("x0^2*(x1 + x2) + x0*x1*(x2 - x3) + x1^2*(x0 + x3)")  # along x0 = x1 = 0
    x = [qq4.variable(i) for i in range(4)]
    repeated = [x[0] ** 2, x[1] ** 2, x[0] ** 2, x[2] * x[3]]
    gradients = [[p.partial(j) for j in range(4)] for p in (node, line)]
    for label, row in zip(("node", "line", "repeat"), [*gradients, repeated]):
        assert not assert_koszul_agrees(qq4, row, label)
