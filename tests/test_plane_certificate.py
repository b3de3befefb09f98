"""The plane-section certificate for m = 0 and the series read off the
elimination, against the analysis that reads the series off an image basis.

``jacobian_analysis`` certifies m = 0 when the Jacobian columns restricted
to the plane x3 = x0 + 2*x1 + 3*x2 have a cokernel of pole order <= 1, and
then takes the cokernel series in closed form from the Buchsbaum-Rim
complex.  Otherwise it runs one elimination and reads the series off the
leads of its image members.  ``oracles.jacobian_analysis_by_image_basis``
is the analysis as it was before: a Groebner basis of the image, its
series, and the wedge or elimination kernel by that series.  Both must give
the same series, the same kernel and the same report.
"""

import importlib
import random

import pytest

import logtangent.sequences as sequences
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import module_gb_and_syzygies
from logtangent.hilbert import linear_hilbert_polynomial
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence, jacobian_analysis, plane_section

from oracles import (
    compose_linear,
    image_leads,
    jacobian_analysis_by_image_basis,
    section_basis,
    section_pole_order,
)

# the package attribute ``invariants`` is the function, so fetch the module
invariants_module = importlib.import_module("logtangent.invariants")

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]
DENSE_SHAPES = [(0, 2), (1, 1), (1, 2), (2, 2), (1, 3)]


@pytest.mark.parametrize("field", FIELDS)
def test_plane_section_substitutes_the_plane(field):
    ring = PolyRing(field, 4)
    # x3 -> x0 + 2*x1 + 3*x2, every other variable fixed
    plane = [[field.of(int(i == j)) for j in range(4)] for i in range(3)]
    plane.append([field.of(1), field.of(2), field.of(3), field.zero])
    rng = random.Random(3)
    for degree in (0, 1, 2, 3, 4):
        for _ in range(6):
            p = ring.random_homogeneous(degree, rng)
            assert plane_section(p) == compose_linear(p, plane), (degree, p)


def eliminations(monkeypatch):
    """The list each ``module_gb_and_syzygies`` call of ``sequences`` appends to."""
    calls = []

    def recording(gens, degrees):
        calls.append(len(gens))
        return module_gb_and_syzygies(gens, degrees)

    monkeypatch.setattr(sequences, "module_gb_and_syzygies", recording)
    return calls


def reference_report(monkeypatch, seq, with_schemes):
    with monkeypatch.context() as patch:
        patch.setattr(invariants_module, "jacobian_analysis", jacobian_analysis_by_image_basis)
        return invariants_module.invariants(seq, with_schemes=with_schemes)


def assert_both_paths_agree(monkeypatch, seq, label, with_schemes=False):
    ours, theirs = jacobian_analysis(seq), jacobian_analysis_by_image_basis(seq)
    assert ours.cokernel_hilbert == theirs.cokernel_hilbert, label
    assert ours.kernel.gens == theirs.kernel.gens, label
    report = invariants_module.invariants(seq, with_schemes=with_schemes)
    assert report == reference_report(monkeypatch, seq, with_schemes), label


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_rows_agree_with_the_image_basis_path(monkeypatch, field):
    ring = PolyRing(field, 4)
    calls = eliminations(monkeypatch)
    certified = []
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        calls.clear()
        analysis = jacobian_analysis(seq)
        assert len(calls) <= 1, fx.name
        assert_both_paths_agree(monkeypatch, seq, fx.name, with_schemes=True)
        m, _ = linear_hilbert_polynomial(analysis.cokernel_hilbert)
        if not calls:
            certified.append(fx.name)
            assert m == 0 and section_pole_order(seq) <= 1, fx.name
        else:
            # the certificate failed, and the series was read off the image leads
            assert section_pole_order(seq) > 1, fx.name
            assert analysis.image_gb == image_leads(seq.jacobian_columns), fx.name
    assert certified == ["pencils-cubics-genericpencil"]


@pytest.mark.parametrize("df, dg", DENSE_SHAPES)
def test_seeded_dense_pairs_are_certified_and_agree(monkeypatch, df, dg):
    calls = eliminations(monkeypatch)
    for field, count in ((PrimeField(32003), 12), (QQ, 2)):
        ring = PolyRing(field, 4)
        for index in range(count):
            seq = Sequence.of(*sample_pair(ring, df, dg, 24, index))
            label = (field, df, dg, index)
            assert_both_paths_agree(monkeypatch, seq, label)
            analysis = jacobian_analysis(seq)
            assert calls == [] and analysis.cokernel_hilbert.pole_order <= 1, label
            assert analysis.image_gb == section_basis(seq), label


def singular_line_pair(ring, rng):
    """f dense of degree 2 and g in (x0, x1)^2 of degree 3, so the cubic is
    singular along the line x0 = x1 = 0."""
    x0, x1 = ring.variable(0), ring.variable(1)
    f = ring.random_homogeneous(2, rng)
    a, b, c = (ring.random_homogeneous(1, rng) for _ in range(3))
    return Sequence.of(f, x0 * x0 * a + x0 * x1 * b + x1 * x1 * c)


def test_pairs_singular_along_a_line_fall_back_and_agree(monkeypatch):
    # an F_p family beyond the corpus with m > 0: the elimination-series path
    ring = PolyRing(PrimeField(32003), 4)
    rng = random.Random(10)
    calls = eliminations(monkeypatch)
    for sample in range(8):
        seq = singular_line_pair(ring, rng)
        calls.clear()
        jacobian_analysis(seq)
        assert calls == [4] and section_pole_order(seq) > 1, sample
        assert_both_paths_agree(monkeypatch, seq, sample)
        report = invariants_module.invariants(seq, with_schemes=False)
        assert (report.m, report.e, report.bour) == (1, 3, 6), sample


def test_a_wrong_closed_form_is_a_consistency_error(monkeypatch):
    # one more dimension in a single degree keeps pole order, m and ch3; the
    # certificate falls short under the smaller bound, and the elimination's
    # series differs from the closed form
    ring = PolyRing(PrimeField(32003), 4)
    seq = Sequence.of(*sample_pair(ring, 2, 2, 7, 0))
    invariants_module.invariants(seq, with_schemes=False)
    real = sequences.hilbert_from_numerator

    def perturbed(numerator, nvars):
        n = dict(numerator)
        for j, c in enumerate((1, -4, 6, -4, 1)):  # z^2 (1 - z)^4
            n[2 + j] = n.get(2 + j, 0) + c
        return real({j: c for j, c in n.items() if c}, nvars)

    monkeypatch.setattr(sequences, "hilbert_from_numerator", perturbed)
    with pytest.raises(ConsistencyError, match="disagree with the Hilbert series"):
        invariants_module.invariants(seq, with_schemes=False)
