"""Fitt_0's basis skips pairs by its Eagon-Northcott series on certified pairs.

When the Jacobian cokernel has pole order <= 1, the 2 x 2 minors have grade
3, and ``jacobian_analysis`` gives the series of R/Fitt_0 in closed form.
Here that series is compared with the one read off the leads of the basis
built without it (``hilbert_of_ideal_quotient``), and the basis built with
it with the one built without, on seeded dense pairs over QQ and GF(32003),
on pairs certified by the elimination instead of the plane section, and on
the corpus's m = 0 row.  On the 21 corpus rows with m > 0 the closed
form is too large for their minors, so the Traverso rule must raise, and
``invariants`` must hand those rows no series at all.
"""

import importlib
import random

import pytest

from logtangent import sequences
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import ideal_groebner
from logtangent.hilbert import hilbert_of_ideal_quotient
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence, _grade_three_series, jacobian_analysis

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]
# the shapes and seed of test_koszul_colons.py's 65 pairs, then the edges
KOSZUL_SHAPES = [(0, 2), (1, 1), (1, 2), (2, 2), (1, 3)]
EDGE_SHAPES = [(0, 0), (0, 1), (2, 3)]


def minors_of(seq):
    return [p for p in seq.minors.values() if not p.is_zero()]


def assert_series_drives_the_basis(seq):
    """The closed form is the series of R/Fitt_0, and the basis it drives
    is the basis built without it."""
    ring, minors = seq.ring, minors_of(seq)
    series = jacobian_analysis(seq).fitting_hilbert
    plain = ideal_groebner(ring, minors)
    assert series.numerator == hilbert_of_ideal_quotient(ring, plain).numerator
    assert ideal_groebner(ring, minors, series) == plain


def corpus_rows(field):
    ring = PolyRing(field, 4)
    return [(fx, Sequence.parse(ring, fx.f, fx.g)) for fx in FIXTURES]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("df, dg", KOSZUL_SHAPES)
def test_seeded_dense_pairs(field, df, dg):
    ring = PolyRing(field, 4)
    for index in range(13):
        assert_series_drives_the_basis(Sequence.of(*sample_pair(ring, df, dg, 25, index)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("df, dg", EDGE_SHAPES)
def test_edge_shapes(field, df, dg):
    # (0, 0): constant minors, the unit ideal, whose quotient has numerator 0
    ring = PolyRing(field, 4)
    for index in range(2):
        assert_series_drives_the_basis(Sequence.of(*sample_pair(ring, df, dg, 25, index)))


@pytest.mark.parametrize("field", FIELDS)
def test_pairs_certified_by_the_elimination(monkeypatch, field):
    # f is a cone with vertex (1 : 0 : 0 : 1), on the plane x3 = x0 + 2*x1 + 3*x2,
    # so the plane section fails and the elimination finds pole order 1
    ring, rng, calls = PolyRing(field, 4), random.Random(5), []
    eliminate = sequences.module_gb_and_syzygies
    monkeypatch.setattr(
        sequences, "module_gb_and_syzygies", lambda *a, **k: calls.append(1) or eliminate(*a, **k)
    )
    for _ in range(2):
        cone = ring.parse("(x0 - x3)^2 + x1^2 + x2^2")
        assert_series_drives_the_basis(Sequence.of(cone, ring.random_homogeneous(3, rng)))
    assert calls == [1, 1]


@pytest.mark.parametrize("field", FIELDS)
def test_corpus(field):
    certified = []
    for fx, seq in corpus_rows(field):
        if jacobian_analysis(seq).fitting_hilbert is None:
            # a false grade claim: the closed form exceeds the minors' span
            with pytest.raises(ConsistencyError):
                ideal_groebner(seq.ring, minors_of(seq), _grade_three_series(seq.df, seq.dg)[1])
        else:
            assert_series_drives_the_basis(seq)
            certified.append(fx.m)
    assert certified == [0]


@pytest.mark.parametrize("field", FIELDS)
def test_invariants_hands_the_series_to_certified_pairs_only(monkeypatch, field):
    module = importlib.import_module("logtangent.invariants")
    handed = []

    def recording(ring, polys, quotient=None):
        handed.append(quotient is not None)
        return ideal_groebner(ring, polys, quotient)

    monkeypatch.setattr(module, "ideal_groebner", recording)
    given = []
    for fx, seq in corpus_rows(field):
        handed.clear()
        module.invariants(seq, with_schemes=True)
        assert handed, fx.name
        given += [fx.m] if any(handed) else []
    assert given == [0]
