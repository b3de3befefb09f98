"""Equal ideals are worked on once: two equal Bases intersect with no
elimination, and equal Fitting and annihilator schemes have their dimension
and degree counted once."""

import importlib

import pytest

from logtangent import groebner
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import ideal_groebner, ideal_intersection, module_colon
from logtangent.hilbert import dimension_degree
from logtangent.poly import PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence
from oracles import intersection_by_syzygies

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def schemes_pair(ring):
    """The first dense (1, 2) pair of seed 0, drawn over GF(32003) as the
    schemes benchmark draws it, read over ring."""
    fp = PolyRing(PrimeField(32003), 4)
    return Sequence.parse(ring, *(str(p) for p in sample_pair(fp, 1, 2, 0, 0)))


@pytest.mark.parametrize("field", FIELDS)
def test_equal_bases_intersect_without_elimination(monkeypatch, field):
    ring = PolyRing(field, 4)
    seq = schemes_pair(ring)
    columns = [c for c in seq.jacobian_columns if not c.is_zero()]
    target = seq.jacobian_target()
    colons = [module_colon(columns, target.basis_vector(i)) for i in range(target.rank)]
    assert colons[0] == colons[1] and colons[0] is not colons[1]
    expected = ideal_groebner(ring, intersection_by_syzygies(ring, *colons))
    eliminations = []
    eliminate = groebner._eliminate
    monkeypatch.setattr(
        groebner, "_eliminate", lambda *args: eliminations.append(args) or eliminate(*args)
    )
    assert ideal_intersection(ring, *colons) == expected
    assert eliminations == []


def counted_invariants(monkeypatch, seq):
    """The report of a full analyze with schemes, and the ideals that
    ``dimension_degree`` was called on while it ran."""
    module = importlib.import_module("logtangent.invariants")
    ideals = []

    def counting(ring, gens):
        ideals.append(gens)
        return dimension_degree(ring, gens)

    with monkeypatch.context() as patch:
        patch.setattr(module, "dimension_degree", counting)
        report = module.invariants(seq, with_schemes=True)
    return report, ideals


def assert_summaries_are_direct(seq, report):
    for scheme in (report.fitting_scheme, report.annihilator_scheme):
        assert (scheme.dim, scheme.degree) == dimension_degree(seq.ring, scheme.ideal)


def test_equal_schemes_count_dimension_once(monkeypatch):
    seq = schemes_pair(PolyRing(PrimeField(32003), 4))
    report, ideals = counted_invariants(monkeypatch, seq)
    assert report.schemes_equal
    assert ideals == [report.fitting_scheme.ideal]
    assert_summaries_are_direct(seq, report)


def test_corpus_schemes_count_dimension_once_per_distinct_scheme(monkeypatch, qq4):
    differ = 0
    for fx in FIXTURES:
        seq = Sequence.parse(qq4, fx.f, fx.g)
        report, ideals = counted_invariants(monkeypatch, seq)
        fitting, ann = report.fitting_scheme.ideal, report.annihilator_scheme.ideal
        assert report.schemes_equal == (fitting == ann), fx.name
        assert ideals == ([fitting] if report.schemes_equal else [fitting, ann]), fx.name
        assert_summaries_are_direct(seq, report)
        differ += not report.schemes_equal
    assert differ == 5
