"""S-pairs the answer cannot use are not reduced.

A syzygy elimination skips the pairs of a degree once the leads cover the
Hilbert function of the free span of its tagged inputs, and
``groebner_basis(..., up_to=d)`` reduces no pair above degree d.  Both are
pinned against the engine that reduces every pair: bases and syzygies must
come out identical, not merely equivalent.
"""

import importlib

import pytest

from logtangent import groebner, resolution
from logtangent.bourbaki import bourbaki_data
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import groebner_basis, module_gb_and_syzygies
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing
from logtangent.resolution import minimal_generators
from logtangent.search import sample_pair
from logtangent.sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
    jacobian_analysis,
)
from oracles import syzygies_without_skipping

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def recorded_syzygy_inputs(monkeypatch, run):
    """The (gens, degrees) of every module_gb_and_syzygies call that run makes:
    the Jacobian, each resolution step, module_dual and the Bourbaki resolution."""
    calls = []

    def recording(gens, degrees=None):
        calls.append((list(gens), None if degrees is None else list(degrees)))
        return module_gb_and_syzygies(gens, degrees)

    sequences = importlib.import_module("logtangent.sequences")
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "module_gb_and_syzygies", recording)
        patch.setattr(sequences, "module_gb_and_syzygies", recording)
        run()
    return calls


def analyze(seq):
    """The core pipeline and, for a non-free pair, the Bourbaki extraction."""
    # the package attribute ``invariants`` is the function, so fetch the module
    report = importlib.import_module("logtangent.invariants").invariants(
        seq, with_schemes=False
    )
    bourbaki_data(seq, report)


def assert_same_as_without_skipping(calls):
    for gens, degrees in calls:
        assert module_gb_and_syzygies(gens, degrees) == syzygies_without_skipping(
            gens, degrees
        )


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_syzygies_match_without_skipping(monkeypatch, field):
    ring = PolyRing(field, 4)
    calls = []
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        calls += recorded_syzygy_inputs(monkeypatch, lambda: analyze(seq))
    # a Jacobian and two resolution steps per row at least, and the duals
    assert len(calls) > 3 * len(FIXTURES)
    assert_same_as_without_skipping(calls)


@pytest.mark.parametrize("df, dg", [(1, 1), (1, 2), (2, 2)])
def test_seeded_pairs_match_without_skipping(monkeypatch, df, dg):
    ring = PolyRing(PrimeField(32003), 4)
    calls = []
    for index in range(4):
        seq = Sequence.of(*sample_pair(ring, df, dg, 11, index))
        try:
            calls += recorded_syzygy_inputs(monkeypatch, lambda: analyze(seq))
        except (DependentSequenceError, NonNormalSequenceError):
            continue
    assert calls
    assert_same_as_without_skipping(calls)


@pytest.mark.parametrize("field", FIELDS)
def test_zero_column_with_explicit_degree(field):
    ring = PolyRing(field, 4)
    seq = Sequence.parse(ring, "x0*x1 + x2^2", "x1*x3^2 - x0^3 + x2*x3*x0")
    columns = seq.jacobian_columns()
    gens = columns[:2] + [columns[0].module.zero()] + columns[2:]
    degrees = [0, 0, 3, 0, 0]
    got = module_gb_and_syzygies(gens, degrees)
    assert got == syzygies_without_skipping(gens, degrees)
    # the zero column is a syzygy of its own
    assert got[1].basis_vector(2) in got[2]


def test_colon_and_intersection_tags_are_not_free(qq4):
    x = [qq4.variable(i) for i in range(4)]
    module = FreeModule(qq4, (0,))
    tags = [module.basis_vector(0), module.zero()]
    assert groebner._free_tag_degrees(tags) is None
    assert groebner._free_tag_degrees([Vector(module, (x[0],))]) is None
    twice = FreeModule(qq4, (0, 1))
    assert groebner._free_tag_degrees([twice.basis_vector(1)] * 2) is None
    assert sorted(groebner._free_tag_degrees([twice.basis_vector(1), twice.basis_vector(0)])) == [0, 1]


def test_zero_reductions_in_a_cubic_pencil_sample(monkeypatch):
    # with the Hilbert skip, 2 of the 21 S-pairs of the Jacobian elimination
    # of an m = 0 search sample reduce to zero; the elimination is called
    # directly, as the pipeline takes that kernel from the wedge syzygies
    seq = Sequence.of(*sample_pair(PolyRing(PrimeField(32003), 4), 2, 2, 7, 0))
    made, zeros = [], []
    spair, reduce = groebner._spair_terms, groebner._normal_form_terms

    def recording_spair(*args):
        made.append(spair(*args))
        return made[-1]

    def counting_reduce(terms, *args):
        out = reduce(terms, *args)
        if made and terms is made[-1] and not out[0]:
            zeros.append(terms)
        return out

    monkeypatch.setattr(groebner, "_spair_terms", recording_spair)
    monkeypatch.setattr(groebner, "_normal_form_terms", counting_reduce)
    module_gb_and_syzygies(seq.jacobian_columns(), degrees=(0,) * 4)
    assert len(made) == 21
    assert len(zeros) == 2


def corpus_kernels(ring):
    for fx in FIXTURES:
        yield fx.name, jacobian_analysis(Sequence.parse(ring, fx.f, fx.g)).kernel.gens


@pytest.mark.parametrize("field", FIELDS)
def test_capped_basis_is_the_low_part_of_the_full_basis(field):
    ring = PolyRing(field, 4)
    for name, gens in corpus_kernels(ring):
        full = groebner_basis(gens)
        low = max(g.degree for g in gens)
        for d in range(low, max(b.degree for b in full) + 1):
            assert groebner_basis(gens, up_to=d) == [b for b in full if b.degree <= d], name


def test_cap_below_an_input_degree_is_refused(qq4):
    x0, x1 = qq4.variable(0), qq4.variable(1)
    module = FreeModule(qq4, (0,))
    with pytest.raises(ValueError, match="above up_to"):
        groebner_basis([Vector(module, (x0,)), Vector(module, (x1 * x1,))], up_to=1)


@pytest.mark.parametrize("field", FIELDS)
def test_minimal_generators_unchanged_by_the_cap(monkeypatch, field):
    ring = PolyRing(field, 4)
    kernels = list(corpus_kernels(ring))
    capped = [minimal_generators(gens) for _, gens in kernels]
    monkeypatch.setattr(
        resolution, "groebner_basis", lambda gens, up_to=None: groebner_basis(gens)
    )
    for (name, gens), got in zip(kernels, capped):
        assert got == minimal_generators(gens), name
