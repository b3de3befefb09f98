"""The Basis marker: a reduced grevlex basis is taken as it is, and the colon
by the last variable is read off it (Bayer-Stillman) instead of eliminating.
Pinned against the tagged elimination and the syzygy-module reference."""

import copy
import pickle
import random

import pytest

from logtangent import groebner
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    Basis,
    _as_vectors,
    _ideal_module,
    fitting_ideal_0,
    groebner_basis,
    ideal_colon,
    ideal_groebner,
    module_colon,
)
from logtangent.hilbert import (
    dimension_degree,
    hilbert_of_ideal_quotient,
    quotient_dimension_by_counting,
)
from logtangent.modules import Vector
from logtangent.poly import Polynomial, PolyRing
from logtangent.sequences import Sequence
from oracles import annihilator, colon_by_syzygies

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]

# plane curves whose gradient ideals are unsaturated or carry x2 in their leads
PLANE_CURVES = [
    "x1^2*x2 - x0^2*(x0 + x2)",
    "x1^2*x2 - x0^3",
    "x0*x2 - x1^2",
    "x0^4 + x1^4 + x2^4 - 3*x0*x1*x2^2",
    "x2^3*x0 - x1^4 + x0^2*x1*x2",
]


def times_m_squared(ring, gens):
    m = [ring.variable(i) for i in range(ring.nvars)]
    return [p * a * b for p in gens for i, a in enumerate(m) for b in m[i:]]


def refuse_elimination(monkeypatch):
    def refused(*args):
        raise AssertionError("the colon by the last variable ran an elimination")

    monkeypatch.setattr(groebner, "_eliminate", refused)


def check_read_off(monkeypatch, ring, gens):
    """The read-off I : x_{n-1} equals both eliminations; True if a lead moved."""
    x = ring.variable(ring.nvars - 1)
    vectors, target = _as_vectors(ring, gens), Vector(_ideal_module(ring), (x,))
    expected = module_colon(vectors, target)
    reference = ideal_groebner(ring, colon_by_syzygies(vectors, target))
    basis = ideal_groebner(ring, gens)
    with monkeypatch.context() as patch:
        refuse_elimination(patch)
        got = ideal_colon(ring, basis, x)
    assert isinstance(got, Basis) and got.ring == ring
    assert got == expected == reference
    return got is not basis


def corpus_ideals(ring):
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        minors = fitting_ideal_0(seq.gradient_rows)
        ann = annihilator(seq.jacobian_target(), seq.jacobian_columns)
        yield fx.name, minors, ann


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_read_off_colon_matches_elimination(monkeypatch, field):
    ring = PolyRing(field, 4)
    moved = 0
    for k, (name, minors, ann) in enumerate(corpus_ideals(ring)):
        for gens in (minors, ann):
            moved += check_read_off(monkeypatch, ring, gens)
        # I * m^2 is not saturated, so leads carry x3 and the quotient is
        # interreduced; a quarter of the rows keeps the elimination cheap
        if k % 4 == 0:
            for gens in (minors, ann):
                unsaturated = times_m_squared(ring, gens)
                assert check_read_off(monkeypatch, ring, unsaturated), name
                moved += 1
    assert moved >= 12


@pytest.mark.parametrize("field", FIELDS)
def test_plane_read_off_colon_matches_elimination(monkeypatch, field):
    ring = PolyRing(field, 3)
    moved = 0
    for text in PLANE_CURVES:
        g = ring.parse(text)
        grads = [g.partial(i) for i in range(3)]
        for gens in (grads, times_m_squared(ring, grads)):
            moved += check_read_off(monkeypatch, ring, gens)
    assert moved >= len(PLANE_CURVES)


@pytest.mark.parametrize("field", FIELDS)
def test_read_off_reaches_the_unit_ideal(monkeypatch, field):
    ring = PolyRing(field, 3)
    x = [ring.variable(i) for i in range(3)]
    gens = [x[2] ** 2, x[0] * x[1] * x[2]]
    for _ in range(2):
        assert check_read_off(monkeypatch, ring, gens)
        gens = list(ideal_colon(ring, ideal_groebner(ring, gens), x[2]))
    assert gens == [ring.one()]


def count_groebner_runs(monkeypatch):
    runs = []

    def counted(gens, **kwargs):
        runs.append(len(gens))
        return groebner_basis(gens, **kwargs)

    monkeypatch.setattr(groebner, "groebner_basis", counted)
    return runs


def test_a_basis_is_returned_as_it_is(monkeypatch, fp4):
    gens = [fp4.parse("x0*x1 - x2^2"), fp4.parse("x0^3 + x1^2*x3")]
    basis = ideal_groebner(fp4, gens)
    runs = count_groebner_runs(monkeypatch)
    assert ideal_groebner(fp4, basis) is basis
    assert ideal_groebner(PolyRing(PrimeField(32003), 4), basis) is basis
    assert runs == []
    # a plain list equal to a basis is only generators
    again = ideal_groebner(fp4, list(basis))
    assert again == basis and again is not basis and len(runs) == 1
    assert ideal_groebner(fp4, tuple(basis)) == basis and len(runs) == 2


def test_a_basis_of_another_field_is_not_trusted():
    gf7, gf11 = PolyRing(PrimeField(7), 4), PolyRing(PrimeField(11), 4)
    rng = random.Random(5)
    for _ in range(20):
        gens = [gf7.random_homogeneous(2, rng) for _ in range(3)]
        basis = ideal_groebner(gf7, gens)
        # the same terms read over GF(11) need not be a reduced basis there
        moved = [Polynomial(gf11, p.terms) for p in basis]
        if list(ideal_groebner(gf11, moved)) != moved:
            break
    else:
        pytest.fail("no GF(7) basis that is not a GF(11) basis")
    marked = Basis(gf7, moved)
    got = ideal_groebner(gf11, marked)
    assert got is not marked and got == ideal_groebner(gf11, moved) != marked
    x = gf11.variable(3)
    assert ideal_colon(gf11, marked, x) == ideal_colon(gf11, moved, x)


def test_copy_and_pickle_keep_the_ring_and_members(qq4):
    basis = ideal_groebner(qq4, [qq4.parse("x0*x1 - 1/3*x2^2"), qq4.parse("x3^2")])
    twins = copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))
    for twin in twins:
        assert isinstance(twin, Basis) and twin.ring == qq4 and twin == basis


@pytest.mark.parametrize("field", FIELDS)
def test_hilbert_data_of_a_basis_matches_its_generators(field):
    ring = PolyRing(field, 4)
    rng = random.Random(17)
    module = _ideal_module(ring)
    for _, minors, ann in list(corpus_ideals(ring))[::5]:
        for gens in (minors, ann, times_m_squared(ring, minors[:2])):
            basis = ideal_groebner(ring, gens)
            shuffled = [p.scaled(ring.field.of(rng.choice([-3, 2, 5]))) for p in gens]
            rng.shuffle(shuffled)
            h = hilbert_of_ideal_quotient(ring, basis)
            assert h == hilbert_of_ideal_quotient(ring, shuffled)
            assert dimension_degree(ring, basis) == dimension_degree(ring, shuffled)
            vectors = _as_vectors(ring, basis)
            for t in range(8):
                counted = quotient_dimension_by_counting(module, vectors, t)
                assert h.function_value(t) == counted
