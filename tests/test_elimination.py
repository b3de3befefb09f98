"""Colon ideals and intersections by one tagged elimination, against the
references that read them off a full syzygy module; the Vectors an
elimination builds; and the refusal of inhomogeneous generators."""

import random

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    _Packed,
    _as_vectors,
    _ideal_module,
    fitting_ideal_0,
    ideal_colon,
    ideal_groebner,
    ideal_intersection,
    module_colon,
    module_gb_and_syzygies,
    syzygy_basis,
)
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing
from logtangent.sequences import Sequence
from oracles import colon_by_syzygies, intersection_by_syzygies

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def check_ideal_colon(ring, gens, h):
    got = ideal_colon(ring, gens, h)
    expected = colon_by_syzygies(_as_vectors(ring, gens), Vector(_ideal_module(ring), (h,)))
    assert ideal_groebner(ring, got) == ideal_groebner(ring, expected)


def check_intersection(ring, a, b):
    got = ideal_intersection(ring, a, b)
    # the tag parts of a reduced elimination basis are already reduced
    assert got == ideal_groebner(ring, intersection_by_syzygies(ring, a, b))


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_colons_and_intersections_match_reference(field):
    ring = PolyRing(field, 4)
    m = [ring.variable(i) for i in range(4)]
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        minors = fitting_ideal_0(seq.gradient_rows)
        for x in m:
            check_ideal_colon(ring, minors, x)
        check_intersection(ring, minors, m[1:])
        # the annihilator's inputs: rank-2 colons of the columns, twisted by -df, -dg
        target = seq.jacobian_target()
        columns = [c for c in seq.jacobian_columns if not c.is_zero()]
        colons = []
        for i in range(target.rank):
            e = target.basis_vector(i)
            got = module_colon(columns, e)
            expected = colon_by_syzygies(columns, e)
            assert ideal_groebner(ring, got) == ideal_groebner(ring, expected), fx.name
            colons.append(got)
        check_intersection(ring, *colons)
        check_intersection(ring, minors, colons[0])


@pytest.mark.parametrize("field", FIELDS)
def test_eliminations_build_a_vector_only_per_returned_member(monkeypatch, field):
    # the members led in the target block, a basis of the image, are dropped
    # before interreduction, so none of them is ever made a Vector: each
    # Vector the kernel returns is made in engine form, by _Packed
    built = []
    init = _Packed.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def members(run):
        built.clear()
        out = run()
        assert out and len(built) == len(out)
        return out

    monkeypatch.setattr(_Packed, "__init__", counting)
    ring = PolyRing(field, 4)
    (fx,) = [fx for fx in FIXTURES if fx.name == "schematic-difference"]
    assert fx.m > 0
    seq = Sequence.parse(ring, fx.f, fx.g)
    columns = [c for c in seq.jacobian_columns if not c.is_zero()]
    members(lambda: syzygy_basis(columns, degrees=[c.degree for c in columns])[1])
    target = seq.jacobian_target()
    colons = [
        members(lambda: module_colon(columns, target.basis_vector(i)))
        for i in range(target.rank)
    ]
    # the two colons are equal, and intersect with no elimination; the
    # Fitting ideal's basis differs from them, so that intersection eliminates
    fitting = ideal_groebner(ring, fitting_ideal_0(seq.gradient_rows))
    assert colons[0] == colons[1] != fitting
    members(lambda: ideal_intersection(ring, colons[0], fitting))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("nvars", [3, 4])
def test_random_colons_and_intersections_match_reference(field, nvars):
    ring = PolyRing(field, nvars)
    rng = random.Random(100 * nvars + 11)
    m = [ring.variable(i) for i in range(nvars)]
    for _ in range(4):
        a, b = (
            [ring.random_homogeneous(rng.randint(1, 3), rng) for _ in range(rng.randint(1, nvars))]
            for _ in range(2)
        )
        for h in m + [ring.random_homogeneous(rng.randint(1, 2), rng)]:
            check_ideal_colon(ring, [p * m[0] for p in a], h)
            check_ideal_colon(ring, a, h)
        check_intersection(ring, a, b)
        check_intersection(ring, a, m[1:])


# each call gets bad = x0^2 + x1 among its generators, or as what it divides by
INHOMOGENEOUS_CALLS = {
    "ideal_intersection_left": lambda r, bad, x: ideal_intersection(r, [bad], [x]),
    "ideal_intersection_right": lambda r, bad, x: ideal_intersection(r, [x], [bad]),
    "ideal_colon_gens": lambda r, bad, x: ideal_colon(r, [bad], x),
    "ideal_colon_by": lambda r, bad, x: ideal_colon(r, [x], bad),
    "module_colon_gens": lambda r, bad, x: module_colon(
        [Vector(FreeModule(r, (0, 1)), (bad, x))], FreeModule(r, (0, 1)).basis_vector(0)
    ),
    "module_colon_by": lambda r, bad, x: module_colon(_as_vectors(r, [x]), _as_vectors(r, [bad])[0]),
    "module_gb_and_syzygies_degrees": lambda r, bad, x: module_gb_and_syzygies(
        _as_vectors(r, [x]), degrees=[2]
    ),
}


@pytest.mark.parametrize("name", sorted(INHOMOGENEOUS_CALLS))
def test_inhomogeneous_generator_is_refused(qq4, name):
    with pytest.raises(ValueError):
        INHOMOGENEOUS_CALLS[name](qq4, qq4.parse("x0^2 + x1"), qq4.variable(2))
