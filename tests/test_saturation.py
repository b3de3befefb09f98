"""Saturation by colon chains against the capped fixpoint reference."""

import random

import pytest

from logtangent import groebner
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    fitting_ideal_0,
    ideal_groebner,
    ideal_intersection,
    saturate_ideal,
)
from logtangent.poly import PolyRing
from logtangent.sequences import Sequence
from oracles import annihilator, saturate_by_rounds

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def unsaturated_variants(ring, gens):
    """I, I * m^2, I * (x0 * x_last) and I intersected with (x1, ..., x_last)."""
    m = [ring.variable(i) for i in range(ring.nvars)]
    squares = [a * b for i, a in enumerate(m) for b in m[i:]]
    corner = m[0] * m[-1]
    return [
        gens,
        [p * q for p in gens for q in squares],
        [p * corner for p in gens],
        ideal_intersection(ring, gens, m[1:]),
    ]


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_minors_and_annihilators_match_reference(field):
    ring = PolyRing(field, 4)
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        minors = fitting_ideal_0(seq.gradient_rows)
        ann = annihilator(seq.jacobian_target(), seq.jacobian_columns)
        for gens in (minors, ann):
            assert saturate_ideal(ring, gens) == saturate_by_rounds(ring, gens), fx.name


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("nvars", [3, 4])
def test_random_and_unsaturated_ideals_match_reference(field, nvars):
    ring = PolyRing(field, nvars)
    rng = random.Random(1000 * nvars + 7)
    moved = 0
    for _ in range(4):
        gens = [
            ring.random_homogeneous(rng.randint(1, 2), rng)
            for _ in range(rng.randint(1, nvars))
        ]
        for ideal in unsaturated_variants(ring, gens):
            sat = saturate_ideal(ring, ideal)
            assert sat == saturate_by_rounds(ring, ideal)
            moved += sat != ideal_groebner(ring, ideal)
    # a product with m^2 is never saturated, so at least those chains move
    assert moved >= 4


def count_calls(monkeypatch, names):
    """Wrap the named groebner functions; returns their live call counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(groebner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(groebner, name, counted(name))
    return calls


def test_saturated_ideal_costs_one_colon(monkeypatch, qq4):
    calls = count_calls(
        monkeypatch, ["ideal_colon", "module_colon", "ideal_intersection"]
    )
    # no generator involves x3, so x3 is a nonzerodivisor on R/I, and its
    # chain, walked first, is read off the basis without an elimination
    gens = [qq4.parse("x0*x1 - x2^2"), qq4.parse("x0^3 + x1^2*x2")]
    assert saturate_ideal(qq4, gens) == ideal_groebner(qq4, gens)
    assert calls == {"ideal_colon": 1, "module_colon": 0, "ideal_intersection": 0}


def test_saturation_computes_one_basis(monkeypatch, qq4):
    # a complete intersection is saturated, and its product with m^2 is not
    gens = [qq4.parse("x1*x2 - x3^2"), qq4.parse("x1^3 + x2^2*x3")]
    m = [qq4.variable(i) for i in range(4)]
    ideal = [p * a * b for p in gens for i, a in enumerate(m) for b in m[i:]]
    expected = ideal_groebner(qq4, gens)
    calls = count_calls(monkeypatch, ["groebner_basis", "ideal_colon"])
    assert saturate_ideal(qq4, ideal) == expected
    # every chain moved before it stopped: at least two colons per variable
    assert calls["ideal_colon"] >= 2 * qq4.nvars
    # the input's basis; every colon and intersection reads its Basis inputs as they are
    assert calls["groebner_basis"] == 1
