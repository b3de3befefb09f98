"""Hilbert series, linear Hilbert polynomials, dimension and degree."""

import random
from math import comb

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import _as_vectors, groebner_basis, ideal_groebner
from logtangent.hilbert import (
    _leads,
    dimension_degree,
    hilbert_of_ideal_quotient,
    hilbert_of_quotient,
    linear_hilbert_polynomial,
    quotient_dimension_by_counting,
)
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing, monomials_of_degree
from logtangent.sequences import Sequence, jacobian_analysis
from oracles import leads_by_sorting


def test_free_ring_polynomial(qq4):
    h = hilbert_of_ideal_quotient(qq4, [])
    assert (h.pole_order, h.degree) == (4, 1)
    for t in range(0, 8):
        assert h.function_value(t) == comb(t + 3, 3)


def test_square_of_two_variables(qq4):
    # direct count: monomials with x0,x1-degree <= 1 in degree t, i.e. 3t+1
    gens = [qq4.parse("x0^2"), qq4.parse("x0*x1"), qq4.parse("x1^2")]
    h = hilbert_of_ideal_quotient(qq4, gens)
    assert linear_hilbert_polynomial(h) == (3, 1)
    assert (h.dim_projective, h.degree) == (1, 3)


def test_worked_example_cokernel_m5(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    h = hilbert_of_quotient(seq.jacobian_target(), groebner_basis(seq.jacobian_columns))
    a, b = linear_hilbert_polynomial(h)
    assert a == 5


def test_dimension_degree_of_linear_subspaces(qq4):
    assert dimension_degree(qq4, [qq4.variable(0), qq4.variable(1)]) == (1, 1)
    assert dimension_degree(qq4, [qq4.variable(0)]) == (2, 1)
    assert dimension_degree(qq4, [qq4.one()]) == (-1, 0)


def test_linear_polynomial_rejects_surfaces(qq4):
    h = hilbert_of_ideal_quotient(qq4, [qq4.variable(0)])
    with pytest.raises(ValueError):
        linear_hilbert_polynomial(h)


def test_zero_module_is_flat_zero(qq4):
    h = hilbert_of_ideal_quotient(qq4, [qq4.one()])
    assert h.pole_order == 0 and h.degree == 0
    assert h.reduced_numerator == ()
    assert linear_hilbert_polynomial(h) == (0, 0)


def _polynomial_value(h, t):
    """sum_j c_j * C(t - j + r - 1, r - 1) over the reduced numerator, with
    the binomial read as a polynomial in t of degree r - 1."""
    r = h.pole_order
    total = 0
    for j, c in h.reduced_numerator:
        falling = 1
        for i in range(r - 1):
            falling *= t - j + r - 1 - i
        total += c * falling
    fact = 1
    for i in range(2, r):
        fact *= i
    return total // fact


def _polynomial_start(h):
    top = max((j for j, _ in h.reduced_numerator), default=0)
    return max(top - h.pole_order + 1, 0)


def _assert_closed_form(h):
    """(a, b) read off the reduced numerator is the function from
    max(top - r + 1, 0) on."""
    a, b = linear_hilbert_polynomial(h)
    start = _polynomial_start(h)
    for t in range(start, start + 6):
        assert h.function_value(t) == a * t + b
    return a, b


def test_function_agrees_with_polynomial_beyond_bound(qq4):
    rng = random.Random(314)
    linear = 0
    for _ in range(12):
        gens = [qq4.random_homogeneous(rng.randint(1, 3), rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        h = hilbert_of_ideal_quotient(qq4, gens)
        start = _polynomial_start(h)
        for t in range(start, start + 7):
            assert h.function_value(t) == _polynomial_value(h, t)
        if h.pole_order <= 2:
            _assert_closed_form(h)
            linear += 1
    assert linear


def test_function_agrees_with_direct_monomial_count(qq4):
    rng = random.Random(2718)
    module = FreeModule(qq4, (0,))
    for _ in range(8):
        gens = [qq4.random_homogeneous(rng.randint(1, 3), rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = _as_vectors(qq4, ideal_groebner(qq4, gens))
        h = hilbert_of_quotient(module, gb)
        for t in range(0, 7):
            assert h.function_value(t) == quotient_dimension_by_counting(module, gb, t)


def test_twisted_free_module_series(qq4):
    # F = R(-1) + R(-3): the function is C(t-1+3,3) + C(t-3+3,3)
    module = FreeModule(qq4, (1, 3))
    h = hilbert_of_quotient(module, [])
    for t in range(0, 9):
        expected = comb(t + 2, 3) + comb(t, 3)
        assert h.function_value(t) == expected
    assert h.reduced_numerator == h.numerator == ((1, 1), (3, 1))
    assert (h.pole_order, h.degree) == (4, 2)


def test_degree_equals_reduced_numerator_at_one(qq4):
    rng = random.Random(11)
    for _ in range(10):
        gens = [qq4.random_homogeneous(rng.randint(1, 3), rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        h = hilbert_of_ideal_quotient(qq4, gens)
        if h.pole_order > 0:
            assert h.degree == sum(c for _, c in h.reduced_numerator)
            assert h.degree > 0
            # the (r-1)-th difference of the function settles at the degree
            start = _polynomial_start(h)
            values = [h.function_value(t) for t in range(start, start + h.pole_order)]
            for _ in range(h.pole_order - 1):
                values = [b - a for a, b in zip(values, values[1:])]
            assert values == [h.degree]


def test_cokernel_with_unit_entries(qq4):
    # presentation with a constant row: component with a unit lead contributes nothing
    seq = Sequence.parse(qq4, "x3", "x0^3 + x1^3 + x2^3")
    h = hilbert_of_quotient(seq.jacobian_target(), groebner_basis(seq.jacobian_columns))
    a, _ = linear_hilbert_polynomial(h)
    assert a >= 0


def test_hilbert_of_cokernel_matches_quotient_route(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    direct = hilbert_of_quotient(seq.jacobian_target(), groebner_basis(seq.jacobian_columns))
    assert direct == jacobian_analysis(seq).cokernel_hilbert


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_closed_form_on_corpus_cokernels(field):
    ring = PolyRing(field, 4)
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        h = hilbert_of_quotient(seq.jacobian_target(), groebner_basis(seq.jacobian_columns))
        a, _ = _assert_closed_form(h)
        if fx.m is not None:
            assert a == fx.m, fx.name


def test_closed_form_on_seeded_curve_ideals(fp4):
    rng = random.Random(4242)
    poles = set()
    for _ in range(20):
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        gens = [fp4.random_homogeneous(d, rng) for d in degrees]
        h = hilbert_of_ideal_quotient(fp4, gens)
        a, _ = _assert_closed_form(h)
        poles.add(h.pole_order)
        if len(gens) == 2:
            # a complete intersection curve has degree d1 * d2
            assert (h.pole_order, a) == (2, degrees[0] * degrees[1])
    assert poles == {1, 2}


# _leads is shared by hilbert_of_quotient and the counting cross-check, so
# only a reference outside both can catch a wrong lead.


def unpacked_leads(module, gb):
    """The exponent tuples of the packed monomials _leads returns."""
    return [{module.ring.unpack(m) for m in leads} for leads in _leads(module, gb)]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_leads_of_corpus_image_bases_match_reference(field):
    ring = PolyRing(field, 4)
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        target, gb = seq.jacobian_target(), groebner_basis(seq.jacobian_columns)
        assert unpacked_leads(target, gb) == leads_by_sorting(target, gb), fx.name


def _random_vector(module, degree, rng):
    """A homogeneous vector of the given degree with a few terms per entry
    and some entries zero."""
    ring = module.ring
    entries = []
    for twist in module.twists:
        monos = list(monomials_of_degree(ring.nvars, degree - twist))
        if degree < twist or rng.random() < 0.3:
            entries.append(ring.zero())
            continue
        picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        coeffs = (ring.field.of(rng.randint(1, 9)) for _ in picked)
        entries.append(ring.poly(zip(map(ring.pack, picked), coeffs)))
    return Vector(module, tuple(entries))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_leads_of_mixed_twist_rank_3_modules_match_reference(field):
    ring = PolyRing(field, 4)
    rng = random.Random(4242)
    for _ in range(12):
        module = FreeModule(ring, [rng.randint(-2, 2) for _ in range(3)])
        degree = max(module.twists) + rng.randint(0, 1)
        gens = [_random_vector(module, degree + rng.randint(0, 1), rng) for _ in range(4)]
        for vectors in (gens, groebner_basis(gens)):
            expected = leads_by_sorting(module, vectors)
            assert unpacked_leads(module, vectors) == expected, module.twists
