"""Hilbert series, polynomials, dimension and degree."""

import random
from fractions import Fraction
from math import comb

import pytest

from logtangent.groebner import _as_vectors, groebner_basis, ideal_groebner
from logtangent.hilbert import (
    ConsistencyError,
    HilbertData,
    dimension_degree,
    hilbert_of_ideal_quotient,
    hilbert_of_quotient,
    linear_hilbert_polynomial,
    quotient_dimension_by_counting,
)
from logtangent.modules import FreeModule
from logtangent.sequences import Sequence, jacobian_analysis


def test_free_ring_polynomial(qq4):
    h = hilbert_of_ideal_quotient(qq4, [])
    assert h.pole_order == 4
    for t in range(0, 8):
        assert h.polynomial_value(t) == comb(t + 3, 3)


def test_square_of_two_variables(qq4):
    # direct count: monomials with x0,x1-degree <= 1 in degree t, i.e. 3t+1
    gens = [qq4.parse("x0^2"), qq4.parse("x0*x1"), qq4.parse("x1^2")]
    h = hilbert_of_ideal_quotient(qq4, gens)
    assert linear_hilbert_polynomial(h) == (3, 1)
    assert (h.dim_projective, h.degree) == (1, 3)


def test_worked_example_cokernel_m5(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    analysis = jacobian_analysis(seq)
    h = hilbert_of_quotient(analysis.target, analysis.image_gb)
    a, b = linear_hilbert_polynomial(h)
    assert a == 5


def test_dimension_degree_of_linear_subspaces(qq4):
    assert dimension_degree(qq4, [qq4.variable(0), qq4.variable(1)]) == (1, 1)
    assert dimension_degree(qq4, [qq4.variable(0)]) == (2, 1)
    assert dimension_degree(qq4, [qq4.one()]) == (-1, 0)


def test_non_integral_hilbert_polynomial_raises():
    half = Fraction(1, 2)
    h = HilbertData(4, (), (), 2, (half, half), 1)
    with pytest.raises(ConsistencyError):
        linear_hilbert_polynomial(h)


def test_linear_polynomial_rejects_surfaces(qq4):
    h = hilbert_of_ideal_quotient(qq4, [qq4.variable(0)])
    with pytest.raises(ValueError):
        linear_hilbert_polynomial(h)


def test_zero_module_is_flat_zero(qq4):
    h = hilbert_of_ideal_quotient(qq4, [qq4.one()])
    assert h.pole_order == 0 and h.degree == 0
    assert h.polynomial == ()
    assert linear_hilbert_polynomial(h) == (0, 0)


def test_function_agrees_with_polynomial_beyond_bound(qq4):
    rng = random.Random(314)
    for _ in range(12):
        gens = [qq4.random_homogeneous(rng.randint(1, 3), rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        h = hilbert_of_ideal_quotient(qq4, gens)
        start = h.function_matches_polynomial_from()
        for t in range(start, start + 7):
            assert h.function_value(t) == h.polynomial_value(t)


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
        if t >= 1:
            assert h.polynomial_value(t) == expected


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
            lead = h.polynomial[-1]
            fact = 1
            for i in range(1, h.pole_order):
                fact *= i
            assert lead == Fraction(h.degree, fact)


def test_cokernel_with_unit_entries(qq4):
    # presentation with a constant row: component with a unit lead contributes nothing
    seq = Sequence.parse(qq4, "x3", "x0^3 + x1^3 + x2^3")
    analysis = jacobian_analysis(seq)
    h = hilbert_of_quotient(analysis.target, analysis.image_gb)
    a, _ = linear_hilbert_polynomial(h)
    assert a >= 0


def test_hilbert_of_cokernel_matches_quotient_route(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    analysis = jacobian_analysis(seq)
    direct = hilbert_of_quotient(analysis.target, groebner_basis(analysis.columns))
    via_image = hilbert_of_quotient(analysis.target, analysis.image_gb)
    assert direct == via_image
