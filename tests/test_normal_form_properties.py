"""Property tests of normal forms, canonical coefficients and skipped pairs.

Over QQ, GF(32003) and GF(7), where products of coefficients wrap around the
modulus often: a normal form against a Groebner basis has no term divisible
by a lead, is idempotent and is linear, and every coefficient the arithmetic
and the kernel store is nonzero and already reduced.  Skipping S-pairs by
the Hilbert function, or above a degree cap, changes no basis or syzygy.
"""

from fractions import Fraction

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.groebner import (
    ModuleOrder,
    groebner_basis,
    module_gb_and_syzygies,
    normal_form,
)
from logtangent.modules import FreeModule, Vector
from logtangent.poly import monomial_divides, monomials_of_degree, PolyRing
from oracles import module_key, syzygies_without_skipping

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
FIELDS = (QQ, PrimeField(7), PrimeField(32003))
MODULES = [
    FreeModule(PolyRing(field, 3), twists) for field in FIELDS for twists in ((0,), (0, 1))
]


def coefficients(field):
    """Field values, drawn from integers and fractions that need reducing."""
    if field.characteristic:
        return st.builds(field.of, st.integers(-60, 60), st.sampled_from((1, 2, 3, 5)))
    return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def polynomials(draw, ring, degrees, max_terms=4):
    """A polynomial with up to max_terms terms whose degrees lie in degrees."""
    degrees = [d for d in degrees if d >= 0]
    if not degrees:
        return ring.zero()
    monomial = st.sampled_from(degrees).flatmap(
        lambda d: st.sampled_from(list(monomials_of_degree(ring.nvars, d)))
    )
    items = draw(st.lists(st.tuples(monomial, coefficients(ring.field)), max_size=max_terms))
    return ring.poly((ring.pack(e), c) for e, c in items)


@st.composite
def vectors(draw, module, degrees):
    """A vector whose entry i has degrees d - twist_i for d in degrees."""
    return Vector(
        module,
        tuple(
            draw(polynomials(module.ring, [d - t for d in degrees]))
            for t in module.twists
        ),
    )


@st.composite
def basis_case(draw):
    """A module, a Groebner basis of random homogeneous generators, and two vectors."""
    module = draw(st.sampled_from(MODULES))
    gens = [
        draw(vectors(module, [draw(st.integers(1, 3))]))
        for _ in range(draw(st.integers(1, 3)))
    ]
    u = draw(vectors(module, range(5)))
    v = draw(vectors(module, range(5)))
    a = draw(coefficients(module.ring.field))
    return module, groebner_basis(gens), u, v, a


def canonical(p):
    """Every coefficient is nonzero, of the field's type and fixed by reduce."""
    field = p.ring.field
    kind = type(field.one)
    return all(c and type(c) is kind and field.reduce(c) == c for _, c in p.terms)


def leads(basis, module):
    order = ModuleOrder(module)
    return [
        max(
            ((comp, module.ring.unpack(m)) for comp, p in enumerate(g.entries) for m, _ in p.terms),
            key=lambda t: module_key(order, *t),
        )
        for g in basis
    ]


@SETTINGS
@hypothesis.given(basis_case())
def test_no_term_of_a_normal_form_is_divisible_by_a_lead(case):
    module, basis, u, _, _ = case
    r = normal_form(u, basis)
    lead_positions = leads(basis, module)
    for comp, p in enumerate(r.entries):
        for m, _ in p.terms:
            e = module.ring.unpack(m)
            assert not any(
                lc == comp and monomial_divides(le, e) for lc, le in lead_positions
            )


@SETTINGS
@hypothesis.given(basis_case())
def test_difference_from_the_normal_form_reduces_to_zero(case):
    _, basis, u, _, _ = case
    r = normal_form(u, basis)
    assert normal_form(u - r, basis).is_zero()
    assert normal_form(r, basis) == r


@SETTINGS
@hypothesis.given(basis_case())
def test_normal_form_is_linear(case):
    _, basis, u, v, a = case
    lhs = normal_form(u.scaled(a) + v, basis)
    assert lhs == normal_form(u, basis).scaled(a) + normal_form(v, basis)


@SETTINGS
@hypothesis.given(basis_case(), st.integers(0, 2))
def test_stored_coefficients_are_canonical(case, i):
    _, basis, u, v, _ = case
    results = [g for b in basis for g in b.entries]
    results += normal_form(u, basis).entries
    for p, q in zip(u.entries, v.entries):
        results += [p + q, p - q, p * q, -p, p.partial(i)]
    assert all(canonical(p) for p in results)


@st.composite
def columns(draw):
    """Homogeneous columns, some of them zero, with their degrees."""
    module = draw(st.sampled_from(MODULES))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return [draw(vectors(module, [d])) for d in degrees], degrees


@SETTINGS
@hypothesis.given(columns())
def test_skipped_pairs_change_no_basis_or_syzygy(case):
    gens, degrees = case
    assert module_gb_and_syzygies(gens, degrees) == syzygies_without_skipping(gens, degrees)


@SETTINGS
@hypothesis.given(columns(), st.integers(0, 3))
def test_capped_basis_of_random_columns(case, extra):
    gens, degrees = case
    cap = max(degrees) + extra
    full = groebner_basis(gens)
    assert groebner_basis(gens, up_to=cap) == [b for b in full if b.degree <= cap]
