"""Property tests of normal forms, canonical coefficients and skipped pairs.

Over QQ, GF(32003) and GF(7), where products of coefficients wrap around the
modulus often: a normal form against a Groebner basis has no term divisible
by a lead, is idempotent and is linear, and every coefficient the arithmetic
and the kernel store is nonzero and already reduced.  Terms of a component
in which no reducer leads wait outside the heap, are rescaled with the rest
and are emitted at the end, as the oracle that reduces with field values
finds.  Skipping S-pairs by the Hilbert function, or above a degree cap,
changes no basis or syzygy, and an elimination returns only members led in
its tag block, whose syzygies map to zero.
"""

from fractions import Fraction

import pytest

from logtangent import groebner
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    COMP_MAX,
    ModuleOrder,
    _normal_form_terms,
    _vector_to_terms,
    ReducerIndex,
    groebner_basis,
    module_gb_and_syzygies,
    normal_form,
)
from logtangent.modules import FreeModule, Vector, apply_columns
from logtangent.poly import integer_terms, monomials_of_degree, PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence
from oracles import (
    module_key,
    monomial_divides,
    normal_form_by_fractions,
    syzygies_without_skipping,
    vector_of_terms,
)

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


# Reducers with terms of degree up to 2 in components 0 and 1 and below 2 in
# component 2, so that (as the property assumes) none leads there and the
# terms of component 2 wait.
WAITING_MODULES = [FreeModule(PolyRing(field, 3), (0, 0, 0)) for field in FIELDS]
WAITING = COMP_MAX - 2


@st.composite
def waiting_case(draw):
    """A module, reducers none of which leads in component 2, and a vector
    with terms in every component; over QQ the reducers are rarely monic."""
    module = draw(st.sampled_from(WAITING_MODULES))
    ring = module.ring
    reducers = [
        Vector(module, tuple(draw(polynomials(ring, ds)) for ds in ([1, 2], [2], [0, 1])))
        for _ in range(draw(st.integers(1, 3)))
    ]
    v = Vector(module, tuple(draw(polynomials(ring, range(4), 6)) for _ in range(3)))
    return module, reducers, v


def integer_normal_form(v, reducers):
    """(out, s, d, waits) for the kernel on v's integers over d; waits says
    that no reducer leads in component 2."""
    by_comp = ReducerIndex(v.module, reducers)
    order = by_comp.order
    terms, d = integer_terms(_vector_to_terms(v, order), v.module.ring.field)
    out, s = _normal_form_terms(terms, by_comp, order)
    return out, s, d, WAITING not in by_comp


@SETTINGS
@hypothesis.given(waiting_case())
def test_waiting_terms_leave_scaled_reduced_and_sorted(case):
    module, reducers, v = case
    field = module.ring.field
    out, s, d, waits = integer_normal_form(v, reducers)
    hypothesis.assume(waits)
    keys = [p for p, _ in out]
    assert keys == sorted(set(keys), reverse=True)
    assert all(c and (not field.characteristic or 0 < c < field.characteristic) for _, c in out)
    got = vector_of_terms(module, ModuleOrder(module), [(p, field.of(c, d * s)) for p, c in out])
    assert got == normal_form_by_fractions(v, reducers)


def test_waiting_terms_are_rescaled_with_the_heap():
    module = WAITING_MODULES[0]
    ring, zero = module.ring, module.ring.zero()
    # stored as (6 x0^2 + 3 x1 x2, 0, 2 x2): its lead coefficient is 6
    reducer = Vector(module, (ring.parse("x0^2 + 1/2*x1*x2"), zero, ring.parse("1/3*x2")))
    v = Vector(module, (ring.parse("x0^2"), zero, ring.parse("x1")))
    out, s, d, waits = integer_normal_form(v, [reducer])
    # x1 e2 waited through the rescale by 6 and x2 e2 joined it
    assert waits and (s, d, len(out)) == (6, 1, 3)
    expected = Vector(module, (ring.parse("-1/2*x1*x2"), zero, ring.parse("x1 - 1/3*x2")))
    assert normal_form(v, [reducer]) == expected == normal_form_by_fractions(v, [reducer])


def jacobian_cases():
    """(label, sequence): the corpus rows over QQ and GF(32003), and seeded
    (1, 2) and (2, 2) pairs over GF(32003)."""
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(field, 4)
        for fx in FIXTURES:
            yield f"{fx.name} {field}", Sequence.parse(ring, fx.f, fx.g)
    ring = PolyRing(PrimeField(32003), 4)
    for df, dg in ((1, 2), (2, 2)):
        for index in range(4):
            pair = sample_pair(ring, df, dg, 7, index)
            yield f"({df}, {dg}) #{index}", Sequence.of(*pair)


def test_elimination_returns_tag_led_syzygies_that_map_to_zero(monkeypatch):
    recorded = []
    buchberger = groebner._buchberger_terms

    def recording(inputs, order, *args, **kwargs):
        out = buchberger(inputs, order, *args, **kwargs)
        recorded.append((order, out[0]))
        return out

    monkeypatch.setattr(groebner, "_buchberger_terms", recording)
    for label, seq in jacobian_cases():
        recorded.clear()
        columns = seq.jacobian_columns
        _, syz, _ = module_gb_and_syzygies(columns, seq.source_module().twists)
        ((order, basis),) = recorded
        assert not any(p & order.block_bit for terms, _ in basis for p, _ in terms), label
        assert syz and all(apply_columns(columns, s.entries).is_zero() for s in syz), label
