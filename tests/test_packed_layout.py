"""Property tests of the packed monomial layout against tuple references."""

from fractions import Fraction

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.groebner import COMP_BITS, ModuleOrder, _divides, _lcm_fields
from logtangent.modules import FreeModule
from logtangent.poly import EXP_MAX, PolyRing
from oracles import grevlex_key, monomial_divides, packed_lcm

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
FIELDS = (QQ, PrimeField(3), PrimeField(32003))
RINGS = {(field, n): PolyRing(field, n) for field in FIELDS for n in (3, 4)}


@st.composite
def exponents(draw, nvars, max_degree=EXP_MAX):
    """An exponent tuple of total degree at most max_degree."""
    degree = draw(st.integers(0, max_degree))
    cuts = draw(st.lists(st.integers(0, degree), min_size=nvars - 1, max_size=nvars - 1))
    cuts.sort()
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


nvars = st.sampled_from((3, 4))


@st.composite
def monomial_pair(draw):
    """Two exponent tuples in one variable count whose product still packs."""
    n = draw(nvars)
    a = draw(exponents(n))
    b = draw(exponents(n, EXP_MAX - sum(a)))
    return n, a, b


@st.composite
def polynomials(draw):
    ring = draw(st.sampled_from(list(RINGS.values())))
    field, n = ring.field, ring.nvars
    if field.characteristic:
        coeff = st.integers(1, field.p - 1).map(field.of)
    else:
        coeff = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
    items = draw(st.lists(st.tuples(exponents(n, 40), coeff), max_size=8))
    return ring.poly((ring.pack(e), c) for e, c in items)


@SETTINGS
@hypothesis.given(monomial_pair())
def test_unpack_inverts_pack_and_order_is_grevlex(case):
    n, a, b = case
    ring = RINGS[QQ, n]
    pa, pb = ring.pack(a), ring.pack(b)
    assert ring.unpack(pa) == a and ring.unpack(pb) == b
    assert (pa < pb, pa == pb) == (grevlex_key(a) < grevlex_key(b), a == b)


@SETTINGS
@hypothesis.given(monomial_pair())
def test_product_is_one_addition(case):
    n, a, b = case
    ring = RINGS[QQ, n]
    product = tuple(x + y for x, y in zip(a, b))
    assert ring.pack(a) + ring.pack(b) - ring.unit == ring.pack(product)


@SETTINGS
@hypothesis.given(monomial_pair(), st.booleans())
def test_guard_bit_divisibility_agrees_with_tuples(case, multiple):
    n, a, b = case
    if multiple:
        b = tuple(x + y for x, y in zip(a, b))
    ring = RINGS[QQ, n]
    order = ModuleOrder(FreeModule(ring, (0,)))
    pa, pb = order.pack(0, ring.pack(a)), order.pack(0, ring.pack(b))
    assert _divides(pa, pb, order) == monomial_divides(a, b)
    assert _divides(pa, pb, order) or not multiple


@st.composite
def monomial_triple(draw):
    """Three exponent tuples in one variable count from 1 to 4, each of
    which packs, so their lcms may not."""
    n = draw(st.integers(1, 4))
    return n, draw(exponents(n)), draw(exponents(n)), draw(exponents(n))


@SETTINGS
@hypothesis.example((2, (EXP_MAX, 0), (0, EXP_MAX), (EXP_MAX, 0)))
@hypothesis.example((4, (EXP_MAX, 0, 0, 0), (0, 0, 0, EXP_MAX), (0, 1, 1, 0)))
@hypothesis.given(monomial_triple())
def test_ring_divides_and_lcm_agree_with_tuples(case):
    n, a, b, c = case
    ring = PolyRing(QQ, n)
    pa, pb, pc = map(ring.pack, (a, b, c))
    assert ring.divides(pa, pb) == monomial_divides(a, b)
    ab = tuple(map(max, a, b))
    abc = tuple(map(max, ab, c))
    l_ab = packed_lcm(ring, pa, pb)
    assert l_ab == packed_lcm(ring, pb, pa)
    assert ring.divides(l_ab, pc) == monomial_divides(ab, c)
    # the fields and the degree are right at any degree, an lcm's lcm too
    l_abc = packed_lcm(ring, l_ab, pc)
    for l, e in ((l_ab, ab), (l_abc, abc)):
        assert ring.unpack(l) == e and l >> ring.deg_shift == sum(e)
        assert all(ring.divides(p, l) for p in (pa, pb))
        if sum(e) <= EXP_MAX:
            assert l == ring.pack(e)
    # the driver's lcm on the exponent fields of packed terms is the same
    guards = ModuleOrder(FreeModule(ring, (0,))).guards
    fields = lambda m: (m & ring.exp_mask) << COMP_BITS
    assert _lcm_fields(fields(pa), fields(pb), guards) == fields(l_ab)
    assert _lcm_fields(fields(pb), fields(pa), guards) == fields(l_ab)
    assert _lcm_fields(fields(l_ab), fields(pc), guards) == fields(l_abc)


@SETTINGS
@hypothesis.given(polynomials(), st.integers(0, 3))
def test_partial_stays_strictly_descending(p, i):
    ring = p.ring
    i %= ring.nvars
    d = p.partial(i)
    keys = [m for m, _ in d.terms]
    assert keys == sorted(set(keys), reverse=True)
    expected = {}
    for m, c in p.terms:
        e = ring.unpack(m)
        if e[i] and ring.field.reduce(c * e[i]):
            lowered = e[:i] + (e[i] - 1,) + e[i + 1 :]
            expected[lowered] = ring.field.reduce(c * e[i])
    assert {ring.unpack(m): c for m, c in d.terms} == expected


@SETTINGS
@hypothesis.given(polynomials())
def test_printer_parser_round_trip(p):
    assert p.ring.parse(str(p)) == p
