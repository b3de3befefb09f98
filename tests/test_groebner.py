"""Groebner engine: bases, normal forms, syzygies, colon, saturation, Fitting."""

import random
from operator import add

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.groebner import (
    EXP_MAX,
    ModuleOrder,
    PackingOverflowError,
    _as_vectors,
    _divides,
    groebner_basis,
    ideal_colon,
    ideal_equals,
    ideal_groebner,
    ideal_intersection,
    module_colon,
    normal_form,
    saturate_ideal,
    syzygy_basis,
)
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing, monomials_of_degree
from logtangent.sequences import Sequence
from oracles import (
    annihilator,
    annihilator_by_colons,
    apply_columns,
    fitting_ideal_0,
    grevlex_key,
    ideal_contains,
    module_key,
    monomial_divides,
    spoly_reduces_to_zero,
)


def vecs(ring, polys):
    return _as_vectors(ring, polys)


def test_monomial_ideal_is_its_own_basis(qq4):
    gens = [qq4.variable(0), qq4.variable(1)]
    gb = ideal_groebner(qq4, gens)
    assert list(gb) == [qq4.variable(1), qq4.variable(0)] or list(gb) == gens


def test_spairs_reduce_to_zero_on_twisted_cubic_style_ideal(qq4):
    gens = [qq4.parse("x0^2 - x1*x2"), qq4.parse("x0*x1 - x2^2")]
    gb = ideal_groebner(qq4, gens)
    assert spoly_reduces_to_zero(vecs(qq4, gb))
    # the generators alone are no basis: their S-pair x0*x2^2 - x1^2*x2 is reduced
    assert not spoly_reduces_to_zero(vecs(qq4, gens))
    # the original generators stay in the ideal
    for g in gens:
        assert ideal_contains(qq4, gb, g)


def test_singleton_module_is_groebner(qq4):
    F = FreeModule(qq4, (0, 0))
    v = Vector(F, (qq4.parse("x0^2"), qq4.parse("x1*x2")))
    assert groebner_basis([v]) == [v]


def test_normal_form_membership_and_coprime(qq4):
    gb = vecs(qq4, [qq4.variable(0)])
    F = gb[0].module
    assert normal_form(Vector(F, (qq4.parse("x0^2"),)), gb).is_zero()
    x1 = Vector(F, (qq4.variable(1),))
    assert normal_form(x1, gb) == x1
    # a basis that is not monic reduces the same way
    scaled = [g.scaled(QQ.of(2)) for g in gb]
    assert normal_form(Vector(F, (qq4.parse("x0^2 + x1"),)), scaled) == x1


def test_normal_form_idempotent_on_randoms(qq4):
    rng = random.Random(42)
    gb = vecs(qq4, ideal_groebner(qq4, [qq4.parse("x0^2 - x1*x2"), qq4.parse("x1^3 - x3^3")]))
    F = gb[0].module
    for _ in range(15):
        v = Vector(F, (qq4.random_homogeneous(rng.randint(0, 4), rng),))
        r1 = normal_form(v, gb)
        assert normal_form(r1, gb) == r1


def test_normal_form_rejects_parent_mismatch(qq4):
    gb = vecs(qq4, [qq4.variable(0)])
    other = FreeModule(qq4, (1,))
    with pytest.raises(ValueError):
        normal_form(Vector(other, (qq4.variable(0),)), gb)


def test_normal_form_rejects_a_later_member_from_another_module(qq4):
    x0, x1 = qq4.variable(0), qq4.variable(1)
    other = FreeModule(qq4, (1,))
    basis = vecs(qq4, [x0]) + [Vector(other, (x1,))]
    with pytest.raises(ValueError):
        normal_form(vecs(qq4, [x1])[0], basis)


def test_apply_columns_refuses_a_coefficient_list_of_another_length(qq4):
    columns = vecs(qq4, [qq4.variable(0), qq4.variable(1)])
    # (x1, -x0) is a syzygy; cut to (x1,) it is not, and a longer list is no column
    assert apply_columns(columns, [qq4.variable(1), -qq4.variable(0)]).is_zero()
    for coefficients in ([qq4.variable(1)], [qq4.variable(1), -qq4.variable(0), qq4.one()]):
        with pytest.raises(ValueError):
            apply_columns(columns, coefficients)


def test_koszul_syzygy(qq4):
    module, syz = syzygy_basis(vecs(qq4, [qq4.variable(0), qq4.variable(1)]), degrees=(1, 1))
    assert module.twists == (1, 1)
    assert len(syz) == 1
    entries = syz[0].entries
    assert {str(entries[0]), str(entries[1])} in ({"-x1", "x0"}, {"x1", "-x0"})


def test_syzygies_annihilate_their_generators(qq4):
    rng = random.Random(99)
    for _ in range(10):
        gens = [qq4.random_homogeneous(rng.randint(1, 3), rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        gvecs = vecs(qq4, gens)
        _, syz = syzygy_basis(gvecs, degrees=[g.degree for g in gens])
        for s in syz:
            assert apply_columns(gvecs, s.entries).is_zero()


def test_syzygy_of_single_generator_is_zero(qq4):
    _, syz = syzygy_basis(vecs(qq4, [qq4.parse("x0^2 - x1*x3")]), degrees=(2,))
    assert syz == []


def test_pair_jacobian_syzygy_membership(qq4):
    # the displayed degree-one syzygy (x3, 0, x1, 0) of the worked example
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    columns = seq.jacobian_columns
    source = seq.source_module()
    _, kernel = syzygy_basis(columns, degrees=source.twists)
    v = Vector(source, (qq4.variable(3), qq4.zero(), qq4.variable(1), qq4.zero()))
    assert normal_form(v, groebner_basis(kernel)).is_zero()
    degrees = sorted(g.degree for g in kernel)
    assert degrees[0] == 1


def test_kernel_of_identity_is_zero(qq4):
    F = FreeModule(qq4, (0, 0))
    assert syzygy_basis([F.basis_vector(0), F.basis_vector(1)], degrees=F.twists) == (F, [])


def test_kernel_of_zero_map_is_everything(qq4):
    F = FreeModule(qq4, (0, 0, 0))
    module, ker = syzygy_basis([F.zero(), F.zero(), F.zero()], degrees=F.twists)
    assert module == F
    # the basis vectors, in the order of their reduced basis
    assert len(ker) == 3
    assert set(ker) == {F.basis_vector(i) for i in range(3)}


def test_kernel_detects_unused_variable(qq4):
    seq = Sequence.parse(qq4, "x0*(x1 - x2)", "x0^3 + x1^3 + x2^3")
    source = seq.source_module()
    _, kernel = syzygy_basis(seq.jacobian_columns, degrees=source.twists)
    assert normal_form(source.basis_vector(3), groebner_basis(kernel)).is_zero()


def test_kernel_rejects_inhomogeneous_matrix(qq4):
    F = FreeModule(qq4, (0, 0))
    target = FreeModule(qq4, (0,))
    cols = [
        Vector(target, (qq4.variable(0),)),
        Vector(target, (qq4.parse("x1^2"),)),  # degree 2 against source twist 0... fine
    ]
    with pytest.raises(ValueError):
        syzygy_basis(cols, degrees=(1, 1))


def test_ideal_colon_examples(qq4):
    assert ideal_equals(
        qq4, ideal_colon(qq4, [qq4.parse("x0^2")], qq4.variable(0)), [qq4.variable(0)]
    )
    got = ideal_colon(qq4, [qq4.parse("x0*x1")], qq4.variable(2))
    assert ideal_equals(qq4, got, [qq4.parse("x0*x1")])
    with pytest.raises(ValueError):
        ideal_colon(qq4, [qq4.variable(0)], qq4.zero())


def test_annihilator_of_cyclic_module(qq4):
    F = FreeModule(qq4, (0,))
    f = qq4.parse("x0^3 - x1*x2*x3")
    ann = annihilator(F, [Vector(F, (f,))])
    assert ideal_equals(qq4, ann, [f])
    assert ann == annihilator_by_colons(F, [Vector(F, (f,))])


def test_annihilator_of_zero_module_is_unit_ideal(qq4):
    ann = annihilator(FreeModule(qq4, ()), [])
    assert list(ann) == [qq4.one()]
    assert ann == annihilator_by_colons(FreeModule(qq4, ()), [])


def test_fitting_ideal_of_empty_matrix_is_unit_ideal():
    assert fitting_ideal_0([]) == [1]


def test_module_colon_by_basis_vector(qq4):
    F = FreeModule(qq4, (0, 0))
    gens = [
        Vector(F, (qq4.parse("x0"), qq4.zero())),
        Vector(F, (qq4.zero(), qq4.parse("x1"))),
    ]
    colon = module_colon(gens, F.basis_vector(0))
    assert ideal_equals(qq4, colon, [qq4.variable(0)])


def test_saturation_strips_irrelevant_factor(qq4):
    gens = [qq4.parse(t) for t in ("x0^2", "x0*x1", "x0*x2", "x0*x3")]
    sat = saturate_ideal(qq4, gens)
    assert ideal_equals(qq4, sat, [qq4.variable(0)])


def test_saturation_is_idempotent(qq4):
    gens = [qq4.parse("x0^2 - x1*x2"), qq4.parse("x2^3")]
    once = saturate_ideal(qq4, gens)
    assert saturate_ideal(qq4, once) == once


def test_saturated_annihilator_of_worked_example(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    ann = annihilator(seq.jacobian_target(), seq.jacobian_columns)
    sat = saturate_ideal(qq4, ann)
    expected = [qq4.parse(s) for s in ("x3^2", "x1*x3", "x0*x1^2 - x1^3")]
    assert ideal_equals(qq4, sat, expected)


def test_fitting_ideal_of_diagonal(qq4):
    m = [
        [qq4.variable(0), qq4.zero()],
        [qq4.zero(), qq4.variable(1)],
    ]
    fitt = fitting_ideal_0([[m[i][j] for j in range(2)] for i in range(2)])
    assert ideal_equals(qq4, fitt, [qq4.parse("x0*x1")])


def test_fitting_ideal_with_unit_row_is_whole_ring(qq4):
    m = [
        [qq4.one(), qq4.zero(), qq4.zero(), qq4.zero()],
        [qq4.zero(), qq4.one(), qq4.variable(2), qq4.variable(3)],
    ]
    fitt = fitting_ideal_0(m)
    assert ideal_contains(qq4, ideal_groebner(qq4, fitt), qq4.one())


def test_fitting_ideal_requires_wide_matrix(qq4):
    with pytest.raises(ValueError):
        fitting_ideal_0([[qq4.variable(0)], [qq4.variable(1)], [qq4.variable(2)]])


def test_fitting_saturation_of_worked_example(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    fitt = fitting_ideal_0(seq.gradient_rows)
    sat = saturate_ideal(qq4, fitt)
    expected = [
        qq4.parse(s)
        for s in (
            "x3^3",
            "x1*x3^2",
            "x1^2*x3",
            "x0*x1^2 - x1^3 - 2*x1*x2*x3 + 2*x2*x3^2",
        )
    ]
    assert ideal_equals(qq4, sat, expected)


def test_fitting_contained_in_annihilator_on_fixture(qq4):
    seq = Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)")
    fitt = fitting_ideal_0(seq.gradient_rows)
    ann = ideal_groebner(
        qq4, annihilator(seq.jacobian_target(), seq.jacobian_columns)
    )
    for p in fitt:
        assert ideal_contains(qq4, ann, p)


def test_ideal_intersection(qq4):
    inter = ideal_intersection(qq4, [qq4.variable(0)], [qq4.variable(1)])
    assert ideal_equals(qq4, inter, [qq4.parse("x0*x1")])


def test_groebner_bases_are_deterministic(fp4):
    rng1, rng2 = random.Random(3), random.Random(3)
    gens1 = [fp4.random_homogeneous(2, rng1) for _ in range(3)]
    gens2 = [fp4.random_homogeneous(2, rng2) for _ in range(3)]
    assert ideal_groebner(fp4, gens1) == ideal_groebner(fp4, gens2)


def test_submodule_equality_via_bases(qq4):
    a = vecs(qq4, [qq4.parse("x0"), qq4.parse("x0 + x1")])
    b = vecs(qq4, [qq4.parse("x1"), qq4.parse("x0 - 2*x1")])
    assert groebner_basis(a) == groebner_basis(b)


def test_packed_order_agrees_with_key(qq4):
    # negative twists, and an elimination split as in module_gb_and_syzygies
    rng = random.Random(2024)
    module = FreeModule(qq4, (-3, 0, 2, -1, 5))
    for split in (None, 2):
        order = ModuleOrder(module, split)
        terms = [
            (rng.randrange(module.rank), tuple(rng.randint(0, 6) for _ in range(4)))
            for _ in range(300)
        ]
        for (c1, e1), (c2, e2) in zip(terms, terms[1:] + terms[:1]):
            p1, p2 = order.pack(c1, qq4.pack(e1)), order.pack(c2, qq4.pack(e2))
            comp, m = order.unpack(p1)
            assert (comp, qq4.unpack(m)) == (c1, e1)
            k1, k2 = module_key(order, c1, e1), module_key(order, c2, e2)
            assert (p1 < p2, p1 == p2) == (k1 < k2, k1 == k2)
            if c1 == c2:
                assert (p1 < p2) == (grevlex_key(e1) < grevlex_key(e2))
            assert _divides(p1, p2, order) == (c1 == c2 and monomial_divides(e1, e2))
            # multiplying by a monomial is adding one integer to any term
            u = tuple(rng.randint(0, 3) for _ in range(4))
            e1u, e2u = (tuple(map(add, e, u)) for e in (e1, e2))
            shift = order.pack(c1, qq4.pack(e1u)) - p1
            assert p2 + shift == order.pack(c2, qq4.pack(e2u))


def test_packing_overflow_is_refused(qq4):
    with pytest.raises(PackingOverflowError):
        ideal_groebner(qq4, [qq4.variable(0) ** (EXP_MAX + 1)])
    # both inputs fit; the lcm of their leads, x0^a*x1^a, does not
    a = EXP_MAX - 1
    x0, x1 = qq4.variable(0), qq4.variable(1)
    with pytest.raises(PackingOverflowError, match="packed degree bound"):
        ideal_groebner(qq4, [x0**a * x1, x0 * x1**a])


def test_coprime_pair_past_the_degree_bound_is_pruned_unpacked(qq4):
    # the lcm x0^200*x1^200 does not pack, but the coprime criterion drops
    # the pair before its S-polynomial is formed
    gens = [qq4.variable(0) ** 200, qq4.variable(1) ** 200]
    assert list(ideal_groebner(qq4, gens)) == sorted(gens, key=lambda p: p.terms[0][0])


def _from_sympy(ring, poly):
    p = ring.field.characteristic
    items = []
    for exps, c in poly.terms():
        if p:
            items.append((ring.pack(exps), int(c) % p))
        else:
            items.append((ring.pack(exps), ring.field.of(int(c.p), int(c.q))))
    q = ring.poly(items)
    return q.scaled(ring.field.inv(q.terms[0][1]))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_reduced_bases_match_sympy(field):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(field, 4)
    xs = sympy.symbols("x0:4")
    rng = random.Random(77)
    ideals = [
        [ring.random_homogeneous(rng.randint(2, 3), rng) for _ in range(3)]
        for _ in range(10)
    ]
    # the Jacobian minors of a dense cubic pencil, where integer scales grow most
    rng = random.Random(1)
    cubic = list(monomials_of_degree(4, 3))
    f, g = (
        ring.poly((ring.pack(e), field.of(rng.randint(-5, 5))) for e in cubic)
        for _ in range(2)
    )
    ideals.append(fitting_ideal_0(Sequence(f, g).gradient_rows))
    for gens in ideals:
        gens = [g for g in gens if not g.is_zero()]
        ours = ideal_groebner(ring, gens)
        options = {"modulus": field.p} if field.characteristic else {}
        theirs = sympy.groebner(
            [sympy.sympify(str(g)) for g in gens], *xs, order="grevlex", **options
        )
        expected = [_from_sympy(ring, sympy.Poly(q, *xs)) for q in theirs.exprs]
        assert sorted(map(str, ours)) == sorted(map(str, expected))
