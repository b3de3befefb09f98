"""Minimal resolutions, Betti tables, duals, lifting."""

import random

import pytest

from logtangent import resolution
from logtangent.fields import QQ, PrimeField
from logtangent.groebner import _as_vectors, groebner_basis, normal_form, syzygy_basis
from logtangent.hilbert import hilbert_of_quotient
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing
from logtangent.resolution import (
    ResolutionLengthError,
    minimal_generators,
    module_dual,
    resolve_ideal,
    resolve_submodule,
    verify_lifting,
)
from logtangent.invariants import invariants
from logtangent.sequences import Sequence, jacobian_analysis


def resolve_pair(ring, f, g):
    kernel = jacobian_analysis(Sequence.parse(ring, f, g)).kernel
    return resolve_submodule(kernel.module, kernel.gens)


def test_free_submodule_has_length_zero(qq4):
    F = FreeModule(qq4, (0, 0))
    res = resolve_submodule(F, [F.basis_vector(0), F.basis_vector(1)])
    assert res.length == 0
    assert res.betti().columns == ((0, 0),)


def test_zero_module_resolution_is_empty(qq4):
    F = FreeModule(qq4, (0,))
    res = resolve_submodule(F, [])
    assert res.modules == [] and res.betti().columns == ()


def test_split_pair_resolution(qq4):
    res = resolve_pair(qq4, "x1*(x2^2 - x1^2)", "x3*x2*(x0 - x1)")
    assert res.betti().columns == ((1, 3),)
    assert res.length == 0


def test_nearly_free_mixed_resolution_shape(qq4):
    res = resolve_pair(qq4, "x0^2 + x3^2", "x0^3 + x0*x1*x2 + x3^3")
    assert res.betti().columns == ((1, 3, 3), (4,))
    assert res.check_complex() and res.is_minimal()


def test_three_generator_pencil_resolution_shape(qq4):
    res = resolve_pair(qq4, "x2*x3*(x0 - x1)", "x0*(x0^2 + x1^2 + x2^2 + x3^2)")
    assert res.betti().columns == ((3, 3, 3), (5,))


def test_longer_resolution_and_pdim(qq4):
    res = resolve_pair(qq4, "x0*x1^2 + x2^3 + x2^2*x3", "x2*x3*(x2 - x1)")
    assert res.length == 2
    assert res.betti().columns == ((3, 3, 3, 3, 3), (4, 4, 4, 4), (5,))
    assert res.check_complex() and res.is_minimal()


def test_minimal_generators_drop_redundant(qq4):
    F = FreeModule(qq4, (0,))
    x0, x1 = qq4.variable(0), qq4.variable(1)
    gens = _as_vectors(qq4, [x0, x1, x0 + x1, x0 * x1])
    assert minimal_generators(gens) == _as_vectors(qq4, [x0, x1])


def reference_minimal_generators(gens):
    """One Groebner basis per kept generator: the plain degree-ascending scan."""
    items = sorted((g for g in gens if not g.is_zero()), key=lambda g: g.degree)
    kept, kept_gb = [], []
    for g in items:
        if kept and normal_form(g, kept_gb).is_zero():
            continue
        kept.append(g)
        kept_gb = groebner_basis(kept)
    return kept


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_minimal_generators_match_per_generator_reference(field):
    ring = PolyRing(field, 4)
    F = FreeModule(ring, (0, 1))
    rng = random.Random(515)

    def rand(degree):
        return Vector(
            F,
            (ring.random_homogeneous(degree, rng), ring.random_homogeneous(degree - 1, rng)),
        )

    for _ in range(4):
        a, b, c = rand(2), rand(2), rand(3)
        x0, x2 = ring.variable(0), ring.variable(2)
        cases = [
            a, b, a + b, b.scaled(field.of(2)) - a,  # dependent within one degree
            a.poly_mul(x0), b.poly_mul(x2),  # monomial multiples of lower degree
            F.zero(), c, rand(3), a.poly_mul(x2) + c, F.zero(),
            c.poly_mul(x0),  # needs the basis of the degree-3 candidates too
        ]
        rng.shuffle(cases)  # not sorted by degree
        got = minimal_generators(cases)
        want = reference_minimal_generators(cases)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    # Jacobian kernel bases and their syzygies, as the resolution passes them on;
    # the first kernel basis has a redundant member
    pairs = [
        ("x2*x3*(x0 - x1)", "x0*(x0^2 + x1^2 + x2^2 + x3^2)"),
        ("x0*x1^2 + x2^3 + x2^2*x3", "x2*x3*(x2 - x1)"),
    ]
    for f, g in pairs:
        gens = jacobian_analysis(Sequence.parse(ring, f, g)).kernel.gens
        while gens:
            got = minimal_generators(gens)
            assert got == reference_minimal_generators(gens)
            gens = syzygy_basis(got, degrees=[v.degree for v in got])[1]


def test_resolution_euler_characteristic_matches_hilbert(qq4):
    # alternating sums of the free modules reproduce the Hilbert function of
    # the resolved submodule, computed independently from a Groebner basis
    rng = random.Random(1234)
    F = FreeModule(qq4, (0, 0))
    for _ in range(6):
        gens = [
            Vector(F, (qq4.random_homogeneous(2, rng), qq4.random_homogeneous(2, rng)))
            for _ in range(2)
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        res = resolve_submodule(F, gens)
        assert res.check_complex() and res.is_minimal()
        gb = groebner_basis(gens)
        h_quotient = hilbert_of_quotient(F, gb)
        h_free = hilbert_of_quotient(F, [])
        for t in range(0, 8):
            module_dim = h_free.function_value(t) - h_quotient.function_value(t)
            alt = 0
            for i, mod in enumerate(res.modules):
                hi = hilbert_of_quotient(mod, [])
                alt += (-1) ** i * hi.function_value(t)
            assert alt == module_dim


def test_module_dual_of_twisted_free(qq4):
    F0 = FreeModule(qq4, (3,))
    dual, gens = module_dual(FreeModule(qq4, ()), F0, [])
    assert dual.twists == (-3,)
    assert gens == [dual.basis_vector(0)]


def test_module_dual_of_torsion_is_zero(qq4):
    F0 = FreeModule(qq4, (0,))
    F1 = FreeModule(qq4, (1,))
    cols = [Vector(F0, (qq4.variable(0),))]
    _, gens = module_dual(F1, F0, cols)
    assert gens == []


def test_dual_of_dual_restores_twists(qq4):
    F0 = FreeModule(qq4, (1, 3))
    empty = FreeModule(qq4, ())
    dual, gens = module_dual(empty, F0, [])
    assert dual.twists == (-1, -3)
    assert gens == [dual.basis_vector(0), dual.basis_vector(1)]
    ddual, dgens = module_dual(empty, dual, [])
    assert sorted(ddual.twists) == sorted(F0.twists)
    assert len(dgens) == 2


def test_dual_of_syzygy_quotient_is_line_bundle(qq4):
    # quotient by the minimal-degree generator: dual free of rank 1, degree e - d
    from logtangent.bourbaki import bourbaki_data

    seq = Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)")
    rep = invariants(seq, with_schemes=False)
    bd = bourbaki_data(seq, rep)
    assert bd is not None
    assert bd.generator_degree == rep.e
    assert bd.degree == 1 and bd.genus == 0


def test_verify_lifting_true_on_fixture(qq4):
    seq = Sequence.parse(qq4, "x2*x3*(x0 - x1)", "x0*(x0^2 + x1^2 + x2^2 + x3^2)")
    rep = invariants(seq, with_schemes=False)
    from logtangent.bourbaki import bourbaki_data

    bd = bourbaki_data(seq, rep)
    assert bd.ideal_resolution.betti().columns == ((2, 2), (4,))
    assert verify_lifting(rep.resolution, bd.ideal_resolution, rep.e, rep.d)


def test_verify_lifting_false_on_shifted_table(qq4):
    seq = Sequence.parse(qq4, "x2*x3*(x0 - x1)", "x0*(x0^2 + x1^2 + x2^2 + x3^2)")
    rep = invariants(seq, with_schemes=False)
    wrong = resolve_ideal(qq4, [qq4.parse("x0^3"), qq4.parse("x1^3")])
    assert not verify_lifting(rep.resolution, wrong, rep.e, rep.d)


def test_verify_lifting_requires_marker(qq4):
    seq = Sequence.parse(qq4, "x2*x3*(x0 - x1)", "x0*(x0^2 + x1^2 + x2^2 + x3^2)")
    rep = invariants(seq, with_schemes=False)
    with pytest.raises(ValueError):
        verify_lifting(rep.resolution, rep.resolution, 99, rep.d)


def test_betti_grid_format(qq4):
    res = resolve_pair(qq4, "x0^2 + x3^2", "x0^3 + x0*x1*x2 + x3^3")
    grid = res.betti().format_grid()
    lines = grid.splitlines()
    assert lines[0].split() == ["0", "1"]
    assert lines[1].split() == ["total:", "3", "1"]
    assert "1:   1   ." in grid
    assert "3:   2   1" in grid


def test_resolution_of_ideal_complete_intersection(qq4):
    res = resolve_ideal(qq4, [qq4.parse("x0^2 - x1*x3"), qq4.parse("x2^2")])
    assert res.betti().columns == ((2, 2), (4,))


def test_length_two_is_the_bound(qq4):
    # (x0, x1, x2) is the saturated ideal of a point: pd = 2
    res = resolve_ideal(qq4, [qq4.variable(i) for i in range(3)])
    assert res.length == 2
    # the irrelevant ideal is not saturated and needs length 3
    with pytest.raises(ResolutionLengthError):
        resolve_ideal(qq4, [qq4.variable(i) for i in range(4)])


def test_fabricated_third_syzygy_step_raises(qq4, monkeypatch):
    real = resolution.syzygy_basis

    def never_ending(gens, degrees=None):
        module, syz = real(gens, degrees=degrees)
        return module, syz or [module.basis_vector(0)]

    monkeypatch.setattr(resolution, "syzygy_basis", never_ending)
    with pytest.raises(ResolutionLengthError):
        resolve_ideal(qq4, [qq4.parse("x0^2 - x1*x3"), qq4.parse("x2^2")])
