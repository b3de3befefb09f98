"""Minimal resolutions, Betti tables, duals, lifting."""

import random

import pytest

from logtangent import resolution
from logtangent.fields import QQ, PrimeField
from logtangent.groebner import _as_vectors, groebner_basis, normal_form, syzygy_basis
from logtangent.hilbert import hilbert_of_ideal_quotient, hilbert_of_quotient
from logtangent.modules import FreeModule, Vector
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.resolution import (
    minimal_generators,
    module_dual,
    resolve_ideal,
    verify_lifting,
)
from logtangent.bourbaki import bourbaki_data
from logtangent.invariants import invariants
from logtangent.fixtures import FIXTURES
from logtangent.poly import monomials_of_degree
from logtangent.sequences import Sequence, jacobian_analysis

from oracles import minimal_generators_by_echelon, resolve_by_groebner


def resolve_pair(ring, f, g):
    kernel = jacobian_analysis(Sequence.parse(ring, f, g)).kernel
    return resolve_by_groebner(kernel.module, kernel.gens)


def ideal_resolution(ring, gens):
    """``resolve_ideal`` of gens, given the Hilbert numerator of R / <gens>."""
    return resolve_ideal(ring, gens, hilbert_of_ideal_quotient(ring, gens).numerator)


def times(v, p):
    """v with every entry multiplied by p, a polynomial or an integer."""
    return Vector(v.module, tuple(q * p for q in v.entries))


def test_free_submodule_has_length_zero(qq4):
    F = FreeModule(qq4, (0, 0))
    res = resolve_by_groebner(F, [F.basis_vector(0), F.basis_vector(1)])
    assert res.length == 0
    assert res.betti().columns == ((0, 0),)


def test_zero_module_resolution_is_empty(qq4):
    F = FreeModule(qq4, (0,))
    res = resolve_by_groebner(F, [])
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
            a, b, a + b, times(b, 2) - a,  # dependent within one degree
            times(a, x0), times(b, x2),  # monomial multiples of lower degree
            F.zero(), c, rand(3), times(a, x2) + c, F.zero(),
            times(c, x0),  # needs the basis of the degree-3 candidates too
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


def assert_same_kept(gens, context):
    got = minimal_generators(gens)
    want = minimal_generators_by_echelon(gens)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want)), context
    return got


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_minimal_generators_match_echelon_oracle_on_corpus(field):
    """The corpus kernels and their first syzygy modules keep the same vectors."""
    ring = PolyRing(field, 4)
    for fx in FIXTURES:
        gens = jacobian_analysis(Sequence.parse(ring, fx.f, fx.g)).kernel.gens
        kept = assert_same_kept(gens, fx.name)
        syz = syzygy_basis(kept, degrees=[v.degree for v in kept])[1]
        assert_same_kept(syz, f"{fx.name}, first syzygies")


def random_candidates(rng, field):
    """A shuffled candidate list that is not a Groebner basis: sparse vectors
    of a few degrees in a module of rank 1 to 3 with mixed twists, plus
    duplicates, scalar multiples, same-degree combinations, monomial
    multiples and zero vectors."""
    ring = PolyRing(field, 3)
    module = FreeModule(ring, [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))])
    low = min(module.twists)

    def sparse(degree):
        monomials = list(monomials_of_degree(3, degree))
        picked = rng.sample(monomials, min(len(monomials), rng.randint(1, 2)))
        return ring.poly((ring.pack(e), field.of(rng.randint(1, 5))) for e in picked)

    def vector(degree):
        return Vector(module, tuple(
            sparse(degree - a) if degree >= a and rng.random() < 0.7 else ring.zero()
            for a in module.twists
        ))

    base = [vector(rng.randint(low, low + 2)) for _ in range(5)]
    base = [v for v in base if not v.is_zero()] or [vector(max(module.twists))]
    cands = list(base)
    for a in rng.choices(base, k=rng.randint(3, 8)):
        kind = rng.randrange(5)
        if kind == 0:
            cands.append(a)
        elif kind == 1:
            cands.append(times(a, rng.randint(2, 5)))
        elif kind == 2:
            b = rng.choice([b for b in base if b.degree == a.degree])
            cands.append(a + times(b, rng.randint(-3, 3)))
        elif kind == 3:
            cands.append(times(a, ring.variable(rng.randrange(3))))
        else:
            cands.append(module.zero())
    rng.shuffle(cands)
    return cands


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(32003)], ids=["QQ", "GF7", "GF32003"]
)
def test_minimal_generators_match_echelon_oracle_on_seeded_candidates(field):
    for seed in range(60):
        cands = random_candidates(random.Random(seed), field)
        assert_same_kept(cands, f"seed {seed}")


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
        res = resolve_by_groebner(F, gens)
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
    # the zero map: every basis vector, in the order of their reduced basis
    assert len(gens) == 2
    assert set(gens) == {dual.basis_vector(0), dual.basis_vector(1)}
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
    wrong = ideal_resolution(qq4, [qq4.parse("x0^3"), qq4.parse("x1^3")])
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
    res = ideal_resolution(qq4, [qq4.parse("x0^2 - x1*x3"), qq4.parse("x2^2")])
    assert res.betti().columns == ((2, 2), (4,))


def test_length_two_is_the_bound(qq4):
    # (x0, x1, x2) is the saturated ideal of a point: pd = 2
    res = ideal_resolution(qq4, [qq4.variable(i) for i in range(3)])
    assert res.length == 2
    # the irrelevant ideal is not saturated and needs length 3, past the bound
    # at which the Betti numbers must match the Hilbert series
    with pytest.raises(ConsistencyError, match="disagree with the Hilbert series"):
        ideal_resolution(qq4, [qq4.variable(i) for i in range(4)])


def test_fabricated_third_syzygy_step_raises(qq4, monkeypatch):
    # an extra basis vector next to the complete intersection's one syzygy:
    # the next step's kernel is empty while the series says it is not
    real = resolution.syzygy_basis

    def with_extra(gens, degrees=None):
        module, syz = real(gens, degrees=degrees)
        return module, syz + [module.basis_vector(0)] if syz else syz

    monkeypatch.setattr(resolution, "syzygy_basis", with_extra)
    with pytest.raises(ConsistencyError, match="disagree with the Hilbert series"):
        ideal_resolution(qq4, [qq4.parse("x0^2 - x1*x3"), qq4.parse("x2^2")])


def counted_syzygy_runs(monkeypatch):
    """The list each ``syzygy_basis`` call of the resolution module appends to."""
    calls = []
    real = resolution.syzygy_basis

    def counting(gens, degrees=None):
        calls.append(len(gens))
        return real(gens, degrees=degrees)

    monkeypatch.setattr(resolution, "syzygy_basis", counting)
    return calls


def fixture_sequence(ring, name):
    fx = next(fx for fx in FIXTURES if fx.name == name)
    return Sequence.parse(ring, fx.f, fx.g)


@pytest.mark.parametrize(
    "name, gpdim",
    [
        ("free-incompressible-m9", 0),
        ("nearly-free-mixed-degrees-e1", 1),
        ("pencil-of-cubics-bour2", 2),
    ],
)
def test_no_syzygy_run_whose_answer_the_series_gives(fp4, monkeypatch, name, gpdim):
    # one run per step past F_0 and none to find the last kernel empty
    seq = fixture_sequence(fp4, name)
    calls = counted_syzygy_runs(monkeypatch)
    report = invariants(seq, with_schemes=False)
    assert (report.gpdim, len(calls)) == (gpdim, gpdim)


def test_bourbaki_data_runs_the_dual_and_one_ideal_step(fp4, monkeypatch):
    seq = fixture_sequence(fp4, "pcubics-pog-not-nf")
    report = invariants(seq, with_schemes=False)
    calls = counted_syzygy_runs(monkeypatch)
    bd = bourbaki_data(seq, report)
    assert bd.ideal_resolution.length == 1
    assert len(calls) == 2
