"""Invariant reports: values, symmetries, stability, constraint validation."""

import dataclasses
import importlib
import random

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.groebner import fitting_ideal_0
from logtangent.invariants import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    chern_classes,
    invariants,
    stability_class,
    validate_constraints,
)
from logtangent.linalg import matrix_rank
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
)
from oracles import chern_classes_by_fractions, compose_linear


def test_invariants_of_worked_example(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    rep = invariants(seq)
    assert rep.exponents == (1, 2)
    assert (rep.m, rep.e, rep.bour) == (5, 1, 0)
    assert (rep.c1, rep.c2, rep.c3) == (-3, 2, 0)
    assert rep.free and not rep.nearly_free and not rep.compressible
    assert rep.h0 == 0
    assert {rep.fitting_scheme.degree, rep.annihilator_scheme.degree} == {4, 6}
    assert rep.fitting_scheme.dim == 1 and rep.annihilator_scheme.dim == 1
    assert rep.schemes_equal is False


def test_invariants_of_nearly_free_pencil(qq4):
    seq = Sequence.parse(
        qq4, "x0^2*(x1 - x2) + x2^2*(x1 - x0 + x3)", "-x1*x2*x3 + x2^2*x3"
    )
    rep = invariants(seq, with_schemes=False)
    assert (rep.e, rep.m, rep.bour, rep.c3) == (2, 7, 1, 2)
    assert rep.nearly_free and rep.stability == STRICTLY_SEMISTABLE


def test_invariants_of_compressible_pencil(qq4):
    seq = Sequence.parse(qq4, "x0^3 + x1^3 + x0*x1*x3", "x0*x1*x3")
    rep = invariants(seq, with_schemes=False)
    assert rep.compressible and rep.free
    assert rep.m == rep.m0 == 12
    assert rep.exponents == (0, 4)
    assert rep.h0 == 1


def test_dependent_pair_raises(qq4):
    with pytest.raises(DependentSequenceError):
        invariants(Sequence.parse(qq4, "x0^2", "x0^3"))


def _dependence_cases():
    qq, fp = PolyRing(QQ, 4), PolyRing(PrimeField(32003), 4)
    u = qq.parse("3*x0 - x1 + 2*x2 + 5*x3")
    h = qq.parse("x0^2 - 2*x1*x3 + x2^2 + x0*x3")
    yield Sequence.of(u**2, u**3)
    yield Sequence.of(h, h**2)
    yield Sequence.parse(qq, "x0", "x0^3")
    yield Sequence.parse(qq, "x0*x1", "x0*x2^2")  # not normal, not dependent
    for index in range(6):
        f, g = sample_pair(fp, 1, 2, 17, index)
        yield Sequence.of(f, g)
        yield Sequence.of(f, f * 5)


def test_dependence_from_the_cokernel_matches_the_minors():
    dependent = 0
    for seq in _dependence_cases():
        try:
            invariants(seq, with_schemes=False)
            refused = False
        except DependentSequenceError:
            refused = True
        except NonNormalSequenceError:
            refused = False
        dependent_by_minors = not fitting_ideal_0(seq.gradient_rows)
        assert refused == dependent_by_minors, (str(seq.f), str(seq.g))
        dependent += refused
    assert dependent == 9


def test_invariants_never_forms_the_minors(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    rep = invariants(seq, with_schemes=False)
    assert (rep.m, rep.e) == (5, 1)
    assert "minors" not in vars(seq)


def test_non_normal_pair_raises_with_divisor_degree(qq4):
    with pytest.raises(NonNormalSequenceError) as err:
        invariants(Sequence.parse(qq4, "x0*x1", "x0*x2^2"))
    assert err.value.divisor_degree >= 1


def test_exchange_symmetry(qq4):
    a = invariants(Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)"), with_schemes=False)
    b = invariants(Sequence.parse(qq4, "x1*x3*(x0 - x2)", "x0*x1 - x2*x3"), with_schemes=False)
    for name in ("m", "e", "bour", "c3", "exponents", "stability", "gpdim"):
        assert getattr(a, name) == getattr(b, name)


def test_scale_invariance(qq4):
    base = Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)")
    scaled = Sequence.of(base.f * 7, base.g * -3)
    a = invariants(base, with_schemes=False)
    b = invariants(scaled, with_schemes=False)
    for name in ("m", "e", "bour", "c3", "exponents"):
        assert getattr(a, name) == getattr(b, name)


def test_linear_change_of_coordinates_invariance():
    ring = PolyRing(PrimeField(32003), 4)
    K = ring.field
    seq = Sequence.parse(ring, "x0^2*(x1 - x2) + x2^2*(x1 - x0 + x3)", "-x1*x2*x3 + x2^2*x3")
    base = invariants(seq, with_schemes=False)
    rng = random.Random(99)
    changes = 0
    while changes < 3:
        mat = [[K.of(rng.randrange(32003)) for _ in range(4)] for _ in range(4)]
        if matrix_rank(mat, K) < 4:
            continue
        moved = Sequence.of(compose_linear(seq.f, mat), compose_linear(seq.g, mat))
        rep = invariants(moved, with_schemes=False)
        for name in ("m", "e", "exponents", "bour", "c3"):
            assert getattr(rep, name) == getattr(base, name)
        changes += 1


def test_chern_classes_of_generic_pencil_numbers():
    assert chern_classes(2, 2, 0, 32) == (-4, 12, 32)
    assert chern_classes(1, 2, 5, 0) == (-3, 2, 0)


def test_chern_classes_closed_form_matches_additivity():
    for dg in range(6):
        for df in range(dg + 1):
            m0 = df * df + df * dg + dg * dg
            for m in range(m0 + 1):
                for ch3_q in range(-40, 41):
                    got = chern_classes(df, dg, m, ch3_q)
                    assert got == chern_classes_by_fractions(df, dg, m, ch3_q)
                    assert all(type(c) is int for c in got)
                    assert got[1] == m0 - m


def test_stability_rule():
    assert stability_class(3, 4) == STABLE
    assert stability_class(2, 4) == STRICTLY_SEMISTABLE
    assert stability_class(1, 4) == UNSTABLE
    assert stability_class(2, 3) == STABLE
    assert stability_class(1, 3) == UNSTABLE


def test_validator_accepts_fixture(qq4):
    rep = invariants(Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)"), with_schemes=False)
    assert validate_constraints(rep) == []


def test_validator_flags_fabricated_low_degree_violation(qq4):
    rep = invariants(Sequence.parse(qq4, "x0^2 + x3^2", "x0^3 + x0*x1*x2 + x3^3"), with_schemes=False)
    broken = dataclasses.replace(rep, bour=3)
    issues = validate_constraints(broken)
    assert any("in {0,1,2}" in v for v in issues)


def test_validator_flags_m_out_of_range(qq4):
    rep = invariants(Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)"), with_schemes=False)
    broken = dataclasses.replace(rep, m=rep.m0 + 1)
    assert any("outside" in v for v in validate_constraints(broken))


def test_report_slope(qq4):
    rep = invariants(Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)"), with_schemes=False)
    assert str(rep.slope) == "-3/2"


def test_cross_check_failure_raises_consistency_error(qq4, monkeypatch):
    # the package attribute ``invariants`` is the function, so fetch the module
    module = importlib.import_module("logtangent.invariants")
    monkeypatch.setattr(module, "constant_kernel_dimension", lambda seq: 3)
    seq = Sequence.parse(qq4, "x0*x1", "x3*x2*(x0 - x1)")
    with pytest.raises(ConsistencyError, match="constant-kernel dimension 3"):
        module.invariants(seq, with_schemes=False)


@pytest.mark.parametrize("step", [0, 1])
def test_dropped_generator_breaks_the_betti_hilbert_identity(qq4, monkeypatch, step):
    # a resolution of a nearly free pencil that lost a kernel generator
    # (step 0) or its one syzygy (step 1)
    module = importlib.import_module("logtangent.invariants")
    resolution = importlib.import_module("logtangent.resolution")
    minimal = resolution.minimal_generators
    calls = []

    def dropping(gens):
        kept = minimal(gens)
        calls.append(len(kept))
        return kept[:-1] if len(calls) == step + 1 else kept

    seq = Sequence.parse(qq4, "x0^2*(x1 - x2) + x2^2*(x1 - x0 + x3)", "-x1*x2*x3 + x2^2*x3")
    report = module.invariants(seq, with_schemes=False)
    assert report.resolution.betti().columns == ((2, 3, 3), (4,))
    monkeypatch.setattr(resolution, "minimal_generators", dropping)
    with pytest.raises(ConsistencyError, match="Betti numbers"):
        module.invariants(seq, with_schemes=False)
