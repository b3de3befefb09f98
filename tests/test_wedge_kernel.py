"""The m = 0 kernel from the wedge syzygies, against the elimination.

When the Jacobian cokernel has pole order at most 1 (m = 0), the ideal of
2x2 minors has grade 3, the Buchsbaum-Rim complex is exact, and
``jacobian_analysis`` takes the kernel K from the reduced basis of the four
wedge syzygies instead of the elimination, which runs only when the
plane-section certificate of m = 0 fails.  The elimination stays the
oracle: its syzygies, minimalized, must be the same vectors in the same
order, and both must resolve to the same complex.

When df, dg >= 1 the complex also gives the two relations of the wedges,
which ``jacobian_analysis`` rewrites in the kernel's basis and the
resolution seeds into its syzygy step.  They must annihilate the basis
exactly and leave the step's syzygies as they are without them.
"""

import pytest

import logtangent.sequences as sequences
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import groebner_basis, module_gb_and_syzygies, syzygy_basis
from logtangent.hilbert import hilbert_of_quotient, linear_hilbert_polynomial
from logtangent.modules import FreeModule, Vector
from logtangent.invariants import invariants
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.resolution import minimal_generators, resolve_submodule
from logtangent.search import sample_pair
from logtangent.sequences import (
    CHECK_POINT,
    Sequence,
    canonical_syzygies,
    jacobian_analysis,
    plane_section,
)

from oracles import (
    apply_columns,
    check_complex,
    evaluate_by_substitution,
    is_minimal,
    resolve_by_groebner,
)

SHAPES = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def elimination_syzygies(seq):
    _, syz, _ = module_gb_and_syzygies(seq.jacobian_columns, degrees=(0,) * 4)
    return syz


def resolution_text(res):
    """Every module and map of a resolution, as printed."""
    return repr(([m.twists for m in res.modules], res.gens, res.diffs))


@pytest.mark.parametrize(
    "field, per_shape", [(QQ, 2), (PrimeField(32003), 6)], ids=["QQ", "GF32003"]
)
def test_wedge_kernel_matches_the_elimination_on_seeded_pairs(field, per_shape):
    ring = PolyRing(field, 4)
    for df, dg in SHAPES:
        for index in range(per_shape):
            seq = Sequence.of(*sample_pair(ring, df, dg, 16, index))
            analysis = jacobian_analysis(seq)
            label = (df, dg, index)
            # dense pairs have m = 0, so each takes the wedge path
            assert analysis.cokernel_hilbert.pole_order <= 1, label
            gens = list(analysis.kernel.gens)
            assert len(gens) == 4 - (df == 0) - (dg == 0), label
            assert all(g.degree == seq.d for g in gens), label
            syz = elimination_syzygies(seq)
            assert gens == minimal_generators(syz), label
            ours = resolve_by_groebner(seq.source_module(), gens)
            theirs = resolve_by_groebner(seq.source_module(), syz)
            assert resolution_text(ours) == resolution_text(theirs), label
            assert check_complex(ours) and is_minimal(ours), label


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_rows_take_the_path_their_m_gives(monkeypatch, field):
    ring = PolyRing(field, 4)
    returned = []

    def recording(gens, degrees=None):
        out = module_gb_and_syzygies(gens, degrees)
        returned.append(out[1])
        return out

    monkeypatch.setattr(sequences, "module_gb_and_syzygies", recording)
    wedge_rows = []
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        returned.clear()
        analysis = jacobian_analysis(seq)
        m, _ = linear_hilbert_polynomial(analysis.cokernel_hilbert)
        # the elimination runs exactly when the plane-section certificate fails
        target, columns = seq.jacobian_target(), seq.jacobian_columns
        section = [Vector(target, tuple(map(plane_section, c.entries))) for c in columns]
        certified = hilbert_of_quotient(target, groebner_basis(section)).pole_order <= 1
        assert len(returned) == (not certified), fx.name
        if m == 0:
            # certified or not, an m = 0 kernel comes from the wedges
            wedge_rows.append(fx.name)
            want = groebner_basis(canonical_syzygies(seq), up_to=seq.d)
            assert list(analysis.kernel.gens) == want, fx.name
        else:
            assert not certified, fx.name
            want = [s for s in returned[0] if not s.is_zero()]
            assert list(analysis.kernel.gens) == want, fx.name
    assert wedge_rows == ["pencils-cubics-genericpencil"]


def test_a_missing_wedge_is_a_consistency_error(monkeypatch):
    ring = PolyRing(PrimeField(32003), 4)
    seq = Sequence.of(*sample_pair(ring, 2, 2, 7, 0))
    assert invariants(seq, with_schemes=False).m == 0
    real = sequences.canonical_syzygies
    monkeypatch.setattr(sequences, "canonical_syzygies", lambda s: real(s)[1:])
    with pytest.raises(ConsistencyError, match="3 wedge syzygies"):
        invariants(seq, with_schemes=False)


# ---------------------------------------------------------------------------
# the Buchsbaum-Rim relations that seed the resolution's syzygy step


def assert_relations_seed_the_step(seq, label):
    """The relations of an m = 0 pair with df, dg >= 1 annihilate the kernel
    basis, have the complex's degrees d + df and d + dg, and seeded into the
    first syzygy step give the vectors the unseeded step gives; any other
    pair has none."""
    analysis = jacobian_analysis(seq)
    relations = analysis.relations
    m, _ = linear_hilbert_polynomial(analysis.cokernel_hilbert)
    if m or seq.df == 0:
        assert relations == (), label
        return
    gens = list(analysis.kernel.gens)
    free = FreeModule(seq.ring, [g.degree for g in gens])
    assert [r.module for r in relations] == [free, free], label
    assert sorted(r.degree for r in relations) == [seq.d + seq.df, seq.d + seq.dg], label
    for r in relations:
        assert apply_columns(gens, r.entries).is_zero(), label
    seeded = syzygy_basis(gens, free.twists, known=relations)
    assert seeded == syzygy_basis(gens, free.twists), label
    return analysis


@pytest.mark.parametrize(
    "field, per_shape", [(QQ, 2), (PrimeField(32003), 6)], ids=["QQ", "GF32003"]
)
def test_relations_seed_the_syzygy_step_on_seeded_pairs(field, per_shape):
    ring = PolyRing(field, 4)
    for df, dg in SHAPES:
        for index in range(per_shape):
            seq = Sequence.of(*sample_pair(ring, df, dg, 16, index))
            assert_relations_seed_the_step(seq, (df, dg, index))


@pytest.mark.parametrize("field", FIELDS)
def test_relations_seed_the_syzygy_step_on_corpus_rows(field):
    ring = PolyRing(field, 4)
    seeded = [
        fx.name
        for fx in FIXTURES
        if assert_relations_seed_the_step(Sequence.parse(ring, fx.f, fx.g), fx.name)
    ]
    assert seeded == ["pencils-cubics-genericpencil"]


def test_seeds_wait_for_generators_that_are_minimal_as_given():
    # with g0 + g1 put first, minimal_generators keeps it and drops g1, so
    # the relations, written for g0..g3, are no syzygies of what it keeps
    ring = PolyRing(PrimeField(32003), 4)
    seq = Sequence.of(*sample_pair(ring, 1, 2, 16, 0))
    analysis = jacobian_analysis(seq)
    gens = list(analysis.kernel.gens)
    image = [(0, 4), (seq.d, -4), (seq.d + seq.df, 1), (seq.d + seq.dg, 1)]
    source = seq.source_module()
    for given in (gens, [gens[0] + gens[1], *gens]):
        want = resolution_text(resolve_submodule(source, given, image))
        got = resolve_submodule(source, given, image, analysis.relations)
        assert resolution_text(got) == want


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("hidden_in_first_component", [False, True], ids=["one", "two"])
def test_a_perturbed_relation_is_a_consistency_error(monkeypatch, field, hidden_in_first_component):
    # one entry perturbed; or two, so that the first component still vanishes
    # at the check point and only the later ones show the error
    ring = PolyRing(field, 4)
    seq = Sequence.of(*sample_pair(ring, 2, 2, 16, 0))
    x0 = ring.variable(0)  # 1 at the check point
    basis = []

    def perturbing(gens, **kwargs):
        if gens[0].module.twists != (seq.d,) * 4:  # not the relations: the last is K_d's
            basis[:] = groebner_basis(gens, **kwargs)
            return list(basis)
        r, at = gens[0], [evaluate_by_substitution(b.entries[0], CHECK_POINT) for b in basis]
        c0, c1 = (at[1], -at[0]) if hidden_in_first_component else (1, 0)
        assert (c0, c1) != (0, 0)
        shift = x0 ** (r.degree - seq.d)
        entries = (r.entries[0] + shift.scaled(c0), r.entries[1] + shift.scaled(c1), *r.entries[2:])
        return groebner_basis([Vector(r.module, entries), *gens[1:]], **kwargs)

    assert len(jacobian_analysis(seq).relations) == 2
    monkeypatch.setattr(sequences, "groebner_basis", perturbing)
    with pytest.raises(ConsistencyError, match="Buchsbaum-Rim relation"):
        jacobian_analysis(seq)
