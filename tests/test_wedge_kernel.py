"""The m = 0 kernel from the wedge syzygies, against the elimination.

When the Jacobian cokernel has pole order at most 1 (m = 0), the ideal of
2x2 minors has grade 3, the Buchsbaum-Rim complex is exact, and
``jacobian_analysis`` takes the kernel K from the reduced basis of the four
wedge syzygies instead of the elimination.  The elimination stays the
oracle: its syzygies, minimalized, must be the same vectors in the same
order, and both must resolve to the same complex.
"""

import pytest

import logtangent.sequences as sequences
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import groebner_basis, module_gb_and_syzygies
from logtangent.hilbert import linear_hilbert_polynomial
from logtangent.invariants import invariants
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.resolution import minimal_generators, resolve_submodule
from logtangent.search import sample_pair
from logtangent.sequences import Sequence, canonical_syzygies, jacobian_analysis

SHAPES = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def elimination_syzygies(analysis):
    _, syz = module_gb_and_syzygies(analysis.columns, degrees=(0,) * 4)
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
            syz = elimination_syzygies(analysis)
            assert gens == minimal_generators(syz), label
            ours = resolve_submodule(seq.source_module(), gens)
            theirs = resolve_submodule(seq.source_module(), syz)
            assert resolution_text(ours) == resolution_text(theirs), label
            assert ours.check_complex() and ours.is_minimal(), label


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
        if m == 0:
            wedge_rows.append(fx.name)
            assert returned == [], fx.name
            want = groebner_basis(canonical_syzygies(seq), up_to=seq.d)
            assert list(analysis.kernel.gens) == want, fx.name
        else:
            assert len(returned) == 1, fx.name
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
