"""The resolution's Betti numbers against Koszul homology of the cokernel.

For M = coker(phi) of the Jacobian map phi: R^4 -> F, the graded Betti
numbers beta_{i,j}(M) = dim H_i(x_0..x_3; M)_j come from linear algebra on
the graded pieces of M alone (``oracles.koszul_betti``).  When d_f >= 1 and
h_0 = 0 the columns of phi are minimal generators of its image, so the
minimal resolution of M is F <- R^4 <- (the minimal resolution of K =
ker phi): beta_0 lists F's twists, beta_1 is four zeros and beta_{i+2}(M)
is the pipeline's column i of K.  No syzygy routine enters the oracle, so it
checks the resolution apart from how the kernel and its syzygies are found.
The same holds for the other resolution the pipeline computes, that of the
Bourbaki curve's ideal I: beta_0(R/I) is (0,) and beta_{i+1}(R/I) is column
i of I's resolution.
"""

import pytest

from logtangent.bourbaki import bourbaki_data
from logtangent.fields import PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import _as_vectors, groebner_basis
from logtangent.invariants import invariants
from logtangent.modules import FreeModule
from logtangent.poly import PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence, constant_kernel_dimension

from oracles import koszul_betti

RING = PolyRing(PrimeField(32003), 4)


def expected_and_koszul(seq):
    """The table the pipeline's resolution predicts, and the Koszul one, up to
    2 past the largest twist."""
    report = invariants(seq, with_schemes=False)
    assert report.h0 == 0
    target = seq.jacobian_target()
    expected = [
        tuple(sorted(target.twists)),
        (0,) * 4,
        *report.resolution.betti().columns,
    ]
    expected += [()] * (5 - len(expected))
    top = max(j for column in expected for j in column) + 2
    return expected, koszul_betti(target, groebner_basis(seq.jacobian_columns), top)


def qualifies(seq):
    return seq.df >= 1 and constant_kernel_dimension(seq) == 0


CORPUS = [fx for fx in FIXTURES if qualifies(Sequence.parse(RING, fx.f, fx.g))]


def test_the_corpus_mostly_qualifies():
    # the two compressible rows have h0 > 0
    assert len(CORPUS) == 20


@pytest.mark.parametrize("fx", CORPUS, ids=lambda fx: fx.name)
def test_corpus_resolution_matches_koszul_homology(fx):
    expected, koszul = expected_and_koszul(Sequence.parse(RING, fx.f, fx.g))
    assert koszul == expected


@pytest.mark.parametrize("index", range(4))
def test_dense_pair_resolution_matches_koszul_homology(index):
    seq = Sequence.of(*sample_pair(RING, 1, 2, 5, index))
    assert qualifies(seq)
    expected, koszul = expected_and_koszul(seq)
    assert koszul == expected


def non_free(fx):
    return not invariants(Sequence.parse(RING, fx.f, fx.g), with_schemes=False).free


NON_FREE = [fx for fx in FIXTURES if non_free(fx)]


def test_the_corpus_has_fifteen_non_free_rows():
    assert len(NON_FREE) == 15


@pytest.mark.parametrize("fx", NON_FREE, ids=lambda fx: fx.name)
def test_bourbaki_ideal_resolution_matches_koszul_homology(fx):
    seq = Sequence.parse(RING, fx.f, fx.g)
    bd = bourbaki_data(seq, invariants(seq, with_schemes=False))
    expected = [(0,), *bd.ideal_resolution.betti().columns]
    expected += [()] * (5 - len(expected))
    top = max(j for column in expected for j in column) + 2
    # the saturated ideal is a reduced Groebner basis, as the oracle needs
    assert koszul_betti(FreeModule(RING, (0,)), _as_vectors(RING, bd.ideal), top) == expected
