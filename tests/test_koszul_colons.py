"""The annihilator's colons by a regular row are the Fitting ideal.

For a 2 x n presentation with rows a and b, im : e_0 = a . Syz(b).  When b
is a regular sequence or generates the unit ideal, Syz(b) is spanned by the
Koszul relations, so im : e_0 is the ideal of 2 x 2 minors, Fitt_0, and
``annihilator_of_cokernel`` takes the Basis it is given instead of running
``module_colon``; the same holds for e_1 with a.  Every annihilator here is
compared with ``oracles.annihilator_by_colons``, which runs both colons by
elimination, and the ``module_colon`` calls of the annihilator itself are
counted: none on dense pairs, one when one row is regular, two otherwise.
"""

import pytest

from logtangent import groebner
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    _koszul_exact,
    annihilator_of_cokernel,
    fitting_ideal_0,
    ideal_groebner,
)
from logtangent.invariants import invariants
from logtangent.poly import PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import Sequence, jacobian_analysis
from oracles import annihilator_by_colons

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]
DENSE_SHAPES = [(0, 2), (1, 1), (1, 2), (2, 2), (1, 3)]
# x0^2 + x1^2 + x2^2 has a zero partial in x3, so only g's row is regular;
# in the second pair only f's row is, and in the third neither row is
G_REGULAR = ("x0^2+x1^2+x2^2", "x0^3+x1^3+x2^3+x3^3")
F_REGULAR = ("x0^2+x1^2+x2^2+x3^2", "x0^3+x1^3+x2^3")
NEITHER = ("x0^2+x1^2", "x0^3+x1^3+x2^3")


def annihilator_and_colon_targets(monkeypatch, seq, columns=None):
    """The annihilator of seq's Jacobian cokernel (with the given columns,
    by default the Jacobian's) as ``invariants`` computes it, and the index
    of the basis vector of each ``module_colon`` call it makes."""
    columns = seq.jacobian_columns if columns is None else columns
    hq = jacobian_analysis(seq).cokernel_hilbert
    fitt0 = ideal_groebner(seq.ring, fitting_ideal_0(seq.gradient_rows))
    targets = []
    colon = groebner.module_colon

    def recording(mod_gens, target, image_hilbert=None):
        targets.append(target.entries.index(seq.ring.one()))
        return colon(mod_gens, target, image_hilbert)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "module_colon", recording)
        ann = annihilator_of_cokernel(seq.jacobian_target(), columns, hq, fitt0)
    return ann, targets


def assert_matches_oracle(monkeypatch, seq, columns=None):
    """The annihilator equals the oracle's; returns its module_colon targets."""
    ann, targets = annihilator_and_colon_targets(monkeypatch, seq, columns)
    columns = seq.jacobian_columns if columns is None else columns
    hq = jacobian_analysis(seq).cokernel_hilbert
    assert ann == annihilator_by_colons(seq.jacobian_target(), columns)
    return targets


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_annihilators_match_oracle(monkeypatch, field):
    ring = PolyRing(field, 4)
    calls = []
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        calls.append(len(assert_matches_oracle(monkeypatch, seq)))
    # in 5 rows f is smooth (four quadrics, one Fermat cubic), so its row is
    # regular; in the other 17, the m = 0 row among them, neither row is
    assert (calls.count(1), calls.count(2)) == (5, 17)


@pytest.mark.parametrize("df, dg", DENSE_SHAPES)
def test_seeded_dense_annihilators_are_fitt0_with_no_colon(monkeypatch, df, dg):
    ring = PolyRing(PrimeField(32003), 4)
    for index in range(13):
        seq = Sequence.of(*sample_pair(ring, df, dg, 25, index))
        ann, targets = annihilator_and_colon_targets(monkeypatch, seq)
        assert targets == [], index
        assert ann == annihilator_by_colons(seq.jacobian_target(), seq.jacobian_columns)
        assert ann == ideal_groebner(ring, fitting_ideal_0(seq.gradient_rows))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "pair, colon_target",
    [(G_REGULAR, 1), (F_REGULAR, 0), (NEITHER, None)],
    ids=["g-regular", "f-regular", "neither"],
)
def test_one_colon_runs_per_irregular_row(monkeypatch, field, pair, colon_target):
    # im : e_i is Fitt_0 when row 1 - i is regular, so module_colon runs
    # only for the e_i whose other row is not
    ring = PolyRing(field, 4)
    seq = Sequence.parse(ring, *pair)
    targets = assert_matches_oracle(monkeypatch, seq)
    assert targets == ([0, 1] if colon_target is None else [colon_target])


@pytest.mark.parametrize("pair", [G_REGULAR, F_REGULAR], ids=["g-regular", "f-regular"])
def test_one_regular_row_pairs_are_normal_with_m_zero(qq4, pair):
    report = invariants(Sequence.parse(qq4, *pair))
    assert report.normal and report.m == 0
    assert report.schemes_equal


def test_koszul_predicate_edge_cases(qq4):
    x = [qq4.variable(i) for i in range(4)]
    zero, one = qq4.zero(), qq4.one()
    # a regular sequence of four forms, and one of four with a common factor
    assert _koszul_exact(qq4, [x[0] ** 2, x[1] ** 3, x[2], x[0] * x[1] + x[3] ** 2])
    assert not _koszul_exact(qq4, [x[0] * x[1], x[0] * x[2], x[0] * x[3], x[0] ** 2])
    # the unit ideal, with or without zeros and of any length
    assert _koszul_exact(qq4, [one, zero, zero, zero])
    assert _koszul_exact(qq4, [x[0], one])
    # a zero entry (a cone): three forms cannot be of finite colength
    assert not _koszul_exact(qq4, [x[0] ** 2, x[1] ** 2, x[2] ** 2, zero])
    # five forms of finite colength are no regular sequence in four variables
    assert not _koszul_exact(qq4, [*x, x[0] + x[1]])
    assert not _koszul_exact(qq4, [zero] * 4)


@pytest.mark.parametrize("field", FIELDS)
def test_linear_f_has_a_constant_row(monkeypatch, field):
    # df = 0: f's row of constants generates the unit ideal, and g's row of
    # a sum of cubes is regular, so neither colon runs
    ring = PolyRing(field, 4)
    seq = Sequence.parse(ring, "x0 + 2*x1 - x3", "x0^3+x1^3+x2^3+x3^3")
    assert _koszul_exact(ring, seq.gradient_rows[0])
    assert assert_matches_oracle(monkeypatch, seq) == []
    # with g a cone over a plane cubic, g's row is not regular
    seq = Sequence.parse(ring, "x0 + 2*x1 - x3", "x0^3+x1^3+x2^3")
    assert assert_matches_oracle(monkeypatch, seq) == [0]


@pytest.mark.parametrize(
    "pair, colon_targets",
    [(("x0*x1 - x2*x3", "x1*x3*(x0 - x2)"), [0]), (G_REGULAR, [1]), (NEITHER, [0, 1])],
    ids=["smooth-quadric-f", "g-regular", "neither"],
)
def test_zero_column_is_dropped_before_the_predicate(monkeypatch, qq4, pair, colon_targets):
    # the 5-column presentation with a zero column has the same cokernel
    # support and Fitt_0; its rows, taken over the nonzero columns, are the same
    seq = Sequence.parse(qq4, *pair)
    columns = seq.jacobian_columns
    with_zero = [*columns[:2], columns[0].module.zero(), *columns[2:]]
    assert assert_matches_oracle(monkeypatch, seq, with_zero) == colon_targets
    assert assert_matches_oracle(monkeypatch, seq) == colon_targets
