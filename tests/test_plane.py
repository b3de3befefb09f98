"""Plane-curve singularity degree and its reduction to pairs."""

import pytest

from logtangent.groebner import saturate_ideal
from logtangent.invariants import invariants
from logtangent.plane import NonReducedCurveError, tjurina_plane
from logtangent.poly import monomials_of_degree
from logtangent.linalg import matrix_rank
from logtangent.sequences import Sequence

CURVES = [
    ("x1^2*x2 - x0^2*(x0 + x2)", 1),  # one node
    ("x1^2*x2 - x0^3", 2),  # one cusp
    ("x0*x2 - x1^2", 0),  # smooth conic
]


def quotient_colength_by_rank(ring, gens, t):
    """dim (R/I)_t by plain linear algebra: no normal forms, no series."""
    monomials = list(monomials_of_degree(ring.nvars, t))
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for g in gens:
        for mult in monomials_of_degree(ring.nvars, t - g.degree):
            row = [ring.field.zero] * len(monomials)
            for m, c in g.terms:
                shifted = tuple(a + b for a, b in zip(ring.unpack(m), mult))
                row[index[shifted]] = c
            rows.append(row)
    rank = matrix_rank(rows, ring.field) if rows else 0
    return len(monomials) - rank


@pytest.mark.parametrize("text, expected", CURVES)
def test_tjurina_against_rank_oracle(qq3, text, expected):
    g = qq3.parse(text)
    tau = tjurina_plane(g)
    assert tau == expected
    # independent oracle: colength of the saturated gradient ideal at large degree
    sat = saturate_ideal(qq3, [g.partial(i) for i in range(3)])
    for t in (6, 7, 8):
        assert quotient_colength_by_rank(qq3, sat, t) == expected


def test_tjurina_rejects_non_reduced(qq3):
    with pytest.raises(NonReducedCurveError):
        tjurina_plane(qq3.parse("x0^2*x1"))


def test_tjurina_needs_three_variables(qq4):
    with pytest.raises(ValueError):
        tjurina_plane(qq4.parse("x0*x2 - x1^2"))


@pytest.mark.parametrize("text, expected", CURVES)
def test_pair_with_hyperplane_recovers_tjurina(qq4, qq3, text, expected):
    g3 = qq3.parse(text)
    assert tjurina_plane(g3) == expected
    seq = Sequence.parse(qq4, "x3", text)
    rep = invariants(seq, with_schemes=False)
    assert rep.m == expected
    dg = seq.dg
    assert rep.bour == rep.e * (rep.e - dg) + dg * dg - expected
