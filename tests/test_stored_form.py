"""The stored form of a QQ value: an ``int`` exactly when it is an integer
and a ``Fraction`` with denominator above 1 otherwise, whatever made it: the
parser, the ring's arithmetic, the Jacobian data or a kernel output's
entries.
"""

from fractions import Fraction

import pytest

from logtangent.fields import QQ
from logtangent.groebner import _as_vectors, groebner_basis, normal_form, syzygy_basis
from logtangent.poly import PolyRing, dot
from logtangent.sequences import NVARS, Sequence, plane_section
from oracles import is_stored_form

# proper fractions that turn integral under derivatives, sums and products
F_TEXT = "1/2*x0^2 + 2/3*x1^2 + x2^2 - 5/7*x3^2"
G_TEXT = "x0^3 + 1/3*x1^3 + 3/2*x0*x1*x2 + x2^3 + x3^3"


def test_qq_values_are_ints_exactly_when_integral():
    integral = [
        (QQ.zero, 0),
        (QQ.one, 1),
        (QQ.of(7), 7),
        (QQ.of(6, 3), 2),
        (QQ.of(4, -2), -2),
        (QQ.of(Fraction(3, 2) * 2), 3),
        (QQ.reduce(Fraction(6, 3)), 2),
        (QQ.reduce(-5), -5),
        (QQ.inv(1), 1),
        (QQ.inv(-1), -1),
        (QQ.inv(Fraction(1, 3)), 3),
    ]
    proper = [
        (QQ.of(3, 2), Fraction(3, 2)),
        (QQ.of(3, -6), Fraction(-1, 2)),
        (QQ.of(Fraction(1, 2)), Fraction(1, 2)),
        (QQ.reduce(Fraction(2, 4)), Fraction(1, 2)),
        (QQ.inv(2), Fraction(1, 2)),
        (QQ.inv(Fraction(-2, 3)), Fraction(-3, 2)),
    ]
    assert all(type(got) is int and got == want for got, want in integral)
    assert all(type(got) is Fraction and got == want for got, want in proper)
    with pytest.raises(ZeroDivisionError):
        QQ.of(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_every_stored_value_is_in_its_stored_form():
    ring = PolyRing(QQ, 4)
    f, g = ring.parse(F_TEXT), ring.parse(G_TEXT)
    x0 = ring.variables[0]
    half = QQ.of(1, 2)
    seq = Sequence.of(f, g)
    made = {
        "parse": [f, g],
        "poly": [ring.poly([(x0, half), (x0, half)]), ring.poly([(x0, Fraction(4, 2))])],
        "+": [f + f, f + g],
        "-": [f - f.scaled(half), g - f, -f],
        "*": [f * g, f * 6, f * f],
        "partial": [p.partial(i) for p in (f, g) for i in range(NVARS)],
        "scaled": [f.scaled(QQ.of(2, 3)), g.scaled(QQ.of(6, 3)), f.scaled(Fraction(14, 1))],
        "dot": [dot((f, g), (g.partial(0), f.partial(1)))],
        "plane_section": [plane_section(f), plane_section(g)],
        "minors": list(seq.minors.values()),
    }
    gens = _as_vectors(ring, [f, g, f.partial(0) * g.partial(3)])
    basis = groebner_basis(gens)
    [v] = _as_vectors(ring, [(f * g).scaled(QQ.of(2, 3)) + ring.parse("1/5*x3^5")])
    _, syz = syzygy_basis(seq.jacobian_columns, seq.source_module().twists)
    outputs = {"groebner_basis": basis, "normal_form": [normal_form(v, basis)], "syzygy_basis": syz}
    for name, out in outputs.items():
        made[name] = [p for w in out for p in w.entries]
    for name, polys in made.items():
        values = [c for p in polys for _, c in p.terms]
        assert values and all(is_stored_form(c, QQ) for c in values), name
    # both forms are met, and a fraction's derivative can be integral
    kinds = {type(c) for polys in made.values() for p in polys for _, c in p.terms}
    assert kinds == {int, Fraction}
    assert f.partial(0).terms == ((x0, 1),) and type(f.partial(0).terms[0][1]) is int
