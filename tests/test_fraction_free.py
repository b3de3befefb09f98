"""The integer normal form against the one that combines field values.

``normal_form`` reduces with integers over one running scale; the oracle
``normal_form_by_fractions`` reduces with field values throughout.  The same
reduction rule must give the same terms, coefficient for coefficient, over
QQ (where the scale moves) and over GF(7) and GF(32003) (where it never does).
"""

import random
from fractions import Fraction

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.groebner import _as_vectors, groebner_basis, normal_form
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing
from oracles import normal_form_by_fractions

FIELDS = [
    pytest.param(QQ, id="QQ"),
    pytest.param(PrimeField(7), id="GF7"),
    pytest.param(PrimeField(32003), id="GF32003"),
]


def _linear(ring, coeffs):
    """sum c_i x_i for coeffs {i: (numerator, denominator)}."""
    return ring.poly(
        (ring.variable(i).terms[0][0], ring.field.of(n, d)) for i, (n, d) in coeffs.items()
    )


def _assert_same_terms(v, basis):
    ours = normal_form(v, basis)
    theirs = normal_form_by_fractions(v, basis)
    assert [p.terms for p in ours.entries] == [p.terms for p in theirs.entries]
    kind = int if v.module.ring.field.characteristic else Fraction
    for p in ours.entries:
        assert all(type(c) is kind for _, c in p.terms)
    return ours


# Each case is (reducers, vector, expected normal form over QQ), as linear
# forms {variable: (numerator, denominator)} in x0 > x1 > x2 > x3.
CASES = {
    # coprime tail denominators: the scale goes 1 -> 2 -> 6 -> 30 in one reduction
    "coprime_scales": (
        [{0: (1, 1), 1: (1, 2)}, {1: (1, 1), 2: (1, 3)}, {2: (1, 1), 3: (1, 5)}],
        {0: (1, 1), 3: (1, 1)},
        {3: (29, 30)},
    ),
    # x1 leaves at scale 2; reducing x2 then moves the scale to 6
    "emitted_before_rescale": (
        [{0: (1, 1), 1: (1, 2), 2: (1, 1)}, {2: (1, 1), 3: (1, 3)}],
        {0: (1, 1)},
        {1: (-1, 2), 3: (1, 3)},
    ),
    # the input's own denominators set the first scale, 60
    "input_denominators": (
        [{0: (1, 1), 2: (1, 11)}],
        {0: (3, 4), 1: (5, 6), 3: (-7, 10)},
        {1: (5, 6), 2: (-3, 44), 3: (-7, 10)},
    ),
    "negative_coefficients": (
        [{0: (1, 1), 1: (-2, 3), 2: (-5, 11)}, {1: (1, 1), 3: (-1, 2)}],
        {0: (-1, 1), 2: (-4, 9)},
        {2: (-89, 99), 3: (-1, 3)},
    ),
    # D = 2 divides the popped 4, so the scale stays 1
    "scale_divides_coefficient": (
        [{0: (1, 1), 1: (1, 2)}],
        {0: (4, 1), 1: (1, 1)},
        {1: (-1, 1)},
    ),
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_scale_changes_match_fractions(field, case):
    ring = PolyRing(field, 4)
    reducers, v, expected = CASES[case]
    basis = _as_vectors(ring, [_linear(ring, r) for r in reducers])
    [vector] = _as_vectors(ring, [_linear(ring, v)])
    ours = _assert_same_terms(vector, basis)
    assert ours.entries[0] == _linear(ring, expected)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("twists", [(0,), (0, 1)], ids=["ideal", "rank2"])
def test_random_normal_forms_match_fractions(field, twists):
    ring = PolyRing(field, 3)
    module = FreeModule(ring, twists)
    rng = random.Random(31 + len(twists))
    of = field.of

    def element(degree):
        entries = []
        for t in twists:
            p = ring.random_homogeneous(degree - t, rng) if degree >= t else ring.zero()
            scalar = of(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 5, 6)))
            entries.append(p.scaled(scalar))
        return Vector(module, tuple(entries))

    for _ in range(6):
        gens = [element(rng.randint(2, 3)) for _ in range(rng.randint(2, 4))]
        for basis in (groebner_basis(gens), gens):
            for _ in range(3):
                _assert_same_terms(element(rng.randint(3, 4)), basis)


@pytest.mark.parametrize("call", ["groebner_basis", "normal_form", "groebner_basis_of_output"])
def test_qq_builds_one_fraction_per_output_term(monkeypatch, call):
    """Inside the engine a QQ coefficient is an integer, and a kernel output
    keeps its integers: no Fraction is constructed while the kernel runs,
    not even for an input that is itself a kernel output, and reading the
    output's entries constructs one per term."""
    ring = PolyRing(QQ, 4)
    rng = random.Random(5)
    gens = _as_vectors(
        ring,
        [
            ring.random_homogeneous(rng.randint(2, 3), rng).scaled(QQ.of(1, rng.randint(1, 6)))
            for _ in range(3)
        ],
    )
    # a basis that is not monic, so reducers are normalized on the way in
    basis = [b.scaled(QQ.of(-3, 2)) for b in groebner_basis(gens)]
    [v] = _as_vectors(ring, [ring.random_homogeneous(4, rng).scaled(QQ.of(2, 3))])
    gb = groebner_basis(gens)  # a kernel output whose entries are never read
    runs = {
        "groebner_basis": lambda: groebner_basis(gens),
        "normal_form": lambda: [normal_form(v, basis)],
        "groebner_basis_of_output": lambda: groebner_basis(gb),
    }
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    out = runs[call]()
    assert made == []
    terms = sum(len(p.terms) for w in out for p in w.entries)
    monkeypatch.undo()
    assert terms > len(out)
    assert len(made) == terms


SCALES = [(-1, 1), (3, 5), (-5, 2), (1, 9), (-4, 3), (6, 1)]


@pytest.mark.parametrize("field", FIELDS)
def test_scaling_generators_changes_nothing(field):
    """Bases and normal forms see generators only up to nonzero scalars."""
    ring = PolyRing(field, 4)
    rng = random.Random(8)
    scales = [field.of(n, d) for n, d in SCALES]
    for _ in range(4):
        gens = [ring.random_homogeneous(rng.randint(2, 3), rng) for _ in range(3)]
        basis = groebner_basis(_as_vectors(ring, gens))
        scaled = [g.scaled(rng.choice(scales)) for g in gens]
        assert groebner_basis(_as_vectors(ring, scaled)) == basis
        rescaled = [b.scaled(rng.choice(scales)) for b in basis]
        [v] = _as_vectors(ring, [ring.random_homogeneous(4, rng)])
        reduced = normal_form(v, basis)
        assert not reduced.is_zero()
        assert normal_form(v, rescaled) == reduced
        c = rng.choice(scales)
        assert normal_form(v.scaled(c), rescaled) == reduced.scaled(c)
