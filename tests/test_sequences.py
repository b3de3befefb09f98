"""Sequence construction, Jacobian data, wedge syzygies, normality."""

import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import logtangent.groebner as groebner
import logtangent.search as search
import logtangent.sequences as sequences
from logtangent.bourbaki import bourbaki_data
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import groebner_basis, normal_form
from logtangent.hilbert import dimension_degree
from logtangent.invariants import invariants
from logtangent.poly import ConsistencyError, Polynomial, PolyRing
from logtangent.search import sample_pair
from logtangent.sequences import (
    CHECK_POINT,
    DependentSequenceError,
    Sequence,
    SmallCharacteristicError,
    canonical_syzygies,
    constant_kernel_dimension,
    jacobian_analysis,
)
from oracles import apply_columns, evaluate_by_substitution, fitting_ideal_0


def jacobian_scheme_dim(seq):
    """Projective dimension of the scheme cut out by the Jacobian minors."""
    return dimension_degree(seq.ring, fitting_ideal_0(seq.gradient_rows))[0]


def test_sequence_swaps_to_put_lower_degree_first(qq4):
    seq = Sequence.parse(qq4, "x0^3 + x1^3", "x0*x1")
    assert seq.f.degree == 2 and seq.g.degree == 3
    assert (seq.df, seq.dg, seq.d, seq.m0) == (1, 2, 3, 7)
    # the bare constructor normalizes too
    direct = Sequence(qq4.parse("x0^3 + x1^3"), qq4.parse("x0*x1"))
    assert direct.f == seq.f and direct.g == seq.g


def test_constructor_and_of_normalize_alike(qq4):
    g, f = qq4.parse("x0^3 + x1*x2*x3"), qq4.parse("x0*x1 - x2^2")
    direct, via_of = Sequence(g, f), Sequence.of(g, f)
    assert (direct.f, direct.g) == (via_of.f, via_of.g) == (f, g)
    assert direct == via_of


def test_small_characteristic_is_refused():
    ring = PolyRing(PrimeField(3), 4)
    with pytest.raises(SmallCharacteristicError):
        Sequence.parse(ring, "x0^3 + x1^3", "x2^3 + x3^3")
    with pytest.raises(SmallCharacteristicError):
        Sequence.parse(ring, "x0*x1", "x2^3 + x3^3")
    assert Sequence.parse(ring, "x0*x1", "x2^2 + x3^2").dg == 1


def test_sequence_rejects_bad_entries(qq4):
    with pytest.raises(ValueError):
        Sequence.parse(qq4, "x0 + x1^2", "x2")  # inhomogeneous
    with pytest.raises(ValueError):
        Sequence.parse(qq4, "5", "x0^2")  # constant
    with pytest.raises(ValueError):
        Sequence.parse(qq4, "x0 - x0", "x1")  # zero


def test_jacobian_matches_worked_example(qq4):
    seq = Sequence.parse(qq4, "2*x1*x3 - x1^2", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3")
    rows = seq.gradient_rows
    assert [str(p) for p in rows[0]] == ["0", "-2*x1 + 2*x3", "0", "2*x1"]
    assert [str(p) for p in rows[1]] == [
        "-3*x1*x3",
        "3*x1^2 - 3*x0*x3",
        "3*x3^2",
        "-3*x0*x1 + 6*x2*x3",
    ]


def test_jacobian_of_coordinate_pair(qq4):
    seq = Sequence.parse(qq4, "x0^2", "x1^2")
    rows = seq.gradient_rows
    assert [str(p) for p in rows[0]] == ["2*x0", "0", "0", "0"]
    assert [str(p) for p in rows[1]] == ["0", "2*x1", "0", "0"]


def test_dependent_pair_detected(qq4):
    seq = Sequence.parse(qq4, "x0^2", "x0^3")
    assert fitting_ideal_0(seq.gradient_rows) == []
    assert jacobian_scheme_dim(seq) > 1
    with pytest.raises(DependentSequenceError):
        canonical_syzygies(seq)


def test_wedge_syzygies_of_linear_pair(qq4):
    seq = Sequence.parse(qq4, "x0", "x1")
    nu = canonical_syzygies(seq)
    # gradients concentrated in slots 0 and 1: only the last two vectors survive
    assert nu[0].is_zero() and nu[1].is_zero()
    assert [str(p) for p in nu[2].entries] == ["0", "0", "0", "1"]
    assert [str(p) for p in nu[3].entries] == ["0", "0", "1", "0"]


def corrupt_minor(monkeypatch, seq, cols, change):
    """Make ``canonical_syzygies`` build seq's vectors from change(m) in place
    of the minor m on the given gradient columns."""
    minors = dict(seq.minors)
    minors[cols] = change(minors[cols])
    monkeypatch.setitem(vars(seq), "minors", minors)


def corrupt_wedge(monkeypatch, index, slot, change):
    """Make ``canonical_syzygies`` return change(e) in place of entry e in
    the given slot of its vector number ``index``."""
    real, built = sequences.Vector, []

    def vector(module, entries):
        if len(built) == index:
            entries = (*entries[:slot], change(entries[slot]), *entries[slot + 1 :])
        built.append(entries)
        return real(module, entries)

    monkeypatch.setattr(sequences, "Vector", vector)


def test_wedge_syzygies_annihilate_random_pairs(qq4, fp4, monkeypatch):
    rng = random.Random(808)
    seqs = []
    for ring in (fp4, qq4):
        for _ in range(50):
            f = ring.random_homogeneous(rng.randint(1, 3), rng)
            g = ring.random_homogeneous(rng.randint(1, 3), rng)
            if f.is_zero() or g.is_zero():
                continue
            seq = Sequence.of(f, g)
            if fitting_ideal_0(seq.gradient_rows):
                seqs.append(seq)
    assert len(seqs) >= 80
    shapes = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
    sampled = [Sequence.of(*sample_pair(fp4, *shape, 808, i)) for shape in shapes for i in range(3)]
    for seq in seqs + sampled:
        columns = seq.jacobian_columns
        for v in canonical_syzygies(seq):
            assert apply_columns(columns, v.entries).is_zero()
            if not v.is_zero():
                assert v.degree == seq.d
    # one coefficient of one wedge entry moved by 1
    for seq in sampled:
        vectors = canonical_syzygies(seq)
        index, slot = rng.choice([(i, k) for i in range(4) for k in range(4) if i != k])
        mono = rng.choice(vectors[index].entries[slot].terms)[0]
        with monkeypatch.context() as patch:
            corrupt_wedge(patch, index, slot, lambda e: e + fp4.poly([(mono, 1)]))
            with pytest.raises(ConsistencyError):
                canonical_syzygies(seq)


def test_wedge_syzygy_check_raises_on_failure(qq4, monkeypatch):
    seq = Sequence.parse(qq4, "x0*x1", "x3*x2*(x0 - x1)")
    canonical_syzygies(seq)
    # a term added to the (1, 2) minor, which two vectors hold
    with monkeypatch.context() as patch:
        corrupt_minor(patch, seq, (1, 2), lambda m: m + qq4.variable(0) ** m.degree)
        with pytest.raises(ConsistencyError):
            canonical_syzygies(seq)
    # one sign flipped in the arrangement: -m[1,3] in the first vector as +m[1,3]
    corrupt_wedge(monkeypatch, 0, 2, lambda e: -e)
    with pytest.raises(ConsistencyError):
        canonical_syzygies(seq)


def test_check_point_survives_every_odd_prime():
    # a power of 2 is nonzero mod every odd prime
    assert all(x > 0 and x & (x - 1) == 0 for x in CHECK_POINT)
    assert all(x % p for x in CHECK_POINT for p in (3, 5, 7))


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7), PrimeField(32003)], ids=repr)
def test_check_point_evaluation_matches_substitution(field):
    ring, rng = PolyRing(field, 4), random.Random(2718)
    p, degrees = field.characteristic, set()
    for top in (0, 1, 5, 40, 255):
        for _ in range(6):
            items = []
            for _ in range(rng.randint(1, 12)):
                d = rng.randint(0, top) if items else top
                cuts = sorted(rng.randint(0, d) for _ in range(3))
                exps = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
                c = rng.randrange(p) if p else Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                items.append((ring.pack(exps), field.of(c)))
            poly = ring.poly(items)
            degrees.add(poly.degree)
            assert sequences._at_check_point(poly) == evaluate_by_substitution(poly, CHECK_POINT)
    assert 255 in degrees


def test_minor_antisymmetry_data(qq4):
    seq = Sequence.parse(qq4, "x0*x1", "x2*x3*(x0 - x1)")
    rows = seq.gradient_rows
    expected = [
        rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
        for i, j in combinations(range(4), 2)
    ]
    assert len(expected) == 6
    assert fitting_ideal_0(rows) == [m for m in expected if not m.is_zero()]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_nonzero_minors_are_the_fitting_ideal(field):
    ring = PolyRing(field, 4)
    seqs = [(fx.name, Sequence.parse(ring, fx.f, fx.g)) for fx in FIXTURES]
    for df, dg in [(0, 2), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        seqs += [((df, dg, i), Sequence.of(*sample_pair(ring, df, dg, 27, i))) for i in range(3)]
    for label, seq in seqs:
        assert list(seq.minors) == list(combinations(range(4), 2)), label
        nonzero = [p for p in seq.minors.values() if not p.is_zero()]
        assert nonzero == fitting_ideal_0(seq.gradient_rows), label


def count_jacobian_work(monkeypatch):
    """Counters of ``Polynomial.partial`` calls and of the column pairs each
    2x2 minor is formed on, while the patches last."""
    counts = Counter()
    partial, minor = Polynomial.partial, groebner.minor

    def counting_partial(self, i):
        counts["partial"] += 1
        return partial(self, i)

    def counting_minor(matrix, rows, cols):
        if len(rows) == 2:
            counts[cols] += 1
        return minor(matrix, rows, cols)

    monkeypatch.setattr(Polynomial, "partial", counting_partial)
    for module in (groebner, sequences):
        monkeypatch.setattr(module, "minor", counting_minor)
    return counts


def test_the_jacobian_is_built_once_per_pair(monkeypatch):
    ring = PolyRing(PrimeField(32003), 4)
    f, g = sample_pair(ring, 1, 2, 0, 0)
    counts = count_jacobian_work(monkeypatch)
    seq = Sequence.of(f, g)
    report = invariants(seq, with_schemes=True)
    assert bourbaki_data(seq, report) is not None
    pairs = list(combinations(range(4), 2))
    assert counts == Counter({"partial": 8} | dict.fromkeys(pairs, 1))
    counts.clear()
    invariants(seq, with_schemes=True)
    assert counts == Counter()
    # a search op on a (2, 2) pair takes the wedge path, and still 8 partials
    row = search.analyze_sample((2, 2, 0, 0, 32003))
    assert (row.status, row.m, counts["partial"]) == ("ok", 0, 8)


def test_a_cached_jacobian_leaves_the_value_alone(fp4):
    f, g = sample_pair(fp4, 1, 2, 0, 0)
    seq, fresh = Sequence.of(f, g), Sequence.of(f, g)
    seq.minors, seq.jacobian_columns
    assert {"gradient_rows", "minors", "jacobian_columns"} <= set(vars(seq))
    assert seq == fresh and hash(seq) == hash(fresh) and repr(seq) == repr(fresh)
    copy = pickle.loads(pickle.dumps(seq))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert (copy.minors, copy.jacobian_columns) == (fresh.minors, fresh.jacobian_columns)


def test_tangent_module_of_split_pair(qq4):
    seq = Sequence.parse(qq4, "x0^2*x1 + x3^3", "x0^3 + x0*x2*x3 + x3^3")
    kernel = jacobian_analysis(seq).kernel
    degrees = sorted(g.degree for g in kernel.gens)
    assert degrees[:2] == [2, 2]


def test_tangent_module_of_coordinate_pair_contains_units(qq4):
    kernel = jacobian_analysis(Sequence.parse(qq4, "x0", "x1")).kernel
    source = kernel.module
    gb = groebner_basis(kernel.gens)
    assert normal_form(source.basis_vector(2), gb).is_zero()
    assert normal_form(source.basis_vector(3), gb).is_zero()


def test_constant_kernel_dimension(qq4):
    assert constant_kernel_dimension(Sequence.parse(qq4, "x0", "x1")) == 2
    assert (
        constant_kernel_dimension(Sequence.parse(qq4, "x0*(x1 - x2)", "x0^3 + x1^3 + x2^3"))
        == 1
    )
    assert (
        constant_kernel_dimension(
            Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)")
        )
        == 0
    )


def test_check_normal_on_examples(qq4):
    assert jacobian_scheme_dim(Sequence.parse(qq4, "x0*x1", "x3*x2*(x0 - x1)")) <= 1
    # shared factor x0 in every minor: a divisor component
    assert jacobian_scheme_dim(Sequence.parse(qq4, "x0*x1", "x0*x2^2")) == 2


def test_random_cubic_pencils_are_normal():
    ring = PolyRing(PrimeField(32003), 4)
    for s in range(20):
        rng = random.Random(4200 + s)
        seq = Sequence.of(ring.random_homogeneous(3, rng), ring.random_homogeneous(3, rng))
        assert jacobian_scheme_dim(seq) <= 1
