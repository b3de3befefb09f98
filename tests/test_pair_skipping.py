"""S-pairs the answer cannot use are not reduced.

An elimination skips the pairs of a degree once the leads cover the
Hilbert function of the span of its tagged inputs: a free module's for
syzygies, one read off the image's series for the annihilator's colons,
and H_I + H_J for an intersection.  ``groebner_basis(..., up_to=d)``
reduces no pair above degree d.  Each is pinned against an engine that
reduces every pair: bases, syzygies, colons and intersections must come
out identical, not merely equivalent.
"""

import importlib
import random

import pytest

from logtangent import groebner, resolution
from logtangent.bourbaki import bourbaki_data
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES, run_corpus
from logtangent.groebner import (
    _free_hilbert,
    groebner_basis,
    ideal_groebner,
    module_colon,
    module_gb_and_syzygies,
)
from logtangent.modules import FreeModule, Vector
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.resolution import minimal_generators
from logtangent.search import analyze_sample, sample_pair
from logtangent.sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
    jacobian_analysis,
)
from oracles import (
    annihilator,
    annihilator_by_colons,
    colon_by_syzygies,
    intersection_by_syzygies,
    syzygies_without_skipping,
)

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(32003), id="GF32003")]


def recorded_syzygy_inputs(monkeypatch, run):
    """The (gens, degrees, known) of every module_gb_and_syzygies call that run
    makes: the Jacobian, each resolution step, module_dual and the Bourbaki
    resolution; known holds the seeds of an m = 0 kernel's first step."""
    calls = []

    def recording(gens, degrees=None, known=()):
        calls.append((list(gens), None if degrees is None else list(degrees), list(known)))
        return module_gb_and_syzygies(gens, degrees, known)

    sequences = importlib.import_module("logtangent.sequences")
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "module_gb_and_syzygies", recording)
        patch.setattr(sequences, "module_gb_and_syzygies", recording)
        run()
    return calls


def analyze(seq):
    """The core pipeline and, for a non-free pair, the Bourbaki extraction."""
    # the package attribute ``invariants`` is the function, so fetch the module
    report = importlib.import_module("logtangent.invariants").invariants(
        seq, with_schemes=False
    )
    bourbaki_data(seq, report)


def assert_same_as_without_skipping(calls):
    """Each call, seeded as it ran, gives what an unseeded elimination that
    reduces every pair gives."""
    for gens, degrees, known in calls:
        assert module_gb_and_syzygies(gens, degrees, known) == syzygies_without_skipping(
            gens, degrees
        )


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_syzygies_match_without_skipping(monkeypatch, field):
    ring = PolyRing(field, 4)
    calls = []
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        calls += recorded_syzygy_inputs(monkeypatch, lambda: analyze(seq))
    # a Jacobian and two resolution steps per row at least, and the duals;
    # the one m = 0 row with df, dg >= 1 seeds its first syzygy step
    assert len(calls) > 3 * len(FIXTURES)
    assert sum(bool(known) for *_, known in calls) == 1
    assert_same_as_without_skipping(calls)


@pytest.mark.parametrize("df, dg", [(1, 1), (1, 2), (2, 2)])
def test_seeded_pairs_match_without_skipping(monkeypatch, df, dg):
    ring = PolyRing(PrimeField(32003), 4)
    calls = []
    for index in range(4):
        seq = Sequence.of(*sample_pair(ring, df, dg, 11, index))
        try:
            calls += recorded_syzygy_inputs(monkeypatch, lambda: analyze(seq))
        except (DependentSequenceError, NonNormalSequenceError):
            continue
    assert any(known for *_, known in calls)
    assert_same_as_without_skipping(calls)


@pytest.mark.parametrize("field", FIELDS)
def test_zero_column_with_explicit_degree(field):
    ring = PolyRing(field, 4)
    seq = Sequence.parse(ring, "x0*x1 + x2^2", "x1*x3^2 - x0^3 + x2*x3*x0")
    columns = seq.jacobian_columns
    gens = [*columns[:2], columns[0].module.zero(), *columns[2:]]
    degrees = [0, 0, 3, 0, 0]
    got = module_gb_and_syzygies(gens, degrees)
    assert got == syzygies_without_skipping(gens, degrees)
    # the zero column is a syzygy of its own
    assert got[0].basis_vector(2) in got[1]


def count_reductions(monkeypatch, run, skip=True):
    """(S-pairs reduced, of which to zero) while run runs; with skip False,
    every elimination runs with its Hilbert function withheld."""
    made, zeros = [], []
    spair, reduce = groebner._spair_terms, groebner._normal_form_terms
    buchberger = groebner._buchberger_terms

    def recording_spair(*args):
        made.append(spair(*args))
        return made[-1]

    def counting_reduce(terms, *args):
        out = reduce(terms, *args)
        if made and terms is made[-1] and not out[0]:
            zeros.append(terms)
        return out

    def unskipped(inputs, order, span_hilbert=None, up_to=None):
        return buchberger(inputs, order, None, up_to)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_spair_terms", recording_spair)
        patch.setattr(groebner, "_normal_form_terms", counting_reduce)
        if not skip:
            patch.setattr(groebner, "_buchberger_terms", unskipped)
        run()
    return len(made), len(zeros)


def test_zero_reductions_in_a_cubic_pencil_sample(monkeypatch):
    # with the Hilbert skip, 2 of the 21 S-pairs of the Jacobian elimination
    # of an m = 0 search sample reduce to zero; the elimination is called
    # directly, as the pipeline takes that kernel from the wedge syzygies
    seq = Sequence.of(*sample_pair(PolyRing(PrimeField(32003), 4), 2, 2, 7, 0))
    run = lambda: module_gb_and_syzygies(seq.jacobian_columns, degrees=(0,) * 4)
    assert count_reductions(monkeypatch, run) == (21, 2)


@pytest.mark.parametrize("field", FIELDS)
def test_a_corpus_pass_reduces_the_pinned_s_pairs(monkeypatch, field):
    # the pair criteria keep the same pairs over either field: a criterion
    # that keeps or drops one more pair changes these counts.  The seeded
    # first syzygy step of the one m = 0 row reduces 2 pairs fewer
    assert count_reductions(monkeypatch, lambda: run_corpus(field)) == (629, 169)


def test_the_first_benchmark_inputs_reduce_the_pinned_s_pairs(monkeypatch):
    # the first search-cubic-fp sample and the first schemes-fp pair of seed 0;
    # both have m = 0, so the relations seed the resolution's syzygy step
    run = lambda: analyze_sample((2, 2, 0, 0, 32003))
    assert count_reductions(monkeypatch, run) == (18, 0)
    seq = schemes_pair()
    invariants = importlib.import_module("logtangent.invariants")
    run = lambda: bourbaki_data(seq, invariants.invariants(seq, with_schemes=True))
    assert count_reductions(monkeypatch, run) == (49, 3)


# ---------------------------------------------------------------------------
# colons and intersections


def schemes_pair():
    """The first dense (1, 2) pair of seed 0 over GF(32003), as the schemes
    benchmark draws it."""
    ring = PolyRing(PrimeField(32003), 4)
    return Sequence.of(*sample_pair(ring, 1, 2, 0, 0))


def image_hilbert(seq):
    free = _free_hilbert(4, seq.jacobian_target().twists)
    cokernel = jacobian_analysis(seq).cokernel_hilbert
    return lambda d: free(d) - cokernel.function_value(d)


def recorded_pipeline_calls(monkeypatch, seq):
    """(name, args, result) of every annihilator_of_cokernel, module_colon
    and ideal_intersection call of a full analyze with schemes."""
    calls = []
    invariants = importlib.import_module("logtangent.invariants")

    def recording(name, inner):
        def wrapper(*args):
            out = inner(*args)
            calls.append((name, args, out))
            return out

        return wrapper

    with monkeypatch.context() as patch:
        for name in ("annihilator_of_cokernel", "module_colon", "ideal_intersection"):
            wrapper = recording(name, getattr(groebner, name))
            patch.setattr(groebner, name, wrapper)
            if hasattr(invariants, name):
                patch.setattr(invariants, name, wrapper)
        invariants.invariants(seq, with_schemes=True)
    return calls


def assert_calls_match_oracles(calls):
    names = {name for name, _, _ in calls}
    assert {"annihilator_of_cokernel", "module_colon", "ideal_intersection"} <= names
    for name, args, out in calls:
        if name == "annihilator_of_cokernel":
            assert out == annihilator_by_colons(*args[:2])
        elif name == "module_colon":
            ring = args[1].module.ring
            assert out == ideal_groebner(ring, colon_by_syzygies(*args[:2]))
        else:
            assert out == ideal_groebner(args[0], intersection_by_syzygies(*args))


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_colons_and_intersections_match_oracles(monkeypatch, field):
    ring = PolyRing(field, 4)
    for fx in FIXTURES:
        seq = Sequence.parse(ring, fx.f, fx.g)
        assert_calls_match_oracles(recorded_pipeline_calls(monkeypatch, seq))


def singular_line_pair(ring, df, dg, rng):
    """f dense of degree df + 1 and g in (x0, x1)^2 of degree dg + 1.  The
    gradient of g lies in (x0, x1), so it is no regular sequence and the
    colon by e_0 runs, where a dense pair takes both from the Fitting ideal."""
    x0, x1 = ring.variable(0), ring.variable(1)
    f = ring.random_homogeneous(df + 1, rng)
    a, b, c = (ring.random_homogeneous(dg - 1, rng) for _ in range(3))
    return Sequence.of(f, x0 * x0 * a + x0 * x1 * b + x1 * x1 * c)


@pytest.mark.parametrize("df, dg", [(1, 2), (2, 2)])
def test_seeded_colons_and_intersections_match_oracles(monkeypatch, df, dg):
    ring = PolyRing(PrimeField(32003), 4)
    rng = random.Random(11)
    checked = 0
    for index in range(4):
        seq = singular_line_pair(ring, df, dg, rng)
        try:
            calls = recorded_pipeline_calls(monkeypatch, seq)
        except (DependentSequenceError, NonNormalSequenceError):
            continue
        assert_calls_match_oracles(calls)
        checked += 1
    assert checked


def test_annihilators_of_a_zero_cokernel_and_with_a_zero_column_match_oracle(qq4):
    # the rank-one and rank-zero cases are in test_groebner
    pair = FreeModule(qq4, (0, 1))
    zero_cokernel = [pair.basis_vector(0), pair.basis_vector(1)]
    assert list(annihilator(pair, zero_cokernel)) == [qq4.one()]
    assert annihilator(pair, zero_cokernel) == annihilator_by_colons(pair, zero_cokernel)
    seq = Sequence.parse(qq4, "x0*x1 - x2*x3", "x1*x3*(x0 - x2)")
    target, columns = seq.jacobian_target(), seq.jacobian_columns
    with_zero = [*columns[:2], columns[0].module.zero(), *columns[2:]]
    assert annihilator(target, with_zero) == annihilator(target, columns)
    assert annihilator(target, with_zero) == annihilator_by_colons(target, with_zero)


def test_skip_cuts_the_annihilator_reductions(monkeypatch):
    # the two colons of the first schemes input reduce 69 S-pairs, 34 of
    # them to zero, with every pair kept; the skip leaves 36, 1 to zero.
    # The annihilator takes both from the Fitting ideal, as both gradient
    # rows of a dense pair are regular sequences, so they run here directly
    seq = schemes_pair()
    image = image_hilbert(seq)
    targets = [seq.jacobian_target().basis_vector(i) for i in range(2)]
    run = lambda: [module_colon(seq.jacobian_columns, t, image) for t in targets]
    unskipped, skipped = (count_reductions(monkeypatch, run, skip) for skip in (False, True))
    assert unskipped == (69, 34)
    assert skipped == (36, 1)
    assert skipped[0] < unskipped[0] and skipped[1] < unskipped[1]


def test_hilbert_function_too_large_in_one_degree_raises():
    seq = schemes_pair()
    columns, target = seq.jacobian_columns, seq.jacobian_target().basis_vector(0)
    image = image_hilbert(seq)
    with pytest.raises(ConsistencyError, match="terms covered"):
        module_colon(columns, target, lambda d: image(d) + (d == 3))


def test_hilbert_function_too_small_in_one_degree_changes_the_colon():
    # a skip that stops one lead short drops a member: the skip is live
    seq = schemes_pair()
    columns, target = seq.jacobian_columns, seq.jacobian_target().basis_vector(0)
    image = image_hilbert(seq)
    colon = module_colon(columns, target, image)
    assert colon == module_colon(columns, target)
    assert module_colon(columns, target, lambda d: image(d) - (d == 3)) != colon


def corpus_kernels(ring):
    for fx in FIXTURES:
        yield fx.name, jacobian_analysis(Sequence.parse(ring, fx.f, fx.g)).kernel.gens


@pytest.mark.parametrize("field", FIELDS)
def test_capped_basis_is_the_low_part_of_the_full_basis(field):
    ring = PolyRing(field, 4)
    for name, gens in corpus_kernels(ring):
        full = groebner_basis(gens)
        low = max(g.degree for g in gens)
        for d in range(low, max(b.degree for b in full) + 1):
            assert groebner_basis(gens, up_to=d) == [b for b in full if b.degree <= d], name


def test_cap_below_an_input_degree_is_refused(qq4):
    x0, x1 = qq4.variable(0), qq4.variable(1)
    module = FreeModule(qq4, (0,))
    with pytest.raises(ValueError, match="above up_to"):
        groebner_basis([Vector(module, (x0,)), Vector(module, (x1 * x1,))], up_to=1)


@pytest.mark.parametrize("field", FIELDS)
def test_minimal_generators_unchanged_by_the_cap(monkeypatch, field):
    ring = PolyRing(field, 4)
    kernels = list(corpus_kernels(ring))
    capped = [minimal_generators(gens) for _, gens in kernels]
    monkeypatch.setattr(
        resolution, "groebner_basis", lambda gens, up_to=None: groebner_basis(gens)
    )
    for (name, gens), got in zip(kernels, capped):
        assert got == minimal_generators(gens), name
