"""The Buchberger driver's bookkeeping on packed exponent fields, pinned to
reference forms: the Gebauer-Moeller pair update to ``update_pairs_by_lcm``,
which compares whole lcms of (component, monomial) leads, and the count of
terms the leads divide to a count over exponent tuples."""

import random

import pytest

from logtangent import groebner
from logtangent.fields import QQ
from logtangent.fixtures import run_corpus
from logtangent.groebner import ModuleOrder, _covered_terms, _update_pairs
from logtangent.modules import FreeModule
from logtangent.poly import PackingOverflowError, PolyRing
from oracles import covered_terms_by_tuples, update_pairs_by_lcm


def assert_same_update(leads, pairs, t, order):
    got = _update_pairs(leads, pairs, t, order)
    assert got == update_pairs_by_lcm([order.unpack(p) for p in leads], pairs, t, order)
    return got


def insert_all(leads, order, rng):
    """Insert the packed leads in turn, as the driver does, dropping a few
    pairs between insertions as if they had been reduced; returns the
    number of pairs the criteria dropped on insertion."""
    pairs, dropped = set(), 0
    for t in range(len(leads)):
        same = sum(p & groebner.COMP_MAX == leads[t] & groebner.COMP_MAX for p in leads[:t])
        kept = assert_same_update(leads, pairs, t, order)
        dropped += len(pairs) + same - len(kept)
        pairs = {p for p in kept if rng.random() < 0.8}
    return dropped


def random_exponents(rng, n, top):
    return tuple(rng.randint(0, top) if rng.random() < 0.6 else 0 for _ in range(n))


def test_rank_one_updates_match_the_reference(qq4):
    rng = random.Random(32)
    order = ModuleOrder(FreeModule(qq4, (0,)))
    coprime = equal_lcms = 0
    for _ in range(60):
        # a small pool, so leads repeat and lcms coincide
        pool = [random_exponents(rng, 4, 3) for _ in range(6)]
        exps = [rng.choice(pool) for _ in range(rng.randint(2, 9))]
        exps = [e for e in exps if any(e)] or [(1, 0, 0, 0)]
        for t, e in enumerate(exps):
            mins = [tuple(map(min, e, f)) for f in exps[:t]]
            coprime += sum(not any(m) for m in mins)
            lcms = [tuple(map(max, e, f)) for f in exps[:t]]
            equal_lcms += len(lcms) - len(set(lcms))
        leads = [order.pack(0, qq4.pack(e)) for e in exps]
        insert_all(leads, order, rng)
    assert coprime and equal_lcms


def test_rank_two_and_more_with_a_split_and_negative_twists_match_the_reference(qq4):
    rng = random.Random(33)
    dropped = 0
    for twists, split in (((-2, 0), 1), ((-2, 0, 1, -1), 2), ((3, -1, 0), None)):
        order = ModuleOrder(FreeModule(qq4, twists), split)
        for _ in range(40):
            terms = [
                (rng.randrange(len(twists)), random_exponents(rng, 4, 3))
                for _ in range(rng.randint(2, 12))
            ]
            leads = [order.pack(c, qq4.pack(e)) for c, e in terms]
            dropped += insert_all(leads, order, rng)
    assert dropped


def test_every_update_of_a_corpus_pass_matches_the_reference(monkeypatch):
    calls = []

    def recording(leads, pairs, t, order):
        calls.append((list(leads[: t + 1]), set(pairs), t, order))
        return _update_pairs(leads, pairs, t, order)

    monkeypatch.setattr(groebner, "_update_pairs", recording)
    run_corpus(QQ)
    monkeypatch.undo()
    # one insertion each; the m = 0 row adds its two relations, interreduced
    # and seeded into its syzygy step, which then reduces two pairs fewer
    assert len(calls) == 987
    for call in calls:
        assert_same_update(*call)


# ---------------------------------------------------------------------------
# the count of terms the leads divide


@pytest.mark.parametrize("twists", [(0,), (0, 2, -1), (1, 1, 0, -2)])
def test_covered_terms_match_a_count_over_exponent_tuples(qq4, twists):
    rng = random.Random(len(twists))
    module = FreeModule(qq4, twists)
    order = ModuleOrder(module)
    for _ in range(25):
        # some components get one lead or none, and a lead may repeat
        comps = [rng.randrange(len(twists)) for _ in range(rng.randint(1, 7))]
        leads = [(c, random_exponents(rng, 4, 3)) for c in comps]
        leads += [rng.choice(leads) for _ in range(rng.randint(0, 2))]
        packed = [order.pack(c, qq4.pack(e)) for c, e in leads]
        for degree in range(min(twists), max(twists) + 8):
            want = covered_terms_by_tuples(module, leads, degree)
            assert _covered_terms(packed, degree, order) == want, (leads, degree)


def test_covered_terms_refuse_exactly_past_the_packed_bound():
    ring = PolyRing(QQ, 3)
    order = ModuleOrder(FreeModule(ring, (0, -1)))
    # one lead per component, so the count at the bound is the closed form
    leads = [order.pack(0, ring.pack((1, 2, 0))), order.pack(1, ring.pack((0, 0, 4)))]
    bound = order.max_sdeg
    assert _covered_terms(leads, bound, order) > 0
    with pytest.raises(PackingOverflowError, match="packed degree bound"):
        _covered_terms(leads, bound + 1, order)
    with pytest.raises(PackingOverflowError, match="packed degree bound"):
        _covered_terms(leads[1:], bound + 1, order)
    assert _covered_terms([], bound + 1, order) == 0
