"""Kernel outputs in engine form, against their eagerly built copies.

A Vector that the Groebner kernel returns keeps its integer terms and
builds its entries only when they are read, and the kernel takes those
terms back with no conversion: the syzygies an elimination returns from
its tag block enter ``ModuleOrder(module)`` and the target block of the
next elimination by one added constant.  Every kernel call must give the
same result on such a Vector as on its eager copy ``Vector(v.module,
v.entries)``, which goes through the input boundary instead; ``is_zero``,
``degree`` and ``is_homogeneous`` read the terms and build no entries;
``==``, ``hash``, ``pickle`` and ``copy`` see the values only.  On the 22
corpus rows and on seeded (1,1), (1,2), (2,2) and (1,3) pairs, over QQ
and GF(32003).
"""

import copy
import pickle

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.groebner import (
    Basis,
    _Packed,
    _ideal_module,
    groebner_basis,
    ideal_groebner,
    ideal_intersection,
    module_colon,
    module_gb_and_syzygies,
    normal_form,
    saturate_ideal,
    syzygy_basis,
)
from logtangent.hilbert import hilbert_of_quotient
from logtangent.modules import FreeModule, Vector
from logtangent.poly import PolyRing
from logtangent.resolution import minimal_generators, resolve_submodule
from logtangent.search import sample_pair
from logtangent.sequences import Sequence

FIELDS = (QQ, PrimeField(32003))
SHAPES = ((1, 1), (1, 2), (2, 2), (1, 3))


def cases():
    for field in FIELDS:
        ring = PolyRing(field, 4)
        for fx in FIXTURES:
            yield pytest.param(field, fx.f, fx.g, id=f"{fx.name}-{field}")
        for df, dg in SHAPES:
            for index in range(2):
                f, g = sample_pair(ring, df, dg, 30, index)
                yield pytest.param(field, str(f), str(g), id=f"({df},{dg})#{index}-{field}")


def eager(vectors):
    return [Vector(v.module, v.entries) for v in vectors]


def refused(self, name):
    raise AssertionError(f"{name} read from an engine-form vector")


def packed_reads(monkeypatch, vectors):
    """(is_zero, degree, is_homogeneous) of each engine-form vector, read
    while building entries is refused."""
    assert vectors and all(isinstance(v, _Packed) for v in vectors)
    with monkeypatch.context() as patch:
        patch.setattr(_Packed, "__getattr__", refused)
        return [(v.is_zero(), v.degree, v.is_homogeneous()) for v in vectors]


def check_forms(monkeypatch, vectors):
    """Reads without entries, equality, hashing, pickle and copy against the
    eager copies; returns the copies."""
    reads = packed_reads(monkeypatch, vectors)
    copies = eager(vectors)
    assert reads == [(e.is_zero(), e.degree, e.is_homogeneous()) for e in copies]
    for v, e in zip(vectors, copies):
        assert v == e and e == v and hash(v) == hash(e)
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert twin == v and hash(twin) == hash(v)
    return copies


@pytest.mark.parametrize("field,f,g", cases())
def test_kernel_calls_agree_on_engine_form_and_eager_inputs(monkeypatch, field, f, g):
    ring = PolyRing(field, 4)
    seq = Sequence.parse(ring, f, g)
    source = seq.source_module()
    # syzygies from the tag block of one elimination, unread
    _, syz, _ = module_gb_and_syzygies(seq.jacobian_columns, degrees=source.twists)
    kept = minimal_generators(syz)
    assert kept == minimal_generators(check_forms(monkeypatch, syz))
    copies = eager(kept)
    degrees = [v.degree for v in kept]

    # the tag block -> ModuleOrder move
    gb = groebner_basis(kept)
    assert gb == groebner_basis(copies)
    eager_gb = check_forms(monkeypatch, gb)
    forms = [normal_form(v, gb[1:]) for v in kept]
    assert forms == [normal_form(e, eager_gb[1:]) for e in copies]
    check_forms(monkeypatch, forms)

    # the tag block -> target block move: syzygies fed back as generators
    second = syzygy_basis(kept, degrees)[1]
    assert second == syzygy_basis(copies, degrees)[1]
    if second:
        check_forms(monkeypatch, second)
    quotient = hilbert_of_quotient(source, gb).numerator
    assert quotient == hilbert_of_quotient(source, eager_gb).numerator
    ours, theirs = (resolve_submodule(source, gens, quotient) for gens in (kept, copies))
    assert (ours.modules, ours.gens, ours.diffs) == (theirs.modules, theirs.gens, theirs.diffs)

    # a colon by an engine-form target, then the ideal layer on its Basis
    colon = module_colon(kept[1:], kept[0])
    assert colon == module_colon(copies[1:], copies[0])
    minors = ideal_groebner(ring, [p for p in seq.minors.values() if not p.is_zero()])
    plain = [Basis(ring, tuple(b)) for b in (colon, minors)]
    assert saturate_ideal(ring, colon) == saturate_ideal(ring, plain[0])
    assert ideal_intersection(ring, colon, minors) == ideal_intersection(ring, *plain)


def test_inhomogeneous_normal_forms_read_like_their_copies(monkeypatch):
    # normal_form takes any input, so its output is homogeneous only when the
    # input is; then degree is the eager one: the top degree of a rank-one
    # vector, and an error naming the degrees of components that disagree
    ring = PolyRing(QQ, 3)
    reducer, top, low = (ring.parse(p) for p in ("x0^2 - 1/2*x1*x2", "x0^3 + 3*x0^2 + x2", "x1"))
    for module, v, g in (
        (_ideal_module(ring), (top,), (reducer,)),
        (FreeModule(ring, (0, 0)), (top, low), (reducer, ring.zero())),
    ):
        v = normal_form(Vector(module, v), groebner_basis([Vector(module, g)]))
        with monkeypatch.context() as patch:
            patch.setattr(_Packed, "__getattr__", refused)
            assert not v.is_zero() and not v.is_homogeneous()
        twin = Vector(v.module, v.entries)
        assert not twin.is_homogeneous()
        if module.rank == 1:
            assert v.degree == twin.degree == 3
            continue
        for w in (v, twin):
            with pytest.raises(ValueError, match=r"not homogeneous: degrees \[1, 3\]"):
                w.degree
