"""Buchberger Groebner bases for submodules of graded free modules.

The engine works on flat term lists sorted strictly descending under a
:class:`ModuleOrder`.  The order is graded term-over-position: terms compare
first by twist-shifted degree, then grevlex on the monomial, then by
ascending component index; an optional leading block of components turns it
into an elimination order.  One elimination over a "tag" block, built only in
its tag half (``_eliminate``), computes syzygies, colon ideals and intersections.

Internally a term is ``(packed, coeff)`` with one ``int`` whose integer order
is the module order: a term of component ``c`` with packed monomial ``m``
(see :mod:`.poly`) is ``base[c] + (m << COMP_BITS)``, where ``base[c]`` holds
the block bit, the biased twist added to the monomial's degree field, and
``COMP_MAX - c`` in the low bits.  So converting a :class:`Vector` is one shift
and add per term, a monomial shift is one addition, and a divisibility test is
one masked subtraction on the ring's guard bits (Monagan & Pearce, CASC 2007).
Inputs and S-pair lcms that do not fit raise :class:`PackingOverflowError`;
reduction keeps degrees, so nothing else can overflow.

Coefficients inside are integers, as in fraction-free elimination (Geddes,
Czapor & Labahn 1992): a basis member is stored over QQ as its primitive
integer multiple with a positive lead, over GF(p) as monic.  QQ values are
cleared to integers on entry and built back, one ``field.of`` per term, only
in the bases and normal forms handed back.  A normal form keeps its pending
terms in a dict of integers over one running scale, which grows when a
reducer's lead coefficient needs it.  Only terms of a component in which
some reducer leads enter the max-heap; the others (the tag terms of an
elimination before its first syzygy) wait in the dict until the end.  Sums
stay unreduced until a term leaves, when ``% p`` makes it canonical over GF(p).

Pair handling follows Gebauer-Moeller: the chain criterion prunes the pair
queue on every insertion, and the coprimality criterion is applied in the
rank-one (ideal) case only, where it is valid.  A pair is the tuple
``(degree, i, j)``, its S-pair degree (the honest degree, since all inputs
here are homogeneous) computed once when it is formed, so ``min(pairs)``
selects by degree with index tie-breaks.  Two more rules drop pairs whose
reduction the answer cannot use:

* Hilbert-driven (Traverso 1996).  When the Hilbert function H of the
  span is known before any reduction runs, the terms of degree D that the
  current leads divide, counted on reaching D and raised by one per
  insertion there, number at most H(D); once they number H(D) they span
  the initial module in degree D, so every pair left in degree D reduces
  to zero and is dropped.  Leaving a degree in which pairs were reduced,
  the count must equal H(D), else ``ConsistencyError``: that catches an H
  too large.  Syzygies know H as a free module's, a colon M : t given H_M
  as H_R(D - deg t) + H_M(D), and I cap J as H_I + H_J; the elimination
  of ``ideal_colon`` is given no H and reduces every pair.
* A degree cap: ``groebner_basis(gens, up_to=d)`` reduces no pair above d,
  which leaves the members of degree at most d of the full basis.

Every returned basis is fully interreduced and monic, hence canonical for
the given order, so neither rule changes an output.

The ideal layer returns each basis as a canonical :class:`Basis`, which
``ideal_groebner`` hands back as it is and I cap I returns, so no basis is
reduced twice.  As grevlex puts x_{n-1} last, I : x_{n-1} is read off a
Basis (Bayer & Stillman 1987); every other colon is the tagged elimination.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb, gcd, lcm
from operator import itemgetter
from typing import Sequence

from .modules import FreeModule, Vector
from .poly import (
    EXP_MAX,
    ConsistencyError,
    PackingOverflowError,
    Polynomial,
    dot,
    integer_terms,
    monomial_divides,
    monomials_of_degree,
)


# Field widths a module term adds to a packed monomial: the component below
# it, the biased shifted degree field of DEG_BITS bits, then the block bit.
DEG_BITS = 10
COMP_BITS = 10
DEG_BIAS = 1 << (DEG_BITS - 1)
COMP_MAX = (1 << COMP_BITS) - 1


class ModuleOrder:
    """Graded TOP order with an optional elimination block of leading components."""

    def __init__(self, module: FreeModule, split: int | None = None):
        self.ring = ring = module.ring
        self.twists = tuple(module.twists)
        self.split = len(self.twists) if split is None else split
        low = min(self.twists, default=0)
        if len(self.twists) > COMP_MAX + 1 or low < -DEG_BIAS:
            raise PackingOverflowError(
                f"{len(self.twists)} components with least twist {low} do not pack"
            )
        self.exp_mask = ring.exp_mask << COMP_BITS
        self.guards = ring.guards << COMP_BITS
        # every exponent of a term is at most its shifted degree minus the least twist
        self.max_sdeg = min(DEG_BIAS - 1, EXP_MAX + low)
        deg_shift = ring.deg_shift + COMP_BITS
        # set in the terms of the first block, the components below split
        self.block_bit = 1 << (deg_shift + DEG_BITS)
        # a term is base[comp] + (monomial << COMP_BITS)
        self.base = tuple(
            (self.block_bit if comp < self.split else 0)
            + ((twist + DEG_BIAS) << deg_shift)
            + COMP_MAX
            - comp
            for comp, twist in enumerate(self.twists)
        )

    def check_degree(self, comp: int, degree: int) -> None:
        """Refuse a monomial degree in comp past the packed degree bound."""
        if degree + self.twists[comp] > self.max_sdeg:
            raise PackingOverflowError(
                f"degree {degree} in component {comp} exceeds the packed degree bound"
            )

    def pack(self, comp: int, m: int) -> int:
        self.check_degree(comp, m >> self.ring.deg_shift)
        return self.base[comp] + (m << COMP_BITS)

    def unpack(self, p: int) -> tuple[int, int]:
        """(component, packed monomial) of a packed term."""
        comp = COMP_MAX - (p & COMP_MAX)
        return comp, (p - self.base[comp]) >> COMP_BITS


def _divides(a: int, b: int, order: ModuleOrder) -> bool:
    """Packed term a divides packed term b, in the same component."""
    m, g = order.exp_mask, order.guards
    return not (a ^ b) & COMP_MAX and ((a & m | g) - (b & m)) & g == g


# ---------------------------------------------------------------------------
# packed-term primitives: term = (packed, coeff)


def _vector_to_terms(v: Vector, order: ModuleOrder):
    terms = []
    for comp, p in enumerate(v.entries):
        if p.terms:
            order.check_degree(comp, p.degree)
            base = order.base[comp]
            terms += [(base + (m << COMP_BITS), c) for m, c in p.terms]
    terms.sort(key=itemgetter(0), reverse=True)
    return terms


def _terms_to_vector(module: FreeModule, order: ModuleOrder, terms, first=0) -> Vector:
    """Vector of module from terms whose components start at index first."""
    buckets: list[list] = [[] for _ in range(module.rank)]
    base = order.base
    for p, c in terms:
        comp = COMP_MAX - (p & COMP_MAX)
        buckets[comp - first].append(((p - base[comp]) >> COMP_BITS, c))
    # within a component the module order is the ring's, so each bucket is sorted
    return Vector(module, tuple(Polynomial(module.ring, tuple(b)) for b in buckets))


def _normalize(terms, field):
    """The stored multiple of nonzero integer terms: monic over GF(p), and
    over QQ primitive (coefficient gcd 1) with a positive lead coefficient."""
    lc = terms[0][1]
    if lc == 1:  # inputs are often members of an earlier, monic basis
        return terms
    if char := field.characteristic:
        inv = field.inv(lc)
        return [(p, c * inv % char) for p, c in terms]
    g = gcd(*[c for _, c in terms])
    if lc < 0:
        g = -g
    return terms if g == 1 else [(p, c // g) for p, c in terms]


def _field_values(terms, d, field):
    """The field values of integer terms over d, which is 1 over GF(p)."""
    if field.characteristic:
        return terms
    return [(p, field.of(c, d)) for p, c in terms]


def _normal_form_terms(terms, reducers_by_comp, order: ModuleOrder):
    """Full normal form of integer terms against indexed reducer entries.

    Returns ``(out, s)``, out sorted with reduced nonzero coefficients: the
    normal form is out / s.  Pending terms of a component where a reducer
    leads are popped from a heap, largest first, and reduced by the first
    reducer, in insertion order, whose lead divides them; every term a
    reduction adds is smaller, so a key enters the heap once.  The other
    terms wait in the dict and leave at the end.  The scale s starts at 1.
    A reducer entry stands for its member divided by its lead coefficient d
    (see :func:`_index_reducer`); reducing a pending integer a by it scales
    every pending and emitted integer, and s, by f = d / gcd(a, d) when f
    is not 1, then subtracts a / gcd(a, d) times the integer tail.  Over
    GF(p) every d is 1, so s stays 1.
    """
    acc = dict(terms)
    scale = 1
    heap = [-p for p in acc if p & COMP_MAX in reducers_by_comp]
    heapify(heap)
    out = []
    char = order.ring.field.characteristic
    exp_mask, guards = order.exp_mask, order.guards
    get = acc.get
    while heap:
        p = -heappop(heap)
        c = acc.pop(p)
        if char:
            c %= char
        if not c:
            continue
        exps = p & exp_mask
        for guarded, lead, tail, d in reducers_by_comp[p & COMP_MAX]:
            if (guarded - exps) & guards == guards:
                break
        else:
            out.append((p, c))
            continue
        if d != 1:
            g = gcd(c, d)
            c //= g
            f = d // g
            if f != 1:
                scale *= f
                acc = {q: qc * f for q, qc in acc.items()}
                get = acc.get
                out = [(q, qc * f) for q, qc in out]
        shift = p - lead
        c = -c
        for q, qc in tail:
            q += shift
            a = get(q)
            if a is None:
                acc[q] = qc * c
                if q & COMP_MAX in reducers_by_comp:
                    heappush(heap, -q)
            else:
                acc[q] = a + qc * c
    if acc:  # the terms that waited outside the heap
        out += [(q, c) for q, a in acc.items() if (c := a % char if char else a)]
        out.sort(key=itemgetter(0), reverse=True)
    return out, scale


def _index_reducer(by_comp, terms, order: ModuleOrder):
    """Index normalized terms by their component, and return the entry.

    The entry is ``(guarded lead, lead, tail, d)`` with d the lead
    coefficient, so the tail holds d times the monic member's coefficients.
    """
    lead, d = terms[0]
    entry = (lead & order.exp_mask | order.guards, lead, terms[1:], d)
    by_comp.setdefault(lead & COMP_MAX, []).append(entry)
    return entry


def _index_by_comp(vectors, order: ModuleOrder):
    """Reducer index of the nonzero vectors, in their order."""
    field = order.ring.field
    by_comp: dict[int, list] = {}
    for v in vectors:
        terms, _ = integer_terms(_vector_to_terms(v, order), field)
        if terms:
            _index_reducer(by_comp, _normalize(terms, field), order)
    return by_comp


# ---------------------------------------------------------------------------
# Buchberger driver with Gebauer-Moeller pair updates


def _update_pairs(leads, pairs, t, twists):
    """Add generator index t, pruning pairs per Gebauer-Moeller.

    ``leads`` holds the (component, exponents) of each generator's lead, and a
    pair is (S-pair degree, i, j), so ``min(pairs)`` is the next to reduce.
    """
    comp_t, e_t = leads[t]

    kept = set()
    for pair in pairs:
        _, i, j = pair
        (ci, ei), (_, ej) = leads[i], leads[j]
        if ci != comp_t:
            kept.add(pair)
            continue
        l_ij = tuple(map(max, ei, ej))
        if (
            not monomial_divides(e_t, l_ij)
            or l_ij == tuple(map(max, ei, e_t))
            or l_ij == tuple(map(max, ej, e_t))
        ):
            kept.add(pair)

    lcm_groups: dict[tuple[int, ...], list[int]] = {}
    for i in range(t):
        ci, ei = leads[i]
        if ci == comp_t:
            lcm_groups.setdefault(tuple(map(max, ei, e_t)), []).append(i)

    # by degree, so a proper divisor of an lcm comes before it
    minimal: list[tuple[int, ...]] = []
    for lcm in sorted(lcm_groups, key=sum):
        if not any(monomial_divides(prev, lcm) for prev in minimal):
            minimal.append(lcm)

    for lcm in minimal:
        members = lcm_groups[lcm]
        # the coprimality criterion holds in the rank-one (ideal) case only
        if len(twists) == 1 and any(
            all(a == 0 or b == 0 for a, b in zip(leads[i][1], e_t)) for i in members
        ):
            continue
        kept.add((twists[comp_t] + sum(lcm), min(members), t))
    return kept


def _spair_terms(ri, rj, order: ModuleOrder):
    """lcm(di, dj) * (x^u gi - x^v gj) from the reducer entries of members
    gi, gj (taken monic) whose leads share a component.

    The factor makes every coefficient an integer.  It scales the normal form
    by a nonzero constant, which neither the zero test nor the normalized
    member sees.  Returns an unreduced {packed: coeff} dict for
    :func:`_normal_form_terms`.
    """
    ring = order.ring
    _, lead_i, tail_i, di = ri
    _, lead_j, tail_j, dj = rj
    comp, mi = order.unpack(lead_i)
    _, mj = order.unpack(lead_j)
    top = order.pack(comp, ring.pack(tuple(map(max, ring.unpack(mi), ring.unpack(mj)))))
    if di != dj:
        scale = lcm(di, dj)
        tail_i = [(p, c * (scale // di)) for p, c in tail_i]
        tail_j = [(p, c * (scale // dj)) for p, c in tail_j]
    shift = top - lead_i
    acc = {p + shift: c for p, c in tail_i}
    shift = top - lead_j
    for p, c in tail_j:
        p += shift
        acc[p] = acc[p] - c if p in acc else -c
    return acc


@lru_cache(maxsize=None)
def _monomial_shifts(ring, degree: int) -> tuple[int, ...]:
    """What adding to a packed term multiplies it by each monomial of degree."""
    return tuple(
        (ring.pack(e) - ring.unit) << COMP_BITS
        for e in monomials_of_degree(ring.nvars, degree)
    )


def _covered_terms(leads, degree: int, order: ModuleOrder) -> int:
    """How many terms of shifted degree ``degree`` some packed lead divides."""
    covered: set = set()
    for lead in leads:
        comp, m = order.unpack(lead)
        monomial_degree = degree - order.twists[comp]
        if (k := monomial_degree - (m >> order.ring.deg_shift)) >= 0:
            order.check_degree(comp, monomial_degree)
            covered.update([lead + s for s in _monomial_shifts(order.ring, k)])
    return len(covered)


def _free_hilbert(n: int, degrees, plus=lambda d: 0):
    """The Hilbert function of the free module on generators of the given
    degrees over n variables, plus the function ``plus``."""
    return lambda d: plus(d) + sum(comb(d - a + n - 1, n - 1) for a in degrees if a <= d)


def _buchberger_terms(inputs, order: ModuleOrder, span_hilbert=None, up_to=None):
    """Reduced basis of the submodule the field-valued term lists generate;
    under an elimination order, its members led in the second block only.

    With ``span_hilbert``, the Hilbert function of that submodule, pairs are
    skipped by it and it is checked (see the module docstring).  With
    ``up_to``, no pair of degree above it is reduced.
    """
    field, unpack = order.ring.field, order.ring.unpack
    basis: list = []
    leads: list = []
    pairs: set = set()
    by_comp: dict[int, list] = {}

    def insert(terms):
        nonlocal pairs
        entry = _index_reducer(by_comp, _normalize(terms, field), order)
        basis.append(entry)
        comp, m = order.unpack(entry[1])
        leads.append((comp, unpack(m)))
        pairs = _update_pairs(leads, pairs, len(basis) - 1, order.twists)

    def leave_degree():  # every pair of the degree is done, so the leads span it
        if reduced and covered != hilbert:
            raise ConsistencyError(f"degree {degree}: {covered} terms covered, not {hilbert}")

    for terms in inputs:
        if terms:
            insert(integer_terms(terms, field)[0])

    degree, covered, hilbert, reduced = None, 0, -1, False
    while pairs:
        pair = min(pairs)
        pairs.discard(pair)
        d, i, j = pair
        if up_to is not None and d > up_to:
            break
        if span_hilbert is not None:
            if d != degree:
                leave_degree()
                degree, reduced = d, False
                covered = _covered_terms([entry[1] for entry in basis], d, order)
                hilbert = span_hilbert(d)
            if covered == hilbert:
                # the leads span the initial module in degree d
                pairs = {p for p in pairs if p[0] != d}
                continue
            reduced = True
        s = _spair_terms(basis[i], basis[j], order)
        r, _ = _normal_form_terms(s, by_comp, order)
        if r:
            insert(r)
            covered += 1
    leave_degree()

    return _interreduce_terms(basis, order)


def _interreduce_terms(entries, order: ModuleOrder):
    """Canonical reduced basis of reducer entries: minimal leads, tails fully
    reduced, monic, with field values built once per term.

    Every tail is reduced against one index of the whole minimal basis: no
    minimal lead divides another, and a lead divides no smaller term, so each
    term meets the reducer it would meet among the other members alone.
    Under an elimination order the members led in the first block are
    dropped first, and the others come out the same without them: a member
    led in the second block has no first-block term, as those are larger
    than its lead, and divisibility never crosses components, so no
    first-block lead divides any of its terms.
    """
    if order.split < len(order.twists):
        entries = [entry for entry in entries if not entry[1] & order.block_bit]
    minimal: list = []
    by_comp: dict[int, list] = {}
    for entry in sorted(entries, key=itemgetter(1)):
        if not any(_divides(kept[1], entry[1], order) for kept in minimal):
            minimal.append(entry)
            by_comp.setdefault(entry[1] & COMP_MAX, []).append(entry)
    basis = []
    for _, lead, tail, d in minimal:
        rest, scale = _normal_form_terms(tail, by_comp, order)
        d *= scale
        basis.append(_field_values([(lead, d), *rest], d, order.ring.field))
    return basis


# ---------------------------------------------------------------------------
# public module-level API


def groebner_basis(gens: Sequence[Vector], *, up_to: int | None = None) -> list[Vector]:
    """Reduced monic Groebner basis of the submodule generated by gens.

    With ``up_to``, only the members of degree at most up_to of that basis,
    computed without reducing any S-pair of higher degree; an input of
    degree above up_to is refused.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    module = gens[0].module
    for g in gens:
        if g.module != module:
            raise ValueError("generators live in different modules")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
        if up_to is not None and g.degree > up_to:
            raise ValueError(f"generator of degree {g.degree} is above up_to = {up_to}")
    order = ModuleOrder(module)
    inputs = [_vector_to_terms(g, order) for g in gens]
    basis = _buchberger_terms(inputs, order, up_to=up_to)
    return [_terms_to_vector(module, order, terms) for terms in basis]


def normal_form(v: Vector, basis: Sequence[Vector]) -> Vector:
    """Normal form of v against a Groebner basis of its parent module."""
    if any(g.module != v.module for g in basis):
        raise ValueError("vector and basis live in different modules")
    order = ModuleOrder(v.module)
    field = v.module.ring.field
    terms, d = integer_terms(_vector_to_terms(v, order), field)
    r, s = _normal_form_terms(terms, _index_by_comp(basis, order), order)
    return _terms_to_vector(v.module, order, _field_values(r, d * s, field))


def spoly_reduces_to_zero(basis: Sequence[Vector]) -> bool:
    """Check the Groebner property directly: all S-pairs reduce to zero."""
    if not basis:
        return True
    order = ModuleOrder(basis[0].module)
    by_comp = _index_by_comp(basis, order)
    for reducers in by_comp.values():
        for a, b in combinations(reducers, 2):
            if _normal_form_terms(_spair_terms(a, b, order), by_comp, order)[0]:
                return False
    return True


class Submodule:
    """Nonzero generators of a graded submodule of a free module."""

    def __init__(self, module: FreeModule, gens: Sequence[Vector]):
        self.module = module
        self.gens = tuple(g for g in gens if not g.is_zero())

    def __repr__(self):
        return f"Submodule({len(self.gens)} gens of {self.module!r})"


# ---------------------------------------------------------------------------
# syzygies, colons and intersections: one elimination over a tag block
#
# Each generator g_i of the target module is paired with a tag t_i, a vector
# in an extra block of components ordered after the target's.  The members of
# the basis of the (g_i | t_i) led in the tag block have no target part, so
# their tags are a basis of {sum r_i t_i : sum r_i g_i = 0}.  The members led
# in the target block, a basis of the image (g_i), are dropped unbuilt.
# Basis-vector tags give the syzygies, (t | 1) with (g | 0) gives M : t, and
# (f | f) with (g | 0) gives I cap J.


def _eliminate(gens: Sequence[Vector], tags: Sequence[Vector], span_hilbert) -> list[Vector]:
    """The tag parts of the members led in the tag block of the elimination
    basis of the (g_i | t_i), as vectors of the tags' module.

    ``span_hilbert``, the span's Hilbert function or None, skips the
    S-pairs that would reduce to zero (see the module docstring).
    """
    target, tag = gens[0].module, tags[0].module
    k = target.rank
    aug = FreeModule(target.ring, target.twists + tag.twists)
    order = ModuleOrder(aug, split=k)
    inputs = []
    for g, t in zip(gens, tags):
        v = Vector(aug, g.entries + t.entries)
        # homogeneity keeps tag terms, too, at their checked S-pair degree
        if not v.is_homogeneous():
            raise ValueError("generators must be homogeneous")
        inputs.append(_vector_to_terms(v, order))
    basis = _buchberger_terms(inputs, order, span_hilbert)
    return [_terms_to_vector(tag, order, terms, first=k) for terms in basis]


def module_gb_and_syzygies(
    gens: Sequence[Vector], degrees: Sequence[int]
) -> tuple[FreeModule, list[Vector]]:
    """The syzygies of gens from one elimination Groebner run.

    Returns ``(syzygy_module, syzygy_gens)`` where the syzygy module is free
    on the input generators with twists ``degrees``, each generator's degree
    (a zero generator's too), so all syzygies are homogeneous.  The
    basis-vector tags make the span of the (g_i | e_i) free, so pairs are
    skipped by its Hilbert function.  The elimination builds no image
    basis; ``groebner_basis(gens)`` gives it.

    ``syzygy_basis`` is this function under the name the resolution steps
    call; both names stay while the benchmark traces each as its own span.
    """
    if not gens:
        raise ValueError("no generators")
    if len(degrees) != len(gens):
        raise ValueError("degree list does not match generators")
    syz_module = FreeModule(gens[0].module.ring, degrees)
    tags = [syz_module.basis_vector(i) for i in range(len(gens))]
    return syz_module, _eliminate(gens, tags, _free_hilbert(syz_module.ring.nvars, degrees))


def syzygy_basis(
    gens: Sequence[Vector], degrees: Sequence[int]
) -> tuple[FreeModule, list[Vector]]:
    """Generators of the syzygy module of the given homogeneous elements: the
    kernel of the map with columns gens from the free module with twists
    degrees: ``module_gb_and_syzygies`` under a second traced name (see there)."""
    return module_gb_and_syzygies(gens, degrees)


# ---------------------------------------------------------------------------
# ideal arithmetic (rank-one convenience layer)


def _ideal_module(ring) -> FreeModule:
    return FreeModule(ring, (0,))


def _as_vectors(ring, polys: Sequence[Polynomial]) -> list[Vector]:
    module = _ideal_module(ring)
    return [Vector(module, (p,)) for p in polys if not p.is_zero()]


class Basis(tuple):
    """The reduced monic grevlex basis of an ideal of ``ring``, by ascending
    lead.  Only this module builds one, so one of the ring in hand is trusted;
    a plain sequence, or a Basis of another ring, is only generators."""

    def __new__(cls, ring, polys: Sequence[Polynomial] = ()):
        basis = super().__new__(cls, polys)
        basis.ring = ring
        return basis

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which needs the ring
        return self.ring, tuple(self)


def _is_basis(ring, polys) -> bool:
    return isinstance(polys, Basis) and polys.ring == ring


def ideal_groebner(ring, polys: Sequence[Polynomial]) -> Basis:
    """The reduced basis of the ideal polys generate; a Basis of ring as it is."""
    if _is_basis(ring, polys):
        return polys
    gb = groebner_basis(_as_vectors(ring, polys))
    return Basis(ring, [v.entries[0] for v in gb])


def ideal_equals(ring, a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    """Equality of ideals via their canonical reduced Groebner bases."""
    return ideal_groebner(ring, a) == ideal_groebner(ring, b)


def module_colon(mod_gens: Sequence[Vector], target: Vector, image_hilbert=None) -> Basis:
    """The ideal {r in R : r * target lies in the submodule M spanned by mod_gens}.

    ``image_hilbert``, the Hilbert function of M, skips pairs: the span of
    (target | 1) and the (g | 0) maps onto R(-deg target) with kernel M.
    """
    if target.is_zero():
        raise ValueError("colon by the zero element")
    ring = target.module.ring
    tag = FreeModule(ring, (target.degree,))
    tags = [tag.basis_vector(0)] + [tag.zero()] * len(mod_gens)
    span = image_hilbert and _free_hilbert(ring.nvars, tag.twists, image_hilbert)
    colon = _eliminate([target, *mod_gens], tags, span)
    return Basis(ring, [v.entries[0] for v in colon])


def _colon_last_variable(basis: Basis) -> Basis:
    """I : x_{n-1} read off the grevlex basis of I (Bayer & Stillman 1987).

    Grevlex puts x_{n-1} last, so it divides a homogeneous member when it
    divides the lead, and dividing those members by it leaves a Groebner
    basis of I : x_{n-1} that only needs interreducing.  If no lead moves,
    the colon is I.
    """
    ring = basis.ring
    s = ring.shifts[-1]
    # exponents are stored complemented, so dividing by x_{n-1} raises its field
    step = (1 << s) - (1 << ring.deg_shift)
    quotient, moved = [], False
    for g in basis:
        if (g.terms[0][0] >> s) & EXP_MAX != EXP_MAX:
            g = Polynomial(ring, tuple((m + step, c) for m, c in g.terms))
            moved = True
        quotient.append(g)
    if not moved:
        return basis
    module = _ideal_module(ring)
    order = ModuleOrder(module)
    (entries,) = _index_by_comp(_as_vectors(ring, quotient), order).values()
    reduced = _interreduce_terms(entries, order)
    return Basis(ring, [_terms_to_vector(module, order, t).entries[0] for t in reduced])


def ideal_colon(ring, gens: Sequence[Polynomial], h: Polynomial) -> Basis:
    """Ideal quotient (gens) : h; read off gens when it is a Basis and h is x_{n-1}."""
    if h.is_zero():
        raise ValueError("colon by zero")
    if _is_basis(ring, gens) and h == ring.variable(ring.nvars - 1):
        return _colon_last_variable(gens)
    module = _ideal_module(ring)
    return module_colon(_as_vectors(ring, gens), Vector(module, (h,)))


def ideal_intersection(ring, a: Sequence[Polynomial], b: Sequence[Polynomial]) -> Basis:
    """Intersection of two homogeneous ideals, as a reduced Groebner basis.

    Equal Bases are one ideal, returned with no elimination.  Otherwise the
    span of the (f | f), f in I, and (g | 0), g in J, is the injective image
    of I (+) J under (x, y) -> (x + y | x), so it has the Hilbert function
    H_I + H_J: the terms the leads of I and J divide, counted in two
    components.
    """
    a, b = (ideal_groebner(ring, x) for x in (a, b))
    if a == b:
        return a
    if not a or not b:
        return Basis(ring)
    order = ModuleOrder(FreeModule(ring, (0, 0)))
    leads = [order.pack(c, p.terms[0][0]) for c, ideal in enumerate((a, b)) for p in ideal]
    a, b = _as_vectors(ring, a), _as_vectors(ring, b)
    zero = _ideal_module(ring).zero()
    both = _eliminate(a + b, a + [zero] * len(b), lambda d: _covered_terms(leads, d, order))
    return Basis(ring, [v.entries[0] for v in both])


def saturate_ideal(ring, gens: Sequence[Polynomial]) -> Basis:
    """Saturation I : (x0, ..., x_{n-1})^oo, as a reduced Groebner basis.

    I^sat is the intersection over i of I : x_i^oo, since a power of the
    irrelevant ideal lies in (x0^N, ..., x_{n-1}^N).  Each I : x_i^oo is the
    top of the chain J -> J : x_i started at I, which ascends and so stops
    (R is Noetherian).  If it stops at once, I : x_i = I makes x_i a nonzerodivisor on
    R/I, so I^sat lies in I : x_i^oo = I and I is returned without further
    colons.  Otherwise the tops of all the chains are intersected.

    The chains run from x_{n-1} down to x0.  The steps of the first are read
    off the basis in hand (see ``ideal_colon``), so a saturated input costs
    no elimination, and a Basis input no Groebner run.
    """
    current = ideal_groebner(ring, gens)
    if not current:
        return current
    tops = []
    for i in reversed(range(ring.nvars)):
        x = ring.variable(i)
        top = current
        while (step := ideal_colon(ring, top, x)) != top:
            top = step
        if top == current:
            return current
        tops.append(top)
    result = tops[0]
    for top in tops[1:]:
        result = ideal_intersection(ring, result, top)
    return result


def minor(matrix: Sequence[Sequence[Polynomial]], rows, cols) -> Polynomial | int:
    """Determinant of the square submatrix on the given rows and columns, one
    ``dot`` per expansion; the empty minor is 1, as no entry names the ring."""
    if len(rows) != len(cols):
        raise ValueError("minor needs a square submatrix")
    if len(rows) < 2:
        return matrix[rows[0]][cols[0]] if rows else 1
    subs = [minor(matrix, rows[:k] + rows[k + 1 :], cols[1:]) for k in range(len(rows))]
    signed = [-sub if k % 2 else sub for k, sub in enumerate(subs)]
    return dot([matrix[r][cols[0]] for r in rows], signed)


def fitting_ideal_0(matrix: Sequence[Sequence[Polynomial]]) -> list[Polynomial]:
    """Ideal of maximal minors of a k x m polynomial matrix with k <= m.  With
    no rows it presents the zero module, whose Fitting ideal is [1]."""
    if not matrix:
        return [1]
    k, m = len(matrix), len(matrix[0])
    if k > m:
        raise ValueError("matrix has more rows than columns")
    rows = tuple(range(k))
    out = []
    for cols in combinations(range(m), k):
        d = minor(matrix, rows, cols)
        if not d.is_zero():
            out.append(d)
    return out


def annihilator_of_cokernel(
    target: FreeModule, columns: Sequence[Vector], coker_hilbert
) -> Basis:
    """Annihilator ideal of coker(columns) as intersection of colon ideals;
    the unit ideal for a target of rank zero, whose cokernel is zero.

    ``coker_hilbert``, the cokernel's HilbertData, gives the image's
    Hilbert function H_F - H_coker, by which every colon skips pairs.
    Equal colons, as on dense pairs, intersect with no elimination.
    """
    ring = target.ring
    image = _free_hilbert(ring.nvars, target.twists, lambda d: -coker_hilbert.function_value(d))
    mod_gens = [c for c in columns if not c.is_zero()]
    result: Basis | None = None
    for i in range(target.rank):
        colon = module_colon(mod_gens, target.basis_vector(i), image)
        result = colon if result is None else ideal_intersection(ring, result, colon)
    return result if result is not None else Basis(ring, [ring.one()])
