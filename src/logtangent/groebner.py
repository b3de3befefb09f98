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
integer multiple with a positive lead, over GF(p) as monic.  A Vector handed
back keeps its integer terms, builds its entries when they are read (a term
c over the scale d is ``field.of(c, d)``, a plain ``int`` when d divides c),
and re-enters with its terms moved by one added constant
(``_Packed``, ``_integers``).  A normal form keeps its pending
terms in a dict of integers over one running scale, which grows when a
reducer's lead coefficient needs it.  Only terms of a component in which
some reducer leads enter the max-heap; the others (the tag terms of an
elimination before its first syzygy) wait in the dict until the end.  Sums
stay unreduced until a term leaves, when ``% p`` makes it canonical over GF(p).

Pair handling follows Gebauer & Moeller (JSC 1988) on the exponent fields of
the packed leads: an lcm is read off the guard bits, and its degree is summed
only for a pair kept.  The chain criterion prunes the queue on every
insertion; the coprimality criterion holds in the rank-one (ideal) case
only.  A pair is ``(degree, i, j)``, its honest S-pair degree (inputs are
homogeneous), so ``min(pairs)`` selects by degree with index tie-breaks.
Two more rules drop pairs whose reduction the answer cannot use:

* Hilbert-driven (Traverso 1996).  When the Hilbert function H of the
  span is known before any reduction runs, the terms of degree D that the
  current leads divide, counted on reaching D and raised by one per
  insertion there, number at most H(D); once they number H(D) they span
  the initial module in degree D, so every pair left in degree D reduces
  to zero and is dropped.  Leaving a degree in which pairs were reduced,
  the count must equal H(D): fewer raises ``HilbertShortfall``, more a
  plain ``ConsistencyError``.  Syzygies know H as a free module's, a colon
  M : t given H_M as H_R(D - deg t) + H_M(D), I cap J as H_I + H_J, and
  Fitt_0 of grade 3 by Eagon-Northcott.  A caller may pass instead a bound
  no input of its degrees exceeds (semicontinuity) and read a shortfall as
  a verdict; the elimination of ``ideal_colon`` reduces every pair.
* A degree cap: ``groebner_basis(gens, up_to=d)`` reduces no pair above d,
  which leaves the members of degree at most d of the full basis.

Every returned basis is fully interreduced and monic, hence canonical for
the given order, so neither rule changes an output.

The ideal layer returns each basis as a canonical :class:`Basis`, which
``ideal_groebner`` hands back as it is and I cap I returns, so no basis is
reduced twice.  As grevlex puts x_{n-1} last, I : x_{n-1} is read off a
Basis (Bayer & Stillman 1987).  The annihilator of a rank-two cokernel
with rows a and b has the colon im : e_0 = a . Syz(b) in closed form when
b is a regular sequence or generates the unit ideal: Syz(b) is then
spanned by the Koszul relations (Eisenbud, Commutative Algebra, Cor.
17.5), so the colon is Fitt_0, the ideal of 2 x 2 minors, whose Basis the
caller hands in; likewise im : e_1 with a.  Every other colon is the tagged
elimination.
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
    EXP_BITS,
    EXP_MAX,
    ConsistencyError,
    PackingOverflowError,
    Polynomial,
    dot,
    integer_terms,
)


# Field widths a module term adds to a packed monomial: the component below
# it, the biased shifted degree field of DEG_BITS bits, then the block bit.
DEG_BITS = 10
COMP_BITS = 10
DEG_BIAS = 1 << (DEG_BITS - 1)
DEG_MASK = (1 << DEG_BITS) - 1
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
        self.deg_shift = deg_shift = ring.deg_shift + COMP_BITS
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

    def check_degree(self, comp: int, sdeg: int) -> None:
        """Refuse a shifted degree in comp past the packed degree bound."""
        if sdeg > self.max_sdeg:
            raise PackingOverflowError(
                f"degree {sdeg - self.twists[comp]} in component {comp}"
                " exceeds the packed degree bound"
            )

    def pack(self, comp: int, m: int) -> int:
        self.check_degree(comp, (m >> self.ring.deg_shift) + self.twists[comp])
        return self.base[comp] + (m << COMP_BITS)

    def sdeg(self, p: int) -> int:  # the shifted degree of a packed term
        return ((p >> self.deg_shift) & DEG_MASK) - DEG_BIAS

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


class _Packed(Vector):
    """A Vector the kernel returns, in engine form: the values are terms / d,
    packed under order from component first, where order has module's twists.
    The entries are built on first read and kept.  The terms lie in one block,
    sorted by shifted degree first.  Bases and eliminations check every input
    homogeneous and reduction keeps degrees, so their members are homogeneous."""

    __slots__ = ("terms", "d", "order", "first")

    def __init__(self, module: FreeModule, terms, d, order: ModuleOrder, first=0):
        self.module, self.terms, self.d, self.order, self.first = module, terms, d, order, first

    def __getattr__(self, name):  # reached only while the entries slot is unset
        if name != "entries":
            raise AttributeError(name)
        buckets: list[list] = [[] for _ in self.module.twists]
        field, base = self.module.ring.field, self.order.base
        for p, c in self.terms:  # GF(p) terms are canonical already, with d = 1
            comp = COMP_MAX - (p & COMP_MAX)
            c = c if field.characteristic else field.of(c, self.d)
            buckets[comp - self.first].append(((p - base[comp]) >> COMP_BITS, c))
        # within a component the module order is the ring's, so each bucket is sorted
        self.entries = tuple(Polynomial(self.module.ring, tuple(b)) for b in buckets)
        return self.entries

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        sdeg, terms = self.order.sdeg, self.terms
        return not terms or sdeg(terms[0][0]) == sdeg(terms[-1][0])

    @property
    def degree(self) -> int | None:
        if self.is_homogeneous():  # a normal form is when its input is
            return self.order.sdeg(self.terms[0][0]) if self.terms else None
        return super().degree  # the rule for entries


def _vector_to_terms(v: Vector, order: ModuleOrder, first=0):
    terms = []
    for comp, p in enumerate(v.entries, first):
        if p.terms:
            order.check_degree(comp, p.degree + order.twists[comp])
            base = order.base[comp]
            terms += [(base + (m << COMP_BITS), c) for m, c in p.terms]
    terms.sort(key=itemgetter(0), reverse=True)
    return terms


def _integers(v: Vector, order: ModuleOrder, first=0):
    """v's integer terms under order from component first and d, the values
    being terms / d.  A ``_Packed`` Vector's move there by one added constant,
    its twists being those from first; any other is converted (the boundary)."""
    if not isinstance(v, _Packed):
        return integer_terms(_vector_to_terms(v, order, first), order.ring.field)
    if v.terms:  # the lead has the top shifted degree, and order may bound it lower
        order.check_degree(first, v.order.sdeg(v.terms[0][0]))
    shift = order.base[first] - v.order.base[v.first]
    return (v.terms if not shift else [(p + shift, c) for p, c in v.terms]), v.d


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


class ReducerIndex(dict):
    """Reducer entries of nonzero vectors of one module by component, built
    once; ``normal_form`` adds each nonzero normal form against it."""

    def __init__(self, module: FreeModule, vectors: Sequence[Vector] = ()):
        self.module, self.order = module, ModuleOrder(module)
        for v in vectors:
            if v.module != module:
                raise ValueError("vector and basis live in different modules")
            if terms := _integers(v, self.order)[0]:
                _index_reducer(self, _normalize(terms, module.ring.field), self.order)


# ---------------------------------------------------------------------------
# Buchberger driver with Gebauer-Moeller pair updates


def _lcm_fields(a: int, b: int, guards: int) -> int:
    """The exponent fields of the lcm of terms with exponent fields a and b."""
    ge = ((a | guards) - b) & guards
    return a ^ ((a ^ b) & (ge - (ge >> EXP_BITS)))


def _update_pairs(leads, pairs, t, order: ModuleOrder):
    """Add generator index t, pruning pairs per Gebauer-Moeller.

    ``leads`` holds each generator's packed lead term, and a pair is
    (S-pair degree, i, j), so ``min(pairs)`` is the next to reduce.  A
    coprime pair, whose lcm is the product, is dropped before
    ``_spair_terms`` could refuse its lcm as too large.
    """
    mask, guards = order.exp_mask, order.guards
    comp_t, f_t = leads[t] & COMP_MAX, leads[t] & mask
    g_t, rank_one = f_t | guards, len(order.twists) == 1
    lcms, groups, coprime = {}, {}, set()  # lcms[i] = lcm(lead_i, lead_t)
    for i in range(t):
        if leads[i] & COMP_MAX == comp_t:
            f_i = leads[i] & mask
            lcms[i] = l_t = _lcm_fields(f_t, f_i, guards)
            groups.setdefault(l_t, []).append(i)
            # the coprimality criterion holds in the rank-one (ideal) case only
            if rank_one and f_i + f_t - mask == l_t:
                coprime.add(l_t)

    kept = set()
    for pair in pairs:
        _, i, j = pair
        if i in lcms:  # else of another component
            l_ij = _lcm_fields(leads[i] & mask, leads[j] & mask, guards)
            if (g_t - l_ij) & guards == guards and l_ij != lcms[i] and l_ij != lcms[j]:
                continue
        kept.add(pair)

    top, shifts = order.twists[COMP_MAX - comp_t] + order.ring.nvars * EXP_MAX, order.ring.shifts
    # a proper divisor of an lcm stores larger fields, so comes before it
    minimal: list[int] = []
    for l_t in sorted(groups, reverse=True):
        for prev in minimal:
            if ((prev | guards) - l_t) & guards == guards:
                break
        else:
            minimal.append(l_t)
            if l_t not in coprime:
                degree, fields = top, l_t >> COMP_BITS
                for s in shifts:
                    degree -= fields >> s & EXP_MAX
                kept.add((degree, groups[l_t][0], t))
    return kept


def _spair_terms(ri, rj, degree, order: ModuleOrder):
    """lcm(di, dj) * (x^u gi - x^v gj) from the reducer entries of members
    gi, gj (taken monic) whose leads share a component, and S-pair ``degree``.

    The factor makes every coefficient an integer.  It scales the normal form
    by a nonzero constant, which neither the zero test nor the normalized
    member sees.  Returns an unreduced {packed: coeff} dict for
    :func:`_normal_form_terms`.
    """
    _, lead_i, tail_i, di = ri
    _, lead_j, tail_j, dj = rj
    order.check_degree(COMP_MAX - (lead_i & COMP_MAX), degree)
    fields = _lcm_fields(lead_i & order.exp_mask, lead_j & order.exp_mask, order.guards)
    top = (lead_i & (order.block_bit | COMP_MAX)) + fields + ((degree + DEG_BIAS) << order.deg_shift)
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
def _monomial_shifts(variables, unit: int, degree: int) -> tuple[int, ...]:
    """What adding to a packed term multiplies it by each monomial of degree,
    for a ring's packed variables and unit (a cheaper cache key than the ring)."""
    if not degree:
        return (0,)
    steps = [(x - unit) << COMP_BITS for x in variables]
    return tuple({s + step for s in _monomial_shifts(variables, unit, degree - 1) for step in steps})


def _covered_terms(leads, degree: int, order: ModuleOrder) -> int:
    """How many terms of shifted degree ``degree`` some packed lead divides:
    C(k + n - 1, n - 1) for the lone lead of a component, k short of degree,
    and the multiples of the others counted as a set."""
    if leads:  # every lead fits, so a degree past the bound is above them all
        order.check_degree(COMP_MAX - (leads[0] & COMP_MAX), degree)
    comps = [lead & COMP_MAX for lead in leads]
    variables, unit, n = order.ring.variables, order.ring.unit, order.ring.nvars
    count, covered, deg_shift = 0, set(), order.deg_shift
    for lead, comp in zip(leads, comps):
        if (k := degree + DEG_BIAS - (lead >> deg_shift & DEG_MASK)) < 0:
            continue
        if comps.count(comp) == 1:
            count += comb(k + n - 1, n - 1)
        else:
            covered.update(map(lead.__add__, _monomial_shifts(variables, unit, k)))
    return count + len(covered)


def _free_hilbert(n: int, degrees, plus=lambda d: 0):
    """The Hilbert function of the free module on generators of the given
    degrees over n variables, plus the function ``plus``."""
    return lambda d: plus(d) + sum(comb(d - a + n - 1, n - 1) for a in degrees if a <= d)


def _buchberger_terms(inputs, order: ModuleOrder, span_hilbert=None, up_to=None):
    """Reduced basis of the span of the integer term lists (under an
    elimination order, its second-block members) and its first-block leads.

    With ``span_hilbert``, the Hilbert function of that submodule or a bound
    on it, pairs are skipped by it and it is checked: a degree left short
    raises ``HilbertShortfall`` (see the module docstring).  With ``up_to``,
    no pair of degree above it is reduced.
    """
    field = order.ring.field
    basis: list = []
    leads: list = []
    pairs: set = set()
    by_comp: dict[int, list] = {}

    def insert(terms):
        nonlocal pairs
        entry = _index_reducer(by_comp, _normalize(terms, field), order)
        basis.append(entry)
        leads.append(entry[1])
        pairs = _update_pairs(leads, pairs, len(basis) - 1, order)

    def leave_degree():  # every pair of the degree is done, so the leads span it
        if reduced and covered != hilbert:
            error = HilbertShortfall if covered < hilbert else ConsistencyError
            raise error(f"degree {degree}: {covered} terms covered, not {hilbert}")

    for terms in inputs:
        if terms:
            insert(terms)

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
                covered = _covered_terms(leads, d, order)
                hilbert = span_hilbert(d)
            if covered == hilbert:
                # the leads span the initial module in degree d
                pairs = {p for p in pairs if p[0] != d}
                continue
            reduced = True
        s = _spair_terms(basis[i], basis[j], d, order)
        r, _ = _normal_form_terms(s, by_comp, order)
        if r:
            insert(r)
            covered += 1
    leave_degree()

    return _interreduce_terms(basis, order), [lead for lead in leads if lead & order.block_bit]


def _interreduce_terms(entries, order: ModuleOrder):
    """Canonical reduced basis of reducer entries as (terms, d) pairs: minimal
    leads, tails fully reduced, and the monic member's values terms / d.

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
        basis.append(([(lead, d), *rest], d))
    return basis


# ---------------------------------------------------------------------------
# public module-level API


class HilbertShortfall(ConsistencyError):
    """A basis left a degree short of its Hilbert function, or of a bound on it."""


def groebner_basis(
    gens: Sequence[Vector], *, up_to: int | None = None, span_hilbert=None
) -> list[Vector]:
    """Reduced monic Groebner basis of the submodule generated by gens.

    With ``up_to``, only the members of degree at most up_to of that basis,
    computed without reducing any S-pair of higher degree; an input of
    degree above up_to is refused.  ``span_hilbert`` is as in ``_buchberger_terms``.
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
    inputs = [_integers(g, order)[0] for g in gens]
    basis, _ = _buchberger_terms(inputs, order, span_hilbert, up_to)
    return [_Packed(module, terms, d, order) for terms, d in basis]


def normal_form(v: Vector, basis: Sequence[Vector] | ReducerIndex) -> Vector:
    """Normal form of v against a Groebner basis of its module, or a ReducerIndex it extends."""
    index = basis if isinstance(basis, ReducerIndex) else ReducerIndex(v.module, basis)
    if index.module != v.module:
        raise ValueError("vector and basis live in different modules")
    order = index.order
    terms, d = _integers(v, order)
    r, s = _normal_form_terms(terms, index, order)
    if r:
        _index_reducer(index, _normalize(r, v.module.ring.field), order)
    return _Packed(v.module, r, d * s, order)


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
# in the target block, a basis of the image (g_i), are dropped but for their leads.
# Basis-vector tags give the syzygies, (t | 1) with (g | 0) gives M : t, and
# (f | f) with (g | 0) gives I cap J.


def _eliminate(gens: Sequence[Vector], tags: Sequence[Vector], span_hilbert):
    """The tag parts of the members led in the tag block of the elimination
    basis of the (g_i | t_i), in engine form, and the leads of its members in
    the target block.

    ``span_hilbert``, the span's Hilbert function or None, skips the
    S-pairs that would reduce to zero (see the module docstring).
    """
    target, tag = gens[0].module, tags[0].module
    k = target.rank
    order = ModuleOrder(FreeModule(target.ring, target.twists + tag.twists), split=k)
    inputs = []
    for g, t in zip(gens, tags):
        (g_terms, dg), (t_terms, dt) = _integers(g, order), _integers(t, order, k)
        # homogeneity keeps tag terms, too, at their checked S-pair degree
        if len({order.sdeg(p) for part in (g_terms, t_terms) for p, _ in part[:1] + part[-1:]}) > 1:
            raise ValueError("generators must be homogeneous")
        # (g | t) times dg * dt, which has the same stored primitive multiple
        inputs.append([(p, c * dt) for p, c in g_terms] + [(p, c * dg) for p, c in t_terms])
    basis, leads = _buchberger_terms(inputs, order, span_hilbert)
    return [_Packed(tag, terms, d, order, k) for terms, d in basis], leads


def lead_vectors(module: FreeModule, leads) -> list[Vector]:
    """The distinct first-block leads of an elimination as monomial vectors of
    module, its first block: they are packed as under ``ModuleOrder(module)``."""
    order = ModuleOrder(module)
    return [_Packed(module, [(t, 1)], 1, order) for t in sorted(set(leads))]


def module_gb_and_syzygies(
    gens: Sequence[Vector], degrees: Sequence[int]
) -> tuple[FreeModule, list[Vector], list[Vector]]:
    """The syzygies of gens from one elimination Groebner run.

    Returns ``(syzygy_module, syzygy_gens, image_leads)``: the syzygy module
    is free on the input generators with twists ``degrees``, each
    generator's degree (a zero generator's too), so all syzygies are
    homogeneous, and the basis-vector tags make the span of the (g_i | e_i)
    free, so pairs are skipped by its Hilbert function.  No image basis is
    built; its packed leads generate in(span of gens) (see ``lead_vectors``).

    ``syzygy_basis`` is this function under the name the resolution steps
    call; both names stay while the benchmark traces each as its own span.
    """
    if not gens:
        raise ValueError("no generators")
    if len(degrees) != len(gens):
        raise ValueError("degree list does not match generators")
    syz_module = FreeModule(gens[0].module.ring, degrees)
    tags = [syz_module.basis_vector(i) for i in range(len(gens))]
    return (syz_module, *_eliminate(gens, tags, _free_hilbert(syz_module.ring.nvars, degrees)))


def syzygy_basis(
    gens: Sequence[Vector], degrees: Sequence[int]
) -> tuple[FreeModule, list[Vector]]:
    """Generators of the syzygy module of the given homogeneous elements: the
    kernel of the map with columns gens from the free module with twists
    degrees: ``module_gb_and_syzygies`` less its leads, under a second name."""
    return module_gb_and_syzygies(gens, degrees)[:2]


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
    a plain sequence, or a Basis of another ring, is only generators.  Its
    Polynomials are built when it is; they re-enter by the input conversion."""

    def __new__(cls, ring, polys: Sequence[Polynomial] = ()):
        basis = super().__new__(cls, polys)
        basis.ring = ring
        return basis

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which needs the ring
        return self.ring, tuple(self)


def _is_basis(ring, polys) -> bool:
    return isinstance(polys, Basis) and polys.ring == ring


def ideal_groebner(ring, polys: Sequence[Polynomial], quotient=None) -> Basis:
    """The reduced basis of the ideal I polys generate; a Basis of ring as it is.
    ``quotient``, the HilbertData of R/I, skips pairs by H_I = H_R - H_{R/I}."""
    if _is_basis(ring, polys):
        return polys
    span = quotient and _free_hilbert(ring.nvars, (0,), lambda d: -quotient.function_value(d))
    gb = groebner_basis(_as_vectors(ring, polys), span_hilbert=span)
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
    colon, _ = _eliminate([target, *mod_gens], tags, span)
    return Basis(ring, [v.entries[0] for v in colon])


def _colon_last_variable(basis: Basis) -> Basis:
    """I : x_{n-1} read off the grevlex basis of I (Bayer & Stillman 1987).

    Grevlex puts x_{n-1} last, so it divides a homogeneous member when it
    divides the lead, and dividing those members by it leaves a Groebner
    basis of I : x_{n-1} that only needs interreducing.  If no lead moves,
    the colon is I.
    """
    ring = basis.ring
    x = ring.variables[-1]
    quotient, moved = [], False
    for g in basis:
        if ring.divides(x, g.terms[0][0]):
            # the quotient m / x is m - x + unit
            g = Polynomial(ring, tuple((m - x + ring.unit, c) for m, c in g.terms))
            moved = True
        quotient.append(g)
    if not moved:
        return basis
    index = ReducerIndex(_ideal_module(ring), _as_vectors(ring, quotient))
    (entries,), order = index.values(), index.order
    reduced = _interreduce_terms(entries, order)
    return Basis(ring, [_Packed(index.module, t, d, order).entries[0] for t, d in reduced])


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
    both, _ = _eliminate(a + b, a + [zero] * len(b), lambda d: _covered_terms(leads, d, order))
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


def _koszul_exact(ring, row: Sequence[Polynomial]) -> bool:
    """Whether the syzygies of the forms in row are spanned by its Koszul
    relations r_j e_i - r_i e_j.

    They are when row generates the unit ideal, as forms do when one is a
    nonzero constant, or is a regular sequence (Eisenbud, Commutative
    Algebra, Cor. 17.5).  Forms in n variables are a regular sequence
    exactly when there are n of them and R/(row) has finite length, that
    is, when every variable has a pure power among the leads of the ideal's
    basis; a zero form rules that out before any basis is built.  Generic
    forms span the most in each degree and are a regular sequence, whose
    Koszul complex gives the series and whose quotient vanishes from degree
    sum(a_i - 1) + 1.  So the basis runs under that series to that degree:
    a degree left short proves row not regular, and a regular row's pure
    powers lead members by then.
    """
    if any(not p.is_zero() and p.degree == 0 for p in row):
        return True
    if len(row) != ring.nvars or any(p.is_zero() for p in row):
        return False
    n, degrees = ring.nvars, [p.degree for p in row]
    # H_I = H_K1 - H_K2 + H_K3 - ..., K_k free on the sums of k of the degrees
    sums = [[sum(s) for k in range(i, n + 1, 2) for s in combinations(degrees, k)] for i in (1, 2)]
    even = _free_hilbert(n, sums[1])
    bound = _free_hilbert(n, sums[0], lambda d: -even(d))
    try:
        gb = groebner_basis(_as_vectors(ring, row), span_hilbert=bound, up_to=sum(degrees) - n + 1)
    except HilbertShortfall:
        return False
    leads = [ring.unpack(v.entries[0].terms[0][0]) for v in gb]
    return all(any(e[i] == sum(e) for e in leads) for i in range(n))


def annihilator_of_cokernel(
    target: FreeModule, columns: Sequence[Vector], coker_hilbert, fitting: Sequence[Polynomial]
) -> Basis:
    """Annihilator ideal of coker(columns) as intersection of colon ideals;
    the unit ideal for a target of rank zero, whose cokernel is zero.

    For a target of rank two with rows a and b over the nonzero columns,
    im : e_0 = a . Syz(b).  When the Koszul relations span Syz(b)
    (``_koszul_exact``), that is the ideal of the minors a_i b_j - a_j b_i:
    Fitt_0, given as ``fitting`` (a Basis of the ring is taken as it is).
    So with e_1 and a.  Every other colon is ``module_colon``, skipping
    pairs by the image's Hilbert function H_F - H_coker, read off the
    cokernel's HilbertData ``coker_hilbert``.

    As Fitt_0 lies in Ann, one Fitt_0 colon is already the answer.  The
    loop still intersects, as the schemes benchmark traces
    ``ideal_intersection``; two equal Bases pass it with no elimination.
    """
    ring = target.ring
    image = _free_hilbert(ring.nvars, target.twists, lambda d: -coker_hilbert.function_value(d))
    mod_gens = [c for c in columns if not c.is_zero()]
    rows = [[c.entries[k] for c in mod_gens] for k in range(target.rank)]
    result: Basis | None = None
    for i in range(target.rank):
        if target.rank == 2 and _koszul_exact(ring, rows[1 - i]):
            colon = ideal_groebner(ring, fitting)
        else:
            colon = module_colon(mod_gens, target.basis_vector(i), image)
        result = colon if result is None else ideal_intersection(ring, result, colon)
    return result if result is not None else Basis(ring, [ring.one()])
