"""Reference forms kept to pin the library: the tuple term orders behind the
packed integers and the leads they give, ideal membership, the capped
fixpoint saturation, the colon and intersection read off a full syzygy
module, the annihilator from colons that reduce every S-pair, the normal
form that combines field values directly instead of integers over one
scale, the syzygy elimination that reduces every S-pair, Chern classes by
Chern-character additivity in fractions, a linear change of coordinates,
minimal generators whose span test within a degree is a row echelon of
normal forms, and the graded Betti numbers of a cokernel from Koszul
homology."""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, groupby

from logtangent.groebner import (
    COMP_MAX,
    ModuleOrder,
    _as_vectors,
    _buchberger_terms,
    _ideal_module,
    _terms_to_vector,
    _vector_to_terms,
    annihilator_of_cokernel,
    groebner_basis,
    ideal_colon,
    ideal_groebner,
    ideal_intersection,
    module_colon,
    normal_form,
    syzygy_basis,
)
from logtangent.hilbert import hilbert_of_quotient
from logtangent.linalg import matrix_rank
from logtangent.modules import FreeModule, Vector

SATURATION_ROUNDS = 64


def grevlex_key(exps: tuple[int, ...]):
    """Sort key realizing grevlex: bigger key means bigger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def module_key(order, comp: int, exps: tuple[int, ...]):
    """Sort key of a ModuleOrder: block, shifted degree, grevlex, low component."""
    return (
        1 if comp < order.split else 0,
        sum(exps) + order.twists[comp],
        tuple(-e for e in reversed(exps)),
        -comp,
    )


def leads_by_sorting(module, gb):
    """Per component, the exponents of the greatest term of each nonzero
    vector of gb under ``module_key``, compared over every term."""
    order = ModuleOrder(module)
    leads = [set() for _ in range(module.rank)]
    for v in gb:
        keyed = [
            (module_key(order, comp, module.ring.unpack(m)), comp, module.ring.unpack(m))
            for comp, p in enumerate(v.entries)
            for m, _ in p.terms
        ]
        if keyed:
            _, comp, exps = max(keyed)
            leads[comp].add(exps)
    return leads


def ideal_contains(ring, gb, p) -> bool:
    """p lies in the ideal with Groebner basis gb."""
    module = _ideal_module(ring)
    return normal_form(Vector(module, (p,)), _as_vectors(ring, gb)).is_zero()


def saturate_by_rounds(ring, gens):
    """Saturation by iterating I -> I : (x0, ..., x_{n-1}) until it is stable."""
    current = ideal_groebner(ring, gens)
    if not current:
        return []
    for _ in range(SATURATION_ROUNDS):
        quotient = None
        for i in range(ring.nvars):
            step = ideal_colon(ring, current, ring.variable(i))
            quotient = step if quotient is None else ideal_intersection(ring, quotient, step)
        if all(ideal_contains(ring, current, p) for p in quotient):
            return current
        current = ideal_groebner(ring, quotient)
    raise RuntimeError(f"saturation did not stabilize in {SATURATION_ROUNDS} rounds")


def colon_by_syzygies(mod_gens, target):
    """M : t as the nonzero first entries of the syzygies of (t, g_1, ...)."""
    degrees = [target.degree] + [g.degree for g in mod_gens]
    _, syz = syzygy_basis([target] + list(mod_gens), degrees=degrees)
    return [s.entries[0] for s in syz if not s.entries[0].is_zero()]


def intersection_by_syzygies(ring, a, b):
    """I cap J as sum s_i f_i over the syzygies s of (f_1, ..., g_1, ...)."""
    a = [p for p in a if not p.is_zero()]
    b = [p for p in b if not p.is_zero()]
    if not a or not b:
        return []
    gens = _as_vectors(ring, a) + _as_vectors(ring, b)
    _, syz = syzygy_basis(gens, degrees=[g.degree for g in gens])
    out = []
    for s in syz:
        p = ring.zero()
        for c, gen in zip(s.entries[: len(a)], a):
            if not c.is_zero():
                p = p + c * gen
        if not p.is_zero():
            out.append(p)
    return out


def annihilator(target, columns):
    """``annihilator_of_cokernel`` given the cokernel series, computed here."""
    coker = hilbert_of_quotient(target, groebner_basis(columns))
    return annihilator_of_cokernel(target, columns, coker)


def annihilator_by_colons(target, columns):
    """Ann coker(columns) as the intersection over i of im : e_i, from
    colons run with no Hilbert function and intersections read off
    syzygies, so no elimination of its own skips a pair."""
    ring = target.ring
    mod_gens = [c for c in columns if not c.is_zero()]
    result = [ring.one()]
    for i in range(target.rank):
        colon = module_colon(mod_gens, target.basis_vector(i))
        result = colon if i == 0 else intersection_by_syzygies(ring, result, colon)
    return ideal_groebner(ring, result)


def _monic_terms(terms, field):
    inv = field.inv(terms[0][1])
    return [(k, field.reduce(c * inv)) for k, c in terms]


def _index_by_fractions(basis, order):
    """Monic reducers keyed by leading component, tails kept as field values."""
    by_comp = {}
    for terms in basis:
        lead = terms[0][0]
        guarded = lead & order.exp_mask | order.guards
        by_comp.setdefault(lead & COMP_MAX, []).append((guarded, lead, terms[1:]))
    return by_comp


def _normal_form_terms_by_fractions(terms, reducers_by_comp, order):
    """The heap normal form with every coefficient a field value."""
    acc = dict(terms)
    heap = [-p for p in acc]
    heapify(heap)
    out = []
    reduce = order.ring.field.reduce
    exp_mask, guards = order.exp_mask, order.guards
    while heap:
        p = -heappop(heap)
        c = reduce(acc.pop(p))
        if not c:
            continue
        exps = p & exp_mask
        for guarded, lead, tail in reducers_by_comp.get(p & COMP_MAX, ()):
            if (guarded - exps) & guards == guards:
                break
        else:
            out.append((p, c))
            continue
        shift = p - lead
        c = -c
        for q, qc in tail:
            q += shift
            if q in acc:
                acc[q] += qc * c
            else:
                acc[q] = qc * c
                heappush(heap, -q)
    return out


def normal_form_by_fractions(v, basis):
    """Normal form of v against basis, reducing with field values throughout."""
    order = ModuleOrder(v.module)
    field = v.module.ring.field
    reducers = (_vector_to_terms(g, order) for g in basis if not g.is_zero())
    by_comp = _index_by_fractions([_monic_terms(t, field) for t in reducers], order)
    r = _normal_form_terms_by_fractions(_vector_to_terms(v, order), by_comp, order)
    return _terms_to_vector(v.module, order, r)


def syzygies_without_skipping(gens, degrees):
    """``module_gb_and_syzygies`` with the Hilbert function withheld, so the
    elimination reduces every S-pair the pair criteria keep."""
    target = gens[0].module
    k = target.rank
    syz_module = FreeModule(target.ring, degrees)
    aug = FreeModule(target.ring, target.twists + syz_module.twists)
    order = ModuleOrder(aug, split=k)
    inputs = [
        _vector_to_terms(Vector(aug, g.entries + syz_module.basis_vector(i).entries), order)
        for i, g in enumerate(gens)
    ]
    basis = _buchberger_terms(inputs, order)
    return syz_module, [_terms_to_vector(syz_module, order, t, first=k) for t in basis]


def chern_classes_by_fractions(df, dg, m, ch3_q):
    """(c1, c2, c3) of T from ch(T) = ch(O^4) - ch(O(df)) - ch(O(dg)) + ch(Q),
    ch(Q) = (0, 0, m, ch3_q), through Newton's identities in fractions."""
    c1 = -(df + dg)
    ch2 = Fraction(-(df**2 + dg**2), 2) + m
    ch3 = Fraction(-(df**3 + dg**3), 6) + ch3_q
    c2 = Fraction(c1 * c1, 2) - ch2
    c3 = 2 * ch3 + c1 * c2 - Fraction(c1**3, 3)
    return c1, c2, c3


def compose_linear(p, matrix):
    """p with x_i replaced by sum_j matrix[i][j] * x_j (field entries)."""
    ring = p.ring
    images = [
        sum((ring.variable(j).scaled(a) for j, a in enumerate(row)), ring.zero())
        for row in matrix
    ]
    out = ring.zero()
    for m, c in p.terms:
        term = ring.constant(c)
        for image, k in zip(images, ring.unpack(m)):
            if k:
                term = term * image**k
        out = out + term
    return out


def _extends_span(pivots, row, field):
    """Add row to the echelon rows unless it lies in their span.

    A row maps keys to nonzero field values and leads with its largest key;
    ``pivots`` maps each lead to its monic row.  The row is consumed.
    """
    while row:
        lead = max(row)
        if lead not in pivots:
            inv = field.inv(row[lead])
            pivots[lead] = {t: field.reduce(c * inv) for t, c in row.items()}
            return True
        c = row[lead]
        for t, b in pivots[lead].items():
            row[t] = field.reduce(row.get(t, 0) - c * b)
            if not row[t]:
                del row[t]
    return False


def minimal_generators_by_echelon(gens):
    """``resolution.minimal_generators`` with a second span test: the normal
    form against a basis of the kept candidates of lower degree, then a row
    echelon of those normal forms, as coefficient rows, within the degree."""
    items = sorted((g for g in gens if not g.is_zero()), key=lambda g: g.degree)
    top = items[-1].degree if items else None
    kept, gb, in_gb = [], [], 0
    for _, group in groupby(items, key=lambda g: g.degree):
        if len(kept) > in_gb:
            gb, in_gb = groebner_basis(kept, up_to=top), len(kept)
        pivots = {}
        for g in group:
            v = normal_form(g, gb) if gb else g
            row = {(i, e): c for i, p in enumerate(v.entries) for e, c in p.terms}
            if _extends_span(pivots, row, v.module.ring.field):
                kept.append(g)
    return kept


def graded_pieces(target, image_gb, top):
    """The pieces M_t of M = target / im for t <= top, and multiplication by
    the variables between them, from ``image_gb``, a Groebner basis of im.

    M_t has the standard monomials (c, m) of degree t as basis (m packed).
    A standard monomial above its component's twist is x_k times one a
    degree lower, and it is standard exactly when it is its own normal form.
    Returns the bases {t: [(c, m), ...]} and the maps x_k: M_t -> M_{t+1}
    as {(t, k): {s: {u: coefficient}}}."""
    ring, one = target.ring, target.ring.field.one

    def reduced(c, exps):  # the monomial's (c, m) and its normal form's coordinates
        entries = [ring.zero()] * target.rank
        entries[c] = ring.poly([(ring.pack(exps), one)])
        nf = normal_form(Vector(target, tuple(entries)), image_gb)
        return (c, ring.pack(exps)), {(i, u): a for i, p in enumerate(nf.entries) for u, a in p.terms}

    bases, maps = {}, {}
    for t in range(min(target.twists), top + 1):
        found = dict(reduced(c, (0,) * ring.nvars) for c, a in enumerate(target.twists) if a == t)
        for c, m in bases.get(t - 1, ()):
            for k in range(ring.nvars):
                exps = list(ring.unpack(m))
                exps[k] += 1
                product, image = reduced(c, tuple(exps))
                maps.setdefault((t - 1, k), {})[c, m] = found[product] = image
        bases[t] = sorted(mono for mono, image in found.items() if image == {mono: one})
        if not all(set(image) <= set(bases[t]) for image in found.values()):
            raise AssertionError("a normal form has a term that is not standard")
    return bases, maps


def koszul_betti(target, image_gb, top):
    """beta_{i,j}(M) = dim H_i(x_0, ..., x_{n-1}; M)_j for M = target / im,
    with ``image_gb`` a Groebner basis of im, for every j <= top: one sorted
    tuple per i = 0..n that lists j beta_{i,j} times.

    In degree j the Koszul complex has C_i = wedge^i k^n (x) M_{j-i} and
    d(e_S (x) s) = sum_r (-1)^r e_{S - s_r} (x) x_{s_r} s, so beta_{i,j} is
    dim C_i less the ranks of d_i and d_{i+1} (Eisenbud, The Geometry of
    Syzygies, Ch. 1).  No syzygy is computed."""
    field, n = target.ring.field, target.ring.nvars
    bases, maps = graded_pieces(target, image_gb, top)

    def cells(i, j):
        return [(S, s) for S in combinations(range(n), i) for s in bases.get(j - i, ())]

    def rank(i, j):  # of d_i: C_{i,j} -> C_{i-1,j}
        if not 1 <= i <= n:
            return 0
        index = {cell: at for at, cell in enumerate(cells(i - 1, j))}
        rows = []
        for S, s in cells(i, j):
            row = [field.zero] * len(index)
            for r, k in enumerate(S):
                for u, coeff in maps[j - i, k][s].items():
                    at = index[S[:r] + S[r + 1 :], u]
                    row[at] = field.reduce(row[at] + (-coeff if r % 2 else coeff))
            rows.append(row)
        return matrix_rank(rows, field)

    return [
        tuple(
            j
            for j in range(min(target.twists), top + 1)
            for _ in range(len(cells(i, j)) - rank(i, j) - rank(i + 1, j))
        )
        for i in range(n + 1)
    ]
