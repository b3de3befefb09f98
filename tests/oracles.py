"""Reference forms kept to pin the library: the tuple term orders and
divisibility behind the packed integers and the leads they give, ideal
membership, the capped
fixpoint saturation, the colon and intersection read off a full syzygy
module, the annihilator from colons that reduce every S-pair, the normal
form that combines field values directly instead of integers over one
scale, Buchberger's S-pair criterion on Vector arithmetic, the lcm of
packed monomials with its degree recomputed, the Gebauer-Moeller pair
update on whole lcms, the count of terms leads divide over exponent
tuples, the syzygy elimination that reduces every S-pair, Chern classes by
Chern-character additivity in fractions, a linear change of coordinates,
a polynomial's value at a point by substituting into each term, the rank
of a matrix by monic pivot rows, minimal generators whose span test within a degree is a row echelon of
normal forms, the graded Betti numbers of a cokernel from Koszul
homology, a resolution whose Hilbert series comes from a Groebner basis
of its generators, the Jacobian analysis that reads the cokernel series
off a Groebner basis of the image, the plane-section verdict read off the
section's full basis, built with no bound and no degree cap, and the
regularity test that looks for pure powers among the leads of a full
ideal basis; the stored form of a field value; and the ideal of maximal
minors, the dimension of a graded piece of F/M by counting the monomials
no lead divides, a matrix applied to a coefficient vector, and the
complex and minimality checks of a resolution."""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, groupby
from operator import le, sub

from logtangent.groebner import (
    COMP_MAX,
    ModuleOrder,
    Submodule,
    _as_vectors,
    _buchberger_terms,
    _ideal_module,
    _vector_to_terms,
    annihilator_of_cokernel,
    groebner_basis,
    minor,
    ideal_colon,
    ideal_groebner,
    ideal_intersection,
    module_colon,
    module_gb_and_syzygies,
    normal_form,
    syzygy_basis,
)
from logtangent.hilbert import _leads, hilbert_of_quotient
from logtangent.linalg import matrix_rank
from logtangent.modules import FreeModule, Vector
from logtangent.poly import (
    EXP_BITS,
    EXP_MAX,
    ConsistencyError,
    Polynomial,
    dot,
    integer_terms,
    monomials_of_degree,
)
from logtangent.resolution import resolve_submodule
from logtangent.sequences import NVARS, JacobianAnalysis, canonical_syzygies, plane_section

SATURATION_ROUNDS = 64


def is_stored_form(c, field) -> bool:
    """c is a nonzero value in its stored form: over QQ an ``int`` exactly
    when it is an integer, else a ``Fraction`` with denominator above 1; over
    GF(p) an ``int`` in [1, p)."""
    if field.characteristic:
        return type(c) is int and 0 < c < field.characteristic
    return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))


def grevlex_key(exps: tuple[int, ...]):
    """Sort key realizing grevlex: bigger key means bigger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Exponent tuple a divides exponent tuple b."""
    return all(x <= y for x, y in zip(a, b))


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
    """``annihilator_of_cokernel`` given the cokernel series and the Basis of
    Fitt_0, both computed here; Fitt_0 of a zero target is the unit ideal."""
    ring = target.ring
    coker = hilbert_of_quotient(target, groebner_basis(columns))
    rows = [[c.entries[k] for c in columns] for k in range(target.rank)]
    fitt0 = ideal_groebner(ring, fitting_ideal_0(rows) if rows else [ring.one()])
    return annihilator_of_cokernel(target, columns, coker, fitt0)


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


def vector_of_terms(module, order, terms, first=0):
    """The eagerly built Vector of module from field-valued terms packed under
    order from component first, bucketed by ``order.unpack``."""
    buckets = [[] for _ in module.twists]
    for p, c in terms:
        comp, m = order.unpack(p)
        buckets[comp - first].append((m, c))
    return Vector(module, tuple(Polynomial(module.ring, tuple(b)) for b in buckets))


def normal_form_by_fractions(v, basis):
    """Normal form of v against basis, reducing with field values throughout."""
    order = ModuleOrder(v.module)
    field = v.module.ring.field
    reducers = (_vector_to_terms(g, order) for g in basis if not g.is_zero())
    by_comp = _index_by_fractions([_monic_terms(t, field) for t in reducers], order)
    r = _normal_form_terms_by_fractions(_vector_to_terms(v, order), by_comp, order)
    return vector_of_terms(v.module, order, r)


def spoly_reduces_to_zero(basis):
    """Buchberger's criterion on Polynomial arithmetic: for any two
    members g, h whose leads under ``module_key`` share a component, with
    exponents a, b and coefficients c, d and l = max(a, b) per variable,
    x^(l - a) g / c - x^(l - b) h / d has normal form zero
    (``normal_form_by_fractions``)."""
    basis = [v for v in basis if not v.is_zero()]
    if not basis:
        return True
    module = basis[0].module
    ring, order = module.ring, ModuleOrder(module)

    def lead(v):  # (component, exponents, coefficient); the keys never tie
        return max(
            (module_key(order, comp, ring.unpack(m)), comp, ring.unpack(m), c)
            for comp, p in enumerate(v.entries)
            for m, c in p.terms
        )[1:]

    def term(exps, c):  # the monomial x^exps over c
        return ring.poly([(ring.pack(exps), ring.field.inv(c))])

    for (g, (cg, a, c)), (h, (ch, b, d)) in combinations(zip(basis, map(lead, basis)), 2):
        if cg == ch:
            l = tuple(map(max, a, b))
            u, v = term(tuple(map(sub, l, a)), c), term(tuple(map(sub, l, b)), d)
            s = Vector(module, tuple(p * u - q * v for p, q in zip(g.entries, h.entries)))
            if not normal_form_by_fractions(s, basis).is_zero():
                return False
    return True


def packed_lcm(ring, a, b):
    """The lcm of two packed monomials of ring, of any degree: the smaller
    stored field per variable, and the degree recomputed from the fields."""
    fa, fb = a & ring.exp_mask, b & ring.exp_mask
    ge = ((fa | ring.guards) - fb) & ring.guards  # the guards where fa >= fb
    fields = fa ^ ((fa ^ fb) & (ge - (ge >> EXP_BITS)))
    deg = ring.nvars * EXP_MAX
    for s in ring.shifts:
        deg -= (fields >> s) & EXP_MAX
    return fields + (deg << ring.deg_shift)


def update_pairs_by_lcm(leads, pairs, t, order):
    """``groebner._update_pairs`` on (component, packed monomial) leads, with
    whole lcms sorted ascending, so by degree, and the coprimality criterion
    read off degrees: the Gebauer-Moeller update the driver must match."""
    ring = order.ring
    lcm, divides, deg_shift = (lambda a, b: packed_lcm(ring, a, b)), ring.divides, ring.deg_shift
    comp_t, m_t = leads[t]

    kept = set()
    for pair in pairs:
        _, i, j = pair
        (ci, mi), (_, mj) = leads[i], leads[j]
        if ci != comp_t:
            kept.add(pair)
            continue
        l_ij = lcm(mi, mj)
        if not divides(m_t, l_ij) or l_ij == lcm(mi, m_t) or l_ij == lcm(mj, m_t):
            kept.add(pair)

    lcm_groups = {}
    for i in range(t):
        ci, mi = leads[i]
        if ci == comp_t:
            lcm_groups.setdefault(lcm(mi, m_t), []).append(i)

    # ascending, so by degree, and a proper divisor of an lcm comes before it
    minimal = []
    for l_t in sorted(lcm_groups):
        if not any(divides(prev, l_t) for prev in minimal):
            minimal.append(l_t)

    deg_t = m_t >> deg_shift
    for l_t in minimal:
        members, degree = lcm_groups[l_t], l_t >> deg_shift
        # the coprimality criterion holds in the rank-one (ideal) case only
        coprime = (degree == (leads[i][1] >> deg_shift) + deg_t for i in members)
        if len(order.twists) > 1 or not any(coprime):
            kept.add((order.twists[comp_t] + degree, min(members), t))
    return kept


def covered_terms_by_tuples(module, leads, degree):
    """How many terms of module of degree ``degree`` some lead divides, the
    leads being (component, exponent tuple) pairs: a count over
    ``monomials_of_degree`` per component by tuple divisibility."""
    total = 0
    for comp, twist in enumerate(module.twists):
        exps = [e for c, e in leads if c == comp]
        for mono in monomials_of_degree(module.ring.nvars, degree - twist):
            total += any(monomial_divides(e, mono) for e in exps)
    return total


def image_leads(gens):
    """The leads of the reduced basis of the span of gens under graded TOP
    order, as monomial vectors by ascending term."""
    basis = groebner_basis(gens)
    if not basis:
        return []
    module = basis[0].module
    order = ModuleOrder(module)
    leads = sorted(
        max(order.pack(c, p.terms[0][0]) for c, p in enumerate(v.entries) if p.terms)
        for v in basis
    )
    vectors = []
    for lead in leads:
        comp, m = order.unpack(lead)
        entries = [module.ring.zero()] * module.rank
        entries[comp] = module.ring.poly([(m, module.ring.field.one)])
        vectors.append(Vector(module, tuple(entries)))
    return vectors


def jacobian_analysis_by_image_basis(seq):
    """``sequences.jacobian_analysis`` as it read the cokernel series off a
    Groebner basis of the image, before the plane-section certificate: that
    basis is ``image_gb``, pole order <= 1 takes the kernel from the wedge
    syzygies, and otherwise the elimination's syzygies are the kernel."""
    columns, target, source = seq.jacobian_columns, seq.jacobian_target(), seq.source_module()
    image_gb = groebner_basis(columns)
    hq = hilbert_of_quotient(target, image_gb)
    if hq.pole_order <= 1:
        syz = groebner_basis(canonical_syzygies(seq), up_to=seq.d)
        rank = NVARS - (seq.df == 0) - (seq.dg == 0)
        if len(syz) != rank:
            raise ConsistencyError(f"{len(syz)} wedge syzygies span K_d, want {rank}")
    else:
        _, syz, _ = module_gb_and_syzygies(columns, degrees=source.twists)
    return JacobianAnalysis(image_gb, hq, Submodule(source, syz))


def section_basis(seq):
    """The basis of the Jacobian columns on the plane x3 = x0 + 2*x1 + 3*x2."""
    target = seq.jacobian_target()
    columns = seq.jacobian_columns
    return groebner_basis([Vector(target, tuple(map(plane_section, c.entries))) for c in columns])


def section_pole_order(seq):
    return hilbert_of_quotient(seq.jacobian_target(), section_basis(seq)).pole_order


def koszul_exact_by_pure_powers(ring, row):
    """``groebner._koszul_exact`` as it read regularity off the full basis
    of the ideal of row: a pure power of every variable among its leads."""
    if any(not p.is_zero() and p.degree == 0 for p in row):
        return True
    if len(row) != ring.nvars or any(p.is_zero() for p in row):
        return False
    powers = set()
    for p in ideal_groebner(ring, row):
        support = [i for i, e in enumerate(ring.unpack(p.terms[0][0])) if e]
        if len(support) == 1:
            powers.update(support)
    return len(powers) == ring.nvars


def syzygies_without_skipping(gens, degrees):
    """``module_gb_and_syzygies`` with the Hilbert function withheld, so the
    elimination reduces every S-pair the pair criteria keep.  Its inputs are
    the eagerly joined (g_i | e_i) cleared to integers, and its syzygies are
    built eagerly from the (terms, d) members, one ``field.of`` per term."""
    target = gens[0].module
    k, field = target.rank, target.ring.field
    syz_module = FreeModule(target.ring, degrees)
    aug = FreeModule(target.ring, target.twists + syz_module.twists)
    order = ModuleOrder(aug, split=k)
    inputs = [
        integer_terms(
            _vector_to_terms(Vector(aug, g.entries + syz_module.basis_vector(i).entries), order),
            field,
        )[0]
        for i, g in enumerate(gens)
    ]
    basis, leads = _buchberger_terms(inputs, order)
    values = [[(p, field.of(c, d)) for p, c in t] for t, d in basis]
    return syz_module, [vector_of_terms(syz_module, order, t, k) for t in values], leads


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


def evaluate_by_substitution(p, point):
    """p at an integer point, read in p's field: each term's exponents from
    ``ring.unpack``, the sum exact in fractions."""
    total = Fraction(0)
    for m, c in p.terms:
        value = Fraction(c)
        for x, k in zip(point, p.ring.unpack(m)):
            value *= x**k
        total += value
    return p.ring.field.of(total.numerator, total.denominator)


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


def rank_by_echelon(rows, field):
    """``linalg.matrix_rank`` by monic pivot rows: each row, as a dict from
    column to nonzero value, joins the pivots unless it lies in their span."""
    pivots = {}
    for r in rows:
        _extends_span(pivots, {j: c for j, c in enumerate(r) if c}, field)
    return len(pivots)


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


def resolve_by_groebner(module, gens):
    """``resolve_submodule`` of gens, given the Hilbert numerator of
    module / <gens> from a Groebner basis of gens."""
    quotient = hilbert_of_quotient(module, groebner_basis(gens)).numerator
    return resolve_submodule(module, gens, quotient)


def fitting_ideal_0(matrix):
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


def quotient_dimension_by_counting(module, gb, t):
    """dim_k (F/M)_t by enumerating exponent tuples; independent cross-check path."""
    total = 0
    for comp, leads in enumerate(_leads(module, gb)):
        d = t - module.twists[comp]
        if d < 0:
            continue
        exps = [module.ring.unpack(m) for m in leads]
        for mono in monomials_of_degree(module.ring.nvars, d):
            if not any(all(map(le, e, mono)) for e in exps):
                total += 1
    return total


def apply_columns(columns, coefficients):
    """Evaluate a matrix given by columns on a coefficient vector: one
    ``poly.dot`` per row, which refuses a coefficient list of another length."""
    if not columns:
        raise ValueError("no columns")
    module = columns[0].module
    if any(col.module != module for col in columns):
        raise ValueError("columns live in different modules")
    rows = zip(*(col.entries for col in columns))
    return Vector(module, tuple(dot(row, coefficients) for row in rows))


def check_complex(res):
    """d_i composed with d_{i+1} vanishes in a FreeResolution (including the
    augmentation)."""
    for i, cols in enumerate(res.diffs):
        upstream = res.gens if i == 0 else res.diffs[i - 1]
        for col in cols:
            if not apply_columns(upstream, col.entries).is_zero():
                return False
    return True


def is_minimal(res):
    """No differential of a FreeResolution has a nonzero constant entry."""
    for cols in res.diffs:
        for col in cols:
            for entry in col.entries:
                if not entry.is_zero() and entry.degree == 0:
                    return False
    return True
