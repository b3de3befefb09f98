"""Pairs of homogeneous polynomials in four variables and their Jacobian data.

A sequence is a pair (f, g) of nonzero homogeneous polynomials in
x0..x3 with deg f = d_f + 1 <= deg g = d_g + 1 (the constructor swaps to
enforce this).  The associated Jacobian matrix maps R^4 to R(d_f)+R(d_g);
its kernel is the syzygy module whose sheaf is the logarithmic tangent
sheaf of the pair, its cokernel the torsion sheaf carrying the m-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import prod
from operator import mul

from .groebner import HilbertShortfall, Submodule, _free_hilbert, groebner_basis, lead_vectors
from .groebner import COMP_BITS, COMP_MAX, minor, module_gb_and_syzygies
from .hilbert import HilbertData, hilbert_from_numerator, hilbert_of_quotient
from .linalg import matrix_rank
from .modules import FreeModule, Vector
from .poly import EXP_MAX, ConsistencyError, Polynomial, PolyRing, integer_terms

NVARS = 4
# powers of 2, nonzero mod every odd prime; the exponents 0, 1, 3, 7 have
# distinct pairwise sums, so no x_i*x_j - x_k*x_l vanishes here over QQ
CHECK_POINT = (1, 2, 8, 128)


class DependentSequenceError(ValueError):
    """The two polynomials are algebraically dependent (all Jacobian minors vanish)."""


class SmallCharacteristicError(ValueError):
    """Positive characteristic p <= deg g: derivatives lose terms, answers go wrong."""


class NonNormalSequenceError(ValueError):
    """The Jacobian scheme has a divisor component, so the pair is not normal.

    Carries the degree of that codimension-one component for diagnosis.
    """

    def __init__(self, divisor_degree: int):
        super().__init__(
            "sequence is not normal: the Jacobian minors share a divisor "
            f"of degree {divisor_degree}"
        )
        self.divisor_degree = divisor_degree


def check_characteristic(p: int, degree: int) -> None:
    """Refuse a positive characteristic p <= degree, the largest degree of a pair."""
    if 0 < p <= degree:
        raise SmallCharacteristicError(f"characteristic {p} must exceed deg g = {degree}")


@dataclass(frozen=True)
class Sequence:
    """Normalized pair (f, g) with deg f <= deg g.  Its Jacobian is built on
    first use and kept; equality, hashing and ``repr`` see only f and g."""

    f: Polynomial
    g: Polynomial

    def __post_init__(self):
        ring = self.f.ring
        if ring.nvars != NVARS:
            raise ValueError("sequences are defined in exactly four variables")
        if self.g.ring != ring:
            raise ValueError("f and g live in different rings")
        for p in (self.f, self.g):
            if p.is_zero() or not p.is_homogeneous():
                raise ValueError("sequence entries must be nonzero homogeneous")
            if p.degree < 1:
                raise ValueError("sequence entries must have positive degree")
        if self.f.degree > self.g.degree:
            low, high = self.g, self.f
            object.__setattr__(self, "f", low)
            object.__setattr__(self, "g", high)
        check_characteristic(ring.field.characteristic, self.g.degree)

    @classmethod
    def of(cls, f: Polynomial, g: Polynomial) -> "Sequence":
        return cls(f, g)

    @classmethod
    def parse(cls, ring: PolyRing, f_text: str, g_text: str) -> "Sequence":
        return cls.of(ring.parse(f_text), ring.parse(g_text))

    @property
    def ring(self) -> PolyRing:
        return self.f.ring

    @property
    def df(self) -> int:
        return self.f.degree - 1

    @property
    def dg(self) -> int:
        return self.g.degree - 1

    @property
    def d(self) -> int:
        return self.df + self.dg

    @property
    def m0(self) -> int:
        return self.df**2 + self.dg**2 + self.df * self.dg

    @cached_property
    def gradient_rows(self) -> tuple[tuple[Polynomial, ...], ...]:
        return tuple(tuple(p.partial(j) for j in range(NVARS)) for p in (self.f, self.g))

    @cached_property
    def jacobian_columns(self) -> tuple[Vector, ...]:
        target = self.jacobian_target()
        return tuple(Vector(target, column) for column in zip(*self.gradient_rows))

    @cached_property
    def minors(self) -> dict[tuple[int, int], Polynomial]:
        """The 2x2 minors of the gradient rows by column pair, in lexicographic order."""
        rows = self.gradient_rows
        return {pair: minor(rows, (0, 1), pair) for pair in combinations(range(NVARS), 2)}

    def jacobian_target(self) -> FreeModule:
        return FreeModule(self.ring, (-self.df, -self.dg))

    def source_module(self) -> FreeModule:
        return FreeModule(self.ring, (0,) * NVARS)


def canonical_syzygies(seq: Sequence) -> list[Vector]:
    """Four syzygies of degree d built from the 2x2 minors of the Jacobian.

    Vector i has a zero in slot i and the signed minors m[j,k] of the
    gradient rows on the other columns (``groebner.minor``), arranged so
    that pairing with either gradient row is a 3x3 determinant with a
    repeated row.  That determinant vanishes for every matrix, so only the
    arrangement can go wrong, and it is checked at ``CHECK_POINT`` =
    (1, 2, 8, 128): both pairings of each vector, evaluated there in the
    field, must be 0, else ConsistencyError.  A wrong arrangement pairs to a
    nonzero polynomial of degree at most d + dg, which vanishes at a random
    point of GF(p)^4 with probability at most (d + dg)/p (Schwartz-Zippel);
    here the point is fixed and the random pairs of ``search`` supply the
    chance.  The tests pin the full polynomial identity.  Every minor sits in
    some vector, so all four are zero exactly when the pair is dependent
    (DependentSequenceError); otherwise they bound the initial degree of the
    syzygy module by d.
    """
    rows, m = seq.gradient_rows, seq.minors
    zero, source = seq.ring.zero(), seq.source_module()

    vectors = [
        Vector(source, (zero, m[2, 3], -m[1, 3], m[1, 2])),
        Vector(source, (m[2, 3], zero, -m[0, 3], m[0, 2])),
        Vector(source, (m[1, 3], -m[0, 3], zero, m[0, 1])),
        Vector(source, (m[1, 2], -m[0, 2], m[0, 1], zero)),
    ]
    if all(v.is_zero() for v in vectors):
        raise DependentSequenceError("all Jacobian minors vanish")
    reduce = seq.ring.field.reduce
    at_rows = [[_at_check_point(p) for p in row] for row in rows]
    for v in vectors:
        at_v = [_at_check_point(p) for p in v.entries]
        if any(reduce(sum(map(mul, row, at_v))) for row in at_rows):
            raise ConsistencyError("wedge syzygy failed to annihilate the Jacobian")
    return vectors


class _PointValues(dict):
    """Field values at ``CHECK_POINT`` of packed monomials, filled on first use."""

    def __init__(self, ring: PolyRing):
        self.ring = ring

    def __missing__(self, m: int):
        v = self[m] = self.ring.field.reduce(prod(map(pow, CHECK_POINT, self.ring.unpack(m))))
        return v


_check_point_values = lru_cache(maxsize=None)(_PointValues)


def _at_check_point(p: Polynomial):
    """p at ``CHECK_POINT``, in its field: one lookup and one multiply-add per term."""
    values, field = _check_point_values(p.ring), p.ring.field
    terms, s = integer_terms(p.terms, field)
    return field.of(sum(c * values[m] for m, c in terms), s)


def _entries_at_check_point(v) -> list:
    """The entries of a kernel output at ``CHECK_POINT``, read off its integer terms."""
    base, field = v.order.base, v.module.ring.field
    values, sums = _check_point_values(v.module.ring), [0] * len(base)
    for p, c in v.terms:  # ModuleOrder.unpack, inlined
        comp = COMP_MAX - (p & COMP_MAX)
        sums[comp] += c * values[(p - base[comp]) >> COMP_BITS]
    return [field.of(s, v.d) for s in sums[v.first :]]


def constant_kernel_dimension(seq: Sequence) -> int:
    """Dimension of {v in k^4 : (grad f) . v = (grad g) . v = 0}.

    Linear algebra on the coefficients; counts the trivial directions of the
    pair, independently of any Groebner computation.
    """
    field = seq.ring.field
    rows = []
    for grad in seq.gradient_rows:
        coeffs = [dict(p.terms) for p in grad]
        for mono in sorted({m for c in coeffs for m in c}):
            rows.append([c.get(mono, field.zero) for c in coeffs])
    return NVARS - matrix_rank(rows, field)


@lru_cache(maxsize=None)
def _line_power(ring: PolyRing, k: int) -> list:
    """The integer terms of (x0 + 2*x1 + 3*x2)^k, monomials less ``ring.unit``."""
    line = ring.poly(zip(ring.variables[:3], map(ring.field.of, (1, 2, 3))))
    return [(m - ring.unit, c) for m, c in integer_terms((line**k).terms, ring.field)[0]]


def plane_section(p: Polynomial) -> Polynomial:
    """p on the plane x3 = x0 + 2*x1 + 3*x2, in one pass over its terms:
    c * u * x3^k gives c * u times each term of (x0 + 2*x1 + 3*x2)^k."""
    ring, shift = p.ring, p.ring.shifts[NVARS - 1]
    step = (1 << shift) - (1 << ring.deg_shift)  # dividing by x3, as in Polynomial.partial
    items = []
    for m, c in p.terms:
        k = EXP_MAX - ((m >> shift) & EXP_MAX)
        items += [(m + k * step + q, c * w) for q, w in _line_power(ring, k)]
    return ring.poly(items)


@lru_cache(maxsize=None)
def _grade_three_series(df: int, dg: int) -> tuple[HilbertData, HilbertData]:
    """Cokernel and R/Fitt_0 series when the 2x2 minors have grade 3: then the
    Buchsbaum-Rim complex 0 -> R(-d-df) + R(-d-dg) -> R(-d)^4 -> K -> 0 and the
    Eagon-Northcott complex are exact (Eisenbud, Commutative Algebra, A2.6)."""
    d = df + dg
    coker = ((-df, 1), (-dg, 1), (0, -4), (d, 4), (d + df, -1), (d + dg, -1))
    fitt0 = ((0, 1), (d, -6), (d + df, 4), (d + dg, 4))
    fitt0 += ((d + 2 * df, -1), (2 * d, -1), (d + 2 * dg, -1))
    sums = [{j: n for j, _ in t if (n := sum(c for i, c in t if i == j))} for t in (coker, fitt0)]
    return tuple(hilbert_from_numerator(n, NVARS) for n in sums)


@dataclass
class JacobianAnalysis:
    """Shared Groebner data of one sequence; ``image_gb`` is the basis its
    cokernel series was read from: plane-section basis or image leads."""

    image_gb: list[Vector]
    cokernel_hilbert: HilbertData
    kernel: Submodule
    fitting_hilbert: HilbertData | None = None
    relations: tuple[Vector, ...] = ()


def jacobian_analysis(seq: Sequence) -> JacobianAnalysis:
    """Cokernel Hilbert data and kernel K of the Jacobian map; ``invariants``
    reads dependence off the cokernel's series.

    M/lM of finite length, l = x3 - x0 - 2*x1 - 3*x2, gives dim M <= 1 and
    m = 0.  If the columns on l = 0 (``plane_section``) show it, ``image_gb``
    is their basis and, the 2x2 minors having grade 3, the Buchsbaum-Rim
    complex gives the series (``_grade_three_series``).  No 2x4 matrix of
    these degrees has a larger image in any degree (semicontinuity), so the
    section's basis runs under that image series up to degree d + dg - 2,
    where a certified cokernel on l = 0 vanishes: a degree left short, as on
    every m > 0 pair, fails the certificate, and truncating only enlarges
    the cokernel.  Else the series is read off ``image_gb``, the image leads
    of the elimination that gives K (in the source's twists), and must be
    the closed form if its pole order is <= 1.  Pole order <= 1 gives Fitt_0's
    series and takes K from the wedges w_i, which generate it in degree d;
    a linear entry h gives the relation sum_i (dh/dx_i) w_i = 0.  With
    df, dg >= 1, ``relations`` holds the complex's two, in K's basis.
    """
    columns, target, source = seq.jacobian_columns, seq.jacobian_target(), seq.source_module()
    hq, fitting = _grade_three_series(seq.df, seq.dg)
    bound = _free_hilbert(NVARS, target.twists, lambda t: -hq.function_value(t))
    section = [Vector(target, tuple(map(plane_section, c.entries))) for c in columns]
    try:
        image_gb = groebner_basis(section, span_hilbert=bound, up_to=max(seq.d + seq.dg - 2, 0))
        certified = hilbert_of_quotient(target, image_gb).pole_order <= 1
    except HilbertShortfall:
        certified = False
    if not certified:
        _, syz, leads = module_gb_and_syzygies(columns, degrees=source.twists)
        image_gb = lead_vectors(target, leads)
        read = hilbert_of_quotient(target, image_gb)
        if read.pole_order > 1:
            hq, fitting = read, None
        elif read != hq:
            raise ConsistencyError("image leads disagree with the Hilbert series in closed form")
    relations = ()
    if hq.pole_order <= 1:
        wedges = canonical_syzygies(seq)
        syz = groebner_basis(wedges, up_to=seq.d)
        rank = NVARS - (seq.df == 0) - (seq.dg == 0)
        if len(syz) != rank:
            raise ConsistencyError(f"{len(syz)} wedge syzygies span K_d, want {rank}")
        if rank == NVARS:
            relations = _buchsbaum_rim_relations(seq, wedges, syz)
    return JacobianAnalysis(image_gb, hq, Submodule(source, syz), fitting, relations)


def _buchsbaum_rim_relations(seq: Sequence, wedges, basis) -> tuple[Vector, ...]:
    """The relations sum_i (-1)^i (dh/dx_i) w_i = 0, h = f and g, which hold
    for every pair (3x3 determinants with a repeated row), interreduced in
    the monic reduced basis b_k of K_d: w_i = sum_k c_ik b_k, c_ik being w_i's
    coefficient at the lead of b_k.  Each must give sum_k r_k b_k = 0 at
    ``CHECK_POINT`` in every component, else ConsistencyError."""
    ring, reduce = seq.ring, seq.ring.field.reduce
    leads = [b.order.unpack(b.terms[0][0]) for b in basis]
    coeffs = [[dict(w.entries[comp].terms).get(m, 0) for comp, m in leads] for w in wedges]
    coeffs = [[-c for c in row] if i % 2 else row for i, row in enumerate(coeffs)]
    free, relations = FreeModule(ring, (seq.d,) * len(basis)), []
    for row in seq.gradient_rows:
        entries = [
            ring.poly((m, c[k] * a) for c, p in zip(coeffs, row) if c[k] for m, a in p.terms)
            for k in range(len(basis))
        ]
        relations.append(Vector(free, tuple(entries)))
    relations = groebner_basis(relations, up_to=seq.d + seq.dg)
    at_basis = list(map(_entries_at_check_point, basis))
    for r in relations:
        at_r = _entries_at_check_point(r)
        if any(reduce(sum(map(mul, at_r, column))) for column in zip(*at_basis)):
            raise ConsistencyError("Buchsbaum-Rim relation failed to annihilate the wedge basis")
    return tuple(relations)
