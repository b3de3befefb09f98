"""Pairs of homogeneous polynomials in four variables and their Jacobian data.

A sequence is a pair (f, g) of nonzero homogeneous polynomials in
x0..x3 with deg f = d_f + 1 <= deg g = d_g + 1 (the constructor swaps to
enforce this).  The associated Jacobian matrix maps R^4 to R(d_f)+R(d_g);
its kernel is the syzygy module whose sheaf is the logarithmic tangent
sheaf of the pair, its cokernel the torsion sheaf carrying the m-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Submodule, groebner_basis, minor, module_gb_and_syzygies
from .hilbert import HilbertData, hilbert_of_quotient
from .linalg import matrix_rank
from .modules import FreeModule, Vector, apply_columns
from .poly import ConsistencyError, Polynomial, PolyRing

NVARS = 4


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
    """Normalized pair (f, g) with deg f <= deg g."""

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

    def gradient_rows(self) -> list[list[Polynomial]]:
        return [
            [self.f.partial(j) for j in range(NVARS)],
            [self.g.partial(j) for j in range(NVARS)],
        ]

    def jacobian_target(self) -> FreeModule:
        return FreeModule(self.ring, (-self.df, -self.dg))

    def jacobian_columns(self) -> list[Vector]:
        target = self.jacobian_target()
        return [Vector(target, column) for column in zip(*self.gradient_rows())]

    def source_module(self) -> FreeModule:
        return FreeModule(self.ring, (0,) * NVARS)


def canonical_syzygies(seq: Sequence) -> list[Vector]:
    """Four syzygies of degree d built from the 2x2 minors of the Jacobian.

    Vector i has a zero in slot i and the signed minors m[j,k] of the
    gradient rows on the other columns (``groebner.minor``), arranged so
    that pairing with either gradient row is a 3x3 determinant with a
    repeated row.  Every minor sits in some vector, so all four are zero
    exactly when the pair is dependent (DependentSequenceError); otherwise
    they bound the initial degree of the syzygy module by d.
    """
    rows = seq.gradient_rows()
    m = {(i, j): minor(rows, (0, 1), (i, j)) for j in range(NVARS) for i in range(j)}
    zero = seq.ring.zero()
    source = seq.source_module()

    vectors = [
        Vector(source, (zero, m[2, 3], -m[1, 3], m[1, 2])),
        Vector(source, (m[2, 3], zero, -m[0, 3], m[0, 2])),
        Vector(source, (m[1, 3], -m[0, 3], zero, m[0, 1])),
        Vector(source, (m[1, 2], -m[0, 2], m[0, 1], zero)),
    ]
    if all(v.is_zero() for v in vectors):
        raise DependentSequenceError("all Jacobian minors vanish")
    columns = seq.jacobian_columns()
    for v in vectors:
        if not v.is_zero() and not apply_columns(columns, v.entries).is_zero():
            raise ConsistencyError("wedge syzygy failed to annihilate the Jacobian")
    return vectors


def constant_kernel_dimension(seq: Sequence) -> int:
    """Dimension of {v in k^4 : (grad f) . v = (grad g) . v = 0}.

    Linear algebra on the coefficients; counts the trivial directions of the
    pair, independently of any Groebner computation.
    """
    field = seq.ring.field
    rows = []
    for grad in seq.gradient_rows():
        coeffs = [dict(p.terms) for p in grad]
        for mono in sorted({m for c in coeffs for m in c}):
            rows.append([c.get(mono, field.zero) for c in coeffs])
    if not rows:
        return NVARS
    return NVARS - matrix_rank(rows, field)


@dataclass
class JacobianAnalysis:
    """Shared Groebner data of one sequence: image basis, cokernel series, kernel."""

    target: FreeModule
    columns: list[Vector]
    image_gb: list[Vector]
    cokernel_hilbert: HilbertData
    kernel: Submodule


def jacobian_analysis(seq: Sequence) -> JacobianAnalysis:
    """Image basis, cokernel Hilbert data and kernel K of the Jacobian map;
    ``invariants`` reads dependence off the cokernel's series.

    Pole order <= 1 means m = 0.  The 2x2 minors then have grade 3, so the
    Buchsbaum-Rim complex is exact (Eisenbud, Commutative Algebra, A2.10)
    and the wedge syzygies w_i generate K in degree d.  A linear entry h
    gives the constant relation sum_i (dh/dx_i) w_i = 0, so K_d has rank 4
    less the number of linear entries.  Otherwise one elimination gives K.
    """
    columns, target, source = seq.jacobian_columns(), seq.jacobian_target(), seq.source_module()
    image_gb = groebner_basis(columns)
    hq = hilbert_of_quotient(target, image_gb)
    if hq.pole_order <= 1:
        syz = groebner_basis(canonical_syzygies(seq), up_to=seq.d)
        rank = NVARS - (seq.df == 0) - (seq.dg == 0)
        if len(syz) != rank:
            raise ConsistencyError(f"{len(syz)} wedge syzygies span K_d, want {rank}")
    else:
        # the syzygies live in a free module with the source's twists
        _, syz = module_gb_and_syzygies(columns, degrees=source.twists)
    return JacobianAnalysis(target, columns, image_gb, hq, Submodule(source, syz))
