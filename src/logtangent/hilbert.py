"""Hilbert series, dimension and degree.

The series of a graded quotient F/M depends only on the leading-term module
of a Groebner basis of M, so everything reduces to monomial ideals: each
component contributes a shifted monomial-quotient numerator, computed by the
classical pivot-splitting recursion

    N(R/I) = z^deg(p) * N(R/(I:p)) + N(R/(I+(p)))

with a single variable as pivot.  Numerators are Laurent polynomials in z
(twists may be negative) stored as exponent -> coefficient dicts; the series
is N(z)/(1-z)^n.  Cancelling all (1-z) factors gives the pole order, i.e.
the Krull dimension of the module, and the degree N(1) of its top-dimensional
support; a linear Hilbert polynomial is read off the reduced numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .groebner import ModuleOrder, _as_vectors, ideal_groebner
from .modules import FreeModule, Vector
from .poly import Polynomial, monomial_divides, monomials_of_degree


def _minimalize_monomials(gens: set[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    kept = []
    for m in sorted(gens, key=lambda e: (sum(e), e)):
        if not any(monomial_divides(k, m) for k in kept):
            kept.append(m)
    return frozenset(kept)


def monomial_quotient_numerator(
    gens: Sequence[tuple[int, ...]], nvars: int, memo: dict
) -> dict[int, int]:
    """Numerator of Hilb(R/I) for a monomial ideal I, over (1-z)^nvars, memoized in ``memo``."""
    key = _minimalize_monomials(set(gens))
    if key in memo:
        return memo[key]
    if not key:
        result = {0: 1}
    elif any(sum(m) == 0 for m in key):
        result = {}
    else:
        pivot = _pick_pivot(key)
        if pivot is None:
            # pairwise-coprime pure powers: product of (1 - z^d)
            result = {0: 1}
            for m in key:
                result = _laurent_mul(result, {0: 1, sum(m): -1})
        else:
            colon = [
                tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(m))
                for m in key
            ]
            var = tuple(1 if i == pivot else 0 for i in range(nvars))
            plus = [m for m in key if m[pivot] == 0] + [var]
            n_colon = monomial_quotient_numerator(colon, nvars, memo)
            n_plus = monomial_quotient_numerator(plus, nvars, memo)
            result = _laurent_add(_laurent_shift(n_colon, 1), n_plus)
    memo[key] = result
    return result


def _pick_pivot(gens: frozenset[tuple[int, ...]]) -> int | None:
    """A variable occurring in some non-pure-power generator, most uses first."""
    counts: dict[int, int] = {}
    for m in gens:
        support = [i for i, e in enumerate(m) if e > 0]
        if len(support) > 1:
            for i in support:
                counts[i] = counts.get(i, 0) + 1
    if not counts:
        return None
    return max(sorted(counts), key=lambda i: counts[i])


def _laurent_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _laurent_shift(a: dict[int, int], by: int) -> dict[int, int]:
    return {k + by: v for k, v in a.items()}


def _laurent_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


@dataclass(frozen=True)
class HilbertData:
    """Series data of one graded module."""

    nvars: int
    numerator: tuple[tuple[int, int], ...]
    reduced_numerator: tuple[tuple[int, int], ...]
    pole_order: int
    degree: int

    @property
    def dim_projective(self) -> int:
        """Dimension of the projective support; -1 means empty."""
        return self.pole_order - 1

    def function_value(self, t: int) -> int:
        """Honest Hilbert function value from the series, any degree t."""
        total = 0
        for j, c in self.numerator:
            if t - j >= 0:
                total += c * comb(t - j + self.nvars - 1, self.nvars - 1)
        return total


def hilbert_from_numerator(numerator: dict[int, int], nvars: int) -> HilbertData:
    n = dict(numerator)
    pole = nvars
    while n and sum(n.values()) == 0:
        # N(1) = 0, so N/(1-z) is exact: the running sums of N
        carry, quotient = 0, {}
        for k in range(min(n), max(n) + 1):
            carry += n.get(k, 0)
            if carry:
                quotient[k] = carry
        n, pole = quotient, pole - 1
    if not n:
        pole = 0
    return HilbertData(
        nvars=nvars,
        numerator=tuple(sorted(numerator.items())),
        reduced_numerator=tuple(sorted(n.items())),
        pole_order=pole,
        degree=sum(n.values()) if pole > 0 else 0,
    )


def _leads(module: FreeModule, gb: Sequence[Vector]) -> list[set]:
    """Per component, the exponents of the leads of gb under graded TOP order.

    Within a component the module order is the ring's, so an entry's first
    term leads it, and the vector's lead is the greatest of those.
    """
    order = ModuleOrder(module)
    leads: list[set] = [set() for _ in range(module.rank)]
    for v in gb:
        packed = [order.pack(c, p.terms[0][0]) for c, p in enumerate(v.entries) if p.terms]
        if packed:
            comp, m = order.unpack(max(packed))
            leads[comp].add(module.ring.unpack(m))
    return leads


def hilbert_of_quotient(module: FreeModule, gb: Sequence[Vector]) -> HilbertData:
    """Hilbert data of F/M from a Groebner basis of M under graded TOP order."""
    memo: dict = {}
    numerator: dict[int, int] = {}
    for comp, leads in enumerate(_leads(module, gb)):
        n_c = monomial_quotient_numerator(leads, module.ring.nvars, memo)
        numerator = _laurent_add(numerator, _laurent_shift(n_c, module.twists[comp]))
    return hilbert_from_numerator(numerator, module.ring.nvars)


def hilbert_of_ideal_quotient(ring, gens: Sequence[Polynomial]) -> HilbertData:
    """Hilbert data of R/I, from the leads of the basis ``ideal_groebner``
    gives, so a Basis of ring (a saturation, say) is read as it is."""
    gb = ideal_groebner(ring, gens)
    return hilbert_of_quotient(FreeModule(ring, (0,)), _as_vectors(ring, gb))


def dimension_degree(ring, gens: Sequence[Polynomial]) -> tuple[int, int]:
    """Projective dimension and degree of V(I); (-1, 0) for an empty scheme.

    Through ``hilbert_of_ideal_quotient``, so a Basis costs no Groebner run.
    """
    h = hilbert_of_ideal_quotient(ring, gens)
    if h.pole_order == 0:
        return (-1, 0)
    return (h.dim_projective, h.degree)


def linear_hilbert_polynomial(h: HilbertData) -> tuple[int, int]:
    """Coefficients (a, b) with P(t) = a*t + b; requires support dim <= 1.

    With reduced numerator sum_j c_j z^j over (1-z)^r, the function is
    sum_j c_j * C(t - j + r - 1, r - 1) from t = top - r + 1 on: for r = 2
    that is degree * t + sum_j c_j (1 - j), for r = 1 the constant degree,
    and for r = 0 (degree 0) zero.
    """
    if h.pole_order > 2:
        raise ValueError(
            f"support has dimension {h.dim_projective}, Hilbert polynomial not linear"
        )
    if h.pole_order == 2:
        return (h.degree, sum(c * (1 - j) for j, c in h.reduced_numerator))
    return (0, h.degree)


def quotient_dimension_by_counting(
    module: FreeModule, gb: Sequence[Vector], t: int
) -> int:
    """dim_k (F/M)_t by monomial enumeration; independent cross-check path."""
    total = 0
    for comp, leads in enumerate(_leads(module, gb)):
        d = t - module.twists[comp]
        if d < 0:
            continue
        for mono in monomials_of_degree(module.ring.nvars, d):
            if not any(monomial_divides(lead, mono) for lead in leads):
                total += 1
    return total
