"""Hilbert series, dimension and degree.

The series of a graded quotient F/M depends only on the leading-term module
of a Groebner basis of M, so everything reduces to monomial ideals: each
component contributes a shifted monomial-quotient numerator, computed by the
classical pivot-splitting recursion (Bigatti 1997)

    N(R/I) = z^deg(p) * N(R/(I:p)) + N(R/(I+(p)))

with a single variable x_i as pivot, on packed monomials (see :mod:`.poly`):
x_i | m when its exponent ``~m >> ring.shifts[i] & EXP_MAX`` is nonzero, the
colon then sends m to ``m - x_i + ring.unit``, and I is the unit ideal when
it holds ``ring.unit``.  Numerators are Laurent polynomials in z (twists may
be negative) stored as exponent -> coefficient dicts; the series is
N(z)/(1-z)^n.  Cancelling all (1-z) factors gives the pole order, i.e. the
Krull dimension of the module, and the degree N(1) of its top-dimensional
support; a linear Hilbert polynomial is read off the reduced numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .groebner import ModuleOrder, _integers, ideal_groebner
from .modules import FreeModule, Vector
from .poly import EXP_MAX, Polynomial


def _minimalize_monomials(gens: set[int], ring) -> frozenset[int]:
    mask, guards, kept = ring.exp_mask, ring.guards, []
    for m in sorted(gens):  # ascending, so by degree; k | m as in ring.divides
        if not any(((k & mask | guards) - (m & mask)) & guards == guards for k in kept):
            kept.append(m)
    return frozenset(kept)


def monomial_quotient_numerator(gens: Sequence[int], ring, memo: dict) -> dict[int, int]:
    """Numerator of Hilb(R/I) over (1-z)^n for the monomial ideal I of ring
    that the packed monomials gens generate, memoized in ``memo``."""
    key = _minimalize_monomials(set(gens), ring)
    if key in memo:
        return memo[key]
    if not key:
        result = {0: 1}
    elif ring.unit in key:
        result = {}
    else:
        i = _pick_pivot(key, ring)
        if i is None:
            # pairwise-coprime pure powers: product of (1 - z^d)
            result = {0: 1}
            for m in key:
                d = m >> ring.deg_shift
                result = _laurent_add(result, {k + d: -v for k, v in result.items()})
        else:
            pivot, s, step = ring.variables[i], ring.shifts[i], ring.unit - ring.variables[i]
            colon = [m + step if ~m >> s & EXP_MAX else m for m in key]
            plus = [m for m in key if not ~m >> s & EXP_MAX] + [pivot]
            n_colon = monomial_quotient_numerator(colon, ring, memo)
            n_plus = monomial_quotient_numerator(plus, ring, memo)
            result = _laurent_add(_laurent_shift(n_colon, 1), n_plus)
    memo[key] = result
    return result


def _pick_pivot(gens: frozenset[int], ring) -> int | None:
    """The index of the variable dividing the most generators that are not
    pure powers, the first such; None when every generator is a pure power."""
    counts = [0] * ring.nvars
    for m in gens:
        support = [i for i, s in enumerate(ring.shifts) if ~m >> s & EXP_MAX]
        if len(support) > 1:
            for i in support:
                counts[i] += 1
    i = max(range(ring.nvars), key=counts.__getitem__)
    return i if counts[i] else None


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
    """Per component, the packed monomials of the leads of gb under graded TOP order."""
    order = ModuleOrder(module)
    leads: list[set] = [set() for _ in range(module.rank)]
    for v in gb:
        if terms := _integers(v, order)[0]:
            comp, m = order.unpack(terms[0][0])
            leads[comp].add(m)
    return leads


def hilbert_of_quotient(module: FreeModule, gb: Sequence[Vector]) -> HilbertData:
    """Hilbert data of F/M from a Groebner basis of M under graded TOP order."""
    memo: dict = {}
    numerator: dict[int, int] = {}
    for comp, leads in enumerate(_leads(module, gb)):
        n_c = monomial_quotient_numerator(leads, module.ring, memo)
        numerator = _laurent_add(numerator, _laurent_shift(n_c, module.twists[comp]))
    return hilbert_from_numerator(numerator, module.ring.nvars)


def hilbert_of_ideal_quotient(ring, gens: Sequence[Polynomial]) -> HilbertData:
    """Hilbert data of R/I, from the leads of the basis ``ideal_groebner``
    gives, so a Basis of ring (a saturation, say) is read as it is."""
    leads = {p.terms[0][0] for p in ideal_groebner(ring, gens)}
    return hilbert_from_numerator(monomial_quotient_numerator(leads, ring, {}), ring.nvars)


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
