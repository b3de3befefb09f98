"""Hilbert series, Hilbert polynomials, dimension and degree.

The series of a graded quotient F/M depends only on the leading-term module
of a Groebner basis of M, so everything reduces to monomial ideals: each
component contributes a shifted monomial-quotient numerator, computed by the
classical pivot-splitting recursion

    N(R/I) = z^deg(p) * N(R/(I:p)) + N(R/(I+(p)))

with a single variable as pivot.  Numerators are Laurent polynomials in z
(twists may be negative) stored as exponent -> coefficient dicts; the series
is N(z)/(1-z)^n.  Cancelling all (1-z) factors gives the pole order, i.e.
the Krull dimension of the module, the degree N(1) of its top-dimensional
support, and the Hilbert polynomial with exact rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .groebner import ModuleOrder, _as_vectors, ideal_groebner, leading_position
from .modules import FreeModule, Vector
from .poly import ConsistencyError, Polynomial, monomial_divides, monomials_of_degree


def _minimalize_monomials(gens: set[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    kept = []
    for m in sorted(gens, key=lambda e: (sum(e), e)):
        if not any(monomial_divides(k, m) for k in kept):
            kept.append(m)
    return frozenset(kept)


def monomial_quotient_numerator(
    gens: Sequence[tuple[int, ...]], nvars: int, _memo=None
) -> dict[int, int]:
    """Numerator of Hilb(R/I) for a monomial ideal I, over (1-z)^nvars."""
    if _memo is None:
        _memo = {}
    key = _minimalize_monomials(set(gens))
    if key in _memo:
        return _memo[key]
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
            n_colon = monomial_quotient_numerator(colon, nvars, _memo)
            n_plus = monomial_quotient_numerator(plus, nvars, _memo)
            result = _laurent_add(_laurent_shift(n_colon, 1), n_plus)
    _memo[key] = result
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


def _divide_by_one_minus_z(n: dict[int, int]) -> dict[int, int]:
    """Exact quotient N/(1-z); requires N(1) == 0."""
    if sum(n.values()) != 0:
        raise ConsistencyError("division by (1-z) is not exact")
    if not n:
        return {}
    lo, hi = min(n), max(n)
    carry = 0
    out: dict[int, int] = {}
    for k in range(lo, hi + 1):
        carry += n.get(k, 0)
        if carry:
            out[k] = carry
    return out


@dataclass(frozen=True)
class HilbertData:
    """Series and polynomial data of one graded module."""

    nvars: int
    numerator: tuple[tuple[int, int], ...]
    reduced_numerator: tuple[tuple[int, int], ...]
    pole_order: int
    polynomial: tuple[Fraction, ...]  # ascending coefficients in t
    degree: int

    @property
    def dim_projective(self) -> int:
        """Dimension of the projective support; -1 means empty."""
        return self.pole_order - 1

    def polynomial_value(self, t: int) -> Fraction:
        acc = Fraction(0)
        for i, c in enumerate(self.polynomial):
            acc += c * t**i
        return acc

    def function_value(self, t: int) -> int:
        """Honest Hilbert function value from the series, any degree t."""
        total = 0
        for j, c in self.numerator:
            if t - j >= 0:
                total += c * comb(t - j + self.nvars - 1, self.nvars - 1)
        return total

    def function_matches_polynomial_from(self) -> int:
        """Degree bound beyond which function and polynomial agree."""
        if not self.reduced_numerator:
            return 0
        top = max(j for j, _ in self.reduced_numerator)
        return max(top - self.pole_order + 1, 0)


def _binomial_poly(shift: int, m: int) -> list[Fraction]:
    """Coefficients of binom(t + shift, m) as a polynomial in t."""
    coeffs = [Fraction(1)]
    for i in range(m):
        # multiply by (t + shift - i)
        const = Fraction(shift - i)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * const
            nxt[k + 1] += c
        coeffs = nxt
    fact = 1
    for i in range(1, m + 1):
        fact *= i
    return [c / fact for c in coeffs]


def hilbert_from_numerator(numerator: dict[int, int], nvars: int) -> HilbertData:
    n = dict(numerator)
    pole = nvars
    while n and sum(n.values()) == 0:
        n = _divide_by_one_minus_z(n)
        pole -= 1
    if not n:
        pole = 0
    if pole > 0:
        poly = [Fraction(0)] * pole
        for j, c in n.items():
            for k, b in enumerate(_binomial_poly(pole - 1 - j, pole - 1)):
                poly[k] += c * b
        degree = sum(n.values())
    else:
        poly = []
        degree = 0
    return HilbertData(
        nvars=nvars,
        numerator=tuple(sorted(numerator.items())),
        reduced_numerator=tuple(sorted(n.items())),
        pole_order=pole,
        polynomial=tuple(poly),
        degree=degree,
    )


def _leads(module: FreeModule, gb: Sequence[Vector]) -> list[set]:
    """Per component, the exponents of the leads of gb under graded TOP order."""
    order = ModuleOrder(module)
    leads: list[set] = [set() for _ in range(module.rank)]
    for v in gb:
        if not v.is_zero():
            comp, exps = leading_position(v, order)
            leads[comp].add(exps)
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
    """Coefficients (a, b) with P(t) = a*t + b; requires support dim <= 1."""
    if h.pole_order > 2:
        raise ValueError(
            f"support has dimension {h.dim_projective}, Hilbert polynomial not linear"
        )
    a = h.polynomial[1] if len(h.polynomial) > 1 else Fraction(0)
    b = h.polynomial[0] if h.polynomial else Fraction(0)
    if a.denominator != 1 or b.denominator != 1:
        raise ConsistencyError(f"Hilbert polynomial {a}*t + {b} is not integral")
    return (int(a), int(b))


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
