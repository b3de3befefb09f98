"""Reference forms kept to pin the library: the tuple term orders behind the
packed integers, ideal membership, and the capped fixpoint saturation."""

from logtangent.groebner import (
    _as_vectors,
    _ideal_module,
    ideal_colon,
    ideal_groebner,
    ideal_intersection,
    normal_form,
)
from logtangent.modules import Vector

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
