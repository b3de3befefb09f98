"""Reference forms kept to pin the library: the tuple term orders behind the
packed integers, ideal membership, the capped fixpoint saturation, and the
colon and intersection read off a full syzygy module."""

from logtangent.groebner import (
    _as_vectors,
    _ideal_module,
    ideal_colon,
    ideal_groebner,
    ideal_intersection,
    normal_form,
    syzygy_basis,
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
    _, syz = syzygy_basis(_as_vectors(ring, a) + _as_vectors(ring, b))
    out = []
    for s in syz:
        p = ring.zero()
        for c, gen in zip(s.entries[: len(a)], a):
            if not c.is_zero():
                p = p + c * gen
        if not p.is_zero():
            out.append(p)
    return out
