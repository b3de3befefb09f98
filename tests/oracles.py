"""Tuple forms of the term orders, kept as references for the packed integers."""


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
