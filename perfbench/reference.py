"""A fixed computation that measures how fast the host runs right now.

Small shared hosts switch between speed states for seconds at a time
(on a 2-core VM the same work took 25 ms or 44 ms), which moves a run's
median far more than any bound worth gating on.  The benchmark therefore
runs this reference next to every timed op and reports each time scaled
to the reference's speed: ``scaled = measured * REF_MS / reference``.
The reference does the kind of work the kernel does (tuple exponent
keys, dict accumulation and sorting mod p, rational arithmetic) but
calls nothing in ``logtangent``, so no change to the package moves it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Scaled times read as times on a host where the reference takes this long,
# about its time on the 2-vCPU machine the baseline was recorded on.
REF_MS = 20.0

_P = 32003
_rng = random.Random(1)
_FACTORS = [
    {tuple(_rng.randrange(4) for _ in range(4)): _rng.randrange(1, _P) for _ in range(60)}
    for _ in range(3)
]
_FRACTIONS = [Fraction(_rng.randrange(1, 999), _rng.randrange(1, 999)) for _ in range(120)]


def reference_seconds() -> float:
    """Wall time of nine sparse products mod p, sorted, and rational products."""
    t0 = perf_counter()
    for a in _FACTORS:
        for b in _FACTORS:
            out: dict[tuple[int, ...], int] = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                    out[e] = (out.get(e, 0) + ca * cb) % _P
            sorted(out.items(), reverse=True)
    total = Fraction(0)
    for x in _FRACTIONS:
        for y in _FRACTIONS[:10]:
            total += x * y
    return perf_counter() - t0


class ScaledClock:
    """Times calls and scales each to reference speed.

    A reference runs after every call, and the call is scaled by the mean
    of the references on either side of it, so a speed change during the
    call is half seen from each end.
    """

    def __init__(self):
        self._before = reference_seconds()

    def scale(self) -> float:
        """Factor for the call that just ended; runs the next reference."""
        after = reference_seconds()
        factor = 2 * REF_MS / 1000 / (self._before + after)
        self._before = after
        return factor
